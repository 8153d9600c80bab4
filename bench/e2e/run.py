#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (see bench/e2e/README.md).

Run from the repository root:

  python3 bench/e2e/run.py --seed 1                  # every workload once
  python3 bench/e2e/run.py --seed 1 --runs 10        # seeds 1..10
  python3 bench/e2e/run.py --seed 1 --trace          # per-layer (traced) run
  python3 bench/e2e/run.py --workload tpch_params --seed 3 --seconds 20 --trace 0

The first call configures and builds bench/e2e, and through it the
dissodb library, under $CARGO_TARGET_DIR (default .bench_build). Each
workload runs in its own process for BENCHMARK.json's run_seconds
(--seconds is accepted only with that value). Every run prints one
`workload metric value unit` line per metric and is appended to --out
(default e2e_results.json in the build directory), which compare.py
reads. With --trace each workload's spans go to e2e_trace_<workload>.json
next to the e2e_bench binary, checked by bench/check_trace.py. The last
stdout line is one JSON object with the keys correct, attempted, failed
and metrics: for a single workload run, every metric BENCHMARK.json
names for the mode (end_to_end untraced, per_layer traced); for several,
the median of each <workload>/<metric> over the runs. The exit code is 0
only when every run built, finished and matched its oracles.
"""
import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
# bench/check_trace.py was written for one engine execution and also
# requires an 'execute' root and an 'evaluate' stage by name; a run file
# holds many requests, and RunWithGuarantees traces name neither. Those
# checks come after every nesting check, so these failures still mean the
# span tree nested correctly.
NAME_ONLY_FAILURES = ("FAIL: missing the root 'execute ...' span",
                      "FAIL: missing the 'evaluate' stage span")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_command(cmd, timeout, **kwargs):
    """Runs cmd in its own process group; kills the whole group on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    return proc.returncode, out


def build(build_dir):
    e2e_dir = build_dir / "e2e"
    if not (e2e_dir / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(ROOT / "bench" / "e2e"), "-B", str(e2e_dir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        code, _ = run_command(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr)
        if code != 0:
            raise RuntimeError("cmake configure failed")
    code, _ = run_command(["cmake", "--build", str(e2e_dir), "--target",
                           "e2e_bench", "--parallel", str(os.cpu_count() or 1)],
                          BUILD_TIMEOUT_S, stdout=sys.stderr)
    if code != 0:
        raise RuntimeError("build failed")
    return e2e_dir / "e2e_bench"


def check_trace(path):
    checker = ROOT / "bench" / "check_trace.py"
    if not checker.exists():
        return True, "bench/check_trace.py not present; nesting unchecked"
    code, out = run_command([sys.executable, str(checker), str(path)],
                            RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
    verdict = out.strip().splitlines()[-1] if out.strip() else ""
    return code == 0 or verdict in NAME_ONLY_FAILURES, verdict


def run_one(binary, spec, workload, seed, trace):
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    seconds = spec["run_seconds"]
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    started = time.time()
    # The binary writes its trace file into its working directory.
    code, out = run_command(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE,
                            text=True, cwd=binary.parent)
    lines = out.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload}: no result (exit {code})")
    result = json.loads(lines[-1])
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            raise RuntimeError(f"{workload}: metric {m['name']} missing or "
                               f"not in {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    correct = code == 0 and result["correct"]
    if trace:
        ok, verdict = check_trace(binary.parent / f"e2e_trace_{workload}.json")
        log(f"{workload}: check_trace: {verdict}")
        correct = correct and ok
    for note in result["notes"]:
        log(f"{workload}: {note}")
    return {"workload": workload, "seed": seed, "seconds": seconds,
            "trace": trace, "started": started, "correct": correct,
            "attempted": result["attempted"], "failed": result["failed"],
            "samples": result["samples"], "metrics": metrics}


def main():
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "CMakeLists.txt").exists() or not (ROOT / "src").is_dir():
        log(f"run.py: no dissodb source tree at {ROOT}; nothing to build")
        return 2
    spec = json.loads(spec_path.read_text())
    names = [w["name"] for w in spec["workloads"]]

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=names,
                    help="one workload (default: all)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--runs", type=int, default=1,
                    help="runs per workload, with seeds seed..seed+runs-1")
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"],
                    help="must equal run_seconds: every run of the benchmark "
                         "measures for the same time")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=(0, 1))
    ap.add_argument("--out", help="results file the runs are appended to "
                    "(default: e2e_results.json in the build directory)")
    args = ap.parse_args()
    if args.seconds != spec["run_seconds"]:
        log(f"run.py: --seconds must be {spec['run_seconds']}, the "
            f"run_seconds of BENCHMARK.json")
        return 2

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()
    try:
        binary = build(build_dir)
    except (RuntimeError, subprocess.TimeoutExpired) as e:
        log(f"run.py: {e}")
        return 2
    out_path = Path(args.out) if args.out else build_dir / "e2e_results.json"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    try:
        saved = json.loads(out_path.read_text())["runs"]
    except FileNotFoundError:
        saved = []
    except (ValueError, KeyError) as e:
        log(f"run.py: {out_path} is not a results file: {e}")
        return 2

    runs = []
    for workload in [args.workload] if args.workload else names:
        for i in range(args.runs):
            try:
                r = run_one(binary, spec, workload, args.seed + i, args.trace)
            except (RuntimeError, ValueError, KeyError,
                    subprocess.TimeoutExpired) as e:
                log(f"run.py: {e}")
                return 2
            runs.append(r)
            for name, m in r["metrics"].items():
                print(f"{workload} {name} {m['value']:.6g} {m['unit']}",
                      flush=True)
            print(f"{workload} samples {r['samples']} requests "
                  f"(seed {r['seed']}, {'' if r['correct'] else 'NOT '}correct)",
                  flush=True)
            saved.append(r)
            out_path.write_text(json.dumps({"runs": saved}, indent=1) + "\n")

    if len(runs) == 1:
        metrics = runs[0]["metrics"]
    else:
        metrics = {}
        for r in runs:
            for name, m in r["metrics"].items():
                metrics.setdefault(f"{r['workload']}/{name}", []).append(m)
        metrics = {k: {"value": statistics.median(m["value"] for m in v),
                       "unit": v[0]["unit"]} for k, v in metrics.items()}
    correct = all(r["correct"] for r in runs)
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in runs),
                      "failed": sum(r["failed"] for r in runs),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
