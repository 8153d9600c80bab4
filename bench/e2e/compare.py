#!/usr/bin/env python3
"""Compares two sets of end-to-end benchmark runs (see bench/e2e/README.md).

  python3 bench/e2e/compare.py BASE.json CHANGE.json

BASE and CHANGE are results files run.py appended to, normally the parent
commit's and the change's. Runs are paired by workload and seed. The
comparison is refused unless, for every workload, both sides ran the
same seeds once each, every run measured for BENCHMARK.json's
run_seconds, and the two runs of each pair ran back to back (sorted by
start time, the runs fall into base/change pairs of one seed), so that
drift of the machine cannot favour one side. For every workload and
end-to-end metric, with the bound and direction BENCHMARK.json gives it:

  REGRESSION  the change's median is worse than the base's by more than
              the bound (a share of the base median);
  gain        at least 10 pairs, the change wins at least 9 in 10 of them
              (ties count for neither), and the medians differ by more
              than the base's quartile distance;
  unresolved  otherwise, when the base's or the change's spread (quartile
              distance over median) exceeds the bound, unless every
              change run beats every base run;
  flat        none of the above.

Per-layer metrics of traced runs, when both files have them, are listed
with their medians so a regression can be traced to its layer. The exit
code is 1 when any metric regressed, 2 when the runs cannot be compared,
else 0.
"""
import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load(path):
    return json.loads(Path(path).read_text())["runs"]


def paired(base, change, spec, workload):
    """The untraced runs of `workload` as [(base run, change run)] in time
    order; raises ValueError when they cannot be compared."""
    sides = {}
    for side, runs in (("base", base), ("change", change)):
        runs = [r for r in runs if r["workload"] == workload and not r["trace"]]
        seeds = [r["seed"] for r in runs]
        if len(set(seeds)) != len(seeds):
            raise ValueError(f"{workload}: {side} ran a seed more than once")
        lengths = {r["seconds"] for r in runs} - {spec["run_seconds"]}
        if lengths:
            raise ValueError(f"{workload}: {side} has runs of {sorted(lengths)} s, "
                             f"not run_seconds = {spec['run_seconds']}")
        sides[side] = runs
    if sorted(r["seed"] for r in sides["base"]) != sorted(
            r["seed"] for r in sides["change"]):
        raise ValueError(f"{workload}: base and change ran different seeds")
    timeline = sorted([(r["started"], "base", r) for r in sides["base"]] +
                      [(r["started"], "change", r) for r in sides["change"]],
                      key=lambda t: t[0])
    pairs = []
    for (_, s1, r1), (_, s2, r2) in zip(timeline[::2], timeline[1::2]):
        if s1 == s2 or r1["seed"] != r2["seed"]:
            raise ValueError(f"{workload}: seed {r1['seed']} of {s1} did not run "
                             f"back to back with the other side's; run base and "
                             f"change one seed at a time")
        pairs.append((r1, r2) if s1 == "base" else (r2, r1))
    return pairs


def quartile_distance(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return q[2] - q[0]


def verdict(base, change, bound, lower_is_better):
    """base[i] and change[i] are the values of pair i."""
    def better(x, y):  # x better than y
        return x < y if lower_is_better else x > y

    med_b, med_c = statistics.median(base), statistics.median(change)
    iqr_b = quartile_distance(base)
    worse = (med_c - med_b) / med_b if med_b else 0.0
    if not lower_is_better:
        worse = -worse
    spread = max(iqr_b / med_b if med_b else 0.0,
                 quartile_distance(change) / med_c if med_c else 0.0)
    wins = sum(1 for b, c in zip(base, change) if better(c, b))
    if worse > bound:
        label = "REGRESSION"
    elif (len(base) >= 10 and wins >= 0.9 * len(base) and
          better(med_c, med_b) and abs(med_c - med_b) > iqr_b):
        label = "gain"
    elif spread > bound:
        label = ("better in every run" if all(better(c, b) for c in change
                                             for b in base)
                 else "unresolved")
    else:
        label = "flat"
    return label, med_b, med_c, worse, spread, wins


def layer_medians(runs, workload):
    out = {}
    for r in runs:
        if r["workload"] == workload and r["trace"]:
            for name, m in r["metrics"].items():
                out.setdefault(name, []).append(m["value"])
    return out


def main():
    if len(sys.argv) != 3:
        print(__doc__)
        return 2
    spec = json.loads(SPEC.read_text())
    base, change = load(sys.argv[1]), load(sys.argv[2])
    try:
        pairs = {w["name"]: paired(base, change, spec, w["name"])
                 for w in spec["workloads"]}
    except (ValueError, KeyError) as e:
        print(f"compare.py: cannot compare: {e}")
        return 2

    regressed = False
    print(f"{'workload':20} {'metric':16} {'base':>12} {'change':>12} "
          f"{'worse':>8} {'spread':>7} {'bound':>6} {'wins':>6}  verdict")
    for name, ps in pairs.items():
        if not ps:
            continue
        base_first = sum(1 for b, c in ps if b["started"] < c["started"])
        print(f"{name:20} {len(ps)} pairs, base ran first in {base_first}")
        for m in spec["end_to_end"]:
            b = [p[0]["metrics"][m["name"]]["value"] for p in ps]
            c = [p[1]["metrics"][m["name"]]["value"] for p in ps]
            label, mb, mc, worse, spread, wins = verdict(
                b, c, m["bound"], m["better"] == "lower")
            regressed |= label == "REGRESSION"
            print(f"{name:20} {m['name']:16} {mb:12.5g} {mc:12.5g} "
                  f"{worse:+8.1%} {spread:7.1%} {m['bound']:6.0%} "
                  f"{wins:>3}/{len(ps):<2}  {label}")

    header = True
    for w in spec["workloads"]:
        b, c = layer_medians(base, w["name"]), layer_medians(change, w["name"])
        for m in spec["per_layer"]:
            vb, vc = b.get(m["name"]), c.get(m["name"])
            if not vb or not vc or not (any(vb) or any(vc)):
                continue
            if header:
                print(f"\nper-layer medians (traced runs)\n{'workload':20} "
                      f"{'metric':34} {'base':>12} {'change':>12}")
                header = False
            print(f"{w['name']:20} {m['name']:34} {statistics.median(vb):12.5g} "
                  f"{statistics.median(vc):12.5g} {m['unit']}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
