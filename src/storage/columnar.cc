#include "src/storage/columnar.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdlib>
#include <cstring>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "src/common/simd.h"
#include "src/serve/scheduler.h"

#if DISSODB_SIMD_COMPILED
#include <immintrin.h>
#endif

namespace dissodb {

namespace {

/// Large transient buffers (hash-index stores, growing group vectors) are
/// allocated and freed once per operator call. glibc's mmap threshold only
/// ratchets up when big flat blocks are freed back; chunked column storage
/// never frees anything larger than one chunk, so without tuning every
/// operator call pays fresh mmaps, minor faults and page zeroing for tens
/// of megabytes of scratch. Raise the thresholds once (standard database-
/// engine practice) so operator scratch stays in the heap and is reused
/// across calls. Explicit MALLOC_* environment overrides win.
[[maybe_unused]] const bool g_malloc_tuned = [] {
#if defined(__GLIBC__) && defined(M_MMAP_THRESHOLD)
  if (std::getenv("MALLOC_MMAP_THRESHOLD_") == nullptr &&
      std::getenv("MALLOC_TRIM_THRESHOLD_") == nullptr) {
    mallopt(M_MMAP_THRESHOLD, 32 << 20);
    mallopt(M_TRIM_THRESHOLD, 32 << 20);
  }
#endif
  return true;
}();

/// Test-overridable default chunk capacity. Read once per Column
/// construction (each column carries its own shift/mask), so changing it
/// never affects existing columns.
std::atomic<size_t> g_default_chunk_capacity{Column::kDefaultChunkCapacity};

uint32_t ShiftFor(size_t cap) {
  assert(cap >= 2 && (cap & (cap - 1)) == 0);
  uint32_t s = 0;
  while ((size_t{1} << s) < cap) ++s;
  return s;
}

/// Raw base pointer of every chunk of `c`, so gather loops pay one indexed
/// load per element instead of a shared_ptr dereference.
std::vector<const uint64_t*> ChunkBases(const Column& c) {
  std::vector<const uint64_t*> bases(c.num_chunks());
  for (size_t ci = 0; ci < c.num_chunks(); ++ci) {
    bases[ci] = c.ChunkBits(ci).data();
  }
  return bases;
}

#if DISSODB_SIMD_COMPILED

// ---------------------------------------------------------------------------
// AVX2 kernels (runtime-dispatched; see src/common/simd.h). Every kernel is
// elementwise-exact against its scalar fallback: hashing is pure integer
// lane arithmetic.
// ---------------------------------------------------------------------------

/// Low 64 bits of a 64x64 multiply by the constant `c`, per lane. AVX2 has
/// no 64-bit multiply; compose it from 32x32 partial products (the
/// standard lo*lo + ((lo*hi + hi*lo) << 32) decomposition, exact mod 2^64).
__attribute__((target("avx2"))) inline __m256i Mul64Const(__m256i a,
                                                          uint64_t c) {
  const __m256i bl =
      _mm256_set1_epi64x(static_cast<int64_t>(c & 0xffffffffULL));
  const __m256i bh = _mm256_set1_epi64x(static_cast<int64_t>(c >> 32));
  const __m256i ahi = _mm256_srli_epi64(a, 32);
  const __m256i ll = _mm256_mul_epu32(a, bl);
  const __m256i lh = _mm256_mul_epu32(a, bh);
  const __m256i hl = _mm256_mul_epu32(ahi, bl);
  return _mm256_add_epi64(ll,
                          _mm256_slli_epi64(_mm256_add_epi64(lh, hl), 32));
}

/// Four Mix64 (splitmix64 finalizer) lanes; bit-identical to Mix64().
__attribute__((target("avx2"))) inline __m256i Mix64x4(__m256i x) {
  x = _mm256_add_epi64(
      x, _mm256_set1_epi64x(static_cast<int64_t>(0x9e3779b97f4a7c15ULL)));
  x = Mul64Const(_mm256_xor_si256(x, _mm256_srli_epi64(x, 30)),
                 0xbf58476d1ce4e5b9ULL);
  x = Mul64Const(_mm256_xor_si256(x, _mm256_srli_epi64(x, 27)),
                 0x94d049bb133111ebULL);
  return _mm256_xor_si256(x, _mm256_srli_epi64(x, 31));
}

/// out[k] = HashCombine(out[k], Mix64(tag_mix ^ bits[k])), 4 lanes at a
/// time. With `init`, out[k]'s prior value is replaced by kHashSeed (the
/// first key column's pass writes the vector instead of read-modify-
/// writing it). Each output element depends only on its own input, so the
/// fixed lane order is trivially deterministic and identical to scalar.
__attribute__((target("avx2"))) void HashCombineAvx2(const uint64_t* bits,
                                                     size_t n,
                                                     uint64_t tag_mix,
                                                     uint64_t* out,
                                                     bool init) {
  const __m256i tm = _mm256_set1_epi64x(static_cast<int64_t>(tag_mix));
  const __m256i gold =
      _mm256_set1_epi64x(static_cast<int64_t>(0x9e3779b97f4a7c15ULL));
  const __m256i seed =
      _mm256_set1_epi64x(static_cast<int64_t>(kHashSeed));
  size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    const __m256i b =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bits + k));
    const __m256i v = Mix64x4(_mm256_xor_si256(tm, b));
    __m256i h =
        init ? seed
             : _mm256_loadu_si256(reinterpret_cast<const __m256i*>(out + k));
    // HashCombine: h ^= v + GOLD + (h << 6) + (h >> 2).
    const __m256i t = _mm256_add_epi64(
        _mm256_add_epi64(v, gold),
        _mm256_add_epi64(_mm256_slli_epi64(h, 6), _mm256_srli_epi64(h, 2)));
    h = _mm256_xor_si256(h, t);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + k), h);
  }
  for (; k < n; ++k) {
    size_t h = init ? kHashSeed : out[k];
    HashCombine(&h, Mix64(tag_mix ^ bits[k]));
    out[k] = h;
  }
}

#endif  // DISSODB_SIMD_COMPILED

/// Gathers `n` payloads selected by `sel` into `out` and merges their
/// min/max into *mn_io / *mx_io (zone-map maintenance).
///
/// A scalar loop with a fixed software-prefetch lookahead: the selection
/// is random-access into a source that usually exceeds L2, and issuing the
/// load address kGatherLookahead elements early overlaps the misses.
/// Hardware gathers (AVX2 vpgatherqq) measured 1.6-6.5x slower than this
/// loop at every size tried, so there is no vector path.
void GatherWithZoneMap(const uint64_t* const* bases, uint32_t shift,
                       uint64_t mask, const uint32_t* sel, size_t n,
                       uint64_t* out, uint64_t* mn_io, uint64_t* mx_io) {
  uint64_t mn = *mn_io;
  uint64_t mx = *mx_io;
  constexpr size_t kGatherLookahead = 16;
  const size_t main = n > kGatherLookahead ? n - kGatherLookahead : 0;
  size_t k = 0;
  for (; k < main; ++k) {
    const uint32_t rp = sel[k + kGatherLookahead];
    __builtin_prefetch(&bases[rp >> shift][rp & mask], 0, 1);
    const uint32_t r = sel[k];
    const uint64_t b = bases[r >> shift][r & mask];
    out[k] = b;
    mn = std::min(mn, b);
    mx = std::max(mx, b);
  }
  for (; k < n; ++k) {
    const uint32_t r = sel[k];
    const uint64_t b = bases[r >> shift][r & mask];
    out[k] = b;
    mn = std::min(mn, b);
    mx = std::max(mx, b);
  }
  *mn_io = mn;
  *mx_io = mx;
}

}  // namespace

void Column::SetDefaultChunkCapacityForTesting(size_t cap) {
  assert(cap >= 2 && (cap & (cap - 1)) == 0);
  g_default_chunk_capacity.store(cap, std::memory_order_relaxed);
}

size_t Column::default_chunk_capacity() {
  return g_default_chunk_capacity.load(std::memory_order_relaxed);
}

Column::Column() {
  const size_t cap = default_chunk_capacity();
  chunk_shift_ = ShiftFor(cap);
  chunk_mask_ = cap - 1;
}

Column::Column(ValueType type) : Column() { type_ = type; }

void Column::Reserve(size_t n) {
  if (n <= size_ || chunks_.empty()) return;
  ChunkPtr& tail = chunks_.back();
  // Reserving is an optimization only: never detach a shared tail (the
  // eventual append will), and a sealed tail has nothing to grow.
  if (tail.use_count() > 1 || tail->bits.size() > chunk_mask_) return;
  tail->bits.reserve(
      std::min(chunk_capacity(), tail->bits.size() + (n - size_)));
  if (tagged_) tail->tags.reserve(tail->bits.capacity());
  SyncTailBase();
}

void Column::Append(Value v) {
  if (size_ == 0 && !tagged_) {
    type_ = v.type();
  } else if (v.type() != type_ && !tagged_) {
    Demote(v.type());
  }
  Chunk* tail = MutableTail();
  if (tagged_) tail->tags.push_back(static_cast<uint8_t>(v.type()));
  const uint64_t bits = v.RawBits();
  tail->bits.push_back(bits);
  if (bits < tail->min_bits) tail->min_bits = bits;
  if (bits > tail->max_bits) tail->max_bits = bits;
  ++size_;
  SyncTailBase();
}

void Column::Demote(ValueType incoming) {
  (void)incoming;
  tagged_ = true;
  for (ChunkPtr& c : chunks_) {
    if (c.use_count() > 1) c = std::make_shared<Chunk>(*c);
    c->tags.assign(c->bits.size(), static_cast<uint8_t>(type_));
  }
  RebuildBases();
}

void Column::AppendGather(const Column& src, std::span<const uint32_t> idx) {
  if (size_ == 0 && !tagged_) type_ = src.type_;
  // Early out after type adoption: a fully pruned selection must not touch
  // src's base-pointer table or detach the tail chunk.
  if (idx.empty()) return;
  if (src.uniform() && uniform() && src.type_ == type_) {
    // Flat fast path: fill the tail chunk in runs bounded by its remaining
    // room, reading src through per-chunk base pointers.
    const std::vector<const uint64_t*> bases = ChunkBases(src);
    size_t done = 0;
    while (done < idx.size()) {
      Chunk* tail = MutableTail();
      const size_t take =
          std::min(chunk_capacity() - tail->bits.size(), idx.size() - done);
      const size_t old = tail->bits.size();
      tail->bits.resize(old + take);
      GatherWithZoneMap(bases.data(), src.chunk_shift_, src.chunk_mask_,
                        idx.data() + done, take, tail->bits.data() + old,
                        &tail->min_bits, &tail->max_bits);
      size_ += take;
      done += take;
      SyncTailBase();
    }
    return;
  }
  // Mixed-type fallback.
  for (uint32_t k : idx) Append(src.Get(k));
}

Column Column::Gathered(const Column& src, std::span<const uint32_t> sel,
                        Scheduler* scheduler) {
  Column out;
  if (!src.uniform()) {
    out.AppendGather(src, sel);
    return out;
  }
  out.type_ = src.type_;
  const size_t n = sel.size();
  if (n == 0) return out;
  const size_t cap = out.chunk_capacity();
  out.chunks_.resize((n + cap - 1) / cap);
  out.size_ = n;

  const std::vector<const uint64_t*> bases = ChunkBases(src);
  auto fill = [&](size_t lo, size_t hi) {
    // Each task owns the single output chunk its range covers (ranges are
    // chunk-aligned), so parallel tasks write disjoint chunks.
    auto chunk = std::make_shared<Chunk>();
    chunk->bits.resize(hi - lo);
    GatherWithZoneMap(bases.data(), src.chunk_shift_, src.chunk_mask_,
                      sel.data() + lo, hi - lo, chunk->bits.data(),
                      &chunk->min_bits, &chunk->max_bits);
    out.chunks_[lo / cap] = std::move(chunk);
  };
  if (scheduler != nullptr && n >= 2 * cap) {
    scheduler->ParallelFor(0, n, cap, fill);
  } else {
    for (size_t lo = 0; lo < n; lo += cap) fill(lo, std::min(lo + cap, n));
  }
  out.RebuildBases();
  return out;
}

void Column::HashCombineInto(std::span<uint64_t> out, bool init) const {
  assert(out.size() == size_);
  HashCombineRange(0, out, init);
}

void Column::HashCombineRange(size_t begin, std::span<uint64_t> out,
                              bool init) const {
  assert(begin + out.size() <= size_);
  const uint64_t tag_mix = static_cast<uint64_t>(type_) * 0x100000001b3ULL;
  size_t done = 0;
  while (done < out.size()) {
    const size_t g = begin + done;
    const size_t ci = g >> chunk_shift_;
    const size_t local = g & chunk_mask_;
    const Chunk& chunk = *chunks_[ci];
    const size_t take = std::min(chunk.bits.size() - local, out.size() - done);
    const uint64_t* bits = chunk.bits.data() + local;
    if (!tagged_) {
#if DISSODB_SIMD_COMPILED
      if (take >= 8 && simd::UseAvx2()) {
        HashCombineAvx2(bits, take, tag_mix, out.data() + done, init);
        done += take;
        continue;
      }
#endif
      for (size_t k = 0; k < take; ++k) {
        size_t h = init ? kHashSeed : out[done + k];
        HashCombine(&h, Mix64(tag_mix ^ bits[k]));
        out[done + k] = h;
      }
    } else {
      const uint8_t* tags = chunk.tags.data() + local;
      for (size_t k = 0; k < take; ++k) {
        size_t h = init ? kHashSeed : out[done + k];
        HashCombine(&h, Mix64(static_cast<uint64_t>(tags[k]) *
                                  0x100000001b3ULL ^
                              bits[k]));
        out[done + k] = h;
      }
    }
    done += take;
  }
}

WeightColumn::WeightColumn() {
  const size_t cap = Column::default_chunk_capacity();
  chunk_shift_ = ShiftFor(cap);
  chunk_mask_ = cap - 1;
}

WeightColumn::WeightColumn(const std::vector<double>& init) : WeightColumn() {
  const size_t n = init.size();
  if (n == 0) return;
  const size_t cap = chunk_capacity();
  chunks_.resize((n + cap - 1) / cap);
  for (size_t lo = 0; lo < n; lo += cap) {
    const size_t take = std::min(cap, n - lo);
    auto chunk = std::make_shared<Chunk>();
    chunk->vals.resize(take);
    std::memcpy(chunk->vals.data(), init.data() + lo, take * sizeof(double));
    chunks_[lo / cap] = std::move(chunk);
  }
  size_ = n;
  RebuildBases();
}

void WeightColumn::Reserve(size_t n) {
  if (n <= size_ || chunks_.empty()) return;
  ChunkPtr& tail = chunks_.back();
  // Reserving is an optimization only: never detach a shared tail (the
  // eventual append will), and a sealed tail has nothing to grow.
  if (tail.use_count() > 1 || tail->vals.size() > chunk_mask_) return;
  tail->vals.reserve(
      std::min(chunk_capacity(), tail->vals.size() + (n - size_)));
  SyncTailBase();
}

void WeightColumn::AppendGather(const WeightColumn& src,
                                std::span<const uint32_t> idx) {
  if (idx.empty()) return;
  const uint32_t shift = src.chunk_shift_;
  const uint64_t mask = src.chunk_mask_;
  const double* const* bases = src.bases_.data();
  size_t done = 0;
  while (done < idx.size()) {
    Chunk* tail = MutableTail();
    const size_t take =
        std::min(chunk_capacity() - tail->vals.size(), idx.size() - done);
    const size_t old = tail->vals.size();
    tail->vals.resize(old + take);
    double* out = tail->vals.data() + old;
    for (size_t k = 0; k < take; ++k) {
      const uint32_t r = idx[done + k];
      out[k] = bases[r >> shift][r & mask];
    }
    size_ += take;
    done += take;
    SyncTailBase();
  }
}

WeightColumn WeightColumn::Gathered(const WeightColumn& src,
                                    std::span<const uint32_t> sel,
                                    Scheduler* scheduler) {
  WeightColumn out;
  const size_t n = sel.size();
  if (n == 0) return out;
  const size_t cap = out.chunk_capacity();
  out.chunks_.resize((n + cap - 1) / cap);
  out.size_ = n;
  const uint32_t shift = src.chunk_shift_;
  const uint64_t mask = src.chunk_mask_;
  const double* const* bases = src.bases_.data();
  auto fill = [&](size_t lo, size_t hi) {
    // Chunk-aligned ranges: each task owns one disjoint output chunk.
    auto chunk = std::make_shared<Chunk>();
    chunk->vals.resize(hi - lo);
    double* o = chunk->vals.data();
    for (size_t k = lo; k < hi; ++k) {
      const uint32_t r = sel[k];
      o[k - lo] = bases[r >> shift][r & mask];
    }
    out.chunks_[lo / cap] = std::move(chunk);
  };
  if (scheduler != nullptr && n >= 2 * cap) {
    scheduler->ParallelFor(0, n, cap, fill);
  } else {
    for (size_t lo = 0; lo < n; lo += cap) fill(lo, std::min(lo + cap, n));
  }
  out.RebuildBases();
  return out;
}

void WeightColumn::Scale(double f) {
  if (f == 1.0) return;
  for (size_t ci = 0; ci < chunks_.size(); ++ci) {
    Chunk* c = MutableChunk(ci);
    for (double& v : c->vals) v = std::clamp(v * f, 0.0, 1.0);
  }
}

void WeightColumn::ComplementPow(double e) {
  if (e == 1.0) return;
  for (size_t ci = 0; ci < chunks_.size(); ++ci) {
    Chunk* c = MutableChunk(ci);
    for (double& v : c->vals) {
      v = std::clamp(1.0 - std::pow(1.0 - v, e), 0.0, 1.0);
    }
  }
}

void ColumnarRows::AppendRowImpl(std::span<const Value> row, double w) {
  assert(row.size() == cols_.size());
  for (size_t c = 0; c < cols_.size(); ++c) MutableCol(&cols_[c])->Append(row[c]);
  MutableWeights()->Append(w);
  ++num_rows_;
}

void ColumnarRows::GatherImpl(const ColumnarRows& src,
                              std::span<const uint32_t> sel) {
  assert(src.NumCols() == NumCols());
  if (sel.empty()) return;
  for (size_t c = 0; c < cols_.size(); ++c) {
    MutableCol(&cols_[c])->AppendGather(*src.cols_[c], sel);
  }
  MutableWeights()->AppendGather(*src.weights_, sel);
  num_rows_ += sel.size();
}

HashVector HashKeyColumns(const ColumnarRows& rows,
                          std::span<const int> key_cols,
                          Scheduler* scheduler) {
  const size_t n = rows.NumRows();
  HashVector out;
  // A fully pruned input (n == 0) must not consult chunk capacities or
  // spawn any work.
  if (n == 0) return out;
  if (key_cols.empty()) {
    out.assign(n, kHashSeed);
    return out;
  }
  // Default-init resize: the first column's pass (init=true) writes every
  // element from the seed, so a separate seed-fill sweep would be a wasted
  // full pass over the vector.
  out.resize(n);
  const size_t grain = rows.col(key_cols[0])->chunk_capacity();
  if (scheduler != nullptr && n >= 2 * grain) {
    // Chunk-aligned morsels: every task hashes chunk-local spans of each
    // key column into its disjoint slice of `out`.
    scheduler->ParallelFor(0, n, grain, [&](size_t lo, size_t hi) {
      bool first = true;
      for (int c : key_cols) {
        rows.col(c)->HashCombineRange(lo, std::span(out.data() + lo, hi - lo),
                                      first);
        first = false;
      }
    });
  } else {
    bool first = true;
    for (int c : key_cols) {
      rows.col(c)->HashCombineInto(out, first);
      first = false;
    }
  }
  return out;
}

bool KeysEqual(const ColumnarRows& a, size_t ra, std::span<const int> ka,
               const ColumnarRows& b, size_t rb, std::span<const int> kb) {
  assert(ka.size() == kb.size());
  for (size_t i = 0; i < ka.size(); ++i) {
    if (!a.col(ka[i])->ElemEquals(ra, *b.col(kb[i]), rb)) return false;
  }
  return true;
}

namespace {

/// Payload range of a type-uniform, non-empty column below kDenseMaxRange,
/// read off its zone maps.
std::optional<DenseRange> NarrowZoneMapRange(const Column& col) {
  if (!col.uniform() || col.size() == 0) return std::nullopt;
  uint64_t lo = ~uint64_t{0};
  uint64_t hi = 0;
  for (size_t ci = 0; ci < col.num_chunks(); ++ci) {
    lo = std::min(lo, col.ChunkMinBits(ci));
    hi = std::max(hi, col.ChunkMaxBits(ci));
  }
  if (hi - lo >= kDenseMaxRange) return std::nullopt;
  return DenseRange{lo, hi - lo};
}

}  // namespace

std::optional<DenseRange> DenseRangeFor(const Column& col, size_t rows) {
  std::optional<DenseRange> range = NarrowZoneMapRange(col);
  if (range && range->width / 64 + 1 > kDenseMaxWordsPerRow * rows) {
    return std::nullopt;
  }
  return range;
}

std::optional<DenseRange> DenseIndexRangeFor(const Column& col, size_t rows) {
  std::optional<DenseRange> range = NarrowZoneMapRange(col);
  if (range && range->width + 1 > kDenseMaxSlotsPerRow * rows) {
    return std::nullopt;
  }
  return range;
}

}  // namespace dissodb
