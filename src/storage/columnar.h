// Columnar row storage shared by base tables and intermediate relations.
//
// A Column is a typed sequence of 64-bit payloads (int64 / double bit
// pattern / string dictionary code) — the Value tag is stored once per
// column, not per element, so scans, hashes and key comparisons run over
// flat uint64 arrays. Physically a column is partitioned into fixed-size
// **chunks** (64Ki payloads by default) held by shared_ptr:
//
//   - Every chunk except the last is full ("sealed") and immutable; only
//     the tail chunk ever grows. Index arithmetic is a shift and a mask.
//   - Copies are shallow: copying a Column copies the chunk-pointer vector
//     and shares every payload. Appending to a copy detaches only the tail
//     chunk being written (copy-on-write at chunk granularity); sealed
//     chunks stay shared between Table, Rel and ResultCache entries.
//   - Each chunk carries a zone map (min/max of its raw payloads, unsigned
//     order) maintained incrementally on append. Chunks are append-only,
//     so the zone map is always exact; scans use it to skip chunks that
//     cannot contain a constant predicate's value.
//   - Chunk boundaries are the natural morsel boundaries: the parallel
//     scan, gather and batch-hash paths fan out one task per chunk and
//     concatenate in chunk order, which keeps them bit-identical to the
//     sequential paths.
//
// Thread safety: the copy-on-write checks (`use_count() > 1` on columns
// and chunks) synchronize correctly as long as no thread copies a
// ColumnarRows object *while* another thread mutates that same object —
// distinct objects sharing columns/chunks may be copied/read/mutated
// concurrently without restriction (two concurrent mutators each observe
// a count > 1 and detach their own copy). The serving layer upholds the
// contract structurally: relations published to the shared ResultCache are
// `shared_ptr<const Rel>` and never mutated, and morsel-parallel operators
// write only to task-private buffers or disjoint chunks. The CI tsan job
// runs the engine/serve tests under -fsanitize=thread to keep this honest.
//
// Seal-on-publish: the snapshot/writer layer (src/storage/snapshot.h,
// Database::Writer) extends the same contract to base tables. A published
// Table is immutable: nothing holds a mutable pointer to it. Writers stage
// shallow copies, so every column and chunk a published table reaches is
// shared (use_count > 1) with the staged copy and therefore *effectively
// sealed*: the first append or overwrite through the copy observes the
// sharing and detaches before writing. Chunks reachable from a published
// snapshot are never mutated, which is what makes held-snapshot reads
// bit-identical across concurrent commits without any further locking.
#ifndef DISSODB_STORAGE_COLUMNAR_H_
#define DISSODB_STORAGE_COLUMNAR_H_

#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <type_traits>
#include <vector>

#include "src/common/value.h"

namespace dissodb {

class Scheduler;  // src/serve/scheduler.h

namespace internal {

/// Allocator whose containers default-initialize (leave POD memory
/// uninitialized) on resize instead of value-initializing. Gather targets
/// are resized and then fully overwritten; with std::allocator the resize
/// would first zero-sweep every output chunk — a full extra memory pass
/// on the join/projection output path.
template <class T, class A = std::allocator<T>>
class DefaultInitAllocator : public A {
 public:
  template <class U>
  struct rebind {
    using other = DefaultInitAllocator<
        U, typename std::allocator_traits<A>::template rebind_alloc<U>>;
  };
  using A::A;
  template <class U>
  void construct(U* ptr) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(ptr)) U;
  }
  template <class U, class... Args>
  void construct(U* ptr, Args&&... args) {
    std::allocator_traits<A>::construct(static_cast<A&>(*this), ptr,
                                        std::forward<Args>(args)...);
  }
};

}  // namespace internal

/// Chunk payload storage; elements written by resize-then-fill producers
/// are uninitialized until filled (see DefaultInitAllocator).
using PayloadVector =
    std::vector<uint64_t, internal::DefaultInitAllocator<uint64_t>>;

/// Batch key-hash vector (HashKeyColumns output). Same default-init
/// storage: the first hashing pass writes every element from the seed, so
/// a value-initializing resize would be a wasted full-vector sweep.
using HashVector = PayloadVector;

/// Starting value of every row hash before the key columns are combined
/// in. Rows hashed over zero key columns all carry this seed.
inline constexpr uint64_t kHashSeed = 0x2545f491ULL;

/// \brief One typed column: chunked arrays of 64-bit payloads.
///
/// Columns are type-uniform in the common case. If values of a different
/// type are appended (possible only through untyped builder paths), the
/// column lazily materializes parallel per-element tag arrays; all
/// accessors remain correct, only the flat fast paths degrade.
class Column {
 public:
  /// Default payloads per chunk: 64Ki (512 KiB of payload). Must be a
  /// power of two. Tests shrink it (SetDefaultChunkCapacityForTesting) to
  /// exercise chunk seams on small inputs; each column captures the
  /// default at construction, so mixing capacities is safe.
  static constexpr size_t kDefaultChunkCapacity = size_t{1} << 16;

  /// Overrides the capacity adopted by subsequently constructed columns.
  /// Test-only; `cap` must be a power of two >= 2.
  static void SetDefaultChunkCapacityForTesting(size_t cap);
  static size_t default_chunk_capacity();

  /// One fixed-capacity payload partition. Sealed (full) chunks are
  /// immutable and shared freely; min/max form the zone map (raw-payload
  /// unsigned order — any total order is sound for equality pruning).
  struct Chunk {
    PayloadVector bits;
    std::vector<uint8_t> tags;  // empty while the column is type-uniform
    uint64_t min_bits = ~uint64_t{0};
    uint64_t max_bits = 0;
  };
  using ChunkPtr = std::shared_ptr<Chunk>;

  Column();
  explicit Column(ValueType type);

  size_t size() const { return size_; }
  ValueType type() const { return type_; }
  bool uniform() const { return !tagged_; }

  // -- Chunk geometry -------------------------------------------------------

  size_t chunk_capacity() const { return chunk_mask_ + 1; }
  size_t num_chunks() const { return chunks_.size(); }
  size_t ChunkSize(size_t ci) const { return chunks_[ci]->bits.size(); }
  /// First global row of chunk `ci`.
  size_t ChunkBegin(size_t ci) const { return ci << chunk_shift_; }
  std::span<const uint64_t> ChunkBits(size_t ci) const {
    return chunks_[ci]->bits;
  }
  uint64_t ChunkMinBits(size_t ci) const { return chunks_[ci]->min_bits; }
  uint64_t ChunkMaxBits(size_t ci) const { return chunks_[ci]->max_bits; }
  /// The shared chunk handle (zone maps, sharing tests, NUMA/spill hooks).
  const ChunkPtr& chunk(size_t ci) const { return chunks_[ci]; }

  // -- Element access -------------------------------------------------------

  /// Random access goes through a cached per-chunk base-pointer table
  /// (rebuilt on every mutation), so hot chain-walking compares pay one
  /// indexed load instead of a shared_ptr double-indirection.
  uint64_t RawBits(size_t i) const {
    return bases_[i >> chunk_shift_][i & chunk_mask_];
  }
  /// Prefetches the payload word of element `i`. Probe loops that learn a
  /// chain head a block ahead of walking it use this to overlap the
  /// build-side key-compare miss with the rest of the block.
  void PrefetchRaw(size_t i) const {
    __builtin_prefetch(&bases_[i >> chunk_shift_][i & chunk_mask_], 0, 1);
  }
  ValueType TypeAt(size_t i) const {
    return tagged_ ? static_cast<ValueType>(
                         chunks_[i >> chunk_shift_]->tags[i & chunk_mask_])
                   : type_;
  }
  Value Get(size_t i) const { return Value::FromRawBits(TypeAt(i), RawBits(i)); }

  // -- Mutation (appends only touch the tail chunk) -------------------------

  /// Pre-reserves tail-chunk capacity for growth up to `n` total elements.
  /// Never detaches shared payloads: a no-op reservation (`n <= size()`)
  /// must not force copy-on-write of fully shared chunks.
  void Reserve(size_t n);

  void Append(Value v);

  /// Appends a raw payload of this column's own type. Only valid on a
  /// type-uniform column (fast bulk-assembly path; no per-cell tagging).
  void AppendRaw(uint64_t bits) {
    assert(!tagged_);
    Chunk* tail = MutableTail();
    tail->bits.push_back(bits);
    if (bits < tail->min_bits) tail->min_bits = bits;
    if (bits > tail->max_bits) tail->max_bits = bits;
    ++size_;
    SyncTailBase();
  }

  /// Appends `src[idx[k]]` for every k (output assembly for joins,
  /// projections and selections — one pass per column, chunk-iterating on
  /// both sides).
  void AppendGather(const Column& src, std::span<const uint32_t> idx);

  /// Builds a fresh column containing `src[sel[k]]` for every k. With a
  /// scheduler and a large enough selection, output chunks are assembled
  /// in parallel (one task per disjoint chunk); the result is bit-identical
  /// to the sequential gather either way.
  static Column Gathered(const Column& src, std::span<const uint32_t> sel,
                         Scheduler* scheduler = nullptr);

  // -- Hashing / comparison -------------------------------------------------

  /// Element hash, consistent with Value::Hash().
  uint64_t HashAt(size_t i) const {
    return Mix64(static_cast<uint64_t>(TypeAt(i)) * 0x100000001b3ULL ^
                 RawBits(i));
  }

  /// Combines every element's hash into `out` (HashCombine semantics);
  /// `out.size()` must equal `size()`. Batch primitive for key hashing,
  /// iterating chunk-local spans. With `init`, `out`'s prior contents are
  /// ignored and every element starts from kHashSeed — the first key
  /// column's pass writes the vector instead of read-modify-writing it,
  /// which also lets callers hand in uninitialized storage.
  void HashCombineInto(std::span<uint64_t> out, bool init = false) const;

  /// Same, restricted to global rows [begin, begin + out.size()); the range
  /// may span chunk seams. Parallel hashing hands each task a chunk-aligned
  /// range so every task reads chunk-local spans.
  void HashCombineRange(size_t begin, std::span<uint64_t> out,
                        bool init = false) const;

  bool ElemEquals(size_t i, const Column& o, size_t j) const {
    return RawBits(i) == o.RawBits(j) && TypeAt(i) == o.TypeAt(j);
  }

 private:
  /// Tail chunk ready for one append: starts a new chunk when the column is
  /// empty or the tail is sealed, and detaches (copies) a shared tail.
  Chunk* MutableTail() {
    if (chunks_.empty() || chunks_.back()->bits.size() > chunk_mask_) {
      chunks_.push_back(std::make_shared<Chunk>());
      if (tagged_) chunks_.back()->tags.reserve(chunk_capacity());
    } else if (chunks_.back().use_count() > 1) {
      chunks_.back() = std::make_shared<Chunk>(*chunks_.back());
    }
    return chunks_.back().get();
  }

  /// Refreshes the cached base pointer of the tail chunk (its bits vector
  /// may have just reallocated or been detached).
  void SyncTailBase() {
    bases_.resize(chunks_.size());
    bases_.back() = chunks_.back()->bits.data();
  }
  void RebuildBases() {
    bases_.resize(chunks_.size());
    for (size_t ci = 0; ci < chunks_.size(); ++ci) {
      bases_[ci] = chunks_[ci]->bits.data();
    }
  }

  void Demote(ValueType incoming);

  ValueType type_ = ValueType::kInt64;
  bool tagged_ = false;
  size_t size_ = 0;
  uint32_t chunk_shift_;
  uint64_t chunk_mask_;
  std::vector<ChunkPtr> chunks_;
  std::vector<const uint64_t*> bases_;  // chunk base pointers (see RawBits)
};

using ColumnPtr = std::shared_ptr<Column>;

/// \brief The weight column: tuple probabilities / plan scores, chunked
/// exactly like payload columns.
///
/// Same physical contract as Column: fixed-capacity power-of-two chunks
/// held by shared_ptr, sealed (full) chunks immutable and shared, only the
/// tail chunk grows, mutation detaches the one chunk it writes. Copies are
/// shallow (the chunk-pointer vector), so a Writer's staged append costs
/// O(delta), not O(table) — the flat `vector<double>` this replaces made
/// the first staged append deep-copy the entire column. Random access goes
/// through a cached base-pointer table, so hot fold/probe loops pay one
/// indexed load, exactly like Column::RawBits.
class WeightColumn {
 public:
  struct Chunk {
    std::vector<double, internal::DefaultInitAllocator<double>> vals;
  };
  using ChunkPtr = std::shared_ptr<Chunk>;

  /// Captures Column::default_chunk_capacity() so the test shrink knob
  /// exercises weight-chunk seams too.
  WeightColumn();
  /// Adopts a flat vector (fold outputs from projections / min-merge),
  /// re-chunking it. O(n) memcpy, amortized by the producing pass.
  explicit WeightColumn(const std::vector<double>& init);

  size_t size() const { return size_; }
  double operator[](size_t i) const {
    return bases_[i >> chunk_shift_][i & chunk_mask_];
  }
  /// Prefetch companion of operator[]; see Column::PrefetchRaw.
  void PrefetchAt(size_t i) const {
    __builtin_prefetch(&bases_[i >> chunk_shift_][i & chunk_mask_], 0, 1);
  }

  /// Register-resident random-access view for hot loops. operator[] above
  /// reloads the base-pointer table and chunk geometry from the column on
  /// every call when the loop makes opaque calls in between (push_back,
  /// hash-index growth); a View copies them into locals the compiler can
  /// keep in registers. Invalidated by any mutation of the column.
  struct View {
    const double* const* bases;
    uint32_t shift;
    uint64_t mask;
    double operator[](size_t i) const {
      return bases[i >> shift][i & mask];
    }
    void PrefetchAt(size_t i) const {
      __builtin_prefetch(&bases[i >> shift][i & mask], 0, 1);
    }
  };
  View view() const { return View{bases_.data(), chunk_shift_, chunk_mask_}; }

  // -- Chunk geometry (sharing tests, chunk-local SIMD spans) ---------------

  size_t chunk_capacity() const { return chunk_mask_ + 1; }
  size_t num_chunks() const { return chunks_.size(); }
  size_t ChunkBegin(size_t ci) const { return ci << chunk_shift_; }
  const ChunkPtr& chunk(size_t ci) const { return chunks_[ci]; }
  std::span<const double> ChunkVals(size_t ci) const {
    return chunks_[ci]->vals;
  }

  // -- Mutation -------------------------------------------------------------

  /// Pre-reserves tail-chunk capacity for growth up to `n` total elements.
  /// Never detaches shared payloads (same contract as Column::Reserve).
  void Reserve(size_t n);

  void Append(double v) {
    MutableTail()->vals.push_back(v);
    ++size_;
    SyncTailBase();
  }

  /// Point write; detaches only the chunk containing `i`.
  void Set(size_t i, double v) {
    MutableChunk(i >> chunk_shift_)->vals[i & chunk_mask_] = v;
  }

  /// Appends `src[idx[k]]` for every k.
  void AppendGather(const WeightColumn& src, std::span<const uint32_t> idx);

  /// Fresh column containing `src[sel[k]]`; parallel per-output-chunk fill
  /// with a scheduler, bit-identical to sequential either way.
  static WeightColumn Gathered(const WeightColumn& src,
                               std::span<const uint32_t> sel,
                               Scheduler* scheduler = nullptr);

  /// `v = clamp(v * f, 0, 1)` for every element, detaching each chunk it
  /// rewrites. No-op when `f == 1.0` (identity rescale must not copy).
  void Scale(double f);

  /// `v = clamp(1 - (1 - v)^e, 0, 1)` for every element, detaching each
  /// chunk it rewrites. With e = 1/d this is the oblivious dissociation
  /// transform: d independent copies of the new weight union back to at
  /// most the original (1-(1-v')^d <= v), which is what makes dissociated
  /// plan scores over the transformed weights *lower*-bound the true
  /// probability (src/anytime/lower_bound.h). No-op when `e == 1.0`.
  void ComplementPow(double e);

 private:
  Chunk* MutableTail() {
    if (chunks_.empty() || chunks_.back()->vals.size() > chunk_mask_) {
      chunks_.push_back(std::make_shared<Chunk>());
    } else if (chunks_.back().use_count() > 1) {
      chunks_.back() = std::make_shared<Chunk>(*chunks_.back());
    }
    return chunks_.back().get();
  }
  Chunk* MutableChunk(size_t ci) {
    if (chunks_[ci].use_count() > 1) {
      chunks_[ci] = std::make_shared<Chunk>(*chunks_[ci]);
      bases_[ci] = chunks_[ci]->vals.data();
    }
    return chunks_[ci].get();
  }
  void SyncTailBase() {
    bases_.resize(chunks_.size());
    bases_.back() = chunks_.back()->vals.data();
  }
  void RebuildBases() {
    bases_.resize(chunks_.size());
    for (size_t ci = 0; ci < chunks_.size(); ++ci) {
      bases_[ci] = chunks_[ci]->vals.data();
    }
  }

  size_t size_ = 0;
  uint32_t chunk_shift_;
  uint64_t chunk_mask_;
  std::vector<ChunkPtr> chunks_;
  std::vector<const double*> bases_;
};

using WeightsPtr = std::shared_ptr<WeightColumn>;

/// \brief Shared base of Table and Rel: a set of columns plus a parallel
/// weight column (tuple probability / plan score) and a single row counter.
///
/// The explicit row counter makes zero-arity relations (Boolean queries)
/// fall out of the same accounting as everything else. Copies are shallow:
/// columns and weights are shared until a mutation triggers copy-on-write
/// (and column/weight mutation in turn detaches only the chunk it writes).
class ColumnarRows {
 public:
  size_t NumRows() const { return num_rows_; }
  int NumCols() const { return static_cast<int>(cols_.size()); }

  Value At(size_t r, int c) const { return cols_[c]->Get(r); }
  double Weight(size_t r) const { return (*weights_)[r]; }

  const ColumnPtr& col(int c) const { return cols_[c]; }
  const WeightsPtr& weights() const { return weights_; }

  /// Monotone counter bumped by every in-place overwrite of existing row
  /// values (SetProb / rescale). Appends leave it unchanged, so a Writer
  /// can prove a staged table changed by appends alone: epoch unchanged
  /// and row count non-decreasing (see Database::CommitInfo).
  uint64_t overwrite_epoch() const { return overwrite_epoch_; }

  /// Reserves room for `rows` total rows. A reservation that asks for no
  /// growth is a strict no-op: it must not detach fully shared columns
  /// (shared scan outputs would silently deep-copy otherwise).
  void Reserve(size_t rows) {
    if (rows <= num_rows_) return;
    for (auto& c : cols_) MutableCol(&c)->Reserve(rows);
    MutableWeights()->Reserve(rows);
  }

 protected:
  ColumnarRows() : weights_(std::make_shared<WeightColumn>()) {}

  /// Installs `n` empty columns (untyped; adopt the first appended value).
  void InitCols(int n) {
    cols_.clear();
    for (int i = 0; i < n; ++i) cols_.push_back(std::make_shared<Column>());
  }

  void AppendRowImpl(std::span<const Value> row, double w);

  /// Adopts existing columns/weights without copying (zero-copy wiring).
  void AdoptImpl(std::vector<ColumnPtr> cols, WeightsPtr weights,
                 size_t rows) {
    cols_ = std::move(cols);
    weights_ = std::move(weights);
    num_rows_ = rows;
  }

  /// Appends rows `sel` of `src` (same column layout) to this.
  void GatherImpl(const ColumnarRows& src, std::span<const uint32_t> sel);

  /// Copy-on-write access. Detaching a shared Column copies only its
  /// chunk-pointer vector; the payload chunks stay shared until written.
  static Column* MutableCol(ColumnPtr* c) {
    if (c->use_count() > 1) *c = std::make_shared<Column>(**c);
    return c->get();
  }
  Column* MutableCol(int c) { return MutableCol(&cols_[c]); }
  /// Detaching shared weights copies only the chunk-pointer vector; the
  /// value chunks stay shared until the one being written detaches.
  WeightColumn* MutableWeights() {
    if (weights_.use_count() > 1) {
      weights_ = std::make_shared<WeightColumn>(*weights_);
    }
    return weights_.get();
  }

  void NoteOverwrite() { ++overwrite_epoch_; }

  std::vector<ColumnPtr> cols_;
  WeightsPtr weights_;
  size_t num_rows_ = 0;
  uint64_t overwrite_epoch_ = 0;
};

/// Hash of the key columns `key_cols` for every row of `rows` (batch,
/// column-at-a-time). Rows with equal key values get equal hashes. With a
/// scheduler and a large enough input, hashing fans out in chunk-aligned
/// morsels (each task reads chunk-local spans of every key column); the
/// result is identical either way.
HashVector HashKeyColumns(const ColumnarRows& rows,
                          std::span<const int> key_cols,
                          Scheduler* scheduler = nullptr);

/// True iff row `ra` of `a` (at key columns `ka`) equals row `rb` of `b`
/// (at key columns `kb`). `ka.size()` must equal `kb.size()`.
bool KeysEqual(const ColumnarRows& a, size_t ra, std::span<const int> ka,
               const ColumnarRows& b, size_t rb, std::span<const int> kb);

/// Payload range of a column read off its zone maps: every value v has
/// offset v - lo in [0, width] (unsigned arithmetic, so negative integers
/// and dictionary codes need no special case).
struct DenseRange {
  uint64_t lo;
  uint64_t width;
};

/// Widest payload range (hi - lo) a dense bitmap covers: at most 2^22
/// bits is 512 KiB, which stays cache-resident while values stream past
/// it. Wider columns are hashed.
inline constexpr uint64_t kDenseMaxRange = uint64_t{1} << 22;

/// Bitmap words a dense pass may clear per row it serves. Clearing a word
/// costs no more than reading a row, so at one word per row the clear
/// never costs more than the rows themselves; a wide range over a few rows
/// is hashed.
inline constexpr uint64_t kDenseMaxWordsPerRow = 1;

/// The range of `col` when a bitmap over it can replace hashing its
/// values, read from the column alone: type-uniform (equal raw bits mean
/// equal values), non-empty, a zone-map range below kDenseMaxRange, and at
/// most kDenseMaxWordsPerRow bitmap words per row of the `rows` the bitmap
/// serves. One rule for the dense semi-join and the anytime exponents'
/// distinct counts.
std::optional<DenseRange> DenseRangeFor(const Column& col, size_t rows);

/// Four-byte slots a direct-address index may hold per row it serves: at
/// most 16 bytes per row, the least a FlatHashIndex spends per row it
/// indexes (at least two eight-byte slots).
inline constexpr uint64_t kDenseMaxSlotsPerRow = 4;

/// The range of `col` when a direct-address array with one four-byte slot
/// per value in the range can replace a hash index over its values:
/// type-uniform, non-empty, a zone-map range below kDenseMaxRange, and at
/// most kDenseMaxSlotsPerRow slots per row of the `rows` the array serves.
/// The rule for the dense join build and dense grouping.
std::optional<DenseRange> DenseIndexRangeFor(const Column& col, size_t rows);

}  // namespace dissodb

#endif  // DISSODB_STORAGE_COLUMNAR_H_
