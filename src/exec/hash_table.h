// Flat open-addressing hash index for the vectorized operators, and its
// direct-address counterpart for keys in a narrow range (DenseKeyIndex).
//
// One backing allocation, power-of-two capacity, linear probing. A slot
// stores a 32-bit tag (the high hash bits; the low bits picked the
// bucket) and the head of a chain of entries (rows or groups); callers
// keep the chain links in their own `next` array and compare actual key
// columns when walking a chain, so collisions between distinct keys —
// whether from full-hash collisions or from two hashes sharing a
// (bucket, tag) pair — only lengthen a chain, they never change results.
// Sized once up front (entry count is known for build sides and bounded
// for groupings), so there is no rehashing on the hot path.
//
// Layout: tag and head are interleaved in one 8-byte slot (not parallel
// arrays), so a probe touches exactly one cache line — at build sides in
// the tens of megabytes every probe is a miss, and the compact slot both
// halves the table bytes (less TLB and cache pressure) and makes the
// all-0xFF memset initialization cheap. Probe loops that know their
// hashes in advance (batch probes over a precomputed hash vector) should
// PrefetchSlot() a block or a fixed lookahead ahead of the walk; the
// slot miss is the dominant stall in large joins and groupings.
//
// Key hashes are produced upstream by HashKeyColumns, which iterates the
// chunked columns span-at-a-time (and, given a scheduler, fans out in
// chunk-aligned morsels), so the flat index never touches column storage —
// it only ever sees the precomputed 64-bit hashes.
//
// Backing stores are recycled through a thread-local scratch slot: a
// query evaluates many operators, each of which would otherwise allocate,
// fault in, and give back tens of megabytes (for large inputs glibc
// serves these from fresh mmaps, so every operator call pays minor faults
// and page zeroing for the whole table). Reuse keeps the hot index memory
// resident. kNil is all-one bytes, so one memset of the slot array is the
// entire initialization; tag fields are written when a slot is claimed,
// never read before.
#ifndef DISSODB_EXEC_HASH_TABLE_H_
#define DISSODB_EXEC_HASH_TABLE_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <utility>

namespace dissodb {

namespace internal {

/// One cached backing buffer per thread. Scheduler workers are long-lived,
/// so per-thread reuse covers both the sequential path and morsel tasks;
/// thread-locality makes it trivially race-free. Buffers above the cap are
/// never cached (a one-off giant join must not pin ~cap bytes per worker
/// thread for the rest of the process; the cap bounds steady-state scratch
/// at num_threads * kMaxCachedBytes worst case).
class IndexScratch {
 public:
  struct Buf {
    std::unique_ptr<std::byte[]> mem;
    size_t bytes = 0;
  };

  static constexpr size_t kMaxCachedBytes = size_t{64} << 20;

  static Buf Acquire(size_t bytes) {
    Buf& cached = Slot();
    if (cached.bytes >= bytes) {
      Buf out = std::move(cached);
      cached.bytes = 0;
      return out;
    }
    return Buf{std::unique_ptr<std::byte[]>(new std::byte[bytes]), bytes};
  }

  static void Release(Buf b) {
    if (b.bytes == 0 || b.bytes > kMaxCachedBytes) return;
    Buf& cached = Slot();
    if (b.bytes > cached.bytes) cached = std::move(b);
  }

 private:
  static Buf& Slot() {
    static thread_local Buf slot;
    return slot;
  }
};

}  // namespace internal

class FlatHashIndex {
 public:
  static constexpr uint32_t kNil = 0xFFFFFFFFu;

  /// Prepares the table for up to `n` distinct hash values (load factor
  /// <= 0.5, minimum capacity 16).
  explicit FlatHashIndex(size_t n) {
    size_t cap = 16;
    while (cap < 2 * n) cap <<= 1;
    mask_ = cap - 1;
    buf_ = internal::IndexScratch::Acquire(cap * sizeof(Slot));
    slots_ = reinterpret_cast<Slot*>(buf_.mem.get());
    // kNil is all-one bytes; hash fields are written when first claimed and
    // never read before, so one memset is the entire initialization.
    std::memset(slots_, 0xFF, cap * sizeof(Slot));
  }

  ~FlatHashIndex() { internal::IndexScratch::Release(std::move(buf_)); }

  FlatHashIndex(const FlatHashIndex&) = delete;
  FlatHashIndex& operator=(const FlatHashIndex&) = delete;

  /// Returns a mutable reference to the chain head for hash `h`, claiming
  /// an empty slot if the hash is new (the returned head is then kNil and
  /// the caller must link at least one entry into it).
  uint32_t& HeadFor(uint64_t h) {
    const uint32_t tag = static_cast<uint32_t>(h >> 32);
    size_t i = h & mask_;
    while (true) {
      Slot& s = slots_[i];
      if (s.head == kNil) {
        s.tag = tag;
        return s.head;
      }
      if (s.tag == tag) return s.head;
      i = (i + 1) & mask_;
    }
  }

  /// Chain head for hash `h`, or kNil if absent. Read-only probe.
  uint32_t Find(uint64_t h) const {
    const uint32_t tag = static_cast<uint32_t>(h >> 32);
    size_t i = h & mask_;
    while (slots_[i].head != kNil) {
      if (slots_[i].tag == tag) return slots_[i].head;
      i = (i + 1) & mask_;
    }
    return kNil;
  }

  /// Prefetches the home slot of hash `h` into cache. Linear-probing
  /// displacement is short at load factor 0.5, so the home line covers the
  /// overwhelming majority of probes.
  void PrefetchSlot(uint64_t h) const {
    __builtin_prefetch(&slots_[h & mask_], 0, 1);
  }

  /// Write-intent variant for insert-side lookahead (HeadFor claims or
  /// links into the slot it lands on, so fetch the line exclusive).
  void PrefetchSlotWrite(uint64_t h) const {
    __builtin_prefetch(&slots_[h & mask_], 1, 1);
  }

 private:
  struct Slot {
    uint32_t tag;   // high 32 hash bits (the low bits picked the bucket)
    uint32_t head;  // chain head entry id, or kNil
  };

  size_t mask_;
  internal::IndexScratch::Buf buf_;
  Slot* slots_;
};

/// Direct-address counterpart of FlatHashIndex for one type-uniform key
/// column whose payloads lie in [lo, lo + width] (DenseIndexRangeFor): the
/// slot at offset v - lo holds the chain head (or group id) of payload v.
/// Equal payloads share a slot and distinct payloads never do, so callers
/// neither hash nor compare keys. Same scratch recycling and one-memset
/// initialization as FlatHashIndex.
class DenseKeyIndex {
 public:
  static constexpr uint32_t kNil = FlatHashIndex::kNil;

  DenseKeyIndex(uint64_t lo, uint64_t width) : lo_(lo), width_(width) {
    const size_t bytes = (width + 1) * sizeof(uint32_t);
    buf_ = internal::IndexScratch::Acquire(bytes);
    slots_ = reinterpret_cast<uint32_t*>(buf_.mem.get());
    std::memset(slots_, 0xFF, bytes);
  }

  ~DenseKeyIndex() { internal::IndexScratch::Release(std::move(buf_)); }

  DenseKeyIndex(const DenseKeyIndex&) = delete;
  DenseKeyIndex& operator=(const DenseKeyIndex&) = delete;

  /// Slot of payload `v`, which must lie in the range.
  uint32_t& At(uint64_t v) {
    assert(v - lo_ <= width_);  // zone maps are exact
    return slots_[v - lo_];
  }

  /// Slot of payload `v`, or kNil when `v` lies outside the range.
  uint32_t Find(uint64_t v) const {
    const uint64_t off = v - lo_;
    return off <= width_ ? slots_[off] : kNil;
  }

 private:
  uint64_t lo_;
  uint64_t width_;
  internal::IndexScratch::Buf buf_;
  uint32_t* slots_;
};

}  // namespace dissodb

#endif  // DISSODB_EXEC_HASH_TABLE_H_
