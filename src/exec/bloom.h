// Cache-line-blocked Bloom filter for semi-join probe pre-filtering.
//
// Each key maps to one 64-byte block (eight uint64 words) chosen by the
// high hash bits, then sets/tests two bits inside that block derived from
// the low bits — so a negative probe costs exactly one cache line, versus
// the (much larger) flat hash index line(s) it short-circuits. Sized at
// ~10 bits per key (k=2 in-block probes), false-positive rate is a few
// percent, which only costs a redundant index probe; false negatives are
// impossible, so consulting the filter can never change a result.
//
// The filter is built from the same 64-bit key hashes the flat index
// chains on (HashKeyColumns output), which Mix64-finalizes every element —
// block and bit choices just slice decorrelated bits off that hash.
#ifndef DISSODB_EXEC_BLOOM_H_
#define DISSODB_EXEC_BLOOM_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace dissodb {

class BlockedBloomFilter {
 public:
  /// Sizes the filter for `n` keys at ~10 bits/key, rounded up to a
  /// power-of-two number of 512-bit blocks (minimum 2).
  explicit BlockedBloomFilter(size_t n) {
    size_t blocks = 2;
    while (blocks * 512 < n * 10) blocks <<= 1;
    block_mask_ = blocks - 1;
    words_.assign(blocks * 8, 0);
  }

  void Add(uint64_t h) {
    uint64_t* block = BlockFor(h);
    block[Word1(h)] |= Bit1(h);
    block[Word2(h)] |= Bit2(h);
  }

  bool MayContain(uint64_t h) const {
    const uint64_t* block = BlockFor(h);
    return (block[Word1(h)] & Bit1(h)) != 0 &&
           (block[Word2(h)] & Bit2(h)) != 0;
  }

 private:
  // Block from the high 32 bits; word/bit indices from disjoint slices of
  // the low bits (FlatHashIndex buckets on the low bits too, but a Mix64-
  // finalized hash leaves no exploitable correlation between the two).
  const uint64_t* BlockFor(uint64_t h) const {
    return words_.data() + (((h >> 32) & block_mask_) << 3);
  }
  uint64_t* BlockFor(uint64_t h) {
    return words_.data() + (((h >> 32) & block_mask_) << 3);
  }
  static size_t Word1(uint64_t h) { return (h >> 6) & 7; }
  static size_t Word2(uint64_t h) { return (h >> 15) & 7; }
  static uint64_t Bit1(uint64_t h) { return uint64_t{1} << (h & 63); }
  static uint64_t Bit2(uint64_t h) { return uint64_t{1} << ((h >> 9) & 63); }

  uint64_t block_mask_;
  std::vector<uint64_t> words_;
};

}  // namespace dissodb

#endif  // DISSODB_EXEC_BLOOM_H_
