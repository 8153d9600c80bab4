// Hash combiners used by join keys, plan canonicalization and memo tables.
#ifndef DISSODB_COMMON_HASH_H_
#define DISSODB_COMMON_HASH_H_

#include <cstddef>
#include <cstdint>

namespace dissodb {

/// Mixes `v` into the running hash `seed` (boost::hash_combine style, 64-bit).
inline void HashCombine(size_t* seed, size_t v) {
  *seed ^= v + 0x9e3779b97f4a7c15ULL + (*seed << 6) + (*seed >> 2);
}

/// 64-bit finalizer (splitmix64); good avalanche for integer keys.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace dissodb

#endif  // DISSODB_COMMON_HASH_H_
