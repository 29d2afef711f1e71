#ifndef BEAS_COMMON_HASH_H_
#define BEAS_COMMON_HASH_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace beas {

/// \brief Mixes a new hash into a running seed (boost::hash_combine style,
/// widened to 64 bits).
inline void HashCombine(uint64_t* seed, uint64_t h) {
  *seed ^= h + 0x9e3779b97f4a7c15ULL + (*seed << 12) + (*seed >> 4);
}

/// \brief 64-bit finalizer from MurmurHash3; good avalanche for integers.
inline uint64_t HashInt64(uint64_t k) {
  k ^= k >> 33;
  k *= 0xff51afd7ed558ccdULL;
  k ^= k >> 33;
  k *= 0xc4ceb9fe1a85ec53ULL;
  k ^= k >> 33;
  return k;
}

/// \brief MurmurHash64A-style 64-bit byte hash: 8 bytes per round plus a
/// finalizer, giving full-width avalanche (every input bit flips ~32
/// output bits). Shared by Value::Hash, ValueVecHash, the batch row hashes
/// of the vectorized executor, and the plan-cache template key.
inline uint64_t HashBytes(const void* data, size_t len,
                          uint64_t seed = 0xe17a1465f3c0b7a9ULL) {
  constexpr uint64_t m = 0xc6a4a7935bd1e995ULL;
  constexpr int r = 47;
  uint64_t h = seed ^ (static_cast<uint64_t>(len) * m);
  const unsigned char* p = static_cast<const unsigned char*>(data);
  const unsigned char* end = p + (len & ~static_cast<size_t>(7));
  while (p != end) {
    uint64_t k;
    std::memcpy(&k, p, sizeof(k));
    p += 8;
    k *= m;
    k ^= k >> r;
    k *= m;
    h ^= k;
    h *= m;
  }
  switch (len & 7) {
    case 7: h ^= static_cast<uint64_t>(p[6]) << 48; [[fallthrough]];
    case 6: h ^= static_cast<uint64_t>(p[5]) << 40; [[fallthrough]];
    case 5: h ^= static_cast<uint64_t>(p[4]) << 32; [[fallthrough]];
    case 4: h ^= static_cast<uint64_t>(p[3]) << 24; [[fallthrough]];
    case 3: h ^= static_cast<uint64_t>(p[2]) << 16; [[fallthrough]];
    case 2: h ^= static_cast<uint64_t>(p[1]) << 8; [[fallthrough]];
    case 1: h ^= static_cast<uint64_t>(p[0]); h *= m; [[fallthrough]];
    default: break;
  }
  h ^= h >> r;
  h *= m;
  h ^= h >> r;
  return h;
}

/// \brief Byte-string hashes computed on the calling thread. The
/// dictionary-encoded string path promises *zero per-probe byte hashing*
/// (AcIndex::LookupBatch over dict-backed keys reads precomputed hashes
/// instead); tests pin that promise against this counter. A plain
/// thread_local increment — not atomic — so it never contends.
inline thread_local uint64_t tls_hash_string_calls = 0;

/// \brief Byte-level string *ordering* comparisons (ORDER BY, range
/// predicates, MIN/MAX) performed on the calling thread. The
/// order-preserving dictionary mode promises *zero per-comparison
/// decodes* once a dictionary is sorted — ordering consumers compare
/// uint32 codes instead of decoding bytes; tests pin that promise
/// against this counter, like tls_hash_string_calls pins zero per-probe
/// byte hashing. Plain thread_local increment — never contends.
inline thread_local uint64_t tls_string_order_decodes = 0;

/// \brief Cross-dictionary code translations performed on the calling
/// thread: one increment per *distinct* left-dictionary code a col = col
/// equality conjunct resolves against the other column's dictionary (via
/// the precomputed byte hash — no bytes are hashed; tests pin that with
/// tls_hash_string_calls). Distinct-code granularity makes the per-batch
/// translation cache observable: a batch with many repeats of few strings
/// must bump this by the distinct count, not the row count. Plain
/// thread_local increment — never contends.
inline thread_local uint64_t tls_cross_dict_translates = 0;

/// \brief Hashes a string with the shared 64-bit byte hash.
///
/// Dictionary-encoded values (see storage/string_dict.h) bypass this at
/// query time: the dictionary computes it once at intern time and serves
/// the stored hash by code thereafter. Both must agree byte-for-byte —
/// hash consistency between the inline and encoded representations of the
/// same string is what keeps the two interchangeable in every container.
inline uint64_t HashString(std::string_view s) {
  ++tls_hash_string_calls;
  return HashBytes(s.data(), s.size());
}

/// \brief Hash of the NULL value. Shared between Value::Hash and the
/// encoded-column hash fold (a kNullCode slot must hash exactly like the
/// NULL Value it stands for).
constexpr uint64_t kNullValueHash = 0xDEADBEEFCAFEF00DULL;

/// \brief Seed of the value-vector / row hash fold. ValueVecHash, the
/// TupleBatch row hashes, and the vectorized executor's probe-key dedup
/// must all fold from this same seed — their agreement is what lets batch
/// structures interoperate bit-for-bit with the row-at-a-time containers.
constexpr uint64_t kValueVecHashSeed = 0x2545F4914F6CDD1DULL;

/// \brief Smallest power of two >= max(n, 16): the open-addressing table
/// capacity used by the batch dedup/group structures.
inline size_t HashTableCapacity(size_t n) {
  size_t p = 16;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace beas

#endif  // BEAS_COMMON_HASH_H_
