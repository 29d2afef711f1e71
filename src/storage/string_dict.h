#ifndef BEAS_STORAGE_STRING_DICT_H_
#define BEAS_STORAGE_STRING_DICT_H_

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

#include "common/hash.h"
#include "types/value.h"

namespace beas {

/// \brief A per-table append-only string dictionary: interns every string
/// value once at ingest and hands out stable dense uint32 codes.
///
/// This is the storage half of the dictionary-encoded string path. After
/// interning, the hot layers stop touching bytes:
///  * Value holds {dict, code} instead of inline bytes, so
///    copying a string value copies a pointer and a code;
///  * hashing is an array read (the byte hash is computed once, at intern
///    time, and stored next to the string);
///  * equality of two values of the *same* dictionary is a code compare —
///    interning deduplicates, so distinct codes imply distinct bytes.
///
/// ## Ordering (the sort boundary, and the order-preserving mode)
///
/// Codes are assigned in first-appearance order, so a freshly grown
/// dictionary is generally NOT order-preserving: `code(a) < code(b)` says
/// nothing about `a < b`, and ordering consumers (ORDER BY, range
/// predicates, MIN/MAX) decode to bytes at the comparison.
///
/// The dictionary however *knows* whether its codes happen to be in byte
/// order: `is_sorted()` is maintained incrementally (one compare per
/// Intern against the running maximum), and `out_of_order_codes()` counts
/// how many interned strings broke the order. When the maintenance module
/// decides the debt is worth paying, `SortedRebuild()` renumbers every
/// code into byte-sorted order — after which ordering consumers compare
/// codes directly (Value::Compare, the ExprProgram range kernels and the
/// columnar tail's sort all fast-path on `is_sorted()`), and
/// `LowerBoundCode`/`UpperBoundCode` turn range literals into code
/// bounds by binary search.
///
/// A rebuild invalidates the code half of every dictionary-backed Value
/// minted before it (the byte hashes are unchanged — they are hashes of
/// the bytes, not the codes — but the code -> string mapping moved).
/// Callers therefore renumber every stored consumer under the same
/// exclusive section: TableHeap::RebuildDictSorted remaps its rows and
/// AcIndex::RemapDictCodes its keys and Y-projections. Results already
/// returned to clients are NOT remapped; like dropping a table, a rebuild
/// makes previously returned dictionary-backed rows unreadable (decode or
/// copy them before triggering maintenance if they must survive it).
///
/// ## Byte-exactness
///
/// The dictionary stores std::string verbatim — embedded NUL bytes and
/// the empty string round-trip exactly, and the intern table compares
/// full (length, bytes), never C strings.
///
/// ## Thread-safety
///
/// Same single-writer/multi-reader contract as the owning TableHeap:
/// Intern and SortedRebuild mutate and require exclusive access (a
/// rebuild additionally requires that *no* reader holds codes across it —
/// the Database structural lock provides exactly that); all const members
/// are safe from concurrent readers. Interned strings live in a deque, so
/// `str(code)` references stay valid across later Interns (but not across
/// a SortedRebuild, which permutes the storage).
class StringDict {
 public:
  /// Sentinel used by encoded columns for SQL NULL (never a real code).
  static constexpr uint32_t kNullCode = 0xFFFFFFFFu;

  StringDict() : slots_(16, kNullCode), mask_(15) {}

  StringDict(const StringDict&) = delete;
  StringDict& operator=(const StringDict&) = delete;

  /// Returns the code of `s`, appending it if absent. Codes are dense,
  /// stable, and assigned in first-appearance order.
  uint32_t Intern(std::string_view s);

  /// Returns the code of `s`, or -1 if it was never interned. Hashes the
  /// bytes once.
  int64_t Find(std::string_view s) const {
    return FindWithHash(s, HashString(s));
  }

  /// Find with a caller-supplied byte hash (e.g. another dictionary's
  /// precomputed hash for the same bytes, or a Value::Hash already in
  /// hand) — performs zero byte hashing itself.
  int64_t FindWithHash(std::string_view s, uint64_t hash) const;

  /// The interned string for `code`. Reference stable across Interns.
  const std::string& str(uint32_t code) const { return strings_[code]; }

  /// The precomputed byte hash of `code` (== HashString(str(code))).
  uint64_t hash(uint32_t code) const { return hashes_[code]; }

  /// Number of distinct strings interned.
  size_t size() const { return strings_.size(); }

  /// \name Order-preserving mode.
  /// @{
  /// True when codes are in byte order: a < b <=> str(a) < str(b). Holds
  /// trivially for an empty dictionary, survives appends that arrive in
  /// sorted order, and is restored by SortedRebuild.
  bool is_sorted() const { return sorted_; }

  /// Number of interned strings that arrived out of byte order since the
  /// last rebuild (the maintenance module's rebuild-debt signal).
  uint64_t out_of_order_codes() const { return out_of_order_; }

  /// Number of sorted rebuilds performed over this dictionary's lifetime.
  uint64_t rebuilds() const { return rebuilds_; }

  /// Renumbers every code into byte-sorted order and returns the old ->
  /// new code permutation (empty when the dictionary was already sorted —
  /// a no-op). Requires exclusive access to every consumer of this
  /// dictionary's codes; see the class comment.
  std::vector<uint32_t> SortedRebuild();

  /// Smallest code whose string is >= `s` (== size() when every interned
  /// string is < `s`). Only meaningful when is_sorted(); the range
  /// kernels use it to turn ordering literals into pure code bounds.
  uint32_t LowerBoundCode(std::string_view s) const;

  /// Smallest code whose string is > `s` (== size() when none is).
  uint32_t UpperBoundCode(std::string_view s) const;
  /// @}

  /// \brief Resets this (empty) dictionary to a checkpointed state:
  /// `strings` in code order plus the order-tracking metadata the
  /// incremental path would have accumulated. Re-interning the strings
  /// rebuilds the hash table deterministically, but the order state is
  /// overwritten from the arguments — after a historical SortedRebuild,
  /// replaying interns would miscount out-of-order debt and rebuilds,
  /// and recovery must restore those bit-identically (future maintenance
  /// decisions depend on them). Errors if the dictionary is non-empty.
  Status RestoreFrom(std::vector<std::string> strings, bool sorted,
                     uint64_t out_of_order, uint64_t rebuilds);

  /// Rough memory footprint (strings + hash/slot tables). O(1): string
  /// bytes are accumulated at intern time, so monitoring surfaces can
  /// poll this without walking the dictionary.
  uint64_t ApproxBytes() const {
    return string_bytes_ + hashes_.capacity() * sizeof(uint64_t) +
           slots_.capacity() * sizeof(uint32_t);
  }

 private:
  void Grow();

  std::deque<std::string> strings_;  ///< code -> bytes (stable addresses)
  std::vector<uint64_t> hashes_;    ///< code -> precomputed byte hash
  std::vector<uint32_t> slots_;     ///< open addressing; kNullCode = empty
  size_t mask_;
  uint64_t string_bytes_ = 0;  ///< Σ per-string footprint, kept by Intern

  bool sorted_ = true;         ///< codes currently in byte order?
  uint32_t max_code_ = 0;      ///< code of the lexicographic maximum
  uint64_t out_of_order_ = 0;  ///< interns that broke the order
  uint64_t rebuilds_ = 0;      ///< lifetime SortedRebuild count
};

/// \brief One column of a columnar batch, in one of two representations:
///
///  * generic — a Value vector (any type, any string representation);
///  * encoded — a uint32 code vector over one StringDict, with
///    StringDict::kNullCode standing for SQL NULL.
///
/// The encoded form is what makes string gathers cheap: the vectorized
/// executor moves 4-byte codes where the generic form moves Values, and
/// folds precomputed dictionary hashes where the generic form calls
/// Value::Hash. `At` and `HashAt` erase the difference for consumers that
/// don't care (materializing a dictionary-backed Value is pointer + code,
/// no byte copy), and both representations hash and compare identically —
/// an encoded column is bit-compatible with its materialized twin.
struct BatchColumn {
  std::vector<Value> values;    ///< generic payload (when dict == nullptr)
  std::vector<uint32_t> codes;  ///< encoded payload (when dict != nullptr)
  const StringDict* dict = nullptr;

  bool encoded() const { return dict != nullptr; }

  size_t size() const { return encoded() ? codes.size() : values.size(); }

  /// Row `r` as a Value (dictionary-backed when encoded, no byte copy).
  Value At(size_t r) const {
    if (!encoded()) return values[r];
    uint32_t code = codes[r];
    return code == StringDict::kNullCode ? Value::Null()
                                         : Value::DictString(dict, code);
  }

  /// Value::Hash of row `r` without materializing it.
  uint64_t HashAt(size_t r) const {
    if (!encoded()) return values[r].Hash();
    uint32_t code = codes[r];
    return code == StringDict::kNullCode ? kNullValueHash : dict->hash(code);
  }

  /// Equality of rows `a` and `b` within this column (NULL == NULL, the
  /// grouping/index convention carried by Value::Equals). O(1) when
  /// encoded.
  bool RowsEqual(size_t a, size_t b) const {
    if (encoded()) return codes[a] == codes[b];
    return values[a].Equals(values[b]);
  }
};

}  // namespace beas

#endif  // BEAS_STORAGE_STRING_DICT_H_
