#ifndef BEAS_TYPES_VALUE_H_
#define BEAS_TYPES_VALUE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/hash.h"
#include "common/result.h"
#include "types/data_type.h"

namespace beas {

class StringDict;

/// \brief A typed scalar: the unit of data flowing through the engine.
///
/// NULL compares equal to NULL for grouping/index purposes and orders
/// before all non-NULL values; SQL three-valued logic is handled by the
/// expression evaluator, which treats comparisons against NULL as
/// not-satisfied.
///
/// ## Layout (24 bytes)
///
/// Two 8-byte words, a length byte, the type tag and a representation
/// tag. The first word holds the int64 / date / double payload, or a
/// dictionary code; the second holds a pointer (the StringDict, or an
/// owned string block). Short inline strings reuse both words as 16
/// bytes of character storage. Copying a non-string, dictionary-backed
/// or short-string value is a 24-byte copy and one tag test.
///
/// Strings have interchangeable representations:
///  * inline — literals, parameters, ad-hoc values. Up to
///    kShortStringCapacity bytes live in the value itself (no
///    allocation); longer strings live in one immutable heap block
///    (reference count, length and bytes in a single allocation), which
///    copies share by an atomic increment;
///  * dictionary-backed ({StringDict*, uint32 code}) — values interned by
///    their table's dictionary at ingest (see storage/string_dict.h).
/// The representations are semantically indistinguishable: AsString /
/// Compare / Hash / ToString agree byte-for-byte, so callers never branch
/// on the representation. What changes is the cost model —
/// dictionary-backed values hash via one array read and compare
/// equal/unequal by code against values of the same dictionary. Ordering
/// comparisons decode to bytes unless the dictionary is sorted.
class Value {
 public:
  /// Inline strings up to this many bytes need no allocation.
  static constexpr size_t kShortStringCapacity = 16;

  /// Constructs a NULL value.
  Value() noexcept { words_.w.i = 0; words_.w.ptr = nullptr; }

  Value(const Value& other) noexcept
      : words_(other.words_),
        len_(other.len_),
        type_(other.type_),
        rep_(other.rep_) {
    if (rep_ == Rep::kLong) Retain();
  }
  Value(Value&& other) noexcept
      : words_(other.words_),
        len_(other.len_),
        type_(other.type_),
        rep_(other.rep_) {
    // The moved-from value keeps its type and becomes the empty string,
    // like a moved-from std::string; no reference count traffic.
    if (rep_ == Rep::kLong) other.BecomeEmptyString();
  }
  Value& operator=(const Value& other) noexcept {
    if (other.rep_ == Rep::kLong) other.Retain();  // first: self-assign safe
    if (rep_ == Rep::kLong) Release();
    words_ = other.words_;
    len_ = other.len_;
    type_ = other.type_;
    rep_ = other.rep_;
    return *this;
  }
  Value& operator=(Value&& other) noexcept {
    if (this == &other) return *this;
    if (rep_ == Rep::kLong) Release();
    words_ = other.words_;
    len_ = other.len_;
    type_ = other.type_;
    rep_ = other.rep_;
    if (rep_ == Rep::kLong) other.BecomeEmptyString();
    return *this;
  }
  ~Value() {
    if (rep_ == Rep::kLong) Release();
  }

  static Value Null() { return Value(); }
  static Value Int64(int64_t v) {
    Value out;
    out.type_ = TypeId::kInt64;
    out.words_.w.i = v;
    return out;
  }
  static Value Double(double v) {
    Value out;
    out.type_ = TypeId::kDouble;
    out.words_.w.d = v;
    return out;
  }
  /// Constructs an inline STRING holding a copy of `v`'s bytes.
  static Value String(std::string_view v);
  /// Constructs a dictionary-backed STRING: `code` must be a live code of
  /// `dict`, which must outlive the value (table dictionaries live as long
  /// as their TableHeap).
  static Value DictString(const StringDict* dict, uint32_t code) {
    Value out;
    out.type_ = TypeId::kString;
    out.rep_ = Rep::kDict;
    out.words_.w.i = code;
    out.words_.w.ptr = dict;
    return out;
  }
  /// Constructs a DATE from the int64 YYYYMMDD encoding.
  static Value Date(int64_t yyyymmdd) {
    Value out;
    out.type_ = TypeId::kDate;
    out.words_.w.i = yyyymmdd;
    return out;
  }
  /// Parses "YYYY-MM-DD" into a DATE value.
  static Result<Value> DateFromString(const std::string& s);

  TypeId type() const { return type_; }
  bool is_null() const { return type_ == TypeId::kNull; }

  /// \name Accessors; callers must check type() first.
  /// @{
  /// The int payload of INT/DATE (0 for NULL, DOUBLE and STRING).
  int64_t AsInt64() const { return HasIntPayload() ? words_.w.i : 0; }
  double AsDouble() const {
    return type_ == TypeId::kDouble ? words_.w.d
                                    : static_cast<double>(AsInt64());
  }
  /// The string bytes. Dictionary-backed values view the dictionary
  /// (stable for the table's lifetime); inline values view this value's
  /// own storage, valid while the value lives unmodified.
  std::string_view AsString() const;
  int64_t AsDate() const { return AsInt64(); }
  /// @}

  /// \name Dictionary representation (kString only).
  /// @{
  /// The backing dictionary, or nullptr for inline strings / non-strings.
  const StringDict* dict() const {
    return rep_ == Rep::kDict ? static_cast<const StringDict*>(words_.w.ptr)
                              : nullptr;
  }
  /// The dictionary code; meaningful only when dict() != nullptr.
  uint32_t dict_code() const { return static_cast<uint32_t>(words_.w.i); }
  /// @}

  /// \brief Coerces this value to `target` type if implicitly allowed
  /// (INT->DOUBLE, STRING->DATE, INT->DATE).
  Result<Value> CoerceTo(TypeId target) const;

  /// \brief Total order across values of the same comparable family.
  ///
  /// NULL < everything; INT and DOUBLE compare numerically with each
  /// other; DATE compares with DATE (and INT, sharing the encoding).
  /// Returns <0, 0, >0. Comparing STRING with a numeric type is a
  /// programming error caught by the evaluator before reaching here;
  /// this function falls back to type-tag order for heterogeneity.
  int Compare(const Value& other) const;

  /// \brief Equality, semantically identical to Compare() == 0 but O(1)
  /// for two values of the same dictionary (interning deduplicates, so
  /// equal codes <=> equal bytes).
  bool Equals(const Value& other) const {
    if (rep_ == Rep::kDict && other.rep_ == Rep::kDict &&
        words_.w.ptr == other.words_.w.ptr) {
      return words_.w.i == other.words_.w.i;
    }
    return Compare(other) == 0;
  }

  bool operator==(const Value& other) const { return Equals(other); }
  bool operator!=(const Value& other) const { return !Equals(other); }
  bool operator<(const Value& other) const { return Compare(other) < 0; }

  /// \brief Hash consistent with operator== (INT/DOUBLE/DATE with equal
  /// numeric value may hash differently across type families; the engine
  /// always hashes values of one declared column type together).
  /// Dictionary-backed strings serve the byte hash precomputed at intern
  /// time — one array read, no byte hashing — and hash identically to the
  /// inline representation of the same bytes.
  uint64_t Hash() const;

  /// \brief Renders for display: NULL, 42, 3.14, 'text', 2016-03-01.
  std::string ToString() const;

  /// \brief Renders for CSV (no quotes added; dates as YYYY-MM-DD).
  std::string ToCsv() const;

 private:
  /// How the payload words are used. kPlain covers NULL and the numeric
  /// types; the other three are STRING representations.
  enum class Rep : uint8_t { kPlain, kShort, kLong, kDict };

  struct Words {
    union {
      int64_t i;  ///< int/date payload; dictionary code when kDict
      double d;
    };
    const void* ptr;  ///< StringDict* (kDict) or string block (kLong)
  };
  union Storage {
    Words w;
    char chars[kShortStringCapacity];  ///< kShort bytes
  };

  void BecomeEmptyString() {
    rep_ = Rep::kShort;
    len_ = 0;
  }
  bool HasIntPayload() const {
    return rep_ == Rep::kPlain && type_ != TypeId::kDouble;
  }
  /// Reference counting of the kLong block (out of line: copies of long
  /// inline strings are off every hot path).
  void Retain() const;
  void Release();

  Storage words_;
  uint8_t len_ = 0;  ///< byte length when kShort
  TypeId type_ = TypeId::kNull;
  Rep rep_ = Rep::kPlain;
};

static_assert(sizeof(Value) <= 24, "Value must stay three words");

/// \brief A key made of several values (e.g. the X-projection probed into an
/// access-constraint index).
using ValueVec = std::vector<Value>;

/// \brief Hash functor for ValueVec keys in unordered containers.
struct ValueVecHash {
  size_t operator()(const ValueVec& v) const {
    uint64_t seed = kValueVecHashSeed;
    for (const Value& x : v) HashCombine(&seed, x.Hash());
    return static_cast<size_t>(seed);
  }
};

/// \brief Equality functor for ValueVec keys in unordered containers.
struct ValueVecEq {
  bool operator()(const ValueVec& a, const ValueVec& b) const {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (a[i] != b[i]) return false;
    }
    return true;
  }
};

/// \brief Lexicographic comparison of two value vectors.
int CompareValueVec(const ValueVec& a, const ValueVec& b);

/// \brief Renders a vector of values as "(v1, v2, ...)".
std::string ValueVecToString(const ValueVec& v);

}  // namespace beas

#endif  // BEAS_TYPES_VALUE_H_
