#include "types/value.h"

#include <atomic>
#include <cmath>
#include <cstring>
#include <new>

#include "common/string_util.h"
#include "storage/string_dict.h"

namespace beas {

namespace {

/// The heap block behind a long inline string: reference count, length
/// and bytes in one allocation. Immutable once built, so sharing it
/// across threads needs only the atomic count.
struct LongString {
  std::atomic<uint32_t> refs;
  size_t size;
  const char* data() const { return reinterpret_cast<const char*>(this + 1); }
  char* data() { return reinterpret_cast<char*>(this + 1); }
};

const LongString* AsLong(const void* p) {
  return static_cast<const LongString*>(p);
}

}  // namespace

Value Value::String(std::string_view v) {
  Value out;
  out.type_ = TypeId::kString;
  if (v.size() <= kShortStringCapacity) {
    out.rep_ = Rep::kShort;
    out.len_ = static_cast<uint8_t>(v.size());
    if (!v.empty()) std::memcpy(out.words_.chars, v.data(), v.size());
    return out;
  }
  void* mem = ::operator new(sizeof(LongString) + v.size());
  LongString* block = new (mem) LongString{{1}, v.size()};
  std::memcpy(block->data(), v.data(), v.size());
  out.rep_ = Rep::kLong;
  out.words_.w.ptr = block;
  return out;
}

void Value::Retain() const {
  const_cast<LongString*>(AsLong(words_.w.ptr))
      ->refs.fetch_add(1, std::memory_order_relaxed);
}

void Value::Release() {
  LongString* block = const_cast<LongString*>(AsLong(words_.w.ptr));
  if (block->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    block->~LongString();
    ::operator delete(block);
  }
}

std::string_view Value::AsString() const {
  switch (rep_) {
    case Rep::kShort:
      return std::string_view(words_.chars, len_);
    case Rep::kLong: {
      const LongString* block = AsLong(words_.w.ptr);
      return std::string_view(block->data(), block->size);
    }
    case Rep::kDict:
      return dict()->str(dict_code());
    case Rep::kPlain:
      break;
  }
  return std::string_view();
}

Result<Value> Value::DateFromString(const std::string& s) {
  BEAS_ASSIGN_OR_RETURN(int64_t enc, ParseDate(s));
  return Value::Date(enc);
}

Result<Value> Value::CoerceTo(TypeId target) const {
  if (type_ == target) return *this;
  if (type_ == TypeId::kNull) return Value::Null();
  switch (target) {
    case TypeId::kDouble:
      if (type_ == TypeId::kInt64) return Value::Double(static_cast<double>(AsInt64()));
      break;
    case TypeId::kDate:
      if (type_ == TypeId::kString) return DateFromString(std::string(AsString()));
      if (type_ == TypeId::kInt64) {
        if (!IsValidDateEncoding(AsInt64())) {
          return Status::TypeError("integer " + std::to_string(AsInt64()) +
                                   " is not a valid YYYYMMDD date");
        }
        return Value::Date(AsInt64());
      }
      break;
    case TypeId::kInt64:
      if (type_ == TypeId::kDate) return Value::Int64(AsInt64());
      break;
    default:
      break;
  }
  return Status::TypeError(std::string("cannot coerce ") + TypeIdToString(type_) +
                           " to " + TypeIdToString(target));
}

namespace {

/// Numeric family: INT64, DOUBLE, DATE (DATE shares the int encoding).
bool IsNumericFamily(TypeId t) {
  return t == TypeId::kInt64 || t == TypeId::kDouble || t == TypeId::kDate;
}

}  // namespace

int Value::Compare(const Value& other) const {
  if (is_null() && other.is_null()) return 0;
  if (is_null()) return -1;
  if (other.is_null()) return 1;
  if (IsNumericFamily(type_) && IsNumericFamily(other.type_)) {
    if (type_ == TypeId::kDouble || other.type_ == TypeId::kDouble) {
      double a = AsDouble();
      double b = other.AsDouble();
      if (a < b) return -1;
      if (a > b) return 1;
      return 0;
    }
    int64_t a = words_.w.i;
    int64_t b = other.words_.w.i;
    if (a < b) return -1;
    if (a > b) return 1;
    return 0;
  }
  if (type_ == TypeId::kString && other.type_ == TypeId::kString) {
    // Same dictionary: equal codes <=> equal bytes (interning dedups).
    // Distinct codes of a *sorted* dictionary compare directly — after a
    // SortedRebuild, code order is byte order, so ORDER BY / ranges /
    // MIN-MAX on dictionary values cost a uint32 compare. Unsorted
    // (first-appearance) codes still decode here — the sort boundary —
    // and the decode is counted so tests can pin its absence.
    const StringDict* dict = this->dict();
    if (dict != nullptr && dict == other.dict()) {
      uint32_t a = dict_code();
      uint32_t b = other.dict_code();
      if (a == b) return 0;
      if (dict->is_sorted()) return a < b ? -1 : 1;
      // Distinct codes of an unsorted dictionary: an ordering consumer
      // is decoding at the sort boundary (equality consumers take
      // Equals' code path and never reach here with equal bytes).
      ++tls_string_order_decodes;
    }
    int c = AsString().compare(other.AsString());
    return c < 0 ? -1 : (c == 0 ? 0 : 1);
  }
  // Heterogeneous (string vs numeric): order by type tag for stability.
  return static_cast<int>(type_) < static_cast<int>(other.type_) ? -1 : 1;
}

uint64_t Value::Hash() const {
  switch (type_) {
    case TypeId::kNull:
      return kNullValueHash;
    case TypeId::kInt64:
    case TypeId::kDate:
      return HashInt64(static_cast<uint64_t>(words_.w.i));
    case TypeId::kDouble: {
      double d = words_.w.d;
      // Hash doubles that equal an integer identically to that integer so
      // mixed INT/DOUBLE group keys behave (rare in practice).
      double r = std::round(d);
      if (r == d && std::abs(d) < 9.0e18) {
        return HashInt64(static_cast<uint64_t>(static_cast<int64_t>(r)));
      }
      uint64_t bits;
      static_assert(sizeof(bits) == sizeof(d));
      std::memcpy(&bits, &d, sizeof(bits));
      return HashInt64(bits);
    }
    case TypeId::kString:
      // Dictionary-backed: the byte hash computed once at intern time.
      if (rep_ == Rep::kDict) return dict()->hash(dict_code());
      return HashString(AsString());
  }
  return 0;
}

std::string Value::ToString() const {
  switch (type_) {
    case TypeId::kNull:
      return "NULL";
    case TypeId::kInt64:
      return std::to_string(words_.w.i);
    case TypeId::kDouble: {
      return StringPrintf("%.6g", words_.w.d);
    }
    case TypeId::kString:
      return "'" + std::string(AsString()) + "'";
    case TypeId::kDate:
      return FormatDate(words_.w.i);
  }
  return "?";
}

std::string Value::ToCsv() const {
  if (type_ == TypeId::kString) return std::string(AsString());
  if (type_ == TypeId::kNull) return "";
  return ToString();
}

int CompareValueVec(const ValueVec& a, const ValueVec& b) {
  size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    int c = a[i].Compare(b[i]);
    if (c != 0) return c;
  }
  if (a.size() < b.size()) return -1;
  if (a.size() > b.size()) return 1;
  return 0;
}

std::string ValueVecToString(const ValueVec& v) {
  std::string out = "(";
  for (size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ", ";
    out += v[i].ToString();
  }
  out += ")";
  return out;
}

}  // namespace beas
