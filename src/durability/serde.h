#ifndef BEAS_DURABILITY_SERDE_H_
#define BEAS_DURABILITY_SERDE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "asx/access_constraint.h"
#include "common/result.h"
#include "storage/string_dict.h"
#include "types/schema.h"
#include "types/tuple.h"
#include "types/value.h"

namespace beas {
namespace durability {

/// \brief Append-only little-endian byte sink for WAL records and segment
/// payloads. Fixed-width integers are written verbatim (the format is
/// little-endian; BEAS targets little-endian hosts only, like the rest of
/// the hashing code).
class ByteSink {
 public:
  void PutU8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void PutU32(uint32_t v) { PutRaw(&v, sizeof(v)); }
  void PutU64(uint64_t v) { PutRaw(&v, sizeof(v)); }
  void PutI64(int64_t v) { PutRaw(&v, sizeof(v)); }
  void PutDouble(double v) { PutRaw(&v, sizeof(v)); }
  /// Length-prefixed bytes (u32 length).
  void PutString(std::string_view s) {
    PutU32(static_cast<uint32_t>(s.size()));
    PutRaw(s.data(), s.size());
  }
  void PutRaw(const void* data, size_t len) {
    buf_.append(static_cast<const char*>(data), len);
  }

  const std::string& str() const { return buf_; }
  std::string Take() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }

 private:
  std::string buf_;
};

/// \brief Bounds-checked reader over a byte range (e.g. a mapped segment
/// payload). Reads past the end latch `ok() == false` and return zeros;
/// callers check ok() once after a parse instead of per field.
class ByteReader {
 public:
  ByteReader(const char* data, size_t len) : p_(data), end_(data + len) {}

  uint8_t GetU8() {
    uint8_t v = 0;
    GetRaw(&v, sizeof(v));
    return v;
  }
  uint32_t GetU32() {
    uint32_t v = 0;
    GetRaw(&v, sizeof(v));
    return v;
  }
  uint64_t GetU64() {
    uint64_t v = 0;
    GetRaw(&v, sizeof(v));
    return v;
  }
  int64_t GetI64() {
    int64_t v = 0;
    GetRaw(&v, sizeof(v));
    return v;
  }
  double GetDouble() {
    double v = 0;
    GetRaw(&v, sizeof(v));
    return v;
  }
  std::string GetString() {
    uint32_t len = GetU32();
    if (!ok_ || static_cast<size_t>(end_ - p_) < len) {
      ok_ = false;
      return {};
    }
    std::string s(p_, len);
    p_ += len;
    return s;
  }
  void GetRaw(void* out, size_t len) {
    if (!ok_ || static_cast<size_t>(end_ - p_) < len) {
      ok_ = false;
      return;
    }
    std::memcpy(out, p_, len);
    p_ += len;
  }

  bool ok() const { return ok_; }
  bool AtEnd() const { return p_ == end_; }
  size_t remaining() const { return static_cast<size_t>(end_ - p_); }

 private:
  const char* p_;
  const char* end_;
  bool ok_ = true;
};

/// \name Value / row serde.
///
/// Strings are always serialized as raw bytes, never as dictionary codes —
/// a serialized row is self-contained and replayable into a dictionary in
/// any state (replay re-interns in LSN order, reproducing the original
/// first-appearance code assignment).
/// @{
void WriteValue(ByteSink* sink, const Value& v);
Result<Value> ReadValue(ByteReader* r);

void WriteRow(ByteSink* sink, const Row& row);
/// WriteRow over `count` cells stored elsewhere (a flat index bucket).
void WriteRow(ByteSink* sink, const Value* cells, size_t count);
Result<Row> ReadRow(ByteReader* r);
/// Reads one row and appends its cells to `out`; returns its arity.
Result<uint32_t> AppendRow(ByteReader* r, std::vector<Value>* out);
/// @}

/// \name Schema / constraint serde (DDL records, segment headers).
/// @{
void WriteSchema(ByteSink* sink, const Schema& schema);
Result<Schema> ReadSchema(ByteReader* r);

void WriteConstraint(ByteSink* sink, const AccessConstraint& c);
Result<AccessConstraint> ReadConstraint(ByteReader* r);
/// @}

/// Replaces inline string values of `row` with dictionary-backed ones
/// when their bytes are already interned in `dict` (no mutation of the
/// dictionary — restore paths use this after the dictionary itself has
/// been restored, so every stored string must resolve). Leaves strings
/// alone when `dict` is null or the bytes are absent.
void CanonicalizeRow(Row* row, const StringDict* dict);

}  // namespace durability
}  // namespace beas

#endif  // BEAS_DURABILITY_SERDE_H_
