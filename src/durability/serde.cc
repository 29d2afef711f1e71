#include "durability/serde.h"

#include "common/hash.h"

namespace beas {
namespace durability {

namespace {

/// On-wire value tags. Deliberately not TypeId: the storage format must
/// stay stable even if the in-memory enum is reordered.
enum class ValueTag : uint8_t {
  kNull = 0,
  kInt64 = 1,
  kDouble = 2,
  kString = 3,
  kDate = 4,
};

}  // namespace

void WriteValue(ByteSink* sink, const Value& v) {
  switch (v.type()) {
    case TypeId::kNull:
      sink->PutU8(static_cast<uint8_t>(ValueTag::kNull));
      return;
    case TypeId::kInt64:
      sink->PutU8(static_cast<uint8_t>(ValueTag::kInt64));
      sink->PutI64(v.AsInt64());
      return;
    case TypeId::kDouble:
      sink->PutU8(static_cast<uint8_t>(ValueTag::kDouble));
      sink->PutDouble(v.AsDouble());
      return;
    case TypeId::kString:
      // Raw bytes regardless of representation: AsString decodes
      // dictionary-backed values, so both representations serialize
      // identically (and deserialize inline, to be re-canonicalized).
      sink->PutU8(static_cast<uint8_t>(ValueTag::kString));
      sink->PutString(v.AsString());
      return;
    case TypeId::kDate:
      sink->PutU8(static_cast<uint8_t>(ValueTag::kDate));
      sink->PutI64(v.AsDate());
      return;
  }
  sink->PutU8(static_cast<uint8_t>(ValueTag::kNull));
}

Result<Value> ReadValue(ByteReader* r) {
  uint8_t tag = r->GetU8();
  Value v;
  switch (static_cast<ValueTag>(tag)) {
    case ValueTag::kNull:
      v = Value::Null();
      break;
    case ValueTag::kInt64:
      v = Value::Int64(r->GetI64());
      break;
    case ValueTag::kDouble:
      v = Value::Double(r->GetDouble());
      break;
    case ValueTag::kString:
      v = Value::String(r->GetString());
      break;
    case ValueTag::kDate:
      v = Value::Date(r->GetI64());
      break;
    default:
      return Status::IoError("unknown value tag " + std::to_string(tag));
  }
  if (!r->ok()) return Status::IoError("truncated value");
  return v;
}

void WriteRow(ByteSink* sink, RowRef row) {
  sink->PutU32(static_cast<uint32_t>(row.size()));
  for (const Value& v : row) WriteValue(sink, v);
}

Result<uint32_t> AppendRow(ByteReader* r, std::vector<Value>* out) {
  uint32_t arity = r->GetU32();
  if (!r->ok() || arity > r->remaining()) {
    return Status::IoError("truncated row header");
  }
  out->reserve(out->size() + arity);
  for (uint32_t i = 0; i < arity; ++i) {
    BEAS_ASSIGN_OR_RETURN(Value v, ReadValue(r));
    out->push_back(std::move(v));
  }
  return arity;
}

Result<Row> ReadRow(ByteReader* r) {
  Row row;
  BEAS_RETURN_NOT_OK(AppendRow(r, &row).status());
  return row;
}

void WriteSchema(ByteSink* sink, const Schema& schema) {
  sink->PutU32(static_cast<uint32_t>(schema.NumColumns()));
  for (const Column& c : schema.columns()) {
    sink->PutString(c.name);
    sink->PutU8(static_cast<uint8_t>(c.type));
  }
}

Result<Schema> ReadSchema(ByteReader* r) {
  uint32_t ncols = r->GetU32();
  if (!r->ok() || ncols > r->remaining()) {
    return Status::IoError("truncated schema header");
  }
  std::vector<Column> cols;
  cols.reserve(ncols);
  for (uint32_t i = 0; i < ncols; ++i) {
    std::string name = r->GetString();
    TypeId type = static_cast<TypeId>(r->GetU8());
    if (!r->ok()) return Status::IoError("truncated schema column");
    cols.emplace_back(std::move(name), type);
  }
  return Schema(std::move(cols));
}

void WriteConstraint(ByteSink* sink, const AccessConstraint& c) {
  sink->PutString(c.name);
  sink->PutString(c.table);
  sink->PutU32(static_cast<uint32_t>(c.x_attrs.size()));
  for (const std::string& a : c.x_attrs) sink->PutString(a);
  sink->PutU32(static_cast<uint32_t>(c.y_attrs.size()));
  for (const std::string& a : c.y_attrs) sink->PutString(a);
  sink->PutU64(c.limit_n);
}

Result<AccessConstraint> ReadConstraint(ByteReader* r) {
  AccessConstraint c;
  c.name = r->GetString();
  c.table = r->GetString();
  uint32_t nx = r->GetU32();
  if (!r->ok() || nx > r->remaining()) {
    return Status::IoError("truncated constraint");
  }
  for (uint32_t i = 0; i < nx; ++i) c.x_attrs.push_back(r->GetString());
  uint32_t ny = r->GetU32();
  if (!r->ok() || ny > r->remaining()) {
    return Status::IoError("truncated constraint");
  }
  for (uint32_t i = 0; i < ny; ++i) c.y_attrs.push_back(r->GetString());
  c.limit_n = r->GetU64();
  if (!r->ok()) return Status::IoError("truncated constraint");
  return c;
}

void CanonicalizeRow(Row* row, const StringDict* dict) {
  if (dict == nullptr) return;
  for (Value& v : *row) {
    if (v.type() != TypeId::kString || v.dict() == dict) continue;
    int64_t code = dict->Find(v.AsString());
    if (code >= 0) {
      v = Value::DictString(dict, static_cast<uint32_t>(code));
    }
  }
}

}  // namespace durability
}  // namespace beas
