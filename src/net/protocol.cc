#include "net/protocol.h"

#include <cstring>

namespace beas {
namespace net {

const char kFrameMagic[4] = {'B', 'N', 'W', '1'};

namespace {

// ---------------------------------------------------------------------------
// Little-endian append/read primitives. Explicit byte shuffling (not
// memcpy of host integers) keeps the wire format host-independent.
// ---------------------------------------------------------------------------

void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

void PutU16(std::string* out, uint16_t v) {
  PutU8(out, static_cast<uint8_t>(v));
  PutU8(out, static_cast<uint8_t>(v >> 8));
}

void PutU32(std::string* out, uint32_t v) {
  PutU16(out, static_cast<uint16_t>(v));
  PutU16(out, static_cast<uint16_t>(v >> 16));
}

void PutU64(std::string* out, uint64_t v) {
  PutU32(out, static_cast<uint32_t>(v));
  PutU32(out, static_cast<uint32_t>(v >> 32));
}

void PutI64(std::string* out, int64_t v) {
  PutU64(out, static_cast<uint64_t>(v));
}

void PutF64(std::string* out, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(out, bits);
}

void PutString(std::string* out, std::string_view s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

/// Bounds-checked sequential reader over a payload. Every Read* returns
/// false once the payload is exhausted; callers surface one kCorruption.
class Reader {
 public:
  Reader(const uint8_t* data, size_t len) : data_(data), len_(len) {}

  bool U8(uint8_t* v) {
    if (pos_ + 1 > len_) return false;
    *v = data_[pos_++];
    return true;
  }
  bool U16(uint16_t* v) {
    uint8_t a, b;
    if (!U8(&a) || !U8(&b)) return false;
    *v = static_cast<uint16_t>(a | (b << 8));
    return true;
  }
  bool U32(uint32_t* v) {
    uint16_t a, b;
    if (!U16(&a) || !U16(&b)) return false;
    *v = static_cast<uint32_t>(a) | (static_cast<uint32_t>(b) << 16);
    return true;
  }
  bool U64(uint64_t* v) {
    uint32_t a, b;
    if (!U32(&a) || !U32(&b)) return false;
    *v = static_cast<uint64_t>(a) | (static_cast<uint64_t>(b) << 32);
    return true;
  }
  bool I64(int64_t* v) {
    uint64_t bits;
    if (!U64(&bits)) return false;
    *v = static_cast<int64_t>(bits);
    return true;
  }
  bool F64(double* v) {
    uint64_t bits;
    if (!U64(&bits)) return false;
    std::memcpy(v, &bits, sizeof(*v));
    return true;
  }
  bool Str(std::string* v) {
    uint32_t n;
    if (!U32(&n)) return false;
    // The length itself is attacker-controlled: check against what is
    // actually left, never allocate first.
    if (pos_ + n > len_) return false;
    v->assign(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return true;
  }
  bool Done() const { return pos_ == len_; }

 private:
  const uint8_t* data_;
  size_t len_;
  size_t pos_ = 0;
};

Status Truncated(const char* what) {
  return Status::Corruption(std::string("truncated ") + what + " payload");
}

// ---------------------------------------------------------------------------
// Value codec: one type-tag byte, then the payload. Dictionary-backed
// strings encode as their bytes (the wire is always self-contained).
// ---------------------------------------------------------------------------

constexpr uint8_t kTagNull = 0;
constexpr uint8_t kTagInt64 = 1;
constexpr uint8_t kTagDouble = 2;
constexpr uint8_t kTagString = 3;
constexpr uint8_t kTagDate = 4;

void PutValue(std::string* out, const Value& v) {
  switch (v.type()) {
    case TypeId::kNull:
      PutU8(out, kTagNull);
      return;
    case TypeId::kInt64:
      PutU8(out, kTagInt64);
      PutI64(out, v.AsInt64());
      return;
    case TypeId::kDouble:
      PutU8(out, kTagDouble);
      PutF64(out, v.AsDouble());
      return;
    case TypeId::kString:
      PutU8(out, kTagString);
      PutString(out, v.AsString());
      return;
    case TypeId::kDate:
      PutU8(out, kTagDate);
      PutI64(out, v.AsDate());
      return;
  }
  PutU8(out, kTagNull);  // unreachable; keep the frame well-formed
}

bool ReadValue(Reader* in, Value* out) {
  uint8_t tag;
  if (!in->U8(&tag)) return false;
  switch (tag) {
    case kTagNull:
      *out = Value::Null();
      return true;
    case kTagInt64: {
      int64_t v;
      if (!in->I64(&v)) return false;
      *out = Value::Int64(v);
      return true;
    }
    case kTagDouble: {
      double v;
      if (!in->F64(&v)) return false;
      *out = Value::Double(v);
      return true;
    }
    case kTagString: {
      std::string v;
      if (!in->Str(&v)) return false;
      *out = Value::String(std::move(v));
      return true;
    }
    case kTagDate: {
      int64_t v;
      if (!in->I64(&v)) return false;
      *out = Value::Date(v);
      return true;
    }
    default:
      return false;  // unknown tag: corrupt frame
  }
}

void PutRow(std::string* out, const Row& row) {
  PutU16(out, static_cast<uint16_t>(row.size()));
  for (const Value& v : row) PutValue(out, v);
}

bool ReadRow(Reader* in, Row* out) {
  uint16_t n;
  if (!in->U16(&n)) return false;
  out->clear();
  out->reserve(n);
  for (uint16_t i = 0; i < n; ++i) {
    Value v;
    if (!ReadValue(in, &v)) return false;
    out->push_back(std::move(v));
  }
  return true;
}

std::string FinishFrame(FrameKind kind, uint32_t request_id,
                        std::string payload) {
  FrameHeader header;
  header.kind = kind;
  header.request_id = request_id;
  header.payload_len = static_cast<uint32_t>(payload.size());
  uint8_t raw[kFrameHeaderSize];
  EncodeFrameHeader(header, raw);
  std::string frame(reinterpret_cast<const char*>(raw), kFrameHeaderSize);
  frame += payload;
  return frame;
}

// QueryResponse flag bits (response payload byte 1 when OK).
constexpr uint8_t kFlagCacheHit = 1u << 0;
constexpr uint8_t kFlagCacheable = 1u << 1;
constexpr uint8_t kFlagDegraded = 1u << 2;
constexpr uint8_t kFlagTimedOut = 1u << 3;
constexpr uint8_t kFlagCovered = 1u << 4;
constexpr uint8_t kFlagUnsatisfiable = 1u << 5;
constexpr uint8_t kFlagApproxExact = 1u << 6;
constexpr uint8_t kFlagResultCacheHit = 1u << 7;

}  // namespace

void EncodeFrameHeader(const FrameHeader& header,
                       uint8_t out[kFrameHeaderSize]) {
  std::memcpy(out, kFrameMagic, 4);
  out[4] = static_cast<uint8_t>(header.kind);
  out[5] = header.flags;
  out[6] = 0;
  out[7] = 0;
  out[8] = static_cast<uint8_t>(header.request_id);
  out[9] = static_cast<uint8_t>(header.request_id >> 8);
  out[10] = static_cast<uint8_t>(header.request_id >> 16);
  out[11] = static_cast<uint8_t>(header.request_id >> 24);
  out[12] = static_cast<uint8_t>(header.payload_len);
  out[13] = static_cast<uint8_t>(header.payload_len >> 8);
  out[14] = static_cast<uint8_t>(header.payload_len >> 16);
  out[15] = static_cast<uint8_t>(header.payload_len >> 24);
}

Result<FrameHeader> DecodeFrameHeader(const uint8_t* data, size_t len) {
  if (len < kFrameHeaderSize) {
    return Status::Corruption("short frame header");
  }
  if (std::memcmp(data, kFrameMagic, 4) != 0) {
    return Status::Corruption("bad frame magic");
  }
  FrameHeader header;
  header.kind = static_cast<FrameKind>(data[4]);
  header.flags = data[5];
  header.request_id = static_cast<uint32_t>(data[8]) |
                      (static_cast<uint32_t>(data[9]) << 8) |
                      (static_cast<uint32_t>(data[10]) << 16) |
                      (static_cast<uint32_t>(data[11]) << 24);
  header.payload_len = static_cast<uint32_t>(data[12]) |
                       (static_cast<uint32_t>(data[13]) << 8) |
                       (static_cast<uint32_t>(data[14]) << 16) |
                       (static_cast<uint32_t>(data[15]) << 24);
  if (header.payload_len > kMaxWirePayload) {
    return Status::Corruption("frame payload length " +
                              std::to_string(header.payload_len) +
                              " exceeds the protocol ceiling");
  }
  switch (header.kind) {
    case FrameKind::kQueryRequest:
    case FrameKind::kInsertRequest:
    case FrameKind::kPing:
    case FrameKind::kResponse:
      break;
    default:
      return Status::Corruption("unknown frame kind " +
                                std::to_string(data[4]));
  }
  return header;
}

std::string EncodeQueryRequestFrame(uint32_t request_id,
                                    const QueryRequest& request) {
  std::string payload;
  PutU8(&payload, static_cast<uint8_t>(request.mode));
  PutU64(&payload, request.approx_budget);
  PutI64(&payload, request.options.timeout_millis);
  PutU64(&payload, request.options.fetch_budget);
  PutF64(&payload, request.options.min_eta);
  PutString(&payload, request.tenant);
  PutString(&payload, request.sql);
  return FinishFrame(FrameKind::kQueryRequest, request_id,
                     std::move(payload));
}

Result<QueryRequest> DecodeQueryRequest(const uint8_t* payload, size_t len) {
  Reader in(payload, len);
  QueryRequest request;
  uint8_t mode;
  if (!in.U8(&mode) || !in.U64(&request.approx_budget) ||
      !in.I64(&request.options.timeout_millis) ||
      !in.U64(&request.options.fetch_budget) ||
      !in.F64(&request.options.min_eta) || !in.Str(&request.tenant) ||
      !in.Str(&request.sql) || !in.Done()) {
    return Truncated("query request");
  }
  if (mode > static_cast<uint8_t>(QueryMode::kCheckOnly)) {
    return Status::InvalidArgument("unknown query mode byte " +
                                   std::to_string(mode));
  }
  request.mode = static_cast<QueryMode>(mode);
  return request;
}

std::string EncodeInsertRequestFrame(uint32_t request_id,
                                     const InsertRequest& request) {
  std::string payload;
  PutString(&payload, request.table);
  PutU32(&payload, static_cast<uint32_t>(request.rows.size()));
  for (const Row& row : request.rows) PutRow(&payload, row);
  return FinishFrame(FrameKind::kInsertRequest, request_id,
                     std::move(payload));
}

Result<InsertRequest> DecodeInsertRequest(const uint8_t* payload, size_t len) {
  Reader in(payload, len);
  InsertRequest request;
  uint32_t nrows;
  if (!in.Str(&request.table) || !in.U32(&nrows)) {
    return Truncated("insert request");
  }
  // Reserve against the bytes actually present, not the claimed count: a
  // row is at least 2 bytes, so a count the payload cannot hold is lies.
  if (static_cast<uint64_t>(nrows) * 2 > len) {
    return Status::Corruption("insert row count exceeds payload size");
  }
  request.rows.reserve(nrows);
  for (uint32_t i = 0; i < nrows; ++i) {
    Row row;
    if (!ReadRow(&in, &row)) return Truncated("insert request");
    request.rows.push_back(std::move(row));
  }
  if (!in.Done()) return Truncated("insert request");
  return request;
}

std::string EncodePingFrame(uint32_t request_id) {
  return FinishFrame(FrameKind::kPing, request_id, std::string());
}

std::string EncodeResponseFrame(uint32_t request_id,
                                const WireResponse& response) {
  std::string payload;
  PutU8(&payload, static_cast<uint8_t>(response.status.code()));
  if (!response.status.ok()) {
    PutString(&payload, response.status.message());
    return FinishFrame(FrameKind::kResponse, request_id, std::move(payload));
  }
  const QueryResponse& r = response.response;
  uint8_t flags = 0;
  if (r.cache_hit) flags |= kFlagCacheHit;
  if (r.cacheable) flags |= kFlagCacheable;
  if (r.degraded) flags |= kFlagDegraded;
  if (r.timed_out) flags |= kFlagTimedOut;
  if (r.covered) flags |= kFlagCovered;
  if (r.unsatisfiable) flags |= kFlagUnsatisfiable;
  if (r.approx_exact) flags |= kFlagApproxExact;
  if (r.result_cache_hit) flags |= kFlagResultCacheHit;
  PutU8(&payload, flags);
  PutF64(&payload, r.eta);
  PutU64(&payload, r.template_hash);
  PutU8(&payload, static_cast<uint8_t>(r.decision.mode));
  PutU64(&payload, r.decision.deduced_bound);
  PutString(&payload, r.decision.explanation);
  PutString(&payload, r.reason);
  PutU64(&payload, r.approx_budget);
  PutU64(&payload, r.tuples_fetched);
  PutU64(&payload, response.rows_inserted);
  PutU16(&payload, static_cast<uint16_t>(r.result.column_names.size()));
  for (size_t i = 0; i < r.result.column_names.size(); ++i) {
    PutString(&payload, r.result.column_names[i]);
    TypeId type = i < r.result.column_types.size() ? r.result.column_types[i]
                                                   : TypeId::kNull;
    PutU8(&payload, static_cast<uint8_t>(type));
  }
  PutU32(&payload, static_cast<uint32_t>(r.result.rows.size()));
  for (const Row& row : r.result.rows) PutRow(&payload, row);
  return FinishFrame(FrameKind::kResponse, request_id, std::move(payload));
}

Result<WireResponse> DecodeResponse(const uint8_t* payload, size_t len) {
  Reader in(payload, len);
  WireResponse response;
  uint8_t code;
  if (!in.U8(&code)) return Truncated("response");
  if (code > static_cast<uint8_t>(StatusCode::kCorruption)) {
    return Status::Corruption("unknown status code byte " +
                              std::to_string(code));
  }
  if (code != static_cast<uint8_t>(StatusCode::kOk)) {
    std::string message;
    if (!in.Str(&message) || !in.Done()) return Truncated("response");
    response.status = Status(static_cast<StatusCode>(code),
                             std::move(message));
    return response;
  }
  QueryResponse& r = response.response;
  uint8_t flags, mode;
  if (!in.U8(&flags) || !in.F64(&r.eta) || !in.U64(&r.template_hash) ||
      !in.U8(&mode) || !in.U64(&r.decision.deduced_bound) ||
      !in.Str(&r.decision.explanation) || !in.Str(&r.reason) ||
      !in.U64(&r.approx_budget) || !in.U64(&r.tuples_fetched) ||
      !in.U64(&response.rows_inserted)) {
    return Truncated("response");
  }
  r.cache_hit = (flags & kFlagCacheHit) != 0;
  r.cacheable = (flags & kFlagCacheable) != 0;
  r.degraded = (flags & kFlagDegraded) != 0;
  r.timed_out = (flags & kFlagTimedOut) != 0;
  r.covered = (flags & kFlagCovered) != 0;
  r.unsatisfiable = (flags & kFlagUnsatisfiable) != 0;
  r.approx_exact = (flags & kFlagApproxExact) != 0;
  r.result_cache_hit = (flags & kFlagResultCacheHit) != 0;
  if (mode > static_cast<uint8_t>(
                 BeasSession::ExecutionDecision::Mode::kConventional)) {
    return Status::Corruption("unknown decision mode byte " +
                              std::to_string(mode));
  }
  r.decision.mode = static_cast<BeasSession::ExecutionDecision::Mode>(mode);
  uint16_t ncols;
  if (!in.U16(&ncols)) return Truncated("response");
  r.result.column_names.reserve(ncols);
  r.result.column_types.reserve(ncols);
  for (uint16_t i = 0; i < ncols; ++i) {
    std::string name;
    uint8_t type;
    if (!in.Str(&name) || !in.U8(&type)) return Truncated("response");
    r.result.column_names.push_back(std::move(name));
    r.result.column_types.push_back(static_cast<TypeId>(type));
  }
  uint32_t nrows;
  if (!in.U32(&nrows)) return Truncated("response");
  if (static_cast<uint64_t>(nrows) * 2 > len) {
    return Status::Corruption("response row count exceeds payload size");
  }
  r.result.rows.reserve(nrows);
  for (uint32_t i = 0; i < nrows; ++i) {
    Row row;
    if (!ReadRow(&in, &row)) return Truncated("response");
    r.result.rows.push_back(std::move(row));
  }
  if (!in.Done()) return Truncated("response");
  return response;
}

}  // namespace net
}  // namespace beas
