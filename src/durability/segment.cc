#include "durability/segment.h"

#include "common/crc32.h"

namespace beas {
namespace durability {

Status WriteSegmentFile(Env* env, const std::string& path, SegmentKind kind,
                        const std::string& payload,
                        uint32_t* payload_crc_out) {
  const uint32_t crc = Crc32c(payload.data(), payload.size());
  if (payload_crc_out != nullptr) *payload_crc_out = crc;
  ByteSink header;
  header.PutU32(kSegMagic);
  header.PutU32(kSegVersion);
  header.PutU8(static_cast<uint8_t>(kind));
  header.PutU32(crc);
  header.PutU64(payload.size());
  BEAS_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> f,
                        env->NewWritableFile(path));
  BEAS_RETURN_NOT_OK(f->Truncate(0));
  BEAS_RETURN_NOT_OK(f->Append(header.str().data(), header.str().size()));
  BEAS_RETURN_NOT_OK(f->Append(payload.data(), payload.size()));
  return f->Sync();
}

Result<SegmentView> OpenSegment(Env* env, const std::string& path,
                                SegmentKind kind) {
  SegmentView view;
  BEAS_ASSIGN_OR_RETURN(view.file, env->NewRandomAccessFile(path));
  if (view.file->size() < kSegHeaderBytes) {
    return Status::Corruption("segment too small: " + path);
  }
  ByteReader header(view.file->data(), kSegHeaderBytes);
  uint32_t magic = header.GetU32();
  uint32_t version = header.GetU32();
  uint8_t file_kind = header.GetU8();
  uint32_t crc = header.GetU32();
  uint64_t payload_len = header.GetU64();
  if (magic != kSegMagic) {
    return Status::Corruption("not a BEAS segment: " + path);
  }
  if (version != kSegVersion) {
    return Status::Corruption("unsupported segment version " +
                              std::to_string(version) + ": " + path);
  }
  if (file_kind != static_cast<uint8_t>(kind)) {
    return Status::Corruption("segment kind mismatch: " + path);
  }
  if (payload_len != view.file->size() - kSegHeaderBytes) {
    return Status::Corruption("segment length mismatch: " + path);
  }
  view.payload = view.file->data() + kSegHeaderBytes;
  view.payload_len = payload_len;
  if (Crc32c(view.payload, payload_len) != crc) {
    return Status::Corruption("segment CRC mismatch: " + path);
  }
  return view;
}

Result<SegmentKind> VerifySegmentFile(Env* env, const std::string& path,
                                      uint32_t* payload_crc_out) {
  BEAS_ASSIGN_OR_RETURN(std::unique_ptr<RandomAccessFile> file,
                        env->NewRandomAccessFile(path));
  if (file->size() < kSegHeaderBytes) {
    return Status::Corruption("segment too small: " + path);
  }
  ByteReader header(file->data(), kSegHeaderBytes);
  uint32_t magic = header.GetU32();
  uint32_t version = header.GetU32();
  uint8_t file_kind = header.GetU8();
  uint32_t crc = header.GetU32();
  uint64_t payload_len = header.GetU64();
  if (magic != kSegMagic) {
    return Status::Corruption("not a BEAS segment: " + path);
  }
  if (version != kSegVersion) {
    return Status::Corruption("unsupported segment version " +
                              std::to_string(version) + ": " + path);
  }
  if (payload_len != file->size() - kSegHeaderBytes) {
    return Status::Corruption("segment length mismatch: " + path);
  }
  if (Crc32c(file->data() + kSegHeaderBytes, payload_len) != crc) {
    return Status::Corruption("segment CRC mismatch: " + path);
  }
  if (payload_crc_out != nullptr) *payload_crc_out = crc;
  return static_cast<SegmentKind>(file_kind);
}

std::string BuildTableMetaPayload(const TableInfo& table) {
  const TableHeap& heap = table.heap();
  ByteSink sink;
  WriteSchema(&sink, heap.schema());
  sink.PutU8(heap.dict() != nullptr ? 1 : 0);
  sink.PutU32(static_cast<uint32_t>(heap.num_shards()));
  sink.PutI64(heap.shard_key_col());
  sink.PutU64(heap.NumSlots());
  for (size_t slot = 0; slot < heap.NumSlots(); ++slot) {
    auto ref = heap.DirectorySlot(slot);
    sink.PutU32(ref.first);
    sink.PutU32(ref.second);
  }
  return sink.Take();
}

Result<TableMetaRestore> ParseTableMetaPayload(ByteReader r) {
  TableMetaRestore out;
  BEAS_ASSIGN_OR_RETURN(out.schema, ReadSchema(&r));
  out.dict_enabled = r.GetU8() != 0;
  out.num_shards = r.GetU32();
  out.shard_key_col = r.GetI64();
  uint64_t slots = r.GetU64();
  if (!r.ok() || slots > r.remaining()) {
    return Status::IoError("truncated table meta");
  }
  out.directory.reserve(slots);
  for (uint64_t i = 0; i < slots; ++i) {
    uint32_t shard = r.GetU32();
    uint32_t local = r.GetU32();
    out.directory.emplace_back(shard, local);
  }
  if (!r.ok()) return Status::IoError("truncated table meta directory");
  return out;
}

std::string BuildDictPayload(const StringDict& dict) {
  ByteSink sink;
  sink.PutU64(dict.size());
  for (uint32_t code = 0; code < dict.size(); ++code) {
    sink.PutString(dict.str(code));
  }
  sink.PutU8(dict.is_sorted() ? 1 : 0);
  sink.PutU64(dict.out_of_order_codes());
  sink.PutU64(dict.rebuilds());
  return sink.Take();
}

Result<DictRestore> ParseDictPayload(ByteReader r) {
  DictRestore out;
  uint64_t count = r.GetU64();
  if (!r.ok() || count > r.remaining()) {
    return Status::IoError("truncated dict segment");
  }
  out.strings.reserve(count);
  for (uint64_t i = 0; i < count; ++i) out.strings.push_back(r.GetString());
  out.sorted = r.GetU8() != 0;
  out.out_of_order = r.GetU64();
  out.rebuilds = r.GetU64();
  if (!r.ok()) return Status::IoError("truncated dict segment");
  return out;
}

std::string BuildShardRowsPayload(const TableHeap& heap, size_t shard) {
  ByteSink sink;
  size_t count = heap.ShardRowCount(shard);
  sink.PutU64(count);
  for (size_t i = 0; i < count; ++i) {
    sink.PutU8(heap.ShardRowLive(shard, i) ? 1 : 0);
    WriteRow(&sink, heap.ShardRowAt(shard, i));
  }
  return sink.Take();
}

Result<ShardRowsRestore> ParseShardRowsPayload(ByteReader r) {
  ShardRowsRestore out;
  uint64_t count = r.GetU64();
  if (!r.ok() || count > r.remaining()) {
    return Status::IoError("truncated shard rows segment");
  }
  out.rows.reserve(count);
  out.live.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    out.live.push_back(r.GetU8());
    BEAS_ASSIGN_OR_RETURN(Row row, ReadRow(&r));
    out.rows.push_back(std::move(row));
  }
  return out;
}

std::string BuildIndexPayload(const AcIndex& index) {
  ByteSink sink;
  WriteConstraint(&sink, index.constraint());
  ByteSink buckets;
  uint64_t num_buckets = 0;
  index.ForEachBucket([&](const ValueVec& key,
                          const AcIndex::BucketView& bucket) {
    ++num_buckets;
    WriteRow(&buckets, key);
    buckets.PutU32(static_cast<uint32_t>(bucket.size()));
    for (size_t b = 0; b < bucket.size(); ++b) {
      WriteRow(&buckets, bucket.cells + b * bucket.arity, bucket.arity);
      buckets.PutU64(bucket.mult(b));
    }
  });
  sink.PutU64(num_buckets);
  sink.PutRaw(buckets.str().data(), buckets.str().size());
  return sink.Take();
}

Result<IndexRestore> ParseIndexPayload(ByteReader r) {
  IndexRestore out;
  BEAS_ASSIGN_OR_RETURN(out.constraint, ReadConstraint(&r));
  uint64_t num_buckets = r.GetU64();
  if (!r.ok() || num_buckets > r.remaining()) {
    return Status::IoError("truncated index segment");
  }
  out.buckets.reserve(num_buckets);
  size_t arity = out.constraint.y_attrs.size();
  for (uint64_t b = 0; b < num_buckets; ++b) {
    AcIndex::RestoredBucket bucket;
    BEAS_ASSIGN_OR_RETURN(bucket.key, ReadRow(&r));
    uint32_t ny = r.GetU32();
    if (!r.ok() || ny > r.remaining()) {
      return Status::IoError("truncated index bucket");
    }
    bucket.cells.reserve(static_cast<size_t>(ny) * arity);
    bucket.mults.reserve(ny);
    for (uint32_t i = 0; i < ny; ++i) {
      BEAS_ASSIGN_OR_RETURN(uint32_t got, AppendRow(&r, &bucket.cells));
      uint64_t mult = r.GetU64();
      if (got != arity || mult == 0 || mult > UINT32_MAX) {
        return Status::IoError("malformed index bucket entry");
      }
      bucket.mults.push_back(static_cast<uint32_t>(mult));
    }
    out.buckets.push_back(std::move(bucket));
  }
  if (!r.ok()) return Status::IoError("truncated index segment");
  return out;
}

}  // namespace durability
}  // namespace beas
