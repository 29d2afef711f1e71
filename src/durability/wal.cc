#include "durability/wal.h"

#include <cstring>

#include "common/crc32.h"

namespace beas {
namespace durability {

void EncodeWalRecord(ByteSink* sink, const WalRecord& record) {
  ByteSink body;
  body.PutU64(record.lsn);
  body.PutU8(static_cast<uint8_t>(record.type));
  body.PutRaw(record.payload.data(), record.payload.size());
  const std::string& bytes = body.str();
  sink->PutU32(static_cast<uint32_t>(bytes.size()));
  sink->PutU32(Crc32c(bytes.data(), bytes.size()));
  sink->PutRaw(bytes.data(), bytes.size());
}

Result<WalReadResult> ReadWalFile(Env* env, const std::string& path) {
  WalReadResult out;
  if (!env->FileExists(path)) return out;
  BEAS_ASSIGN_OR_RETURN(std::unique_ptr<RandomAccessFile> view,
                        env->NewRandomAccessFile(path));
  const RandomAccessFile& file = *view;
  if (file.size() < kWalHeaderBytes) {
    // Empty, or a torn header: the file was killed during creation,
    // before any record landed — an empty log.
    return out;
  }
  ByteReader header(file.data(), kWalHeaderBytes);
  uint32_t magic = header.GetU32();
  uint32_t version = header.GetU32();
  if (magic != kWalMagic) {
    return Status::Corruption("not a BEAS WAL file: " + path);
  }
  if (version != kWalVersion) {
    return Status::Corruption("unsupported WAL version " +
                              std::to_string(version) + ": " + path);
  }
  out.valid_bytes = kWalHeaderBytes;

  const char* base = file.data();
  uint64_t pos = kWalHeaderBytes;
  while (pos + 8 <= file.size()) {
    uint32_t len, crc;
    std::memcpy(&len, base + pos, 4);
    std::memcpy(&crc, base + pos + 4, 4);
    // lsn(8) + type(1) is the minimum body.
    if (len < 9 || pos + 8 + len > file.size()) break;
    const char* body = base + pos + 8;
    if (Crc32c(body, len) != crc) break;
    WalRecord record;
    ByteReader r(body, len);
    record.lsn = r.GetU64();
    record.type = static_cast<WalRecordType>(r.GetU8());
    record.payload.assign(body + 9, len - 9);
    out.records.push_back(std::move(record));
    pos += 8 + len;
    out.valid_bytes = pos;
  }
  return out;
}

Result<std::unique_ptr<WritableFile>> OpenWalFile(Env* env,
                                                  const std::string& path) {
  BEAS_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> f,
                        env->NewWritableFile(path));
  if (f->size() >= kWalHeaderBytes) return f;
  BEAS_RETURN_NOT_OK(f->Truncate(0));
  ByteSink header;
  header.PutU32(kWalMagic);
  header.PutU32(kWalVersion);
  BEAS_RETURN_NOT_OK(f->Append(header.str().data(), header.str().size()));
  BEAS_RETURN_NOT_OK(f->Sync());
  // A fresh file's directory entry must be durable too, or a machine
  // crash can forget the file along with every record later acked into it.
  BEAS_RETURN_NOT_OK(env->SyncParentDir(path));
  return f;
}

}  // namespace durability
}  // namespace beas
