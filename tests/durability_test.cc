// Durability subsystem tests: serde and WAL/segment framing round-trips,
// torn-tail repair, clean restart recovery, and the fork-based kill-point
// fault-injection sweep (crash at every protocol boundary, at 1/3/8
// storage shards, asserting the recovered state is bit-identical to the
// acked-committed prefix).

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "common/file_util.h"
#include "common/shard_config.h"
#include "durability/durability_manager.h"
#include "durability/segment.h"
#include "durability/serde.h"
#include "durability/wal.h"
#include "service/beas_service.h"
#include "test_util.h"

namespace beas {
namespace {

using durability::ByteReader;
using durability::ByteSink;
using testing_util::Dt;
using testing_util::I;
using testing_util::N;
using testing_util::S;
using testing_util::ShardOverrideGuard;

/// RAII scratch directory under TMPDIR (CI points this at a tmpfs).
struct TempDir {
  std::string path;

  TempDir() {
    const char* base = std::getenv("TMPDIR");
    std::string tmpl = std::string(base != nullptr ? base : "/tmp") +
                       "/beas_durability_XXXXXX";
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    char* made = mkdtemp(buf.data());
    EXPECT_NE(made, nullptr);
    if (made != nullptr) path = made;
  }
  ~TempDir() {
    if (!path.empty()) RemoveAll(path);
  }
};

// ---------------------------------------------------------------------------
// Serde round-trips.
// ---------------------------------------------------------------------------

TEST(DurabilitySerdeTest, ValueRoundTripAllTypes) {
  std::string nul_bytes("a\0b\0", 4);
  std::vector<Value> values = {
      Value::Null(),       I(0),      I(-7),          I(INT64_MAX),
      Value::Double(1.5),  Value::Double(-0.0),       S(""),
      S("hello"),          S(nul_bytes),              Dt("2016-03-15"),
  };
  ByteSink sink;
  for (const Value& v : values) durability::WriteValue(&sink, v);
  ByteReader r(sink.str().data(), sink.size());
  for (const Value& v : values) {
    auto got = durability::ReadValue(&r);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_TRUE(got->Equals(v)) << v.ToString();
    EXPECT_EQ(got->type(), v.type());
  }
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.AtEnd());
}

TEST(DurabilitySerdeTest, RowSchemaConstraintRoundTrip) {
  Row row = {I(7), S("x"), N(), Value::Double(2.25)};
  Schema schema({{"pnum", TypeId::kInt64},
                 {"name", TypeId::kString},
                 {"when", TypeId::kDate}});
  AccessConstraint c{"psi1", "call", {"pnum", "date"}, {"recnum"}, 500};

  ByteSink sink;
  durability::WriteRow(&sink, row);
  durability::WriteSchema(&sink, schema);
  durability::WriteConstraint(&sink, c);

  ByteReader r(sink.str().data(), sink.size());
  auto row2 = durability::ReadRow(&r);
  auto schema2 = durability::ReadSchema(&r);
  auto c2 = durability::ReadConstraint(&r);
  ASSERT_TRUE(row2.ok());
  ASSERT_TRUE(schema2.ok());
  ASSERT_TRUE(c2.ok());
  ASSERT_EQ(row2->size(), row.size());
  for (size_t i = 0; i < row.size(); ++i) {
    EXPECT_TRUE((*row2)[i].Equals(row[i]));
  }
  EXPECT_EQ(*schema2, schema);
  EXPECT_EQ(c2->name, c.name);
  EXPECT_EQ(c2->table, c.table);
  EXPECT_EQ(c2->x_attrs, c.x_attrs);
  EXPECT_EQ(c2->y_attrs, c.y_attrs);
  EXPECT_EQ(c2->limit_n, c.limit_n);
  EXPECT_TRUE(r.AtEnd());
}

TEST(DurabilitySerdeTest, TruncatedBytesLatchNotOk) {
  ByteSink sink;
  durability::WriteValue(&sink, S("hello world"));
  ByteReader r(sink.str().data(), sink.size() - 3);
  auto got = durability::ReadValue(&r);
  EXPECT_FALSE(got.ok());
}

// ---------------------------------------------------------------------------
// WAL framing: round-trip, torn tails, foreign files.
// ---------------------------------------------------------------------------

durability::WalRecord MakeRecord(uint64_t lsn, const std::string& payload) {
  durability::WalRecord rec;
  rec.lsn = lsn;
  rec.type = durability::WalRecordType::kInsert;
  rec.payload = payload;
  return rec;
}

TEST(DurabilityWalTest, RoundTripAndTornTailRepair) {
  TempDir tmp;
  std::string path = tmp.path + "/shard_0.wal";
  Env* env = Env::Default();
  ASSERT_TRUE(durability::InitWalFile(env, path).ok());

  ByteSink group;
  durability::EncodeWalRecord(&group, MakeRecord(1, "alpha"));
  durability::EncodeWalRecord(&group, MakeRecord(2, "beta"));
  durability::EncodeWalRecord(&group, MakeRecord(3, std::string("\0x\0", 3)));
  AppendFile file;
  ASSERT_TRUE(file.Open(path).ok());
  ASSERT_TRUE(file.Append(group.str().data(), group.size()).ok());

  auto read = durability::ReadWalFile(env, path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  ASSERT_EQ(read->records.size(), 3u);
  EXPECT_EQ(read->records[0].payload, "alpha");
  EXPECT_EQ(read->records[2].payload, std::string("\0x\0", 3));
  EXPECT_EQ(read->valid_bytes, durability::kWalHeaderBytes + group.size());

  // A torn append: half a record of garbage. The valid prefix is
  // unchanged, and truncating to it makes the file clean again.
  const char garbage[] = "\x10\x00\x00\x00garbage";
  ASSERT_TRUE(file.Append(garbage, sizeof(garbage)).ok());
  auto torn = durability::ReadWalFile(env, path);
  ASSERT_TRUE(torn.ok());
  EXPECT_EQ(torn->records.size(), 3u);
  EXPECT_EQ(torn->valid_bytes, read->valid_bytes);
  ASSERT_TRUE(file.Truncate(torn->valid_bytes).ok());
  auto repaired = durability::ReadWalFile(env, path);
  ASSERT_TRUE(repaired.ok());
  EXPECT_EQ(repaired->records.size(), 3u);
  EXPECT_EQ(repaired->valid_bytes,
            static_cast<uint64_t>(file.size()));
}

TEST(DurabilityWalTest, CorruptedRecordStopsTheParse) {
  TempDir tmp;
  std::string path = tmp.path + "/shard_0.wal";
  Env* env = Env::Default();
  ASSERT_TRUE(durability::InitWalFile(env, path).ok());
  ByteSink group;
  durability::EncodeWalRecord(&group, MakeRecord(1, "aaaa"));
  durability::EncodeWalRecord(&group, MakeRecord(2, "bbbb"));
  std::string bytes = group.Take();
  // Flip one payload byte of the second record (its CRC now mismatches).
  bytes[bytes.size() - 1] ^= 0x5A;
  AppendFile file;
  ASSERT_TRUE(file.Open(path).ok());
  ASSERT_TRUE(file.Append(bytes.data(), bytes.size()).ok());

  auto read = durability::ReadWalFile(env, path);
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(read->records.size(), 1u);
  EXPECT_EQ(read->records[0].payload, "aaaa");
}

TEST(DurabilityWalTest, MissingFileIsEmptyForeignMagicIsError) {
  TempDir tmp;
  Env* env = Env::Default();
  auto missing = durability::ReadWalFile(env, tmp.path + "/nope.wal");
  ASSERT_TRUE(missing.ok());
  EXPECT_TRUE(missing->records.empty());
  EXPECT_EQ(missing->valid_bytes, 0u);

  std::string foreign = tmp.path + "/foreign.wal";
  ASSERT_TRUE(WriteFileAtomic(foreign, "NOTAWALFILE!").ok());
  auto bad = durability::ReadWalFile(env, foreign);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kCorruption);
}

// ---------------------------------------------------------------------------
// Segment framing.
// ---------------------------------------------------------------------------

TEST(DurabilitySegmentTest, RoundTripValidatesKindAndCrc) {
  TempDir tmp;
  Env* env = Env::Default();
  std::string path = tmp.path + "/t.seg";
  std::string payload = "segment payload \x01\x02";
  uint32_t written_crc = 0;
  ASSERT_TRUE(durability::WriteSegmentFile(env, path,
                                           durability::SegmentKind::kDict,
                                           payload, &written_crc)
                  .ok());

  auto seg = durability::OpenSegment(env, path, durability::SegmentKind::kDict);
  ASSERT_TRUE(seg.ok()) << seg.status().ToString();
  EXPECT_EQ(std::string(seg->payload, seg->payload_len), payload);

  // Kind-agnostic verification reports the stored kind and CRC.
  uint32_t verified_crc = 0;
  auto kind = durability::VerifySegmentFile(env, path, &verified_crc);
  ASSERT_TRUE(kind.ok());
  EXPECT_EQ(*kind, durability::SegmentKind::kDict);
  EXPECT_EQ(verified_crc, written_crc);

  // Wrong kind: refused, as typed corruption.
  auto wrong =
      durability::OpenSegment(env, path, durability::SegmentKind::kIndex);
  ASSERT_FALSE(wrong.ok());
  EXPECT_EQ(wrong.status().code(), StatusCode::kCorruption);

  // Flipped payload byte: CRC mismatch.
  {
    std::ifstream in(path, std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    std::string bytes = ss.str();
    bytes[bytes.size() - 1] ^= 0x5A;
    ASSERT_TRUE(WriteFileAtomic(path, bytes).ok());
  }
  auto flipped =
      durability::OpenSegment(env, path, durability::SegmentKind::kDict);
  ASSERT_FALSE(flipped.ok());
  EXPECT_EQ(flipped.status().code(), StatusCode::kCorruption);
  EXPECT_FALSE(durability::VerifySegmentFile(env, path).ok());
}

// ---------------------------------------------------------------------------
// The scripted workload shared by the restart and kill-point tests.
// ---------------------------------------------------------------------------

/// One scripted operation. `reference` marks ops with logical effects,
/// applied to the in-memory reference database too; checkpoint-only ops
/// change no queryable state.
struct ScriptOp {
  bool reference = true;
  std::function<Status(BeasService*)> run;
};

Schema CallSchema() {
  return Schema({{"pnum", TypeId::kInt64},
                 {"recnum", TypeId::kInt64},
                 {"date", TypeId::kDate},
                 {"region", TypeId::kString}});
}

/// Exercises every WAL record type: DDL, single inserts, a large batch
/// whose strings arrive out of byte order (arming a dictionary rebuild),
/// constraint registration, deletes, an explicit checkpoint, a
/// maintenance cycle (bound adjustments + dict rebuild + hook-driven
/// checkpoint), and post-checkpoint writes that land in the WAL tail.
std::vector<ScriptOp> BuildOpScript() {
  std::vector<ScriptOp> ops;
  ops.push_back({true, [](BeasService* s) {
                   return s->CreateTable("call", CallSchema()).status();
                 }});
  ops.push_back({true, [](BeasService* s) {
                   return s
                       ->CreateTable("business",
                                     Schema({{"pnum", TypeId::kInt64},
                                             {"type", TypeId::kString}}))
                       .status();
                 }});
  for (int i = 0; i < 4; ++i) {
    ops.push_back({true, [i](BeasService* s) {
                     return s->Insert(
                         "call", {I(7 + i), I(100 + i), Dt("2016-03-15"),
                                  S(i % 2 == 0 ? "R1" : "R2")});
                   }});
  }
  ops.push_back({true, [](BeasService* s) {
                   return s->RegisterConstraint(
                       {"psi1", "call", {"pnum", "date"},
                        {"recnum", "region"}, 500});
                 }});
  // 70 distinct region strings interned in DESCENDING byte order: enough
  // out-of-order debt that the later adjustment cycle sorted-rebuilds the
  // dictionary (min_strings = 64, min fraction 5%).
  ops.push_back({true, [](BeasService* s) {
                   std::vector<Row> rows;
                   for (int i = 69; i >= 0; --i) {
                     char name[16];
                     std::snprintf(name, sizeof(name), "z%03d", i);
                     rows.push_back(
                         {I(50 + i), I(500 + i), Dt("2016-04-01"), S(name)});
                   }
                   return s->InsertBatch("call", std::move(rows));
                 }});
  ops.push_back({true, [](BeasService* s) {
                   return s->Insert("business", {I(7), S("bank")});
                 }});
  ops.push_back({true, [](BeasService* s) {
                   return s->Delete(
                       "call", {I(8), I(101), Dt("2016-03-15"), S("R2")});
                 }});
  ops.push_back({false, [](BeasService* s) { return s->Checkpoint(); }});
  // Writes after the checkpoint: replayed from the WAL tail on recovery.
  ops.push_back({true, [](BeasService* s) {
                   return s->Insert(
                       "call", {I(11), I(111), Dt("2016-05-01"), S("R1")});
                 }});
  ops.push_back({true, [](BeasService* s) {
                   size_t changed = 0;
                   return s->RunAdjustmentCycle(1.2, &changed);
                 }});
  ops.push_back({true, [](BeasService* s) {
                   return s->Insert(
                       "call", {I(12), I(112), Dt("2016-05-02"), S("A0")});
                 }});
  return ops;
}

/// A deterministic rendering of everything durability promises to restore
/// bit-identically: every table's slot directory, live flags and rows (in
/// slot order — exact placement, not just content), the dictionary's full
/// code assignment and order-tracking state, every AC index bucket, and
/// the answers of a bounded query.
std::string StateFingerprint(BeasService* svc) {
  std::ostringstream out;
  Database* db = svc->db();
  for (const std::string& name : db->catalog()->TableNames()) {
    if (name == BeasService::kStatsTableName) continue;
    auto info = db->catalog()->GetTable(name);
    if (!info.ok()) continue;
    const TableHeap& heap = *info.ValueOrDie()->heap();
    out << "table " << name << " schema " << heap.schema().ToString()
        << "\n";
    for (size_t slot = 0; slot < heap.NumSlots(); ++slot) {
      auto [shard, local] = heap.DirectorySlot(slot);
      out << "  slot " << slot << " -> (" << shard << "," << local << ") "
          << (heap.ShardRowLive(shard, local) ? "live " : "dead ")
          << RowToString(heap.ShardRowAt(shard, local)) << "\n";
    }
    const StringDict* dict = heap.dict();
    if (dict != nullptr) {
      out << "  dict size=" << dict->size()
          << " sorted=" << dict->is_sorted()
          << " out_of_order=" << dict->out_of_order_codes()
          << " rebuilds=" << dict->rebuilds() << "\n";
      for (uint32_t code = 0; code < dict->size(); ++code) {
        out << "    " << code << " => " << dict->str(code) << "\n";
      }
    }
  }
  for (const AccessConstraint& c : svc->catalog()->schema().constraints()) {
    out << "constraint " << c.name << " on " << c.table << " N=" << c.limit_n
        << "\n";
    const AcIndex* index = svc->catalog()->IndexFor(c.name);
    if (index == nullptr) continue;
    std::vector<std::string> buckets;
    index->ForEachBucket([&buckets](const ValueVec& key,
                                    const AcIndex::BucketView& bucket) {
      std::ostringstream b;
      b << "  " << RowToString(key) << " :";
      for (size_t i = 0; i < bucket.size(); ++i) {
        const Value* cells = bucket.cells + i * bucket.arity;
        Row y(cells, cells + bucket.arity);
        b << " " << RowToString(y) << "x" << bucket.mult(i);
      }
      buckets.push_back(b.str());
    });
    // Bucket visit order is hash-map order — canonicalize it; the
    // bucket-internal Y order above stays as visited (it is part of the
    // restored state).
    std::sort(buckets.begin(), buckets.end());
    for (const std::string& b : buckets) out << b << "\n";
  }
  // End-to-end: a bounded query through the AC index (errors — e.g. "no
  // constraint registered yet" prefixes — render deterministically too).
  auto resp = svc->ExecuteBounded(
      "SELECT call.region FROM call WHERE call.pnum = 7 AND "
      "call.date = '2016-03-15'");
  if (resp.ok()) {
    std::vector<Row> rows = resp->result.rows;
    std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
      return CompareValueVec(a, b) < 0;
    });
    out << "bounded:";
    for (const Row& row : rows) out << " " << RowToString(row);
    out << "\n";
  } else {
    out << "bounded error: " << resp.status().ToString() << "\n";
  }
  return out.str();
}

std::unique_ptr<BeasService> MakeService(const std::string& data_dir) {
  ServiceOptions options;
  options.num_workers = 1;
  if (!data_dir.empty()) {
    options.durability.dir = data_dir;
    // Tiny threshold: the maintenance cycle's checkpoint hook fires too,
    // covering the MaybeCheckpoint path.
    options.durability.checkpoint_min_wal_bytes = 1;
  }
  return std::make_unique<BeasService>(options);
}

/// The in-memory reference state after ops[0..n).
std::string ReferenceFingerprint(const std::vector<ScriptOp>& ops, size_t n) {
  std::unique_ptr<BeasService> ref = MakeService("");
  for (size_t i = 0; i < n; ++i) {
    if (!ops[i].reference) continue;
    Status st = ops[i].run(ref.get());
    EXPECT_TRUE(st.ok()) << "reference op " << i << ": " << st.ToString();
  }
  return StateFingerprint(ref.get());
}

// ---------------------------------------------------------------------------
// Clean restart: stop the service, reopen the directory, compare.
// ---------------------------------------------------------------------------

TEST(DurabilityRecoveryTest, CleanRestartRestoresEverything) {
  for (size_t shards : {size_t{1}, size_t{3}}) {
    ShardOverrideGuard guard(shards);
    TempDir tmp;
    std::vector<ScriptOp> ops = BuildOpScript();
    {
      std::unique_ptr<BeasService> svc = MakeService(tmp.path + "/data");
      ASSERT_TRUE(svc->durable()) << svc->durability_status().ToString();
      for (size_t i = 0; i < ops.size(); ++i) {
        Status st = ops[i].run(svc.get());
        ASSERT_TRUE(st.ok()) << "op " << i << ": " << st.ToString();
      }
    }
    std::unique_ptr<BeasService> recovered = MakeService(tmp.path + "/data");
    ASSERT_TRUE(recovered->durable())
        << recovered->durability_status().ToString();
    EXPECT_EQ(StateFingerprint(recovered.get()),
              ReferenceFingerprint(ops, ops.size()))
        << "shards=" << shards;

    // A checkpoint right before shutdown empties the WALs: the next
    // recovery restores from segments alone.
    ASSERT_TRUE(recovered->Checkpoint().ok());
    recovered.reset();
    std::unique_ptr<BeasService> again = MakeService(tmp.path + "/data");
    ASSERT_TRUE(again->durable());
    EXPECT_EQ(again->durability_counters().recovery_replayed_records, 0u);
    EXPECT_EQ(StateFingerprint(again.get()),
              ReferenceFingerprint(ops, ops.size()));
  }
}

TEST(DurabilityRecoveryTest, RecoveryAcrossShardCountChange) {
  // Write at 3 shards, recover at 8, then at 1: the slot directory and
  // all answers must be preserved regardless of the lock-shard config.
  TempDir tmp;
  std::vector<ScriptOp> ops = BuildOpScript();
  {
    ShardOverrideGuard guard(3);
    std::unique_ptr<BeasService> svc = MakeService(tmp.path + "/data");
    ASSERT_TRUE(svc->durable());
    for (size_t i = 0; i < ops.size(); ++i) {
      ASSERT_TRUE(ops[i].run(svc.get()).ok()) << "op " << i;
    }
  }
  for (size_t shards : {size_t{8}, size_t{1}}) {
    ShardOverrideGuard guard(shards);
    std::unique_ptr<BeasService> recovered = MakeService(tmp.path + "/data");
    ASSERT_TRUE(recovered->durable())
        << recovered->durability_status().ToString();
    // The heap was built at 3 shards and its layout is part of the
    // restored state, so the reference must be built at 3 shards too.
    ShardOverrideGuard ref_guard(3);
    EXPECT_EQ(StateFingerprint(recovered.get()),
              ReferenceFingerprint(ops, ops.size()))
        << "recovered under shards=" << shards;
  }
}

// ---------------------------------------------------------------------------
// Kill-point fault injection.
// ---------------------------------------------------------------------------

/// Child body: arm the crash point, run the script against a durable
/// service, appending each op's index to `ack_path` after it acks.
/// Returns the exit code (the injected crash _exit(42)s from within).
int RunChild(const std::string& data_dir, const std::string& ack_path,
             const char* crash_spec) {
  fail::ArmLegacyCrashSpec(crash_spec);
  int ack_fd = ::open(ack_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (ack_fd < 0) return 3;
  {
    std::unique_ptr<BeasService> svc = MakeService(data_dir);
    if (!svc->durable()) return 4;
    std::vector<ScriptOp> ops = BuildOpScript();
    for (size_t i = 0; i < ops.size(); ++i) {
      if (!ops[i].run(svc.get()).ok()) return 5;
      char line[32];
      int len = std::snprintf(line, sizeof(line), "%zu\n", i);
      if (::write(ack_fd, line, len) != len) return 6;
    }
  }
  ::close(ack_fd);
  return 0;
}

/// Number of acked ops in `ack_path`, validating the contiguous-prefix
/// invariant (ops run sequentially; an ack without its predecessors would
/// mean the harness itself is broken).
size_t CountAckedPrefix(const std::string& ack_path) {
  std::ifstream in(ack_path);
  size_t expect = 0;
  std::string line;
  while (std::getline(in, line)) {
    EXPECT_EQ(line, std::to_string(expect));
    ++expect;
  }
  return expect;
}

void RunKillPointCase(const char* crash_spec, size_t shards) {
  SCOPED_TRACE(std::string("crash_spec=") +
               (crash_spec == nullptr ? "<none>" : crash_spec) +
               " shards=" + std::to_string(shards));
  ShardOverrideGuard guard(shards);
  TempDir tmp;
  std::string data_dir = tmp.path + "/data";
  std::string ack_path = tmp.path + "/acks";

  pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    _exit(RunChild(data_dir, ack_path, crash_spec));
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status)) << "child did not exit normally";
  int code = WEXITSTATUS(status);
  if (crash_spec == nullptr) {
    ASSERT_EQ(code, 0);
  } else {
    ASSERT_EQ(code, fail::kCrashExitCode)
        << "armed crash point never fired (or the child failed: exit "
        << code << ")";
  }

  std::vector<ScriptOp> ops = BuildOpScript();
  size_t acked = CountAckedPrefix(ack_path);
  ASSERT_LE(acked, ops.size());
  if (crash_spec == nullptr) {
    ASSERT_EQ(acked, ops.size());
  }

  std::unique_ptr<BeasService> recovered = MakeService(data_dir);
  ASSERT_TRUE(recovered->durable())
      << recovered->durability_status().ToString();
  std::string got = StateFingerprint(recovered.get());

  // An acked op is durable — but one more may have reached the disk
  // without acking (the crash window between fsync and ack), so the
  // recovered state is the acked prefix or that prefix plus the op that
  // was in flight.
  std::vector<size_t> candidates = {acked};
  if (acked < ops.size()) candidates.push_back(acked + 1);
  bool matched = false;
  for (size_t k : candidates) {
    if (ReferenceFingerprint(ops, k) == got) {
      matched = true;
      break;
    }
  }
  EXPECT_TRUE(matched) << "recovered state matches no committed prefix "
                          "(acked = "
                       << acked << " of " << ops.size() << ")\n"
                       << got;
}

TEST(DurabilityKillPointTest, RecoversCommittedPrefixAtEveryCrashSite) {
  const char* specs[] = {
      nullptr,             // control: clean run, full recovery
      "wal_append",        // group written, not fsynced
      "wal_pre_fsync",     // about to fsync
      "wal_post_fsync",    // durable but not applied or acked
      "wal_append:4",      // a later group: post-DDL, mid-stream
      "ckpt_mid",          // segments written, manifest not committed
      "ckpt_post_truncate",  // WALs gone, old segments not yet GC'd
  };
  for (size_t shards : {size_t{1}, size_t{3}, size_t{8}}) {
    for (const char* spec : specs) {
      RunKillPointCase(spec, shards);
      if (testing::Test::HasFatalFailure()) return;
    }
  }
}

// ---------------------------------------------------------------------------
// Group-commit IO failure: retry, truncate-repair and shard latching.
// ---------------------------------------------------------------------------

/// Arms an in-process fault spec (BEAS_FAIL_POINTS syntax) and guarantees
/// disarming, so a failing assertion cannot leak an armed point into
/// later tests.
struct FailSpecGuard {
  explicit FailSpecGuard(const char* spec) { fail::ArmForTesting(spec); }
  ~FailSpecGuard() { fail::ArmForTesting(nullptr); }
};

std::vector<int64_t> LivePnums(BeasService* svc) {
  auto info = svc->db()->catalog()->GetTable("call");
  EXPECT_TRUE(info.ok());
  std::vector<int64_t> pnums;
  if (!info.ok()) return pnums;
  const TableHeap& heap = *info.ValueOrDie()->heap();
  for (size_t slot = 0; slot < heap.NumSlots(); ++slot) {
    auto [shard, local] = heap.DirectorySlot(slot);
    if (!heap.ShardRowLive(shard, local)) continue;
    pnums.push_back(heap.ShardRowAt(shard, local)[0].AsInt64());
  }
  std::sort(pnums.begin(), pnums.end());
  return pnums;
}

TEST(DurabilityFailureRepairTest, TransientGroupFailureIsRetriedAndAcked) {
  ShardOverrideGuard guard(1);  // one WAL shard: routing is deterministic
  TempDir tmp;
  std::string data_dir = tmp.path + "/data";
  {
    std::unique_ptr<BeasService> svc = MakeService(data_dir);
    ASSERT_TRUE(svc->durable());
    ASSERT_TRUE(svc->CreateTable("call", CallSchema()).ok());
    ASSERT_TRUE(
        svc->Insert("call", {I(1), I(1), Dt("2016-01-01"), S("r")}).ok());

    // The next group commit fails once after its CRC-valid bytes are in
    // the file — the shape a single failed fsync leaves. The drainer must
    // cut the failed bytes back, re-append the same group and ack it: a
    // transient fault costs a retry, not a lost write.
    {
      FailSpecGuard fault("wal_group_io=error");
      Status st = svc->Insert("call", {I(2), I(2), Dt("2016-01-01"), S("r")});
      EXPECT_TRUE(st.ok()) << st.ToString();
    }
    durability::DurabilityCounters counters = svc->durability_counters();
    EXPECT_GE(counters.wal_retries_total, 1u);
    EXPECT_EQ(counters.wal_latched_shards, 0u);
    ASSERT_TRUE(
        svc->Insert("call", {I(3), I(3), Dt("2016-01-01"), S("r")}).ok());
    EXPECT_EQ(LivePnums(svc.get()), (std::vector<int64_t>{1, 2, 3}));
  }
  // Recovery sees exactly the acked records, with the retried group
  // replayed once: the failed first attempt's bytes were truncated away,
  // not left to shadow or duplicate the re-appended group.
  std::unique_ptr<BeasService> recovered = MakeService(data_dir);
  ASSERT_TRUE(recovered->durable())
      << recovered->durability_status().ToString();
  EXPECT_EQ(LivePnums(recovered.get()), (std::vector<int64_t>{1, 2, 3}));
}

TEST(DurabilityFailureRepairTest, PersistentFailureExhaustsRetriesAndLatches) {
  ShardOverrideGuard guard(1);
  TempDir tmp;
  std::string data_dir = tmp.path + "/data";
  {
    std::unique_ptr<BeasService> svc = MakeService(data_dir);
    ASSERT_TRUE(svc->durable());
    ASSERT_TRUE(svc->CreateTable("call", CallSchema()).ok());
    ASSERT_TRUE(
        svc->Insert("call", {I(1), I(1), Dt("2016-01-01"), S("r")}).ok());

    // Every attempt fails: the bounded retry loop must give up after the
    // configured limit, latch the shard, and surface the typed verdict.
    {
      FailSpecGuard fault("wal_group_io=error@*");
      Status st = svc->Insert("call", {I(2), I(2), Dt("2016-01-01"), S("r")});
      ASSERT_FALSE(st.ok());
      EXPECT_EQ(st.code(), StatusCode::kUnavailable) << st.ToString();
    }
    durability::DurabilityCounters counters = svc->durability_counters();
    EXPECT_GE(counters.wal_retries_total, 3u);
    EXPECT_EQ(counters.wal_latched_shards, 1u);
    Status st = svc->Insert("call", {I(3), I(3), Dt("2016-01-01"), S("r")});
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), StatusCode::kUnavailable);
    EXPECT_NE(st.ToString().find("latched"), std::string::npos)
        << st.ToString();
  }
  // Everything acked before the latch recovers; nothing after it exists.
  std::unique_ptr<BeasService> recovered = MakeService(data_dir);
  ASSERT_TRUE(recovered->durable())
      << recovered->durability_status().ToString();
  EXPECT_EQ(LivePnums(recovered.get()), (std::vector<int64_t>{1}));
}

TEST(DurabilityFailureRepairTest, UnrepairableFailureLatchesTheShard) {
  ShardOverrideGuard guard(1);
  TempDir tmp;
  std::string data_dir = tmp.path + "/data";
  {
    std::unique_ptr<BeasService> svc = MakeService(data_dir);
    ASSERT_TRUE(svc->durable());
    ASSERT_TRUE(svc->CreateTable("call", CallSchema()).ok());
    ASSERT_TRUE(
        svc->Insert("call", {I(1), I(1), Dt("2016-01-01"), S("r")}).ok());

    // Group commit fails AND the truncate-repair fails: no retry is
    // sound, because the file may now end in bytes the accounting cannot
    // vouch for. The shard must latch immediately.
    {
      FailSpecGuard fault("wal_group_io=error;wal_repair_fail=error");
      Status st = svc->Insert("call", {I(2), I(2), Dt("2016-01-01"), S("r")});
      ASSERT_FALSE(st.ok());
      EXPECT_EQ(st.code(), StatusCode::kUnavailable) << st.ToString();
    }
    Status st = svc->Insert("call", {I(3), I(3), Dt("2016-01-01"), S("r")});
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), StatusCode::kUnavailable);
    EXPECT_NE(st.ToString().find("latched"), std::string::npos)
        << st.ToString();
  }
  // Everything acked before the latch recovers; nothing after it exists.
  std::unique_ptr<BeasService> recovered = MakeService(data_dir);
  ASSERT_TRUE(recovered->durable())
      << recovered->durability_status().ToString();
  EXPECT_EQ(LivePnums(recovered.get()), (std::vector<int64_t>{1}));
}

// ---------------------------------------------------------------------------
// Durability counters.
// ---------------------------------------------------------------------------

TEST(DurabilityCountersTest, WalAndCheckpointCountersAdvance) {
  TempDir tmp;
  std::unique_ptr<BeasService> svc = MakeService(tmp.path + "/data");
  ASSERT_TRUE(svc->durable());
  ASSERT_TRUE(svc->CreateTable("call", CallSchema()).ok());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(
        svc->Insert("call", {I(i), I(i), Dt("2016-01-01"), S("r")}).ok());
  }
  durability::DurabilityCounters counters = svc->durability_counters();
  EXPECT_GE(counters.wal_records_total, 8u);
  EXPECT_GT(counters.wal_bytes_total, 0u);
  EXPECT_GE(counters.wal_group_commits_total, 1u);
  EXPECT_GE(counters.wal_fsyncs_total, counters.wal_group_commits_total);
  EXPECT_EQ(counters.checkpoints_total, 0u);

  ASSERT_TRUE(svc->Checkpoint().ok());
  EXPECT_EQ(svc->durability_counters().checkpoints_total, 1u);

  svc.reset();
  std::unique_ptr<BeasService> recovered = MakeService(tmp.path + "/data");
  ASSERT_TRUE(recovered->durable());
  // Checkpoint emptied the WALs: nothing to replay.
  EXPECT_EQ(recovered->durability_counters().recovery_replayed_records, 0u);
  ASSERT_TRUE(
      recovered->Insert("call", {I(99), I(99), Dt("2016-01-02"), S("r")})
          .ok());
  recovered.reset();
  std::unique_ptr<BeasService> replayed = MakeService(tmp.path + "/data");
  ASSERT_TRUE(replayed->durable());
  EXPECT_GE(replayed->durability_counters().recovery_replayed_records, 1u);
}

TEST(DurabilityCountersTest, InMemoryServiceIsNotDurable) {
  std::unique_ptr<BeasService> svc = MakeService("");
  EXPECT_FALSE(svc->durable());
  EXPECT_TRUE(svc->durability_status().ok());
  EXPECT_FALSE(svc->Checkpoint().ok());
  durability::DurabilityCounters counters = svc->durability_counters();
  EXPECT_EQ(counters.wal_records_total, 0u);
  EXPECT_EQ(counters.checkpoints_total, 0u);
}

}  // namespace
}  // namespace beas
