#include "durability/durability_manager.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/crc32.h"
#include "common/failpoint.h"
#include "common/string_util.h"
#include "durability/segment.h"

namespace beas {
namespace durability {

namespace {

constexpr const char* kManifestName = "MANIFEST";

/// Group-commit retry: a failed group is repaired and re-attempted up to
/// kWalRetryLimit times before the shard latches, backing off
/// kWalRetryBackoffMs before the first retry and doubling per attempt up
/// to kWalRetryBackoffCapMs. Writers in the group wait through it — under
/// a transient fault, a slow ack beats a spurious nack.
constexpr uint64_t kWalRetryLimit = 3;
constexpr uint64_t kWalRetryBackoffMs = 1;
constexpr uint64_t kWalRetryBackoffCapMs = 100;

Status WalLatchedError() {
  return Status::Unavailable(
      "durability: shard WAL latched after an unrepairable group-commit "
      "failure; refusing further durable writes on this shard");
}

/// Disk-full detection by message shape: the posix Env renders every IO
/// error through std::strerror, so ENOSPC always carries this text (and
/// the fail-point `error(enospc)` action injects the same shape).
bool IsNoSpaceError(const Status& st) {
  return st.code() == StatusCode::kIoError &&
         st.message().find("No space left on device") != std::string::npos;
}

/// Merges an injected fail-point status into a protocol status: crash
/// actions never return, sleep/off return OK, error actions surface as
/// the fault `st` would have been.
Status MergePoint(Status st, const char* site) {
  Status injected = fail::Point(site);
  return st.ok() ? injected : st;
}

/// The file of one checkpoint unit in `seg_dir`: `name` is the table, or
/// the constraint of an index; the manifest kind names the CKMETA copy.
std::string SegmentPath(const std::string& seg_dir, SegmentKind kind,
                        const std::string& name, size_t shard = 0) {
  switch (kind) {
    case SegmentKind::kTableMeta:
      return seg_dir + "/t_" + name + ".meta.seg";
    case SegmentKind::kDict:
      return seg_dir + "/t_" + name + ".dict.seg";
    case SegmentKind::kShardRows:
      return seg_dir + "/t_" + name + ".s" + std::to_string(shard) + ".seg";
    case SegmentKind::kIndex:
      return seg_dir + "/c_" + name + ".idx.seg";
    case SegmentKind::kManifest:
      break;
  }
  return seg_dir + "/CKMETA";
}

/// Parses "ck<digits>" into the checkpoint id; 0 when malformed.
uint64_t ParseCkDirName(const std::string& name) {
  if (name.size() < 3 || name.compare(0, 2, "ck") != 0) return 0;
  uint64_t id = 0;
  for (size_t i = 2; i < name.size(); ++i) {
    if (name[i] < '0' || name[i] > '9') return 0;
    id = id * 10 + static_cast<uint64_t>(name[i] - '0');
  }
  return id;
}

}  // namespace

DurabilityManager::DurabilityManager(Database* db, AsCatalog* catalog,
                                     DurabilityOptions opts)
    : db_(db),
      catalog_(catalog),
      options_(std::move(opts)),
      env_(options_.env != nullptr ? options_.env : Env::Default()) {}

DurabilityManager::~DurabilityManager() {
  stop_.store(true, std::memory_order_release);
  for (auto& wal : shard_wals_) {
    { std::lock_guard<std::mutex> lk(wal->wake_mutex); }
    wal->wake.notify_all();
  }
  for (auto& wal : shard_wals_) {
    if (wal->drainer.joinable()) wal->drainer.join();
  }
  // The drainers flush their queues before exiting; anything still here
  // means a producer raced shutdown. Fail its ack rather than hang it.
  for (auto& wal : shard_wals_) {
    Pending* p = wal->head.exchange(nullptr, std::memory_order_acq_rel);
    while (p != nullptr) {
      Pending* next = p->next;
      p->ack.set_value(Status::Internal("durability manager shut down"));
      delete p;
      p = next;
    }
  }
}

std::string DurabilityManager::WalPath(size_t wal_shard) const {
  return options_.dir + "/wal/shard_" + std::to_string(wal_shard) + ".wal";
}

std::string DurabilityManager::MetaWalPath() const {
  return options_.dir + "/wal/meta.wal";
}

std::string DurabilityManager::SegDir(uint64_t checkpoint_id) const {
  return options_.dir + "/seg/ck" + std::to_string(checkpoint_id);
}

Status DurabilityManager::Open() {
  open_status_ = [&]() -> Status {
    if (options_.dir.empty()) {
      return Status::InvalidArgument("durability dir must be non-empty");
    }
    replaying_ = true;
    Status recovered = Recover();
    replaying_ = false;
    BEAS_RETURN_NOT_OK(recovered);

    for (size_t k = 0; k < db_->num_shard_locks(); ++k) {
      shard_wals_.push_back(std::make_unique<ShardWal>());
    }
    BEAS_RETURN_NOT_OK(OpenWals(/*latch_failures=*/false));

    // Structural-op logging hooks. Registered after recovery, so replayed
    // operations were never at risk of being re-logged; from here on,
    // every DDL / constraint change / dict rebuild that reaches the
    // engine gets a meta record.
    db_->RegisterDdlHook([this](const std::string& table) { OnDdl(table); });
    catalog_->AddChangeListener(
        [this](AsCatalog::ChangeKind kind, const std::string& table,
               const std::string& name) { OnCatalogChange(kind, table, name); });

    for (size_t k = 0; k < shard_wals_.size(); ++k) {
      shard_wals_[k]->drainer = std::thread([this, k] { DrainerLoop(k); });
    }
    opened_ = true;
    return Status::OK();
  }();
  return open_status_;
}

// ---------------------------------------------------------------------------
// Durable write paths.
// ---------------------------------------------------------------------------

std::future<Status> DurabilityManager::Enqueue(size_t wal_shard,
                                               WalRecordType type,
                                               std::string payload) {
  ShardWal& wal = *shard_wals_[wal_shard];
  Pending* p = new Pending;
  p->record.type = type;
  p->record.payload = std::move(payload);
  std::future<Status> ack = p->ack.get_future();
  // A latched shard fast-fails here; a racing latch is caught by the
  // drainer, which nacks everything it pops from a latched shard.
  if (wal.io_failed.load(std::memory_order_acquire)) {
    p->ack.set_value(WalLatchedError());
    delete p;
    return ack;
  }
  wal.enqueued.fetch_add(1, std::memory_order_relaxed);
  Pending* head = wal.head.load(std::memory_order_relaxed);
  do {
    p->next = head;
  } while (!wal.head.compare_exchange_weak(head, p, std::memory_order_release,
                                           std::memory_order_relaxed));
  // Empty critical section: pairs the notify with the drainer's wait so a
  // wakeup between its predicate check and its sleep cannot be lost.
  { std::lock_guard<std::mutex> lk(wal.wake_mutex); }
  wal.wake.notify_one();
  return ack;
}

Status DurabilityManager::Insert(const std::string& table, Row row) {
  BEAS_RETURN_NOT_OK(CheckWritable());
  std::shared_lock<std::shared_mutex> gate(commit_mutex_);
  // Validate + coerce before logging: doomed rows are rejected without
  // burning WAL bytes, and the record routes to the queue of the shard it
  // will apply to (its drainer's apply blocks only on that shard's lock).
  size_t shard = 0;
  BEAS_RETURN_NOT_OK(db_->ValidateForInsert(table, &row, &shard));
  BEAS_RETURN_NOT_OK(CheckQuarantine(table, static_cast<int64_t>(shard)));
  ByteSink payload;
  payload.PutString(table);
  WriteRow(&payload, row);
  return Enqueue(shard % shard_wals_.size(), WalRecordType::kInsert,
                 payload.Take())
      .get();
}

Status DurabilityManager::InsertBatch(const std::string& table,
                                      std::vector<Row> rows) {
  BEAS_RETURN_NOT_OK(CheckWritable());
  if (rows.empty()) return Status::OK();
  std::shared_lock<std::shared_mutex> gate(commit_mutex_);
  // A batch can land in any heap shard, so any quarantined shard of the
  // table refuses it.
  BEAS_RETURN_NOT_OK(CheckQuarantine(table, -1));
  // Route by the first row only; the batch is logged whole and applied
  // through Database::InsertBatch, whose validate-then-commit (including
  // the partial commit before a bad row) is deterministic — replay
  // reproduces exactly what the live apply did, error and all.
  size_t shard = 0;
  {
    Row probe = rows.front();
    if (!db_->ValidateForInsert(table, &probe, &shard).ok()) shard = 0;
  }
  ByteSink payload;
  payload.PutString(table);
  payload.PutU32(static_cast<uint32_t>(rows.size()));
  for (const Row& row : rows) WriteRow(&payload, row);
  return Enqueue(shard % shard_wals_.size(), WalRecordType::kInsertBatch,
                 payload.Take())
      .get();
}

Status DurabilityManager::Delete(const std::string& table, const Row& row) {
  BEAS_RETURN_NOT_OK(CheckWritable());
  std::shared_lock<std::shared_mutex> gate(commit_mutex_);
  // A delete scans every shard of the table.
  BEAS_RETURN_NOT_OK(CheckQuarantine(table, -1));
  ByteSink payload;
  payload.PutString(table);
  WriteRow(&payload, row);
  // A delete scans every shard, so it has no natural home queue; spread
  // by content hash. Sequencing against the inserts it targets is by
  // LSN: a caller that deletes only after its insert acked enqueues
  // strictly later, so the delete is stamped (and replayed) later.
  size_t wal_shard =
      Crc32c(payload.str().data(), payload.size()) % shard_wals_.size();
  return Enqueue(wal_shard, WalRecordType::kDelete, payload.Take()).get();
}

Result<TableInfo*> DurabilityManager::CreateTable(const std::string& name,
                                                  const Schema& schema) {
  if (!open_status_.ok()) return open_status_;
  StructuralGate gate(this);
  // Apply-then-log: the DDL hook fires inside CreateTable (on success
  // only) and writes the meta record under this gate.
  Result<TableInfo*> info = db_->CreateTable(name, schema);
  if (info.ok()) BEAS_RETURN_NOT_OK(CheckWritable());
  return info;
}

Status DurabilityManager::CheckWritable() const {
  if (!open_status_.ok()) return open_status_;
  if (!meta_log_failed_.load(std::memory_order_acquire)) return Status::OK();
  return Status::Unavailable(
      "durability: a structural change could not be logged; the in-memory "
      "state is ahead of the WAL, refusing further durable writes");
}

Status DurabilityManager::CheckQuarantine(const std::string& table,
                                          int64_t shard) const {
  if (quarantined_count_.load(std::memory_order_acquire) == 0) {
    return Status::OK();
  }
  std::lock_guard<std::mutex> lk(quarantine_mutex_);
  const std::string key = ToLower(table);
  // Ordered by (table, shard): the lower bound of (table, 0) is the
  // table's first quarantined shard, if any.
  const std::pair<std::string, size_t> probe{
      key, shard >= 0 ? static_cast<size_t>(shard) : 0};
  auto it = quarantined_.lower_bound(probe);
  if (it == quarantined_.end() ||
      (shard >= 0 ? *it != probe : it->first != key)) {
    return Status::OK();
  }
  return Status::Unavailable(
      "durability: table '" + table +
      "' has a shard quarantined by the scrubber pending repair; durable "
      "writes refused (reads still serve)");
}

// ---------------------------------------------------------------------------
// Commit gate.
// ---------------------------------------------------------------------------

void DurabilityManager::EnterStructural() {
  commit_mutex_.lock();
  Barrier();
}

void DurabilityManager::LeaveStructural() { commit_mutex_.unlock(); }

void DurabilityManager::Barrier() {
  // Data writers hold the gate shared from enqueue to ack, so by the time
  // the exclusive lock is ours the queues are normally already drained;
  // the wait below is the formal guarantee, not the common path.
  for (auto& wal : shard_wals_) {
    auto drained = [&] {
      return wal->applied.load(std::memory_order_acquire) >=
             wal->enqueued.load(std::memory_order_acquire);
    };
    if (drained()) continue;
    // The drainer bumps applied before taking wake_mutex to notify, so a
    // bump concurrent with this locked predicate check either is seen
    // here or its notify lands after the wait begins — never lost.
    std::unique_lock<std::mutex> lk(wal->wake_mutex);
    wal->wake.notify_one();
    wal->applied_cv.wait(lk, drained);
  }
}

// ---------------------------------------------------------------------------
// Group-commit drainer.
// ---------------------------------------------------------------------------

void DurabilityManager::DrainerLoop(size_t wal_shard) {
  ShardWal& wal = *shard_wals_[wal_shard];
  for (;;) {
    {
      std::unique_lock<std::mutex> lk(wal.wake_mutex);
      wal.wake.wait_for(lk, std::chrono::milliseconds(50), [&] {
        return wal.head.load(std::memory_order_acquire) != nullptr ||
               stop_.load(std::memory_order_acquire);
      });
    }
    Pending* batch = wal.head.exchange(nullptr, std::memory_order_acq_rel);
    if (batch == nullptr) {
      if (stop_.load(std::memory_order_acquire)) return;
      continue;
    }
    // The stack pops newest-first; reverse to FIFO so apply order is
    // enqueue order.
    Pending* fifo = nullptr;
    while (batch != nullptr) {
      Pending* next = batch->next;
      batch->next = fifo;
      fifo = batch;
      batch = next;
    }
    // A latched shard nacks everything it pops: its file may end in bytes
    // the accounting cannot vouch for, and appending past them would let
    // recovery (which stops at the first invalid record) silently drop
    // the new records despite their acks.
    Status io = wal.io_failed.load(std::memory_order_acquire)
                    ? WalLatchedError()
                    : Status::OK();
    ByteSink group;
    if (io.ok()) {
      const uint64_t good_offset = wal.file->size();
      // Stamp LSNs at pop time: per-queue apply order equals LSN order by
      // construction, and an op enqueued after another op's ack is
      // stamped strictly later even across queues.
      uint64_t count = 0;
      for (Pending* p = fifo; p != nullptr; p = p->next) {
        p->record.lsn = next_lsn_.fetch_add(1, std::memory_order_relaxed);
        EncodeWalRecord(&group, p->record);
        ++count;
      }
      // Commit with bounded retry: a transient append/fsync fault is
      // repaired (truncate back to the acked prefix, so nothing torn or
      // nacked can sit mid-file), backed off, and re-attempted — the
      // group's writers see a slow ack instead of a spurious nack. Only
      // when retries exhaust (a hard fault) or the repair itself fails
      // (the file can no longer be vouched for) does the shard latch.
      uint64_t attempt = 0;
      for (;;) {
        Status commit =
            wal.file->Append(group.str().data(), group.size());
        commit = MergePoint(std::move(commit), "wal_append");
        if (commit.ok()) commit = fail::Point("wal_group_io");
        if (commit.ok()) commit = fail::Point("wal_pre_fsync");
        if (commit.ok()) {
          commit = wal.file->Sync();
          wal_fsyncs_total_.fetch_add(1, std::memory_order_relaxed);
        }
        if (commit.ok()) commit = fail::Point("wal_post_fsync");
        if (commit.ok()) {
          wal_bytes_total_.fetch_add(group.size(), std::memory_order_relaxed);
          wal_records_total_.fetch_add(count, std::memory_order_relaxed);
          wal_group_commits_total_.fetch_add(1, std::memory_order_relaxed);
          wal_bytes_since_checkpoint_.fetch_add(group.size(),
                                                std::memory_order_relaxed);
          break;
        }
        // Repair before deciding anything. A partial append leaves a
        // torn record (possibly preceded by whole CRC-valid records of
        // this uncommitted group) past the acked prefix; a failed fsync
        // leaves the whole group CRC-valid in the page cache. Either way
        // the file must end at the last acked byte: cut it back and
        // persist the cut, so the bytes can neither shadow later acked
        // groups at recovery nor be replayed themselves.
        Status repair = wal.file->Truncate(good_offset);
        if (repair.ok()) repair = wal.file->Sync();
        repair = MergePoint(std::move(repair), "wal_repair_fail");
        if (!repair.ok()) {
          wal.io_failed.store(true, std::memory_order_release);
          io = WalLatchedError();
          break;
        }
        if (attempt >= kWalRetryLimit) {
          // Hard fault: the file is repaired (ends at the acked prefix)
          // but the device keeps refusing the group. Latch and surface a
          // typed refusal — "acked but unrecoverable" stays impossible.
          wal.io_failed.store(true, std::memory_order_release);
          io = Status::Unavailable(
              "durability: WAL group commit failed after " +
              std::to_string(attempt) + " retries, shard latched: " +
              commit.message());
          break;
        }
        ++attempt;
        wal_retries_total_.fetch_add(1, std::memory_order_relaxed);
        uint64_t backoff = kWalRetryBackoffMs << (attempt - 1);
        std::this_thread::sleep_for(std::chrono::milliseconds(
            std::min<uint64_t>(backoff, kWalRetryBackoffCapMs)));
      }
    }
    // Apply in FIFO order, then ack. On an IO failure nothing applies:
    // the group was cut back out of the log (or the shard latched) —
    // acking (or applying) would promise more than the log holds.
    for (Pending* p = fifo; p != nullptr;) {
      Pending* next = p->next;
      Status st = io.ok() ? ApplyRecord(p->record) : io;
      p->ack.set_value(std::move(st));
      wal.applied.fetch_add(1, std::memory_order_release);
      delete p;
      p = next;
    }
    // Pairs with Barrier(): applied is published above, the empty
    // critical section orders this notify after its locked check.
    { std::lock_guard<std::mutex> lk(wal.wake_mutex); }
    wal.applied_cv.notify_all();
  }
}

void DurabilityManager::MarkTableDirty(const std::string& table) {
  std::lock_guard<std::mutex> lk(dirty_mutex_);
  dirty_tables_.insert(ToLower(table));
}

void DurabilityManager::MarkStructuralDirty() {
  std::lock_guard<std::mutex> lk(dirty_mutex_);
  structural_dirty_ = true;
}

Status DurabilityManager::ApplyRecord(const WalRecord& record) {
  ByteReader r(record.payload.data(), record.payload.size());
  switch (record.type) {
    case WalRecordType::kInsert:
    case WalRecordType::kDelete: {
      std::string table = r.GetString();
      BEAS_ASSIGN_OR_RETURN(Row row, ReadRow(&r));
      if (!r.ok()) return Status::IoError("bad insert/delete record");
      MarkTableDirty(table);
      return record.type == WalRecordType::kInsert
                 ? db_->Insert(table, std::move(row))
                 : db_->DeleteWhereEquals(table, row);
    }
    case WalRecordType::kInsertBatch: {
      std::string table = r.GetString();
      uint32_t count = r.GetU32();
      if (!r.ok() || count > r.remaining()) {
        return Status::IoError("bad insert-batch record");
      }
      std::vector<Row> rows;
      rows.reserve(count);
      for (uint32_t i = 0; i < count; ++i) {
        BEAS_ASSIGN_OR_RETURN(Row row, ReadRow(&r));
        rows.push_back(std::move(row));
      }
      MarkTableDirty(table);
      return db_->InsertBatch(table, std::move(rows));
    }
    // Structural records never flow through the shard queues; they are
    // applied here only during recovery replay (single-threaded).
    case WalRecordType::kCreateTable: {
      std::string name = r.GetString();
      BEAS_ASSIGN_OR_RETURN(Schema schema, ReadSchema(&r));
      MarkStructuralDirty();
      return db_->CreateTable(name, schema).status();
    }
    case WalRecordType::kRegisterConstraint: {
      BEAS_ASSIGN_OR_RETURN(AccessConstraint constraint, ReadConstraint(&r));
      MarkStructuralDirty();
      Database::StructuralScope lock(db_);
      return catalog_->Register(std::move(constraint));
    }
    case WalRecordType::kUnregisterConstraint: {
      std::string name = r.GetString();
      if (!r.ok()) return Status::IoError("bad unregister record");
      MarkStructuralDirty();
      Database::StructuralScope lock(db_);
      return catalog_->Unregister(name);
    }
    case WalRecordType::kAdjustLimit: {
      std::string name = r.GetString();
      uint64_t limit = r.GetU64();
      if (!r.ok()) return Status::IoError("bad adjust-limit record");
      MarkStructuralDirty();
      Database::StructuralScope lock(db_);
      return catalog_->AdjustLimit(name, limit);
    }
    case WalRecordType::kDictRebuild: {
      std::string table = r.GetString();
      if (!r.ok()) return Status::IoError("bad dict-rebuild record");
      MarkStructuralDirty();
      Database::StructuralScope lock(db_);
      return catalog_->RebuildTableDictSorted(table).status();
    }
  }
  return Status::IoError("unknown WAL record type");
}

// ---------------------------------------------------------------------------
// Structural-op logging (meta WAL).
// ---------------------------------------------------------------------------

void DurabilityManager::LogMeta(WalRecordType type, std::string payload) {
  // Any structural change invalidates the checkpoint-time memory
  // baselines (conservatively: the next checkpoint re-arms the scrubber).
  MarkStructuralDirty();
  WalRecord record;
  record.lsn = next_lsn_.fetch_add(1, std::memory_order_relaxed);
  record.type = type;
  record.payload = std::move(payload);
  ByteSink frame;
  EncodeWalRecord(&frame, record);
  std::lock_guard<std::mutex> lk(meta_mutex_);
  if (meta_wal_ == nullptr ||
      !meta_wal_->Append(frame.str().data(), frame.size()).ok() ||
      !meta_wal_->Sync().ok()) {
    meta_log_failed_.store(true, std::memory_order_release);
    return;
  }
  wal_fsyncs_total_.fetch_add(1, std::memory_order_relaxed);
  wal_bytes_total_.fetch_add(frame.size(), std::memory_order_relaxed);
  wal_records_total_.fetch_add(1, std::memory_order_relaxed);
  wal_bytes_since_checkpoint_.fetch_add(frame.size(),
                                        std::memory_order_relaxed);
}

void DurabilityManager::OnDdl(const std::string& table) {
  if (replaying_ || EqualsIgnoreCase(table, kStatsTableName)) return;
  Result<TableInfo*> info = db_->catalog()->GetTable(table);
  if (!info.ok()) return;
  ByteSink payload;
  payload.PutString((*info)->name());
  WriteSchema(&payload, (*info)->schema());
  LogMeta(WalRecordType::kCreateTable, payload.Take());
}

void DurabilityManager::OnCatalogChange(AsCatalog::ChangeKind kind,
                                        const std::string& table,
                                        const std::string& name) {
  if (replaying_ || EqualsIgnoreCase(table, kStatsTableName)) return;
  ByteSink payload;
  WalRecordType type = WalRecordType::kDictRebuild;
  switch (kind) {
    case AsCatalog::ChangeKind::kConstraintRegistered: {
      Result<const AccessConstraint*> c = catalog_->schema().Find(name);
      if (!c.ok()) return;
      WriteConstraint(&payload, **c);
      type = WalRecordType::kRegisterConstraint;
      break;
    }
    case AsCatalog::ChangeKind::kConstraintUnregistered:
      payload.PutString(name);
      type = WalRecordType::kUnregisterConstraint;
      break;
    case AsCatalog::ChangeKind::kLimitAdjusted: {
      Result<const AccessConstraint*> c = catalog_->schema().Find(name);
      if (!c.ok()) return;
      payload.PutString(name);
      payload.PutU64((*c)->limit_n);
      type = WalRecordType::kAdjustLimit;
      break;
    }
    case AsCatalog::ChangeKind::kDictRebuilt:
      payload.PutString(table);
      break;
  }
  LogMeta(type, payload.Take());
}

// ---------------------------------------------------------------------------
// Checkpoints.
// ---------------------------------------------------------------------------

Status DurabilityManager::Checkpoint() {
  if (!open_status_.ok()) return open_status_;
  StructuralGate gate(this);
  Database::StructuralScope lock(db_);
  return CheckpointLocked();
}

Status DurabilityManager::MaybeCheckpointLocked() {
  if (!opened_) return Status::OK();
  if (wal_bytes_since_checkpoint_.load(std::memory_order_relaxed) <
      options_.checkpoint_min_wal_bytes) {
    return Status::OK();
  }
  return CheckpointLocked();
}

Status DurabilityManager::WriteCheckpointSegments(
    const std::string& seg_dir, ByteSink* manifest,
    std::vector<SegmentRecord>* segments) {
  // Every segment write shares the ckpt_write fail-point site so the
  // error sweep (including the error(enospc) disk-full simulation) can
  // fault any file of the set.
  auto write_segment = [&](SegmentKind kind, const std::string& name,
                           size_t shard, const std::string& payload) {
    BEAS_RETURN_NOT_OK(fail::Point("ckpt_write"));
    SegmentRecord rec = UnitRecord(seg_dir, kind, name, shard);
    BEAS_RETURN_NOT_OK(
        WriteSegmentFile(env_, rec.path, kind, payload, &rec.crc));
    segments->push_back(std::move(rec));
    return Status::OK();
  };

  std::vector<std::string> tables;
  for (const std::string& name : db_->catalog()->TableNames()) {
    if (EqualsIgnoreCase(name, kStatsTableName)) continue;
    tables.push_back(name);
  }
  manifest->PutU32(static_cast<uint32_t>(tables.size()));
  for (const std::string& name : tables) {
    BEAS_ASSIGN_OR_RETURN(TableInfo * info, db_->catalog()->GetTable(name));
    manifest->PutString(info->name());
    BEAS_RETURN_NOT_OK(write_segment(SegmentKind::kTableMeta, info->name(), 0,
                                     BuildTableMetaPayload(*info)));
    const TableHeap& heap = *info->heap();
    if (heap.dict() != nullptr) {
      BEAS_RETURN_NOT_OK(write_segment(SegmentKind::kDict, info->name(), 0,
                                       BuildDictPayload(*heap.dict())));
    }
    for (size_t s = 0; s < heap.num_shards(); ++s) {
      BEAS_RETURN_NOT_OK(write_segment(SegmentKind::kShardRows, info->name(),
                                       s, BuildShardRowsPayload(heap, s)));
    }
  }

  // Constraints in registration order: restore re-adopts them in the same
  // order, so auto-naming and index slots line up with the live catalog.
  const std::vector<AccessConstraint>& constraints =
      catalog_->schema().constraints();
  manifest->PutU32(static_cast<uint32_t>(constraints.size()));
  for (const AccessConstraint& c : constraints) {
    manifest->PutString(c.name);
    const AcIndex* index = catalog_->IndexFor(c.name);
    if (index == nullptr) {
      return Status::Internal("no index for constraint '" + c.name + "'");
    }
    BEAS_RETURN_NOT_OK(write_segment(SegmentKind::kIndex, c.name, 0,
                                     BuildIndexPayload(*index)));
  }

  // CKMETA: a copy of the manifest payload inside the directory itself,
  // making ck<N> self-describing — recovery can fall back to it when a
  // newer checkpoint's segments fail verification.
  BEAS_RETURN_NOT_OK(
      write_segment(SegmentKind::kManifest, "", 0, manifest->str()));

  BEAS_RETURN_NOT_OK(env_->SyncDir(seg_dir));
  // ck<N>'s own entry in seg/ must be durable before the manifest can
  // point at it, or a crash leaves a manifest referencing a directory
  // that no longer exists.
  BEAS_RETURN_NOT_OK(env_->SyncDir(options_.dir + "/seg"));
  return fail::Point("ckpt_mid");
}

Status DurabilityManager::RotateWals() {
  auto rotate = [&]() -> Status {
    // Close the live handles first: a posix fd follows its file through
    // the rename, so appends would land in the archived epoch.
    for (auto& wal : shard_wals_) wal->file.reset();
    {
      std::lock_guard<std::mutex> lk(meta_mutex_);
      meta_wal_.reset();
    }
    // wal/prev currently holds the epoch before last — every record in it
    // is covered by both retained checkpoints, so it can go.
    env_->RemoveAll(WalPrevDir());
    BEAS_RETURN_NOT_OK(env_->CreateDir(WalPrevDir()));
    BEAS_ASSIGN_OR_RETURN(std::vector<std::string> entries,
                          env_->ListDir(WalDir()));
    for (const std::string& entry : entries) {
      if (entry == "prev") continue;
      BEAS_RETURN_NOT_OK(
          env_->RenameFile(WalDir() + "/" + entry, WalPrevDir() + "/" + entry));
    }
    BEAS_RETURN_NOT_OK(env_->SyncDir(WalDir()));
    BEAS_RETURN_NOT_OK(env_->SyncDir(WalPrevDir()));
    return OpenWals(/*latch_failures=*/false);  // the fresh epoch
  };
  Status st = rotate();
  // A handle that could not be reopened must not dangle null under the
  // drainers: reopen best-effort, latch what stays closed.
  if (!st.ok()) (void)OpenWals(/*latch_failures=*/true);
  return st;
}

Status DurabilityManager::OpenWals(bool latch_failures) {
  for (size_t k = 0; k < shard_wals_.size(); ++k) {
    if (shard_wals_[k]->file != nullptr) continue;
    Result<std::unique_ptr<WritableFile>> f = OpenWalFile(env_, WalPath(k));
    if (f.ok()) {
      shard_wals_[k]->file = std::move(*f);
    } else if (latch_failures) {
      shard_wals_[k]->io_failed.store(true, std::memory_order_release);
    } else {
      return f.status();
    }
  }
  std::lock_guard<std::mutex> lk(meta_mutex_);
  if (meta_wal_ != nullptr) return Status::OK();
  Result<std::unique_ptr<WritableFile>> f = OpenWalFile(env_, MetaWalPath());
  if (!f.ok()) {
    if (latch_failures) meta_log_failed_.store(true, std::memory_order_release);
    return f.status();
  }
  meta_wal_ = std::move(*f);
  return Status::OK();
}

void DurabilityManager::GcCheckpointDirs(uint64_t keep_id) {
  Result<std::vector<std::string>> entries = env_->ListDir(options_.dir +
                                                           "/seg");
  if (!entries.ok()) return;
  for (const std::string& entry : *entries) {
    uint64_t id = ParseCkDirName(entry);
    // Two generations stay: the live checkpoint and its fallback.
    bool keep = keep_id != 0 &&
                (id == keep_id || (keep_id > 1 && id == keep_id - 1));
    if (!keep) env_->RemoveAll(options_.dir + "/seg/" + entry);
  }
}

Status DurabilityManager::CheckpointLocked() {
  uint64_t id = last_checkpoint_id_ + 1;
  std::string seg_dir = SegDir(id);
  env_->RemoveAll(seg_dir);  // a crash mid-checkpoint may have left a stale try
  BEAS_RETURN_NOT_OK(env_->CreateDir(seg_dir));

  ByteSink manifest;
  manifest.PutU64(id);
  // Every record stamped so far is applied (the gate's barrier ran), so
  // the segments capture exactly the history below this LSN; replay
  // resumes here.
  manifest.PutU64(next_lsn_.load(std::memory_order_relaxed));

  std::vector<SegmentRecord> segments;
  Status wrote = WriteCheckpointSegments(seg_dir, &manifest, &segments);

  // Verify-then-commit: read every written segment back through the Env
  // and check its CRC against the write-time value. A bad read-back means
  // this checkpoint must never be pointed at — the previous one (plus the
  // retained WALs) is still fully intact.
  if (wrote.ok()) {
    Status verified = Status::OK();
    for (const SegmentRecord& rec : segments) {
      verified = VerifySegment(rec);
      if (!verified.ok()) break;
    }
    wrote = MergePoint(std::move(verified), "ckpt_verify");
  }

  if (!wrote.ok()) {
    // Pressure relief: nothing is committed (recovery still reads the
    // previous checkpoint + WAL tail), so the half-written try is pure
    // debt — drop it, and sweep any orphaned older tries while at it
    // (keeping the live checkpoint and its fallback). On a full disk that
    // frees space instead of compounding the stall, and the caller gets
    // the typed capacity verdict.
    env_->RemoveAll(seg_dir);
    GcCheckpointDirs(last_checkpoint_id_);
    if (IsNoSpaceError(wrote)) {
      return Status::ResourceExhausted(
          "checkpoint aborted, segment space reclaimed: " + wrote.message());
    }
    return wrote;
  }

  // Commit point: the manifest (segment-framed, atomically renamed in)
  // flips recovery from the old checkpoint + long WAL to the new one.
  {
    const std::string payload = manifest.Take();
    BEAS_RETURN_NOT_OK(env_->WriteFileAtomic(
        options_.dir + "/" + kManifestName,
        EncodeSegmentHeader(SegmentKind::kManifest, payload) + payload));
  }

  // Rotate the WALs instead of truncating: the outgoing epoch (records
  // since ck<N-1>) moves to wal/prev so a later recovery can still fall
  // back to ck<N-1> and replay it if ck<N>'s segments rot. This also
  // sweeps WAL files of a previous, larger BEAS_SHARDS configuration —
  // their records are covered by this checkpoint too.
  Status rotated = RotateWals();

  // The manifest is committed: bookkeeping must move to the new id even
  // when rotation or the post-truncate fail point injects an error, or
  // the next checkpoint would RemoveAll() the directory the manifest
  // points at.
  Status injected = fail::Point("ckpt_post_truncate");
  last_checkpoint_id_ = id;
  wal_bytes_since_checkpoint_.store(0, std::memory_order_relaxed);
  checkpoints_total_.fetch_add(1, std::memory_order_relaxed);
  current_segments_ = std::move(segments);
  {
    // The scrubber's memory baselines are valid from this instant.
    std::lock_guard<std::mutex> lk(dirty_mutex_);
    dirty_tables_.clear();
    structural_dirty_ = false;
  }
  BEAS_RETURN_NOT_OK(rotated);
  BEAS_RETURN_NOT_OK(injected);  // old dirs GC'd by the next ckpt/recovery
  GcCheckpointDirs(id);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Recovery.
// ---------------------------------------------------------------------------

Status DurabilityManager::RestoreTable(const std::string& seg_dir,
                                       const std::string& table) {
  BEAS_ASSIGN_OR_RETURN(
      SegmentView meta_view,
      OpenSegment(env_, SegmentPath(seg_dir, SegmentKind::kTableMeta, table),
                  SegmentKind::kTableMeta));
  BEAS_ASSIGN_OR_RETURN(TableMetaRestore meta,
                        ParseTableMetaPayload(meta_view.reader()));
  // Callers (Recover's restore section, scrub repair) hold the structural
  // lock exclusively; the self-locking CreateTable would deadlock here.
  BEAS_ASSIGN_OR_RETURN(TableInfo * info,
                        db_->CreateTableLocked(table, meta.schema));
  TableHeap* heap = info->heap();
  if (meta.dict_enabled) {
    BEAS_ASSIGN_OR_RETURN(
        SegmentView dict_view,
        OpenSegment(env_, SegmentPath(seg_dir, SegmentKind::kDict, table),
                    SegmentKind::kDict));
    BEAS_ASSIGN_OR_RETURN(DictRestore dict,
                          ParseDictPayload(dict_view.reader()));
    BEAS_RETURN_NOT_OK(heap->RestoreDict(std::move(dict.strings), dict.sorted,
                                         dict.out_of_order, dict.rebuilds));
  } else {
    heap->set_dict_enabled(false);
  }
  BEAS_RETURN_NOT_OK(heap->BeginRestore(meta.num_shards));
  for (uint32_t s = 0; s < meta.num_shards; ++s) {
    BEAS_ASSIGN_OR_RETURN(
        SegmentView view,
        OpenSegment(env_,
                    SegmentPath(seg_dir, SegmentKind::kShardRows, table, s),
                    SegmentKind::kShardRows));
    // The segment stores string bytes; swap back to dictionary codes now
    // that the dictionary holds every string these rows ever interned,
    // and decode each row straight into the shard's pages.
    BEAS_RETURN_NOT_OK(ParseShardRowsPayload(
        view.reader(), [&](Row* row, bool live) {
          CanonicalizeRow(row, heap->dict());
          return heap->RestoreRow(s, row, live);
        }));
  }
  return heap->FinishRestore(meta.directory, meta.shard_key_col);
}

Status DurabilityManager::RestoreIndex(const std::string& seg_dir,
                                       const std::string& name) {
  BEAS_ASSIGN_OR_RETURN(
      SegmentView view,
      OpenSegment(env_, SegmentPath(seg_dir, SegmentKind::kIndex, name),
                  SegmentKind::kIndex));
  BEAS_ASSIGN_OR_RETURN(IndexRestore restore, ParseIndexPayload(view.reader()));
  BEAS_ASSIGN_OR_RETURN(TableInfo * info,
                        db_->catalog()->GetTable(restore.constraint.table));
  const TableHeap& heap = *info->heap();
  for (AcIndex::RestoredBucket& bucket : restore.buckets) {
    CanonicalizeRow(&bucket.key, heap.dict());
    CanonicalizeRow(&bucket.cells, heap.dict());
  }
  AccessConstraint constraint = restore.constraint;
  BEAS_ASSIGN_OR_RETURN(
      std::unique_ptr<AcIndex> index,
      AcIndex::Restore(std::move(restore.constraint), heap,
                       std::move(restore.buckets)));
  // The heap predates this constraint's shard-key declaration or not — we
  // cannot tell from here, but it does not matter: FinishRestore already
  // reinstated the recorded shard_key_col, and placement is historical.
  return catalog_->AdoptRestored(std::move(constraint), std::move(index));
}

Result<DurabilityManager::CheckpointMeta> DurabilityManager::LoadCheckpointMeta(
    const std::string& path) {
  BEAS_ASSIGN_OR_RETURN(SegmentView view,
                        OpenSegment(env_, path, SegmentKind::kManifest));
  ByteReader r = view.reader();
  CheckpointMeta meta;
  meta.id = r.GetU64();
  meta.replay_from = r.GetU64();
  auto read_names = [&r](std::vector<std::string>* names) {
    uint32_t count = r.GetU32();
    if (!r.ok() || count > r.remaining()) return false;
    names->reserve(count);
    for (uint32_t i = 0; i < count; ++i) names->push_back(r.GetString());
    return true;
  };
  if (!read_names(&meta.tables) || !read_names(&meta.constraints) ||
      !r.ok()) {
    return Status::Corruption("truncated manifest: " + path);
  }
  return meta;
}

Status DurabilityManager::VerifyCheckpoint(
    const std::string& seg_dir, const CheckpointMeta& meta,
    std::vector<SegmentRecord>* segments) {
  auto verify = [&](SegmentKind kind, const std::string& name,
                    size_t shard) -> Result<SegmentView> {
    SegmentRecord rec = UnitRecord(seg_dir, kind, name, shard);
    BEAS_ASSIGN_OR_RETURN(SegmentView view, OpenSegment(env_, rec.path, kind));
    rec.crc = view.crc;
    segments->push_back(std::move(rec));
    return view;
  };
  for (const std::string& table : meta.tables) {
    // The table meta segment is parsed (not just CRC'd): the shard count
    // and dict flag decide which further files the checkpoint must hold.
    BEAS_ASSIGN_OR_RETURN(SegmentView view,
                          verify(SegmentKind::kTableMeta, table, 0));
    BEAS_ASSIGN_OR_RETURN(TableMetaRestore tm,
                          ParseTableMetaPayload(view.reader()));
    if (tm.dict_enabled) {
      BEAS_RETURN_NOT_OK(verify(SegmentKind::kDict, table, 0).status());
    }
    for (uint32_t s = 0; s < tm.num_shards; ++s) {
      BEAS_RETURN_NOT_OK(verify(SegmentKind::kShardRows, table, s).status());
    }
  }
  for (const std::string& name : meta.constraints) {
    BEAS_RETURN_NOT_OK(verify(SegmentKind::kIndex, name, 0).status());
  }
  if (env_->FileExists(SegmentPath(seg_dir, SegmentKind::kManifest, ""))) {
    BEAS_RETURN_NOT_OK(verify(SegmentKind::kManifest, "", 0).status());
  }
  return Status::OK();
}

DurabilityManager::SegmentRecord DurabilityManager::UnitRecord(
    const std::string& seg_dir, SegmentKind kind, const std::string& name,
    size_t shard) {
  SegmentRecord rec;
  rec.path = SegmentPath(seg_dir, kind, name, shard);
  rec.kind = kind;
  (kind == SegmentKind::kIndex ? rec.constraint : rec.table) = name;
  rec.shard = shard;
  return rec;
}

Status DurabilityManager::VerifySegment(const SegmentRecord& rec) const {
  uint32_t crc = 0;
  BEAS_ASSIGN_OR_RETURN(SegmentKind kind,
                        VerifySegmentFile(env_, rec.path, &crc));
  if (kind != rec.kind || crc != rec.crc) {
    return Status::Corruption("checkpoint read-back mismatch: " + rec.path);
  }
  return Status::OK();
}

bool DurabilityManager::MemoryMatches(const SegmentRecord& rec) const {
  std::string payload;
  if (rec.kind == SegmentKind::kIndex) {
    const AcIndex* index = catalog_->IndexFor(rec.constraint);
    if (index == nullptr) return true;
    payload = BuildIndexPayload(*index);
  } else {
    Result<TableInfo*> info = db_->catalog()->GetTable(rec.table);
    if (rec.kind == SegmentKind::kManifest || !info.ok()) return true;
    const TableHeap& heap = *(*info)->heap();
    if (rec.kind == SegmentKind::kTableMeta) {
      size_t shards = 0;
      for (const SegmentRecord& r : current_segments_) {
        shards += r.kind == SegmentKind::kShardRows && r.table == rec.table;
      }
      return heap.num_shards() == shards;
    }
    if (rec.kind == SegmentKind::kDict) {
      if (heap.dict() == nullptr) return true;
      payload = BuildDictPayload(*heap.dict());
    } else {
      if (rec.shard >= heap.num_shards()) return false;
      payload = BuildShardRowsPayload(heap, rec.shard);
    }
  }
  return Crc32c(payload.data(), payload.size()) == rec.crc;
}

Status DurabilityManager::Recover() {
  BEAS_RETURN_NOT_OK(env_->CreateDir(options_.dir));
  BEAS_RETURN_NOT_OK(env_->CreateDir(WalDir()));
  BEAS_RETURN_NOT_OK(env_->CreateDir(options_.dir + "/seg"));
  // Persist the directory entries themselves: the manifest rename fsyncs
  // options_.dir later, but nothing else would cover the creation of the
  // data dir or of wal/ and seg/ inside it — a machine crash could
  // otherwise forget whole directories of acked state.
  BEAS_RETURN_NOT_OK(env_->SyncParentDir(options_.dir));
  BEAS_RETURN_NOT_OK(env_->SyncDir(options_.dir));

  // Candidate checkpoints, best first: the manifest's, then every
  // self-describing ck directory (CKMETA present) in descending id order.
  // A candidate counts only if every segment it references passes its CRC
  // check — verification runs BEFORE any restore touches the database, so
  // falling past a rotten newest checkpoint is safe.
  std::vector<std::string> candidates;
  const std::string manifest_path = options_.dir + "/" + kManifestName;
  const bool manifest_present = env_->FileExists(manifest_path);
  if (manifest_present) candidates.push_back(manifest_path);
  std::vector<uint64_t> ck_ids;
  if (Result<std::vector<std::string>> entries =
          env_->ListDir(options_.dir + "/seg");
      entries.ok()) {
    for (const std::string& entry : *entries) {
      uint64_t id = ParseCkDirName(entry);
      if (id != 0) ck_ids.push_back(id);
    }
  }
  std::sort(ck_ids.rbegin(), ck_ids.rend());
  for (uint64_t id : ck_ids) {
    std::string ckmeta = SegmentPath(SegDir(id), SegmentKind::kManifest, "");
    if (env_->FileExists(ckmeta)) candidates.push_back(std::move(ckmeta));
  }

  uint64_t replay_from = 0;  // first LSN not captured by the checkpoint
  Status first_fail = Status::OK();
  for (const std::string& path : candidates) {
    Result<CheckpointMeta> meta = LoadCheckpointMeta(path);
    std::vector<SegmentRecord> segments;
    Status verified = meta.ok()
                          ? VerifyCheckpoint(SegDir(meta->id), *meta, &segments)
                          : meta.status();
    if (!verified.ok()) {
      if (first_fail.ok()) first_fail = verified;
      continue;
    }
    // Verified: commit to this candidate. A restore failure past this
    // point is a real error (the database is partially populated), not a
    // fallback trigger. RestoreTable/RestoreIndex expect the structural
    // lock held exclusively (shared invariant with the scrub repair
    // path); nothing else runs at Open time, but the scope keeps the
    // contract uniform.
    current_segments_ = std::move(segments);
    Database::StructuralScope restore_lock(db_);
    for (const std::string& table : meta->tables) {
      BEAS_RETURN_NOT_OK(RestoreTable(SegDir(meta->id), table));
    }
    for (const std::string& name : meta->constraints) {
      BEAS_RETURN_NOT_OK(RestoreIndex(SegDir(meta->id), name));
    }
    last_checkpoint_id_ = meta->id;
    replay_from = meta->replay_from;
    break;
  }
  // Fatal only when a checkpoint provably *committed* (a MANIFEST exists)
  // and nothing recovers it: acked state may have rotated out of wal/ by
  // then, so restoring empty would silently lose it. Without a MANIFEST
  // no checkpoint ever committed (the commit rename is durable before
  // Checkpoint returns) — stray half-written ck dirs from a crash mid
  // first checkpoint are just reclaimed, and the full WAL replays.
  if (last_checkpoint_id_ == 0 && manifest_present) {
    return Status::Corruption(
        "no recoverable checkpoint: every candidate failed verification; "
        "first failure: " + first_fail.message());
  }

  // GC checkpoint directories beyond the retained pair (crash between
  // manifest commit and old-dir removal, abandoned tries, or a fallback
  // that obsoleted a corrupt newer directory).
  GcCheckpointDirs(last_checkpoint_id_);

  // Merge every WAL — the live epoch in wal/ plus the retained previous
  // epoch in wal/prev (all shard files present: the shard count may have
  // changed across restarts — plus the meta WALs), keep the tail past the
  // chosen checkpoint, and replay globally in LSN order.
  std::vector<WalRecord> tail;
  uint64_t max_lsn = replay_from > 0 ? replay_from - 1 : 0;
  for (const std::string& dir : {WalDir(), WalPrevDir()}) {
    Result<std::vector<std::string>> entries = env_->ListDir(dir);
    if (!entries.ok()) continue;  // wal/prev may not exist yet
    for (const std::string& entry : *entries) {
      const std::string path = dir + "/" + entry;
      if (env_->IsDirectory(path)) continue;  // skips prev/ under wal/
      Result<WalReadResult> read = ReadWalFile(env_, path);
      uint64_t keep = 0;  // bytes of `path` that survive the repair below
      if (read.ok()) {
        for (WalRecord& record : read->records) {
          max_lsn = std::max(max_lsn, record.lsn);
          if (record.lsn >= replay_from) tail.push_back(std::move(record));
        }
        keep = std::max(read->valid_bytes, kWalHeaderBytes);
      } else {
        // Garbage magic can be a crash image's torn, never-synced header
        // (a power cut inside OpenWalFile's 8-byte append): an acked
        // record in this file would imply an fsync that also made the
        // header durable, so an invalid magic proves nothing acked ever
        // lived here — the repair below resets the file to empty, like the
        // short-header case inside ReadWalFile. A readable BWAL magic with
        // a foreign version is real foreign data and stays fatal.
        bool bwal_magic = false;
        if (Result<std::unique_ptr<RandomAccessFile>> view =
                env_->NewRandomAccessFile(path);
            view.ok() && (*view)->size() >= 4) {
          ByteReader r((*view)->data(), 4);
          bwal_magic = r.GetU32() == kWalMagic;
        }
        if (bwal_magic) return read.status();
      }
      // Torn-tail repair: drop the invalid suffix a kill mid-append left,
      // so post-recovery appends extend a clean prefix.
      if (Result<std::unique_ptr<WritableFile>> repair =
              env_->NewWritableFile(path);
          repair.ok()) {
        if ((*repair)->size() < kWalHeaderBytes) {
          (void)(*repair)->Truncate(0);  // OpenWalFile re-headers it
        } else if ((*repair)->size() > keep) {
          (void)(*repair)->Truncate(keep);
          (void)(*repair)->Sync();
        }
      }
    }
  }
  std::sort(tail.begin(), tail.end(),
            [](const WalRecord& a, const WalRecord& b) { return a.lsn < b.lsn; });
  for (const WalRecord& record : tail) {
    // Apply statuses are deliberately ignored: a record whose live apply
    // failed (e.g. the partial-commit error of a batch with a bad row)
    // fails identically here — that IS the faithful replay.
    (void)ApplyRecord(record);
    recovery_replayed_records_.fetch_add(1, std::memory_order_relaxed);
  }
  next_lsn_.store(max_lsn + 1, std::memory_order_relaxed);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Scrub and repair.
// ---------------------------------------------------------------------------

Status DurabilityManager::ReloadTableFromCheckpoint(const std::string& table) {
  const std::string seg_dir = SegDir(last_checkpoint_id_);
  // The table's constraints, in registration order, so RestoreIndex
  // re-adopts them deterministically.
  std::vector<std::string> names;
  for (const AccessConstraint& c : catalog_->schema().constraints()) {
    if (EqualsIgnoreCase(c.table, table)) names.push_back(c.name);
  }
  replaying_ = true;  // suppress the logging hooks: this is a reload, not
                      // new history
  Status reloaded = [&]() -> Status {
    for (const std::string& name : names) {
      BEAS_RETURN_NOT_OK(catalog_->Unregister(name));
    }
    BEAS_RETURN_NOT_OK(db_->catalog()->DropTable(table));
    BEAS_RETURN_NOT_OK(RestoreTable(seg_dir, table));
    for (const std::string& name : names) {
      BEAS_RETURN_NOT_OK(RestoreIndex(seg_dir, name));
    }
    return Status::OK();
  }();
  replaying_ = false;
  BEAS_RETURN_NOT_OK(reloaded);

  // Confirm the reload matches the checkpoint fingerprints: the table's
  // meta record (its first) checks the shard count, the rest their CRCs.
  for (const SegmentRecord& rec : current_segments_) {
    if (rec.table == table && !MemoryMatches(rec)) {
      return Status::Corruption("scrub repair: '" + table + "' still "
                                "mismatches " + rec.path + " after reload");
    }
  }
  return Status::OK();
}

Status DurabilityManager::Scrub(ScrubReport* report) {
  if (!open_status_.ok()) return open_status_;
  StructuralGate gate(this);
  Database::StructuralScope lock(db_);
  return ScrubLocked(report);
}

Status DurabilityManager::ScrubLocked(ScrubReport* report) {
  if (!opened_) return Status::OK();
  scrub_cycles_total_.fetch_add(1, std::memory_order_relaxed);
  ScrubReport local;
  if (report == nullptr) report = &local;
  *report = ScrubReport{};
  if (last_checkpoint_id_ == 0) return Status::OK();  // nothing persisted yet

  std::set<std::string> dirty;
  bool structural_dirty = false;
  {
    std::lock_guard<std::mutex> lk(dirty_mutex_);
    dirty = dirty_tables_;
    structural_dirty = structural_dirty_;
  }

  auto count_corruption = [&] {
    report->corruptions_found++;
    scrub_corruptions_found_.fetch_add(1, std::memory_order_relaxed);
  };

  // The units a pass found corrupt: heap shards, whole tables (meta, dict
  // or shard layout), AC indexes, and the CKMETA copy.
  struct Findings {
    std::set<std::pair<std::string, size_t>> shards;
    std::set<std::string> tables;
    std::set<std::string> indexes;
    bool ckmeta = false;

    void Add(const SegmentRecord& rec) {
      switch (rec.kind) {
        case SegmentKind::kShardRows:
          shards.insert({rec.table, rec.shard});
          break;
        case SegmentKind::kTableMeta:
        case SegmentKind::kDict:
          tables.insert(rec.table);
          break;
        case SegmentKind::kIndex:
          indexes.insert(rec.constraint);
          break;
        case SegmentKind::kManifest:
          ckmeta = true;
          break;
      }
    }
    size_t units() const {
      return shards.size() + tables.size() + indexes.size() + (ckmeta ? 1 : 0);
    }
  };
  Findings disk;
  Findings mem;

  // ---- Disk pass: re-validate every current-checkpoint segment CRC. ----
  for (const SegmentRecord& rec : current_segments_) {
    report->segments_checked++;
    if (VerifySegment(rec).ok()) continue;
    count_corruption();
    disk.Add(rec);
  }

  auto table_of_constraint = [&](const std::string& name) -> std::string {
    Result<const AccessConstraint*> c = catalog_->schema().Find(name);
    return c.ok() ? (*c)->table : std::string();
  };

  // ---- Memory pass: cross-check live state against checkpoint-time
  // fingerprints. Only meaningful for tables untouched since the
  // checkpoint (a write legitimately changes the bytes). ----
  if (!structural_dirty) {
    // A table whose shard count diverged skips its per-shard and dict
    // checks; its meta record precedes them in the list.
    std::set<std::string> bad_layout;
    for (const SegmentRecord& rec : current_segments_) {
      const std::string table = rec.kind == SegmentKind::kIndex
                                    ? table_of_constraint(rec.constraint)
                                    : rec.table;
      if (table.empty() || dirty.count(ToLower(table)) != 0 ||
          bad_layout.count(rec.table) != 0 || MemoryMatches(rec)) {
        continue;
      }
      count_corruption();
      mem.Add(rec);
      if (rec.kind == SegmentKind::kTableMeta) bad_layout.insert(rec.table);
    }
  }

  // ---- Quarantine every implicated (table, heap shard). ----
  std::set<std::pair<std::string, size_t>> implicated;
  auto implicate_all_shards = [&](const std::string& table) {
    if (table.empty()) return;
    Result<TableInfo*> info = db_->catalog()->GetTable(table);
    size_t n = info.ok() ? (*info)->heap()->num_shards() : 1;
    for (size_t s = 0; s < n; ++s) implicated.insert({ToLower(table), s});
  };
  for (const Findings* found : {&disk, &mem}) {
    for (const auto& [table, shard] : found->shards) {
      implicated.insert({ToLower(table), shard});
    }
    for (const std::string& t : found->tables) implicate_all_shards(t);
    for (const std::string& ix : found->indexes) {
      implicate_all_shards(table_of_constraint(ix));
    }
  }
  if (!implicated.empty()) {
    std::lock_guard<std::mutex> lk(quarantine_mutex_);
    quarantined_.insert(implicated.begin(), implicated.end());
    quarantined_count_.store(quarantined_.size(), std::memory_order_release);
  }

  // ---- Repair. ----
  // Memory corruption with clean segments: reload the table (and its
  // indexes) from the checkpoint — sound because the memory pass only ran
  // for tables with zero writes since the checkpoint, so the segments ARE
  // the authoritative bytes.
  std::set<std::string> mem_tables = mem.tables;
  for (const auto& p : mem.shards) mem_tables.insert(p.first);
  for (const std::string& ix : mem.indexes) {
    std::string t = table_of_constraint(ix);
    if (!t.empty()) mem_tables.insert(t);
  }
  bool any_unrepairable = false;
  std::set<std::string> repaired_tables;  // lowercased
  for (const std::string& t : mem_tables) {
    bool disk_clean = disk.tables.count(t) == 0;
    for (const auto& p : disk.shards) {
      if (p.first == t) disk_clean = false;
    }
    for (const AccessConstraint& c : catalog_->schema().constraints()) {
      if (EqualsIgnoreCase(c.table, t) && disk.indexes.count(c.name) != 0) {
        disk_clean = false;
      }
    }
    // Corrupt in memory AND its only durable copy is corrupt too: nothing
    // trustworthy to restore from. Stays quarantined (as does a table
    // whose reload fails).
    if (!disk_clean || !ReloadTableFromCheckpoint(t).ok()) {
      any_unrepairable = true;
      report->unrepairable++;
      continue;
    }
    repaired_tables.insert(ToLower(t));
    report->repairs++;
    scrub_repairs_total_.fetch_add(1, std::memory_order_relaxed);
  }
  if (!repaired_tables.empty()) {
    std::lock_guard<std::mutex> lk(quarantine_mutex_);
    for (auto it = quarantined_.begin(); it != quarantined_.end();) {
      it = repaired_tables.count(it->first) != 0 ? quarantined_.erase(it)
                                                 : std::next(it);
    }
    quarantined_count_.store(quarantined_.size(), std::memory_order_release);
  }

  // Disk corruption with trustworthy memory: the live state is the
  // database of record — rewrite a fresh, read-back-verified checkpoint,
  // which supersedes every rotten segment at once. Skipped while any
  // unrepairable unit exists: checkpointing would persist its corrupt
  // in-memory bytes over the last good (if any) copy.
  if (disk.units() != 0 && !any_unrepairable) {
    BEAS_RETURN_NOT_OK(CheckpointLocked());
    uint64_t fixed = disk.units();
    report->repairs += fixed;
    scrub_repairs_total_.fetch_add(fixed, std::memory_order_relaxed);
    // Everything verified fresh end-to-end; nothing left to quarantine.
    std::lock_guard<std::mutex> lk(quarantine_mutex_);
    quarantined_.clear();
    quarantined_count_.store(0, std::memory_order_release);
  }

  if (any_unrepairable) {
    return Status::Corruption(
        "scrub: corruption present in both memory and its checkpoint "
        "segments; affected shards stay quarantined");
  }
  return Status::OK();
}

DurabilityCounters DurabilityManager::counters() const {
  DurabilityCounters out;
  out.wal_bytes_total = wal_bytes_total_.load(std::memory_order_relaxed);
  out.wal_records_total = wal_records_total_.load(std::memory_order_relaxed);
  out.wal_group_commits_total =
      wal_group_commits_total_.load(std::memory_order_relaxed);
  out.wal_fsyncs_total = wal_fsyncs_total_.load(std::memory_order_relaxed);
  out.checkpoints_total = checkpoints_total_.load(std::memory_order_relaxed);
  out.recovery_replayed_records =
      recovery_replayed_records_.load(std::memory_order_relaxed);
  out.wal_retries_total = wal_retries_total_.load(std::memory_order_relaxed);
  for (const auto& wal : shard_wals_) {
    out.wal_latched_shards += wal->io_failed.load(std::memory_order_acquire);
  }
  out.scrub_cycles_total =
      scrub_cycles_total_.load(std::memory_order_relaxed);
  out.scrub_corruptions_found =
      scrub_corruptions_found_.load(std::memory_order_relaxed);
  out.scrub_repairs_total =
      scrub_repairs_total_.load(std::memory_order_relaxed);
  out.quarantined_shards =
      quarantined_count_.load(std::memory_order_relaxed);
  out.env_injected_faults = env_->injected_faults();
  return out;
}

}  // namespace durability
}  // namespace beas
