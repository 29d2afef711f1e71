#ifndef BEAS_STORAGE_TABLE_HEAP_H_
#define BEAS_STORAGE_TABLE_HEAP_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/shard_config.h"
#include "storage/string_dict.h"
#include "types/schema.h"
#include "types/tuple.h"

namespace beas {

/// \brief Stable identifier of a row inside a TableHeap.
using SlotId = size_t;

/// \brief An in-memory row store with stable slots and tombstone deletes,
/// hash-partitioned into N shards.
///
/// This is the storage substrate underneath both the conventional engine
/// (sequential scans) and the access-constraint indices (which reference
/// rows by slot). Slots are never reused, so a SlotId handed out by
/// Insert remains valid (live or dead) for the heap's lifetime.
///
/// ## Sharding
///
/// Rows live in `ConfiguredShardCount()` per-shard stores; a row's shard
/// is the hash of its shard-key column (the first X-column of the first
/// access constraint registered on the table, see DeclareShardKey) modulo
/// the shard count, falling back to the full row hash while no key is
/// declared. A global *slot directory* — one (shard, local) entry per
/// insert, in insertion order — keeps the public surface shard-oblivious:
/// SlotIds are directory positions, and iteration walks the directory, so
/// scan order, AC-index build order and hence every query answer are
/// bit-identical across shard counts. Sharding buys locking granularity
/// (Database holds one write lock per shard) and end-to-end parallelism
/// (AcIndex partitions into sub-indexes along the same shard count), not
/// different semantics.
///
/// ## Thread-safety
///
/// Same single-writer/multi-reader contract as before, now at shard
/// granularity: writers to *different* shards may run concurrently (the
/// directory append and the dictionary intern are internally serialized;
/// everything else a writer touches is per-shard), while a reader must be
/// excluded from every shard it reads — Database's per-shard lock table
/// enforces exactly that (readers share-lock all shards, a writer
/// exclusively locks the shards its rows hash to).
///
/// ## String dictionary
///
/// A table with STRING columns owns a StringDict; every string value is
/// interned on insert, so stored rows hold dictionary-backed Values
/// (pointer + uint32 code) instead of inline bytes. Everything downstream
/// of storage — AC index keys and buckets, batch gathers, probe-key
/// hashing — inherits O(1) string hashing/equality from that single
/// encode. The dictionary is table-level (shared by all shards, so code
/// equality keeps working across shards) and append-only; `dict()`
/// exposes it to the index and executor layers.
class TableHeap {
 public:
  explicit TableHeap(Schema schema)
      : schema_(std::move(schema)),
        shards_(ConfiguredShardCount()),
        dict_enabled_(default_dict_enabled()) {
    for (const Column& c : schema_.columns()) {
      has_string_cols_ |= c.type == TypeId::kString;
    }
  }

  /// Rows hold pointers into dict_; copying a heap would silently retarget
  /// nothing and dangle everything.
  TableHeap(const TableHeap&) = delete;
  TableHeap& operator=(const TableHeap&) = delete;

  const Schema& schema() const { return schema_; }

  /// The table's string dictionary, or nullptr when the table has no
  /// STRING columns (or interning is disabled for A/B measurement).
  const StringDict* dict() const {
    return dict_enabled_ && has_string_cols_ ? &dict_ : nullptr;
  }

  /// Disables/enables interning for rows inserted *from now on*; only
  /// meaningful on an empty heap (benches use it to measure the encoded
  /// path against the inline baseline). On by default.
  void set_dict_enabled(bool enabled) { dict_enabled_ = enabled; }

  /// Process-wide default for new heaps (bench ablation knob; not
  /// thread-safe — flip it only during single-threaded setup).
  static bool& default_dict_enabled() {
    static bool enabled = true;
    return enabled;
  }

  /// \name Shard surface.
  /// @{
  size_t num_shards() const { return shards_.size(); }

  /// Repartitions an *empty* heap (tests/benches sweep shard counts on a
  /// per-heap basis); no-op with an error-free shrug once rows exist.
  void set_num_shards(size_t n) {
    if (directory_.empty() && n >= 1 && n <= kMaxStorageShards) {
      shards_.clear();
      shards_.resize(n);
    }
  }

  /// Declares the column future inserts shard by (the first X-column of
  /// the table's first access constraint). Rows already placed stay where
  /// they are — placement is a locality/locking hint, never a correctness
  /// input, because the directory records every row's location.
  void DeclareShardKey(size_t col) {
    if (shard_key_col_ < 0 && col < schema_.NumColumns()) {
      shard_key_col_ = static_cast<int64_t>(col);
    }
  }
  int64_t shard_key_col() const { return shard_key_col_; }

  /// Sentinel for InsertUnchecked's `shard`: derive the shard from the
  /// row instead of trusting a caller-precomputed value.
  static constexpr size_t kShardAuto = static_cast<size_t>(-1);

  /// The shard `row` routes to: hash of the shard-key column when
  /// declared, full row hash otherwise. Deterministic across processes
  /// (same hashes the rest of the engine uses). Callers that take
  /// per-shard write locks (Database) compute this before locking.
  size_t ShardOf(const Row& row) const {
    if (shards_.size() == 1) return 0;
    uint64_t h;
    if (shard_key_col_ >= 0 &&
        static_cast<size_t>(shard_key_col_) < row.size()) {
      h = row[static_cast<size_t>(shard_key_col_)].Hash();
    } else {
      h = ValueVecHash{}(row);
    }
    return static_cast<size_t>(h % shards_.size());
  }

  /// Live rows currently stored in shard `s` (per-shard gauge; sample it
  /// under that shard's lock — see the stats snapshot in BeasService).
  size_t ShardLiveRows(size_t s) const { return shards_[s].num_live; }

  /// Resident bytes of shard `s`'s rows (live and tombstoned): the row
  /// vectors, their cells, the live flags and the rows' directory
  /// entries. The dictionary is counted by DictGauges; the heap blocks of
  /// long inline strings (tables without a dictionary) are not counted.
  /// Same locking as ShardLiveRows.
  uint64_t ShardBytes(size_t s) const {
    const Shard& shard = shards_[s];
    return shard.rows.capacity() * sizeof(Row) +
           shard.rows.size() * (schema_.NumColumns() * sizeof(Value) +
                                sizeof(SlotRef)) +
           shard.live.capacity();
  }

  /// \name Data version epoch.
  ///
  /// A monotone counter bumped by every mutation that can change a query
  /// answer over this table: row placement (Insert / InsertUnchecked /
  /// InsertBatchUnchecked — including WAL-applied writes, which land
  /// through the same paths), tombstoning (Delete), and wholesale
  /// restores. Readers that captured the epoch while holding every
  /// shard's read lock (Database::ReadScope excludes all writers) may
  /// treat epoch equality as "data unchanged since capture" — the
  /// result cache's lazy invalidation contract. Relaxed atomics suffice:
  /// the happens-before edge comes from the shard locks, the counter only
  /// needs to be monotone.
  /// @{
  uint64_t version_epoch() const {
    return version_epoch_.load(std::memory_order_relaxed);
  }
  void BumpVersionEpoch() {
    version_epoch_.fetch_add(1, std::memory_order_relaxed);
  }
  /// @}

  /// Dictionary gauges sampled under the intern lock, so monitoring can
  /// read them without excluding writers from every shard.
  struct DictGauges {
    uint64_t strings = 0;
    uint64_t bytes = 0;
    bool sorted = false;    ///< codes currently in byte order
    uint64_t rebuilds = 0;  ///< lifetime sorted rebuilds
  };
  DictGauges SampleDictGauges() const {
    DictGauges g;
    if (dict() == nullptr) return g;
    std::lock_guard<std::mutex> lock(dict_mutex_);
    g.strings = dict_.size();
    g.bytes = dict_.ApproxBytes();
    g.sorted = dict_.is_sorted();
    g.rebuilds = dict_.rebuilds();
    return g;
  }

  /// Renumbers the table's dictionary into byte-sorted order (see
  /// StringDict::SortedRebuild) and remaps every stored row — live and
  /// tombstoned — to the new codes. Returns false (and leaves
  /// `old_to_new` empty) when the table has no dictionary or it is
  /// already sorted. The caller must hold exclusive access to the whole
  /// database (the structural lock): every reader and writer of any
  /// shard, and every index built over this heap, observes the
  /// renumbering; AC indexes must be remapped with the returned
  /// permutation under the same exclusive section
  /// (AcIndex::RemapDictCodes).
  bool RebuildDictSorted(std::vector<uint32_t>* old_to_new);
  /// @}

  /// Validates arity and coerces column types of `row` in place (the
  /// validation half of Insert; Database runs it before computing the
  /// row's shard so per-shard locking sees the stored representation).
  Status ValidateAndCoerce(Row* row) const;

  /// Appends a row; validates arity and column types (after implicit
  /// coercion). Returns the new slot.
  Result<SlotId> Insert(Row row);

  /// Appends without validation; for bulk loads from trusted generators.
  /// Interns string values like Insert does. `stored` (optional) receives
  /// a pointer to the row as stored, readable by the inserting writer
  /// without touching the cross-shard slot directory (which another
  /// shard's writer may be appending to) — valid only until the next
  /// insert lands in the same shard (the shard's row vector may then
  /// reallocate), so consume it before releasing the shard lock.
  /// `shard` (optional) is the row's precomputed ShardOf — callers that
  /// route locking by it pass it down so lock and placement agree by
  /// construction rather than by re-derivation.
  SlotId InsertUnchecked(Row row, const Row** stored = nullptr,
                         size_t shard = kShardAuto);

  /// Bulk append without validation: one reserve + one interning pass for
  /// the whole batch (the natural grain for dictionary encoding).
  void InsertBatchUnchecked(std::vector<Row> rows);

  /// Tombstones a slot. Errors if out of range or already dead.
  Status Delete(SlotId slot);

  /// True if `slot` holds a live row.
  bool IsLive(SlotId slot) const {
    if (slot >= directory_.size()) return false;
    const SlotRef& ref = directory_[slot];
    return shards_[ref.shard].live[ref.local] != 0;
  }

  /// The row at `slot`; caller must ensure IsLive(slot).
  const Row& At(SlotId slot) const {
    const SlotRef& ref = directory_[slot];
    return shards_[ref.shard].rows[ref.local];
  }

  /// Number of live rows.
  size_t NumRows() const { return num_live_.load(std::memory_order_relaxed); }

  /// Number of slots ever allocated (live + dead).
  size_t NumSlots() const { return directory_.size(); }

  /// \brief Forward iterator over live rows, in global insertion order
  /// (directory order) — invariant across shard counts.
  class Iterator {
   public:
    Iterator(const TableHeap* heap, SlotId pos) : heap_(heap), pos_(pos) {
      SkipDead();
    }
    bool Valid() const { return pos_ < heap_->directory_.size(); }
    SlotId slot() const { return pos_; }
    const Row& row() const { return heap_->At(pos_); }
    void Next() {
      ++pos_;
      SkipDead();
    }

   private:
    void SkipDead() {
      while (pos_ < heap_->directory_.size() && !heap_->IsLive(pos_)) ++pos_;
    }
    const TableHeap* heap_;
    SlotId pos_;
  };

  Iterator Begin() const { return Iterator(this, 0); }

  /// Copies all live rows out (test/debug helper).
  std::vector<Row> Snapshot() const;

  /// \name Durability surface (checkpoint export / recovery restore).
  ///
  /// The export accessors walk raw per-shard storage — including
  /// tombstoned slots, which a checkpoint must persist verbatim so
  /// restored SlotIds keep their meaning for AC-index positions and the
  /// directory. Caller holds the structural lock exclusively (export) or
  /// owns the heap outright (restore runs before the database is shared).
  /// @{
  size_t ShardRowCount(size_t s) const { return shards_[s].rows.size(); }
  const Row& ShardRowAt(size_t s, size_t i) const { return shards_[s].rows[i]; }
  /// Test-only mutable access to a stored row: scrub tests flip a value
  /// in place to simulate in-memory rot without going through any write
  /// path (which would mark the table dirty and mask the corruption).
  Row* MutableShardRowForTesting(size_t s, size_t i) {
    return &shards_[s].rows[i];
  }
  bool ShardRowLive(size_t s, size_t i) const {
    return shards_[s].live[i] != 0;
  }
  std::pair<uint32_t, uint32_t> DirectorySlot(SlotId slot) const {
    const SlotRef& ref = directory_[slot];
    return {ref.shard, ref.local};
  }

  /// Restores a checkpointed dictionary into this (empty) heap; see
  /// StringDict::RestoreFrom. Must run before RestoreContent so restored
  /// rows can be canonicalized against the final dictionary.
  Status RestoreDict(std::vector<std::string> strings, bool sorted,
                     uint64_t out_of_order, uint64_t rebuilds) {
    return dict_.RestoreFrom(std::move(strings), sorted, out_of_order,
                             rebuilds);
  }

  /// Restores checkpointed storage into this (empty) heap: per-shard rows
  /// and live flags, the global slot directory, and the shard key. Rows
  /// must already hold their final representation (dictionary-backed
  /// strings canonicalized against the restored dictionary) — restore
  /// does NOT re-route or re-intern, because placement is historical: a
  /// row inserted before the shard key was declared lives where the
  /// row-hash fallback put it, and re-deriving placement would tear the
  /// directory's invariants. The shard count is taken from `shard_rows`
  /// (the checkpoint records it; it may differ from the configured
  /// count).
  Status RestoreContent(
      std::vector<std::vector<Row>> shard_rows,
      std::vector<std::vector<uint8_t>> shard_live,
      const std::vector<std::pair<uint32_t, uint32_t>>& directory,
      int64_t shard_key_col);
  /// @}

 private:
  /// Location of one slot: which shard, and where inside it.
  struct SlotRef {
    uint32_t shard = 0;
    uint32_t local = 0;
  };

  /// One hash partition of the row store.
  struct Shard {
    std::vector<Row> rows;
    std::vector<uint8_t> live;
    size_t num_live = 0;
  };

  /// Replaces inline string values of `row` with dictionary-backed ones.
  /// Serialized by dict_mutex_ (concurrent per-shard writers share the
  /// table-level dictionary); the Locked variant assumes the caller holds
  /// it (batch loads intern under one acquisition).
  void InternStrings(Row* row);
  void InternStringsLocked(Row* row);

  /// Appends an already-interned row to its shard and records it in the
  /// directory; returns the new global slot. `shard` is the caller's
  /// precomputed ShardOf (kShardAuto derives it here); interning must not
  /// change it — dict-backed and inline strings hash identically.
  SlotId Place(Row row, const Row** stored = nullptr,
               size_t shard = kShardAuto);

  Schema schema_;
  std::vector<Shard> shards_;
  std::vector<SlotRef> directory_;  ///< global slot -> location, insert order
  std::atomic<size_t> num_live_{0};
  std::atomic<uint64_t> version_epoch_{0};
  int64_t shard_key_col_ = -1;

  /// Serializes directory appends among concurrent per-shard writers
  /// (readers never race it: they hold every shard's read lock, which
  /// excludes all writers).
  std::mutex directory_mutex_;

  StringDict dict_;
  mutable std::mutex dict_mutex_;  ///< serializes Intern among writers
  bool dict_enabled_ = true;
  bool has_string_cols_ = false;
};

}  // namespace beas

#endif  // BEAS_STORAGE_TABLE_HEAP_H_
