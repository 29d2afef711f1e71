#ifndef BEAS_STORAGE_TABLE_HEAP_H_
#define BEAS_STORAGE_TABLE_HEAP_H_

#include <algorithm>
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
/// hash-partitioned into N shards, each storing its rows in fixed pages.
///
/// This is the storage substrate underneath both the conventional engine
/// (sequential scans) and the access-constraint indices (which reference
/// rows by slot). Slots are never reused, so a SlotId handed out by
/// Insert remains valid (live or dead) for the heap's lifetime.
///
/// ## Row pages
///
/// A shard keeps its rows as `ncols` Value cells back to back in blocks
/// that are allocated once and never move, each block followed by its
/// rows' live flags. Every block past a shard's first kPageRows rows is
/// one page of kPageRows rows; the first page is itself split into blocks
/// of 16, 16, 32, …, kPageRows / 2 rows, so a tiny table does not pay a
/// full page per shard. Cells are constructed only when a row is placed.
/// A row costs its cells (ncols · 24 B), its live flag and one directory
/// entry — no per-row allocation — and its address is stable for the
/// heap's lifetime: readers see rows through RowRef views ({cells,
/// arity}) that no later insert invalidates.
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
  /// Rows per page (see "Row pages"): a constant of the layout, not a
  /// setting.
  static constexpr size_t kPageRows = 4096;

  explicit TableHeap(Schema schema)
      : schema_(std::move(schema)),
        ncols_(schema_.NumColumns()),
        dict_enabled_(default_dict_enabled()) {
    ResetShards(ConfiguredShardCount());
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
      ResetShards(n);
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
  size_t ShardLiveRows(size_t s) const { return shards_[s].num_live(); }

  /// Resident bytes of shard `s`'s rows (live and tombstoned): the
  /// allocated page capacity (the cells and live flags of placed and not
  /// yet placed rows, plus the block pointers) and the rows' directory
  /// entries. The dictionary is counted by DictGauges; the heap blocks of
  /// long inline strings (tables without a dictionary) are not counted.
  /// Same locking as ShardLiveRows.
  uint64_t ShardBytes(size_t s) const {
    return shards_[s].HeldBytes() + shards_[s].size() * sizeof(SlotRef);
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

  /// Appends without validation; for bulk loads from trusted generators
  /// (a row of the wrong arity is padded with NULLs or cut to the schema).
  /// Interns string values like Insert does. `stored` (optional) receives
  /// a view of the row as stored, readable by the inserting writer
  /// without touching the cross-shard slot directory (which another
  /// shard's writer may be appending to); pages never move, so the view
  /// stays valid for the heap's lifetime. `shard` (optional) is the row's
  /// precomputed ShardOf — callers that route locking by it pass it down
  /// so lock and placement agree by construction rather than by
  /// re-derivation.
  SlotId InsertUnchecked(Row row, RowRef* stored = nullptr,
                         size_t shard = kShardAuto);

  /// Bulk append without validation: one interning pass for the whole
  /// batch (the natural grain for dictionary encoding). The rows' cells
  /// move into the pages; the emptied Row vectors are freed on return.
  void InsertBatchUnchecked(std::vector<Row> rows);

  /// Tombstones a slot. Errors if out of range or already dead.
  Status Delete(SlotId slot);

  /// True if `slot` holds a live row.
  bool IsLive(SlotId slot) const {
    if (slot >= directory_.size()) return false;
    const SlotRef& ref = directory_[slot];
    return shards_[ref.shard].live(ref.local);
  }

  /// The row at `slot`; caller must ensure IsLive(slot).
  RowRef At(SlotId slot) const {
    const SlotRef& ref = directory_[slot];
    return ShardRowAt(ref.shard, ref.local);
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
    RowRef row() const { return heap_->At(pos_); }
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
  size_t ShardRowCount(size_t s) const { return shards_[s].size(); }
  RowRef ShardRowAt(size_t s, size_t i) const {
    return RowRef(shards_[s].Cells(i), ncols_);
  }
  /// Test-only mutable access to a stored row's cells: scrub tests flip a
  /// value in place to simulate in-memory rot without going through any
  /// write path (which would mark the table dirty and mask the
  /// corruption).
  Value* MutableShardCellsForTesting(size_t s, size_t i) {
    return shards_[s].MutableCells(i);
  }
  bool ShardRowLive(size_t s, size_t i) const {
    return shards_[s].live(i);
  }
  std::pair<uint32_t, uint32_t> DirectorySlot(SlotId slot) const {
    const SlotRef& ref = directory_[slot];
    return {ref.shard, ref.local};
  }

  /// Restores a checkpointed dictionary into this (empty) heap; see
  /// StringDict::RestoreFrom. Must run before the rows are restored so
  /// they can be canonicalized against the final dictionary.
  Status RestoreDict(std::vector<std::string> strings, bool sorted,
                     uint64_t out_of_order, uint64_t rebuilds) {
    return dict_.RestoreFrom(std::move(strings), sorted, out_of_order,
                             rebuilds);
  }

  /// Restores checkpointed storage into this (empty) heap in three
  /// steps: BeginRestore with the checkpoint's shard count (it may differ
  /// from the configured count), RestoreRow for every stored row of every
  /// shard in local order (live and tombstoned; rows go straight into the
  /// shard's pages), then FinishRestore with the global slot directory
  /// and the shard key. Rows must already hold their final representation
  /// (dictionary-backed strings canonicalized against the restored
  /// dictionary) — restore does NOT re-route or re-intern, because
  /// placement is historical: a row inserted before the shard key was
  /// declared lives where the row-hash fallback put it, and re-deriving
  /// placement would tear the directory's invariants.
  Status BeginRestore(size_t num_shards);
  /// Moves `row`'s cells into shard `s`'s pages; `row` is left with
  /// moved-from values for the caller to reuse.
  Status RestoreRow(size_t s, Row* row, bool live);
  Status FinishRestore(
      const std::vector<std::pair<uint32_t, uint32_t>>& directory,
      int64_t shard_key_col);
  /// @}

 private:
  /// Location of one slot: which shard, and where inside it.
  struct SlotRef {
    uint32_t shard = 0;
    uint32_t local = 0;
  };

  /// One hash partition of the row store (see "Row pages"). Block b holds
  /// BlockRows(b) rows: their cells back to back, then one live flag per
  /// row.
  class Shard {
   public:
    explicit Shard(size_t ncols) : ncols_(ncols) {}
    Shard(Shard&& other) noexcept
        : ncols_(other.ncols_),
          size_(other.size_),
          num_live_(other.num_live_),
          blocks_(std::move(other.blocks_)) {
      other.size_ = 0;
      other.num_live_ = 0;
      other.blocks_.clear();
    }
    Shard(const Shard&) = delete;
    Shard& operator=(const Shard&) = delete;
    Shard& operator=(Shard&&) = delete;
    ~Shard();

    /// Rows placed (live and tombstoned).
    size_t size() const { return size_; }
    size_t num_live() const { return num_live_; }
    bool live(size_t local) const { return *Flag(local) != 0; }
    void Kill(size_t local) {
      *MutableFlag(local) = 0;
      --num_live_;
    }
    /// Bytes of the allocated blocks and of the block pointer array.
    size_t HeldBytes() const {
      return BlockStart(blocks_.size()) * (ncols_ * sizeof(Value) + 1) +
             blocks_.capacity() * sizeof(Value*);
    }

    /// First cell of row `local` (< size()).
    const Value* Cells(size_t local) const {
      auto [b, offset] = Locate(local);
      return blocks_[b] + offset * ncols_;
    }
    Value* MutableCells(size_t local) {
      return const_cast<Value*>(std::as_const(*this).Cells(local));
    }

    /// Places `row` by moving its cells (after resizing it to the
    /// arity); returns the stored cells.
    const Value* Append(Row* row, bool live);

    /// Calls `fn(Value*)` on every placed cell.
    template <typename Fn>
    void ForEachCell(Fn fn) {
      for (size_t b = 0; b < blocks_.size(); ++b) {
        size_t n = std::min(BlockRows(b), size_ - BlockStart(b)) * ncols_;
        for (size_t i = 0; i < n; ++i) fn(&blocks_[b][i]);
      }
    }

   private:
    static constexpr size_t kFirstBlockLog2 = 4;
    static constexpr size_t kFirstBlockRows = size_t{1} << kFirstBlockLog2;
    /// Blocks that make up the first page: 16, 16, 32, …, kPageRows / 2.
    static constexpr size_t kFirstPageBlocks =
        static_cast<size_t>(__builtin_ctzll(kPageRows)) - kFirstBlockLog2 + 1;
    static_assert((kPageRows & (kPageRows - 1)) == 0 &&
                      kPageRows > kFirstBlockRows,
                  "kPageRows must be a power of two above the first block");

    /// Rows block `b` holds, and the shard-local row it starts at (the
    /// start of block n is the capacity of blocks 0 .. n - 1).
    static size_t BlockRows(size_t b) {
      if (b == 0) return kFirstBlockRows;
      return b < kFirstPageBlocks ? kFirstBlockRows << (b - 1) : kPageRows;
    }
    static size_t BlockStart(size_t b) {
      if (b == 0) return 0;
      return b < kFirstPageBlocks ? kFirstBlockRows << (b - 1)
                                  : (b - kFirstPageBlocks + 1) * kPageRows;
    }
    /// The block holding shard-local row `local`, and its row in there.
    static std::pair<size_t, size_t> Locate(size_t local) {
      if (local >= kPageRows) {
        return {kFirstPageBlocks - 1 + local / kPageRows, local % kPageRows};
      }
      if (local < kFirstBlockRows) return {0, local};
      // Block b in 1 .. kFirstPageBlocks - 1 holds rows [2^(b+3), 2^(b+4)).
      size_t msb = 63 - static_cast<size_t>(__builtin_clzll(local));
      return {msb - kFirstBlockLog2 + 1, local - (size_t{1} << msb)};
    }
    /// Row `local`'s live flag, behind its block's cells.
    const uint8_t* Flag(size_t local) const {
      auto [b, offset] = Locate(local);
      return reinterpret_cast<const uint8_t*>(blocks_[b] +
                                              BlockRows(b) * ncols_) +
             offset;
    }
    uint8_t* MutableFlag(size_t local) {
      return const_cast<uint8_t*>(std::as_const(*this).Flag(local));
    }

    size_t ncols_;
    size_t size_ = 0;
    size_t num_live_ = 0;
    std::vector<Value*> blocks_;  ///< raw storage, built on Append
  };

  /// Replaces the shards with `n` empty ones.
  void ResetShards(size_t n) {
    shards_.clear();
    shards_.reserve(n);
    for (size_t s = 0; s < n; ++s) shards_.emplace_back(ncols_);
  }

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
  SlotId Place(Row row, RowRef* stored = nullptr, size_t shard = kShardAuto);

  Schema schema_;
  size_t ncols_;
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
