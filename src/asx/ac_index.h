#ifndef BEAS_ASX_AC_INDEX_H_
#define BEAS_ASX_AC_INDEX_H_

#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "asx/access_constraint.h"
#include "common/result.h"
#include "storage/table_heap.h"

namespace beas {

class TaskPool;

/// \brief The "modified hash index" of an access constraint (paper §3):
/// the key is the X-projection of a tuple; each key maps to the bucket
/// D_Y(X = ā) of distinct Y-projections.
///
/// Buckets store *partial tuples* (Y-projections only) — fetching through
/// this index is what gives BEAS its "reduced redundancy" property (§1
/// feature 2): no duplicated Y values, no unused attributes.
///
/// ## Flat storage
///
/// Each sub-index (see hash sharding below) keeps its keys and buckets in
/// a handful of flat arrays instead of one heap node per key:
///
///  - an open-addressing key table of uint32 key ids (linear probing, load
///    at most 1/2, backward-shift deletion);
///  - the |X| key cells of every key id, back to back;
///  - a directory entry {off, n, cap} per key id;
///  - one arena of entry slots: |Y| cells plus one multiplicity each.
///
/// Key k's bucket is the n entries at arena slots [off, off + n): entry
/// b's Y tuple is cells [(off + b)·|Y|, (off + b + 1)·|Y|), and its
/// multiplicity is the bag weight of that partial tuple, so inserts and
/// deletes are O(1) expected, independent of |D| (paper §3 maintenance
/// module). Each distinct Y is stored once. New Y-values append; a delete
/// that drops a multiplicity to zero moves the last entry into the hole
/// (swap-with-last), so entry order is the maintenance order every fetch
/// observes downstream.
///
/// A bucket that outgrows its `cap` slots moves to the arena's end with
/// twice the room; a key whose bucket empties leaves the key table. The
/// slots they leave behind are counted, and once dead slots (or dead key
/// ids) outnumber live ones the sub-index is rewritten tightly in key-id
/// order — amortized O(1) per write. Build counts each key's rows in a
/// first heap walk, lays every bucket out at that size, and fills them in
/// place in a second walk, compacting only a sub-index whose buckets
/// deduplicated below their row counts; Restore appends each bucket at
/// its exact size.
///
/// Deduplication on insert scans a bucket's cells linearly while it holds
/// at most kLinearMax entries. Past that it keeps an open-addressing table
/// of uint32 entry positions, hashed by the Y tuple (linear probing,
/// backward-shift deletion) in a side table keyed by key id; a bucket that
/// shrinks back to half that size drops the table and scans again.
/// Readers never see either table: a BucketView is just
/// {cells, mults, n, arity}.
///
/// Rows whose X-projection contains NULL are not indexed (SQL equality
/// never matches NULL keys).
///
/// ## Hash sharding
///
/// The index is partitioned into the same number of shards as the heap it
/// was built over: a key lives in sub-index `hash(key) % num_shards()`.
/// Each bucket lives entirely in one sub-index, and per-key maintenance
/// order equals the caller's write order, so bucket contents — and hence
/// every fetched Y order downstream — are bit-identical across shard
/// counts. `LookupBatch` with a TaskPool partitions a deduplicated probe
/// set by sub-index and probes the shards in parallel, writing each
/// result into its caller-assigned slot (results therefore come back in
/// the caller's first-appearance key order, merge-free). Maintenance
/// (OnInsert/OnDelete) takes a per-sub-index mutex so writers whose rows
/// hash to different heap shards — serialized only per shard by Database
/// — may maintain one index concurrently; lookups never lock (readers are
/// excluded from all writers by the per-shard lock table).
///
/// ## Dictionary-encoded string keys
///
/// Keys and buckets are projections of heap rows, and the heap interns
/// every string at insert — so for a table with a dictionary, the stored
/// X-keys are effectively *code vectors*: hashing a string component
/// reads the dictionary's precomputed hash (zero byte hashing per probe)
/// and equality against another value of the same dictionary is a uint32
/// compare. Callers who probe with ad-hoc (inline) strings still get
/// byte-correct answers — hashes agree across representations — but the
/// bounded executor canonicalizes probe keys into this dictionary first
/// (see dict()) to stay on the O(1) path. Codes are not order-preserving;
/// this index is hash/equality only, so no ordering guarantee is needed
/// here — range and ORDER BY consumers decode at the comparison
/// (Value::Compare).
class AcIndex {
 public:
  /// Builds the index over all live rows of `heap` (walked in global
  /// insertion order — shard-count invariant). The declared bound
  /// `constraint.limit_n` is NOT enforced here: the index always stores
  /// every distinct Y-value so query answers stay exact; conformance is
  /// checked separately (see conformance.h) and exposed via Conforms().
  static Result<std::unique_ptr<AcIndex>> Build(AccessConstraint constraint,
                                                const TableHeap& heap);

  /// \brief A read-only view of one bucket: `n` distinct Y-projections of
  /// `arity` cells each, with their multiplicities.
  ///
  /// `mult(b)` is the number of base tuples projecting to entry b — the
  /// bag weight of the partial tuple. BEAS fetches only distinct partial
  /// tuples (paper feature 2, "reduced redundancy") yet stays exact for
  /// SQL bag semantics (COUNT/SUM/AVG) by carrying these weights through
  /// joins. A view is valid until the next write to its index.
  struct BucketView {
    const Value* cells = nullptr;
    const uint32_t* mults = nullptr;
    uint32_t n = 0;
    uint32_t arity = 0;
    size_t size() const { return n; }
    /// Cell `pos` of entry `b`'s Y-projection.
    const Value& at(size_t b, size_t pos) const {
      return cells[b * arity + pos];
    }
    uint64_t mult(size_t b) const { return mults[b]; }
  };

  /// The bucket for `key` (X-projection values, in x_attrs order); empty
  /// if no tuple has this X-value.
  BucketView LookupWithCounts(const ValueVec& key) const;

  /// \brief Batched probe: resolves `count` keys into `out[0..count)`.
  /// A tight find loop per sub-index; the batching win lives in the
  /// caller, which deduplicates the raw (row × combo) fan-out to distinct
  /// keys before probing. Keys containing NULL resolve to the empty
  /// bucket (NULL X-values are never indexed). Read-only and safe to call
  /// concurrently from several shards of one key set.
  void LookupBatch(const ValueVec* keys, size_t count, BucketView* out) const;

  /// Shard-routed batched probe: partitions the keys by sub-index and
  /// probes each shard's group as one unit — on `pool` when provided
  /// (shard-parallel, the fan-out grain of the sharded fetch chain),
  /// serially otherwise (still per-shard grouped for locality). Each
  /// result lands in its key's slot of `out`, so the merged answer is in
  /// the caller's key order regardless of shard schedule.
  void LookupBatch(const ValueVec* keys, size_t count, BucketView* out,
                   TaskPool* pool) const;

  /// Renumbers every dictionary-backed value stored in this index — X-key
  /// components and Y-projection cells — after the indexed heap's
  /// dictionary was rebuilt into sorted order (`old_to_new` is the
  /// permutation TableHeap::RebuildDictSorted returned). Byte hashes are
  /// code-independent, so every key keeps its hash and its sub-index;
  /// only the stored code payloads change. Caller holds the structural
  /// lock exclusively (no readers, no writers, same section as the heap
  /// rebuild).
  void RemapDictCodes(const std::vector<uint32_t>& old_to_new);

  /// Incremental maintenance on tuple insert (locks the key's sub-index).
  void OnInsert(RowRef row);

  /// Incremental maintenance on tuple delete (locks the key's sub-index).
  void OnDelete(RowRef row);

  const AccessConstraint& constraint() const { return constraint_; }

  /// The indexed table's string dictionary (nullptr when the table has no
  /// STRING columns or interning is off). Probe keys whose string
  /// components are backed by this dictionary hash and compare in O(1).
  const StringDict* dict() const { return dict_; }

  /// Patches the declared bound (maintenance module's periodic adjustment;
  /// the index structure itself is bound-agnostic).
  void set_limit(uint64_t n) { constraint_.limit_n = n; }

  /// Number of hash shards (sub-indexes).
  size_t num_shards() const { return shards_.size(); }

  /// Number of distinct X-keys.
  size_t NumKeys() const;

  /// Total number of distinct (X, Y) entries.
  size_t NumEntries() const;

  /// Largest bucket (max distinct Y per X observed).
  size_t MaxBucketSize() const;

  /// True if every bucket is within the declared bound N.
  bool Conforms() const { return MaxBucketSize() <= constraint_.limit_n; }

  /// \name Footprint model.
  ///
  /// One formula for the index's resident bytes, shared with the
  /// discovery profiler (which sizes candidate indexes before building
  /// them): a fixed cost per distinct key (|X| key cells, a directory
  /// entry, two key-table slots) and per distinct (X, Y) entry (|Y| cells
  /// and a multiplicity), derived from sizeof(Value) and the flat layout.
  /// @{
  static uint64_t EstimateBytes(uint64_t num_keys, uint64_t num_entries,
                                size_t x_arity, size_t y_arity);

  /// EstimateBytes over this index's current key and entry counts. Safe
  /// to call while writers maintain the index.
  uint64_t ApproxBytes() const;

  /// Bytes the index's containers actually hold (container capacities,
  /// dead arena slots and slot tables included; tests pin ApproxBytes
  /// against it).
  uint64_t HeldBytes() const;
  /// @}

  /// \name Durability surface (checkpoint export / recovery restore).
  /// @{
  /// Visits every bucket: sub-indexes in order, keys in key-id order
  /// within each, entries in maintenance order (the order answers depend
  /// on). The visit order is a function of the write history alone, and
  /// Restore reproduces it from the visited sequence; readers of a
  /// checkpoint still address buckets only by key. `key` is one scratch
  /// vector reused across calls. Caller holds the structural lock
  /// exclusively.
  void ForEachBucket(
      const std::function<void(const ValueVec& key, const BucketView& bucket)>&
          fn) const;

  /// One checkpointed bucket, as parsed back from a segment: `cells`
  /// holds mults.size() Y-projections back to back.
  struct RestoredBucket {
    ValueVec key;
    std::vector<Value> cells;
    std::vector<uint32_t> mults;
  };

  /// Rebuilds an index from checkpointed cells instead of a heap walk:
  /// resolves columns and adopts `heap`'s dictionary like Build, then
  /// installs each bucket verbatim (same Y order, same multiplicities —
  /// the state incremental maintenance had reached at the checkpoint).
  /// Keys and Y-values must already be canonicalized against `heap`'s
  /// dictionary; sub-index routing is recomputed from the key hashes
  /// (deterministic, representation-independent). Each sub-index takes
  /// its buckets in the given order as key ids 0, 1, …, so an index
  /// restored from ForEachBucket's sequence visits its buckets in that
  /// same sequence.
  static Result<std::unique_ptr<AcIndex>> Restore(
      AccessConstraint constraint, const TableHeap& heap,
      std::vector<RestoredBucket> buckets);
  /// @}

 private:
  AcIndex(AccessConstraint constraint, std::vector<size_t> x_cols,
          std::vector<size_t> y_cols, size_t num_shards);

  /// Buckets with at most this many entries deduplicate by a linear
  /// scan; larger ones keep a slot table (see the class comment).
  static constexpr uint32_t kLinearMax = 16;

  /// Where a key id's bucket lives: arena slots [off, off + n), with room
  /// for `cap` entries before it must move. n == 0 marks a removed key.
  struct KeyDir {
    uint32_t off = 0;
    uint32_t n = 0;
    uint32_t cap = 0;
  };

  /// One hash partition of the key space (layout: see the class comment).
  struct SubIndex {
    /// Key ids by open addressing (kEmptySlot = free); empty while the
    /// sub-index holds no key.
    std::vector<uint32_t> table;
    std::vector<Value> keys;  ///< |X| cells per key id
    std::vector<KeyDir> dir;  ///< per key id
    std::vector<Value> cells;      ///< arena: |Y| cells per entry slot
    std::vector<uint32_t> mults;   ///< arena: multiplicity per entry slot
    /// Entry-position slot tables of buckets past kLinearMax, by key id.
    std::unordered_map<uint32_t, std::vector<uint32_t>> slots;
    size_t num_keys = 0;
    size_t num_entries = 0;
    size_t dead_slots = 0;  ///< arena slots no live bucket owns
    /// Writer-writer serialization only (see class comment).
    std::mutex write_mutex;
  };

  /// The sub-index a key of hash `h` (ValueVecHash) routes to. The modulo
  /// distributes the same 64-bit hash the key tables use, so routing is
  /// deterministic and free of representational bias (dictionary-backed
  /// and inline strings hash identically).
  size_t ShardOf(uint64_t h) const {
    return shards_.size() == 1 ? 0 : static_cast<size_t>(h % shards_.size());
  }

  BucketView FindIn(const SubIndex& sub, const ValueVec& key,
                    uint64_t h) const;
  BucketView ViewOf(const SubIndex& sub, const KeyDir& d) const;

  /// Writes `row`'s X-projection into `key`; false if it holds a NULL.
  bool ProjectKey(RowRef row, ValueVec* key) const;

  /// \name Key table.
  /// @{
  /// Key id of `key` (hash `h`) in `sub`, or kEmptySlot. A miss reports
  /// the free table slot the probe ended on.
  uint32_t FindKey(const SubIndex& sub, const ValueVec& key, uint64_t h,
                   size_t* free_slot) const;
  uint64_t HashKey(const SubIndex& sub, uint32_t id) const;
  /// Adds `key` as a new key id with an empty bucket; `free_slot` is
  /// FindKey's miss report.
  uint32_t AddKey(SubIndex* sub, const ValueVec& key, uint64_t h,
                  size_t free_slot) const;
  /// Drops key `id` (whose bucket just emptied) from the key table.
  void RemoveKey(SubIndex* sub, uint32_t id) const;
  /// Re-creates the key table with room for `num_keys` keys and inserts
  /// every live key id.
  void RebuildTable(SubIndex* sub, size_t num_keys) const;
  /// @}

  /// \name Arena.
  /// @{
  /// Moves key `id`'s bucket to the arena's end with twice the room.
  void GrowBucket(SubIndex* sub, uint32_t id) const;
  /// Rewrites `sub` tightly in key-id order, dropping dead slots and
  /// removed key ids.
  void Compact(SubIndex* sub) const;
  void MaybeCompact(SubIndex* sub) const;
  /// @}

  /// Maintenance bodies; the caller holds `sub`'s write mutex or owns the
  /// index outright (Build, Restore). `key` is the row's X-projection and
  /// `h` its hash.
  void InsertRow(SubIndex* sub, const ValueVec& key, uint64_t h,
                 RowRef row) const;
  void DeleteRow(SubIndex* sub, const ValueVec& key, uint64_t h,
                 RowRef row) const;
  /// Adds `row`'s Y-projection to key `id`'s bucket: one more multiplicity
  /// for a present entry, else a new last entry (the bucket moves when it
  /// is full).
  void AddEntry(SubIndex* sub, uint32_t id, RowRef row) const;

  /// Key `id`'s slot table, or nullptr while its bucket scans linearly.
  static std::vector<uint32_t>* SlotsOf(SubIndex* sub, uint32_t id);
  /// Entry position of `row`'s Y-projection in bucket `d` (slot table
  /// `slots`, or nullptr), or -1. With a slot table, a miss reports the
  /// free slot the probe ended on.
  int64_t FindEntry(const SubIndex& sub, const KeyDir& d,
                    const std::vector<uint32_t>* slots, RowRef row,
                    size_t* free_slot) const;
  bool EntryMatches(const SubIndex& sub, size_t slot, RowRef row) const;
  /// Y-tuple hashes (the ValueVecHash fold) of a row's Y-projection and
  /// of the entry in arena slot `slot`.
  uint64_t HashRowY(RowRef row) const;
  uint64_t HashEntry(const SubIndex& sub, size_t slot) const;
  /// Slot-table upkeep, for buckets past kLinearMax.
  void RebuildSlots(const SubIndex& sub, const KeyDir& d,
                    std::vector<uint32_t>* slots) const;
  size_t SlotOf(const SubIndex& sub, const KeyDir& d,
                const std::vector<uint32_t>& slots, uint32_t entry) const;
  void EraseSlot(const SubIndex& sub, const KeyDir& d,
                 std::vector<uint32_t>* slots, uint32_t entry) const;

  AccessConstraint constraint_;
  std::vector<size_t> x_cols_;
  std::vector<size_t> y_cols_;
  const StringDict* dict_ = nullptr;  ///< the indexed heap's dictionary
  std::vector<std::unique_ptr<SubIndex>> shards_;
};

}  // namespace beas

#endif  // BEAS_ASX_AC_INDEX_H_
