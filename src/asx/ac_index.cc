#include "asx/ac_index.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "common/task_pool.h"

namespace beas {

namespace {

/// Key sets below this size are probed with the plain per-key loop: the
/// partition pass plus a pool dispatch would cost more than the probes
/// themselves. Matches the executor's serial cutoff for single-shard
/// chunked fan-out, so small per-step batches never pay fan-out overhead
/// on either path.
constexpr size_t kShardedProbeMin = 1024;

constexpr uint32_t kEmptySlot = 0xFFFFFFFFu;

/// Open-addressing capacity for `n` members: load factor at most 1/2.
size_t SlotCapacity(size_t n) { return HashTableCapacity(2 * n); }

/// Home slot of a key of hash `h`. Routing consumes `h % num_shards`, so
/// the table first mixes the hash: otherwise the keys of one sub-index
/// would share their low bits and crowd into a fraction of the slots.
size_t KeyHome(uint64_t h, size_t mask) { return HashInt64(h) & mask; }

/// True when probe-run member `home` must stay put after `hole` opens
/// ahead of its current slot `s` (its home lies cyclically in (hole, s]).
bool StaysPut(size_t hole, size_t s, size_t home) {
  return hole <= s ? (home > hole && home <= s) : (home > hole || home <= s);
}

}  // namespace

AcIndex::AcIndex(AccessConstraint constraint, std::vector<size_t> x_cols,
                 std::vector<size_t> y_cols, size_t num_shards)
    : constraint_(std::move(constraint)),
      x_cols_(std::move(x_cols)),
      y_cols_(std::move(y_cols)) {
  shards_.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    shards_.push_back(std::make_unique<SubIndex>());
  }
}

Result<std::unique_ptr<AcIndex>> AcIndex::Build(AccessConstraint constraint,
                                                const TableHeap& heap) {
  BEAS_ASSIGN_OR_RETURN(std::vector<size_t> x_cols,
                        constraint.ResolveX(heap.schema()));
  BEAS_ASSIGN_OR_RETURN(std::vector<size_t> y_cols,
                        constraint.ResolveY(heap.schema()));
  std::unique_ptr<AcIndex> index(
      new AcIndex(std::move(constraint), std::move(x_cols), std::move(y_cols),
                  heap.num_shards()));
  index->dict_ = heap.dict();
  // The index is not shared yet: no write mutex, and one scratch key
  // reused across rows (AddKey copies it only for a new key).
  //
  // Counting walk: every key gets its id in first-appearance order (the
  // order maintenance would give it) and counts its rows, an upper bound
  // on its distinct Y-projections, in `n` (a key with n == 0 reads as
  // removed to the key table's rehash). Each row's (sub-index, key id) is
  // kept so the filling walk neither hashes nor probes again.
  constexpr uint32_t kNotIndexed = kEmptySlot;
  std::vector<std::pair<uint32_t, uint32_t>> row_keys;
  row_keys.reserve(heap.NumRows());
  ValueVec key;
  for (auto it = heap.Begin(); it.Valid(); it.Next()) {
    if (!index->ProjectKey(it.row(), &key)) {
      row_keys.emplace_back(0, kNotIndexed);
      continue;
    }
    uint64_t h = ValueVecHash{}(key);
    size_t s = index->ShardOf(h);
    SubIndex* sub = index->shards_[s].get();
    size_t free_slot = 0;
    uint32_t id = index->FindKey(*sub, key, h, &free_slot);
    if (id == kEmptySlot) id = index->AddKey(sub, key, h, free_slot);
    ++sub->dir[id].n;
    row_keys.emplace_back(static_cast<uint32_t>(s), id);
  }
  // Lay the buckets out back to back in key-id order, each with room for
  // all of its rows, so no bucket moves while it fills.
  size_t y_arity = index->y_cols_.size();
  for (std::unique_ptr<SubIndex>& sub : index->shards_) {
    uint32_t off = 0;
    for (KeyDir& d : sub->dir) {
      d = KeyDir{off, 0, d.n};
      off += d.cap;
    }
    sub->cells.resize(size_t{off} * y_arity);
    sub->mults.resize(off, 0);
    sub->keys.shrink_to_fit();
    sub->dir.shrink_to_fit();
  }
  // Filling walk, in the same row order: entry order and multiplicities
  // are those of one InsertRow per row.
  size_t r = 0;
  for (auto it = heap.Begin(); it.Valid(); it.Next(), ++r) {
    auto [s, id] = row_keys[r];
    if (id == kNotIndexed) continue;
    index->AddEntry(index->shards_[s].get(), id, it.row());
  }
  // A bucket whose rows repeated a Y-projection ends below its room;
  // only then does its sub-index need the tight rewrite.
  for (std::unique_ptr<SubIndex>& sub : index->shards_) {
    sub->dead_slots = sub->mults.size() - sub->num_entries;
    if (sub->dead_slots > 0) index->Compact(sub.get());
  }
  return index;
}

bool AcIndex::ProjectKey(RowRef row, ValueVec* key) const {
  key->clear();
  key->reserve(x_cols_.size());
  for (size_t c : x_cols_) {
    if (row[c].is_null()) return false;  // NULL X-values are not indexed
    key->push_back(row[c]);
  }
  return true;
}

AcIndex::BucketView AcIndex::ViewOf(const SubIndex& sub,
                                    const KeyDir& d) const {
  size_t arity = y_cols_.size();
  return BucketView{sub.cells.data() + d.off * arity, sub.mults.data() + d.off,
                    d.n, static_cast<uint32_t>(arity)};
}

AcIndex::BucketView AcIndex::FindIn(const SubIndex& sub, const ValueVec& key,
                                    uint64_t h) const {
  uint32_t id = FindKey(sub, key, h, nullptr);
  if (id == kEmptySlot) return BucketView{};
  return ViewOf(sub, sub.dir[id]);
}

AcIndex::BucketView AcIndex::LookupWithCounts(const ValueVec& key) const {
  uint64_t h = ValueVecHash{}(key);
  return FindIn(*shards_[ShardOf(h)], key, h);
}

void AcIndex::LookupBatch(const ValueVec* keys, size_t count,
                          BucketView* out) const {
  for (size_t i = 0; i < count; ++i) {
    uint64_t h = ValueVecHash{}(keys[i]);
    out[i] = FindIn(*shards_[ShardOf(h)], keys[i], h);
  }
}

void AcIndex::LookupBatch(const ValueVec* keys, size_t count, BucketView* out,
                          TaskPool* pool) const {
  size_t num_shards = shards_.size();
  if (num_shards == 1 || count < kShardedProbeMin) {
    LookupBatch(keys, count, out);
    return;
  }
  // Counting-sort the key positions by sub-index, then resolve each
  // shard's group as one unit. Results scatter into the caller's slots,
  // so the merged answer order is the caller's key order by construction
  // — no merge step, no schedule dependence.
  std::vector<uint64_t> hashes(count);
  std::vector<uint32_t> begin(num_shards + 1, 0);
  for (size_t i = 0; i < count; ++i) {
    hashes[i] = ValueVecHash{}(keys[i]);
    ++begin[ShardOf(hashes[i]) + 1];
  }
  for (size_t s = 0; s < num_shards; ++s) begin[s + 1] += begin[s];
  std::vector<uint32_t> grouped(count);
  {
    std::vector<uint32_t> cursor(begin.begin(), begin.end() - 1);
    for (size_t i = 0; i < count; ++i) {
      grouped[cursor[ShardOf(hashes[i])]++] = static_cast<uint32_t>(i);
    }
  }
  auto probe_shard = [&](size_t s) {
    const SubIndex& sub = *shards_[s];
    for (uint32_t j = begin[s]; j < begin[s + 1]; ++j) {
      uint32_t p = grouped[j];
      out[p] = FindIn(sub, keys[p], hashes[p]);
    }
  };
  if (pool != nullptr && pool->num_threads() > 0) {
    pool->ParallelFor(num_shards, probe_shard);
  } else {
    for (size_t s = 0; s < num_shards; ++s) probe_shard(s);
  }
}

void AcIndex::RemapDictCodes(const std::vector<uint32_t>& old_to_new) {
  if (dict_ == nullptr) return;
  auto remap = [&](std::vector<Value>* values) {
    for (Value& v : *values) {
      if (v.dict() == dict_) {
        v = Value::DictString(dict_, old_to_new[v.dict_code()]);
      }
    }
  };
  // Remapped values hash identically (hashes fold byte hashes, which a
  // renumbering does not change), so the key tables and every slot table
  // stay valid as they are.
  for (std::unique_ptr<SubIndex>& sub : shards_) {
    remap(&sub->keys);
    remap(&sub->cells);
  }
}

void AcIndex::OnInsert(RowRef row) {
  ValueVec key;
  if (!ProjectKey(row, &key)) return;
  uint64_t h = ValueVecHash{}(key);
  SubIndex& sub = *shards_[ShardOf(h)];
  // Writers whose rows hash to different heap shards may reach the same
  // sub-index; per-key order still equals the commit order they observed.
  std::lock_guard<std::mutex> lock(sub.write_mutex);
  InsertRow(&sub, key, h, row);
}

void AcIndex::OnDelete(RowRef row) {
  ValueVec key;
  if (!ProjectKey(row, &key)) return;
  uint64_t h = ValueVecHash{}(key);
  SubIndex& sub = *shards_[ShardOf(h)];
  std::lock_guard<std::mutex> lock(sub.write_mutex);
  DeleteRow(&sub, key, h, row);
}

// ---------------------------------------------------------------------------
// Key table.
// ---------------------------------------------------------------------------

uint32_t AcIndex::FindKey(const SubIndex& sub, const ValueVec& key,
                          uint64_t h, size_t* free_slot) const {
  size_t arity = x_cols_.size();
  if (sub.table.empty() || key.size() != arity) return kEmptySlot;
  size_t mask = sub.table.size() - 1;
  for (size_t s = KeyHome(h, mask);; s = (s + 1) & mask) {
    uint32_t id = sub.table[s];
    if (id == kEmptySlot) {
      if (free_slot != nullptr) *free_slot = s;
      return kEmptySlot;
    }
    const Value* cells = sub.keys.data() + size_t{id} * arity;
    size_t k = 0;
    while (k < arity && cells[k] == key[k]) ++k;
    if (k == arity) return id;
  }
}

uint64_t AcIndex::HashKey(const SubIndex& sub, uint32_t id) const {
  size_t arity = x_cols_.size();
  const Value* cells = sub.keys.data() + size_t{id} * arity;
  uint64_t seed = kValueVecHashSeed;
  for (size_t k = 0; k < arity; ++k) HashCombine(&seed, cells[k].Hash());
  return seed;
}

uint32_t AcIndex::AddKey(SubIndex* sub, const ValueVec& key, uint64_t h,
                         size_t free_slot) const {
  if (2 * (sub->num_keys + 1) > sub->table.size()) {
    RebuildTable(sub, sub->num_keys + 1);
    size_t mask = sub->table.size() - 1;
    free_slot = KeyHome(h, mask);
    while (sub->table[free_slot] != kEmptySlot) {
      free_slot = (free_slot + 1) & mask;
    }
  }
  uint32_t id = static_cast<uint32_t>(sub->dir.size());
  sub->keys.insert(sub->keys.end(), key.begin(), key.end());
  sub->dir.emplace_back();
  sub->table[free_slot] = id;
  ++sub->num_keys;
  return id;
}

void AcIndex::RemoveKey(SubIndex* sub, uint32_t id) const {
  std::vector<uint32_t>& table = sub->table;
  size_t mask = table.size() - 1;
  size_t hole = KeyHome(HashKey(*sub, id), mask);
  while (table[hole] != id) hole = (hole + 1) & mask;
  table[hole] = kEmptySlot;
  // Backward-shift deletion: pull later members of the probe run into the
  // hole unless their home slot lies cyclically in (hole, s].
  for (size_t s = (hole + 1) & mask; table[s] != kEmptySlot;
       s = (s + 1) & mask) {
    if (StaysPut(hole, s, KeyHome(HashKey(*sub, table[s]), mask))) continue;
    table[hole] = table[s];
    table[s] = kEmptySlot;
    hole = s;
  }
  size_t arity = x_cols_.size();
  for (size_t k = 0; k < arity; ++k) sub->keys[size_t{id} * arity + k] = Value();
  KeyDir& d = sub->dir[id];
  sub->dead_slots += d.cap;
  d = KeyDir{};
  --sub->num_keys;
}

void AcIndex::RebuildTable(SubIndex* sub, size_t num_keys) const {
  std::vector<uint32_t>(num_keys == 0 ? 0 : SlotCapacity(num_keys), kEmptySlot)
      .swap(sub->table);
  if (sub->table.empty()) return;
  size_t mask = sub->table.size() - 1;
  for (uint32_t id = 0; id < sub->dir.size(); ++id) {
    if (sub->dir[id].n == 0) continue;
    size_t s = KeyHome(HashKey(*sub, id), mask);
    while (sub->table[s] != kEmptySlot) s = (s + 1) & mask;
    sub->table[s] = id;
  }
}

// ---------------------------------------------------------------------------
// Arena.
// ---------------------------------------------------------------------------

void AcIndex::GrowBucket(SubIndex* sub, uint32_t id) const {
  KeyDir& d = sub->dir[id];
  size_t arity = y_cols_.size();
  uint32_t cap = d.cap == 0 ? 1 : 2 * d.cap;
  size_t off = sub->mults.size();  // arena offsets are uint32 by design
  sub->mults.resize(off + cap, 0);
  sub->cells.resize((off + cap) * arity);
  for (uint32_t b = 0; b < d.n; ++b) {
    sub->mults[off + b] = sub->mults[d.off + b];
    for (size_t k = 0; k < arity; ++k) {
      Value& from = sub->cells[(d.off + b) * arity + k];
      sub->cells[(off + b) * arity + k] = std::move(from);
      from = Value();
    }
  }
  sub->dead_slots += d.cap;
  d.off = static_cast<uint32_t>(off);
  d.cap = cap;
}

void AcIndex::Compact(SubIndex* sub) const {
  size_t x_arity = x_cols_.size();
  size_t y_arity = y_cols_.size();
  std::vector<Value> keys;
  std::vector<KeyDir> dir;
  std::vector<Value> cells;
  std::vector<uint32_t> mults;
  std::unordered_map<uint32_t, std::vector<uint32_t>> slots;
  keys.reserve(sub->num_keys * x_arity);
  dir.reserve(sub->num_keys);
  cells.reserve(sub->num_entries * y_arity);
  mults.reserve(sub->num_entries);
  for (uint32_t id = 0; id < sub->dir.size(); ++id) {
    const KeyDir& d = sub->dir[id];
    if (d.n == 0) continue;
    uint32_t new_id = static_cast<uint32_t>(dir.size());
    auto key_at = sub->keys.begin() + static_cast<ptrdiff_t>(id * x_arity);
    keys.insert(keys.end(), std::make_move_iterator(key_at),
                std::make_move_iterator(key_at + static_cast<ptrdiff_t>(x_arity)));
    dir.push_back(KeyDir{static_cast<uint32_t>(mults.size()), d.n, d.n});
    auto cells_at = sub->cells.begin() + static_cast<ptrdiff_t>(d.off * y_arity);
    cells.insert(cells.end(), std::make_move_iterator(cells_at),
                 std::make_move_iterator(
                     cells_at + static_cast<ptrdiff_t>(d.n * y_arity)));
    mults.insert(mults.end(), sub->mults.begin() + d.off,
                 sub->mults.begin() + d.off + d.n);
    if (d.n > kLinearMax / 2) {
      auto it = sub->slots.find(id);
      if (it != sub->slots.end()) slots.emplace(new_id, std::move(it->second));
    }
  }
  sub->keys.swap(keys);
  sub->dir.swap(dir);
  sub->cells.swap(cells);
  sub->mults.swap(mults);
  sub->slots.swap(slots);
  sub->dead_slots = 0;
  RebuildTable(sub, sub->num_keys);  // key ids changed
}

void AcIndex::MaybeCompact(SubIndex* sub) const {
  if (2 * sub->dead_slots > sub->mults.size() ||
      2 * sub->num_keys < sub->dir.size()) {
    Compact(sub);
  }
}

// ---------------------------------------------------------------------------
// Buckets.
// ---------------------------------------------------------------------------

uint64_t AcIndex::HashRowY(RowRef row) const {
  uint64_t seed = kValueVecHashSeed;
  for (size_t c : y_cols_) HashCombine(&seed, row[c].Hash());
  return seed;
}

uint64_t AcIndex::HashEntry(const SubIndex& sub, size_t slot) const {
  size_t arity = y_cols_.size();
  const Value* cells = sub.cells.data() + slot * arity;
  uint64_t seed = kValueVecHashSeed;
  for (size_t k = 0; k < arity; ++k) HashCombine(&seed, cells[k].Hash());
  return seed;
}

bool AcIndex::EntryMatches(const SubIndex& sub, size_t slot,
                           RowRef row) const {
  size_t arity = y_cols_.size();
  const Value* cells = sub.cells.data() + slot * arity;
  for (size_t k = 0; k < arity; ++k) {
    if (cells[k] != row[y_cols_[k]]) return false;
  }
  return true;
}

std::vector<uint32_t>* AcIndex::SlotsOf(SubIndex* sub, uint32_t id) {
  // Tables are dropped at kLinearMax / 2 entries, so smaller buckets
  // skip the lookup.
  if (sub->dir[id].n <= kLinearMax / 2) return nullptr;
  auto it = sub->slots.find(id);
  return it == sub->slots.end() ? nullptr : &it->second;
}

int64_t AcIndex::FindEntry(const SubIndex& sub, const KeyDir& d,
                           const std::vector<uint32_t>* slots, RowRef row,
                           size_t* free_slot) const {
  if (slots == nullptr) {
    for (uint32_t e = 0; e < d.n; ++e) {
      if (EntryMatches(sub, d.off + e, row)) return e;
    }
    return -1;
  }
  size_t mask = slots->size() - 1;
  for (size_t s = HashRowY(row) & mask;; s = (s + 1) & mask) {
    uint32_t e = (*slots)[s];
    if (e == kEmptySlot) {
      if (free_slot != nullptr) *free_slot = s;
      return -1;
    }
    if (EntryMatches(sub, d.off + e, row)) return e;
  }
}

void AcIndex::RebuildSlots(const SubIndex& sub, const KeyDir& d,
                           std::vector<uint32_t>* slots) const {
  slots->assign(SlotCapacity(d.n), kEmptySlot);
  size_t mask = slots->size() - 1;
  for (uint32_t e = 0; e < d.n; ++e) {
    size_t s = HashEntry(sub, d.off + e) & mask;
    while ((*slots)[s] != kEmptySlot) s = (s + 1) & mask;
    (*slots)[s] = e;
  }
}

size_t AcIndex::SlotOf(const SubIndex& sub, const KeyDir& d,
                       const std::vector<uint32_t>& slots,
                       uint32_t entry) const {
  size_t mask = slots.size() - 1;
  size_t s = HashEntry(sub, d.off + entry) & mask;
  while (slots[s] != entry) s = (s + 1) & mask;
  return s;
}

void AcIndex::EraseSlot(const SubIndex& sub, const KeyDir& d,
                        std::vector<uint32_t>* slots, uint32_t entry) const {
  std::vector<uint32_t>& table = *slots;
  size_t mask = table.size() - 1;
  size_t hole = SlotOf(sub, d, table, entry);
  table[hole] = kEmptySlot;
  for (size_t s = (hole + 1) & mask; table[s] != kEmptySlot;
       s = (s + 1) & mask) {
    if (StaysPut(hole, s, HashEntry(sub, d.off + table[s]) & mask)) continue;
    table[hole] = table[s];
    table[s] = kEmptySlot;
    hole = s;
  }
}

void AcIndex::InsertRow(SubIndex* sub, const ValueVec& key, uint64_t h,
                        RowRef row) const {
  size_t free_slot = 0;
  uint32_t id = FindKey(*sub, key, h, &free_slot);
  if (id == kEmptySlot) id = AddKey(sub, key, h, free_slot);
  AddEntry(sub, id, row);
}

void AcIndex::AddEntry(SubIndex* sub, uint32_t id, RowRef row) const {
  size_t free_slot = 0;
  std::vector<uint32_t>* slots = SlotsOf(sub, id);
  int64_t found = FindEntry(*sub, sub->dir[id], slots, row, &free_slot);
  if (found >= 0) {
    ++sub->mults[sub->dir[id].off + static_cast<size_t>(found)];
    return;
  }
  bool moved = sub->dir[id].n == sub->dir[id].cap;
  if (moved) GrowBucket(sub, id);
  KeyDir& d = sub->dir[id];
  uint32_t entry = d.n++;
  size_t arity = y_cols_.size();
  for (size_t k = 0; k < arity; ++k) {
    sub->cells[(d.off + entry) * arity + k] = row[y_cols_[k]];
  }
  sub->mults[d.off + entry] = 1;
  ++sub->num_entries;
  if (slots == nullptr) {
    if (d.n > kLinearMax) RebuildSlots(*sub, d, &sub->slots[id]);
  } else if (slots->size() < SlotCapacity(d.n)) {
    RebuildSlots(*sub, d, slots);
  } else {
    (*slots)[free_slot] = entry;
  }
  if (moved) MaybeCompact(sub);
}

void AcIndex::DeleteRow(SubIndex* sub, const ValueVec& key, uint64_t h,
                        RowRef row) const {
  uint32_t id = FindKey(*sub, key, h, nullptr);
  if (id == kEmptySlot) return;
  std::vector<uint32_t>* slots = SlotsOf(sub, id);
  KeyDir& d = sub->dir[id];
  int64_t found = FindEntry(*sub, d, slots, row, nullptr);
  if (found < 0) return;
  uint32_t pos = static_cast<uint32_t>(found);
  if (--sub->mults[d.off + pos] > 0) return;
  // Multiplicity hit zero: remove the entry. Swap-with-last keeps removal
  // O(1) and fixes the entry order every later fetch observes.
  uint32_t last = d.n - 1;
  if (slots != nullptr) {
    EraseSlot(*sub, d, slots, pos);
    if (pos != last) (*slots)[SlotOf(*sub, d, *slots, last)] = pos;
  }
  size_t arity = y_cols_.size();
  for (size_t k = 0; k < arity; ++k) {
    Value& from = sub->cells[(d.off + last) * arity + k];
    if (pos != last) sub->cells[(d.off + pos) * arity + k] = std::move(from);
    from = Value();
  }
  sub->mults[d.off + pos] = sub->mults[d.off + last];
  d.n = last;
  --sub->num_entries;
  if (d.n == 0) {
    RemoveKey(sub, id);
    MaybeCompact(sub);
  } else if (slots != nullptr && d.n <= kLinearMax / 2) {
    sub->slots.erase(id);  // back to linear scans
  }
}

void AcIndex::ForEachBucket(
    const std::function<void(const ValueVec& key, const BucketView& bucket)>&
        fn) const {
  size_t arity = x_cols_.size();
  ValueVec key;
  for (const std::unique_ptr<SubIndex>& sub : shards_) {
    for (uint32_t id = 0; id < sub->dir.size(); ++id) {
      const KeyDir& d = sub->dir[id];
      if (d.n == 0) continue;
      const Value* cells = sub->keys.data() + size_t{id} * arity;
      key.assign(cells, cells + arity);
      fn(key, ViewOf(*sub, d));
    }
  }
}

Result<std::unique_ptr<AcIndex>> AcIndex::Restore(
    AccessConstraint constraint, const TableHeap& heap,
    std::vector<RestoredBucket> buckets) {
  BEAS_ASSIGN_OR_RETURN(std::vector<size_t> x_cols,
                        constraint.ResolveX(heap.schema()));
  BEAS_ASSIGN_OR_RETURN(std::vector<size_t> y_cols,
                        constraint.ResolveY(heap.schema()));
  std::unique_ptr<AcIndex> index(
      new AcIndex(std::move(constraint), std::move(x_cols), std::move(y_cols),
                  heap.num_shards()));
  index->dict_ = heap.dict();
  size_t x_arity = index->x_cols_.size();
  size_t y_arity = index->y_cols_.size();
  // Route every bucket first, so each sub-index's arrays are sized once.
  std::vector<uint64_t> hashes(buckets.size());
  std::vector<size_t> keys_in(index->shards_.size(), 0);
  std::vector<size_t> entries_in(index->shards_.size(), 0);
  for (size_t i = 0; i < buckets.size(); ++i) {
    const RestoredBucket& restored = buckets[i];
    if (restored.key.size() != x_arity || restored.mults.empty() ||
        restored.cells.size() != restored.mults.size() * y_arity) {
      return Status::Internal("restored bucket has the wrong shape");
    }
    hashes[i] = ValueVecHash{}(restored.key);
    size_t s = index->ShardOf(hashes[i]);
    ++keys_in[s];
    entries_in[s] += restored.mults.size();
  }
  for (size_t s = 0; s < index->shards_.size(); ++s) {
    SubIndex& sub = *index->shards_[s];
    sub.keys.reserve(keys_in[s] * x_arity);
    sub.dir.reserve(keys_in[s]);
    sub.cells.reserve(entries_in[s] * y_arity);
    sub.mults.reserve(entries_in[s]);
    index->RebuildTable(&sub, keys_in[s]);
  }
  for (size_t i = 0; i < buckets.size(); ++i) {
    RestoredBucket& restored = buckets[i];
    SubIndex& sub = *index->shards_[index->ShardOf(hashes[i])];
    size_t free_slot = 0;
    if (index->FindKey(sub, restored.key, hashes[i], &free_slot) !=
        kEmptySlot) {
      return Status::Internal("duplicate restored bucket key");
    }
    uint32_t id = index->AddKey(&sub, restored.key, hashes[i], free_slot);
    uint32_t n = static_cast<uint32_t>(restored.mults.size());
    KeyDir& d = sub.dir[id];
    d = KeyDir{static_cast<uint32_t>(sub.mults.size()), n, n};
    sub.cells.insert(sub.cells.end(),
                     std::make_move_iterator(restored.cells.begin()),
                     std::make_move_iterator(restored.cells.end()));
    sub.mults.insert(sub.mults.end(), restored.mults.begin(),
                     restored.mults.end());
    sub.num_entries += n;
    if (n > kLinearMax) index->RebuildSlots(sub, d, &sub.slots[id]);
  }
  return index;
}

size_t AcIndex::NumKeys() const {
  size_t n = 0;
  for (const auto& sub : shards_) n += sub->num_keys;
  return n;
}

size_t AcIndex::NumEntries() const {
  size_t n = 0;
  for (const auto& sub : shards_) n += sub->num_entries;
  return n;
}

size_t AcIndex::MaxBucketSize() const {
  size_t max_size = 0;
  for (const auto& sub : shards_) {
    for (const KeyDir& d : sub->dir) max_size = std::max<size_t>(max_size, d.n);
  }
  return max_size;
}

uint64_t AcIndex::EstimateBytes(uint64_t num_keys, uint64_t num_entries,
                                size_t x_arity, size_t y_arity) {
  // Per key: its cells, its directory entry and two key-table slots (the
  // table at its load bound of 1/2). Per entry: the Y cells and the
  // multiplicity. Slot tables of large buckets, table slack below that
  // load, dead arena slots and vector growth slack are left out: the
  // model is what a compact build holds.
  uint64_t per_key =
      x_arity * sizeof(Value) + sizeof(KeyDir) + 2 * sizeof(uint32_t);
  uint64_t per_entry = y_arity * sizeof(Value) + sizeof(uint32_t);
  return num_keys * per_key + num_entries * per_entry;
}

uint64_t AcIndex::ApproxBytes() const {
  // Under each sub-index's write mutex, so monitoring may sample it while
  // writers maintain the index.
  uint64_t keys = 0;
  uint64_t entries = 0;
  for (const auto& sub : shards_) {
    std::lock_guard<std::mutex> lock(sub->write_mutex);
    keys += sub->num_keys;
    entries += sub->num_entries;
  }
  return EstimateBytes(keys, entries, x_cols_.size(), y_cols_.size());
}

uint64_t AcIndex::HeldBytes() const {
  using SlotNode = std::pair<const uint32_t, std::vector<uint32_t>>;
  uint64_t bytes = 0;
  for (const auto& sub : shards_) {
    bytes += sub->table.capacity() * sizeof(uint32_t) +
             sub->keys.capacity() * sizeof(Value) +
             sub->dir.capacity() * sizeof(KeyDir) +
             sub->cells.capacity() * sizeof(Value) +
             sub->mults.capacity() * sizeof(uint32_t);
    // A map that never held a node has no bucket array of its own.
    if (sub->slots.bucket_count() > 1) {
      bytes += sub->slots.bucket_count() * sizeof(void*);
    }
    for (const auto& [id, slots] : sub->slots) {
      bytes += sizeof(void*) + sizeof(SlotNode) +
               slots.capacity() * sizeof(uint32_t);
    }
  }
  return bytes;
}

}  // namespace beas
