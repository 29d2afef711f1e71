#include "asx/ac_index.h"

#include "common/task_pool.h"

namespace beas {

namespace {

/// Key sets below this size are probed with the plain per-key loop: the
/// partition pass plus a pool dispatch would cost more than the probes
/// themselves. Matches the executor's serial cutoff for single-shard
/// chunked fan-out, so small per-step batches never pay fan-out overhead
/// on either path.
constexpr size_t kShardedProbeMin = 1024;

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
  // reused across rows (InsertRow copies it only for a new bucket).
  ValueVec key;
  for (auto it = heap.Begin(); it.Valid(); it.Next()) {
    if (!index->ProjectKey(it.row(), &key)) continue;
    index->InsertRow(index->shards_[index->ShardOfKey(key)].get(), key,
                     it.row());
  }
  return index;
}

bool AcIndex::ProjectKey(const Row& row, ValueVec* key) const {
  key->clear();
  key->reserve(x_cols_.size());
  for (size_t c : x_cols_) {
    if (row[c].is_null()) return false;  // NULL X-values are not indexed
    key->push_back(row[c]);
  }
  return true;
}

AcIndex::BucketView AcIndex::ViewOf(const Bucket& bucket) const {
  return BucketView{bucket.cells.data(), bucket.mults.data(),
                    static_cast<uint32_t>(bucket.mults.size()),
                    static_cast<uint32_t>(y_cols_.size())};
}

AcIndex::BucketView AcIndex::FindIn(const SubIndex& sub,
                                    const ValueVec& key) const {
  auto it = sub.buckets.find(key);
  if (it == sub.buckets.end()) return BucketView{};
  return ViewOf(it->second);
}

AcIndex::BucketView AcIndex::LookupWithCounts(const ValueVec& key) const {
  return FindIn(*shards_[ShardOfKey(key)], key);
}

void AcIndex::LookupBatch(const ValueVec* keys, size_t count,
                          BucketView* out) const {
  for (size_t i = 0; i < count; ++i) {
    out[i] = FindIn(*shards_[ShardOfKey(keys[i])], keys[i]);
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
  std::vector<uint32_t> shard_of(count);
  std::vector<uint32_t> begin(num_shards + 1, 0);
  for (size_t i = 0; i < count; ++i) {
    uint32_t s = static_cast<uint32_t>(ShardOfKey(keys[i]));
    shard_of[i] = s;
    ++begin[s + 1];
  }
  for (size_t s = 0; s < num_shards; ++s) begin[s + 1] += begin[s];
  std::vector<uint32_t> grouped(count);
  {
    std::vector<uint32_t> cursor(begin.begin(), begin.end() - 1);
    for (size_t i = 0; i < count; ++i) {
      grouped[cursor[shard_of[i]]++] = static_cast<uint32_t>(i);
    }
  }
  auto probe_shard = [&](size_t s) {
    const SubIndex& sub = *shards_[s];
    for (uint32_t j = begin[s]; j < begin[s + 1]; ++j) {
      uint32_t p = grouped[j];
      out[p] = FindIn(sub, keys[p]);
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
  auto remap = [&](Value* v) {
    if (v->dict() == dict_) {
      *v = Value::DictString(dict_, old_to_new[v->dict_code()]);
    }
  };
  for (std::unique_ptr<SubIndex>& sub : shards_) {
    // Keys are const inside the map; extract() hands them back mutable.
    // Remapped values hash identically (hashes fold byte hashes, which a
    // renumbering does not change), so re-insertion is collision-free by
    // construction and every slot table stays valid as it is.
    decltype(sub->buckets) rebuilt;
    rebuilt.reserve(sub->buckets.size());
    while (!sub->buckets.empty()) {
      auto node = sub->buckets.extract(sub->buckets.begin());
      for (Value& v : node.key()) remap(&v);
      for (Value& v : node.mapped().cells) remap(&v);
      rebuilt.insert(std::move(node));
    }
    sub->buckets = std::move(rebuilt);
  }
}

void AcIndex::OnInsert(const Row& row) {
  ValueVec key;
  if (!ProjectKey(row, &key)) return;
  SubIndex& sub = *shards_[ShardOfKey(key)];
  // Writers whose rows hash to different heap shards may reach the same
  // sub-index; per-key order still equals the commit order they observed.
  std::lock_guard<std::mutex> lock(sub.write_mutex);
  InsertRow(&sub, key, row);
}

void AcIndex::OnDelete(const Row& row) {
  ValueVec key;
  if (!ProjectKey(row, &key)) return;
  SubIndex& sub = *shards_[ShardOfKey(key)];
  std::lock_guard<std::mutex> lock(sub.write_mutex);
  DeleteRow(&sub, key, row);
}

namespace {

constexpr uint32_t kEmptySlot = 0xFFFFFFFFu;

/// Slot-table capacity for `n` entries: load factor at most 1/2.
size_t SlotCapacity(size_t n) { return HashTableCapacity(2 * n); }

}  // namespace

uint64_t AcIndex::HashRowY(const Row& row) const {
  uint64_t seed = kValueVecHashSeed;
  for (size_t c : y_cols_) HashCombine(&seed, row[c].Hash());
  return seed;
}

uint64_t AcIndex::HashEntry(const Bucket& bucket, uint32_t entry) const {
  size_t arity = y_cols_.size();
  const Value* cells = bucket.cells.data() + entry * arity;
  uint64_t seed = kValueVecHashSeed;
  for (size_t k = 0; k < arity; ++k) HashCombine(&seed, cells[k].Hash());
  return seed;
}

bool AcIndex::EntryMatches(const Bucket& bucket, uint32_t entry,
                           const Row& row) const {
  size_t arity = y_cols_.size();
  const Value* cells = bucket.cells.data() + entry * arity;
  for (size_t k = 0; k < arity; ++k) {
    if (cells[k] != row[y_cols_[k]]) return false;
  }
  return true;
}

int64_t AcIndex::FindEntry(const Bucket& bucket, const Row& row,
                           size_t* free_slot) const {
  uint32_t n = static_cast<uint32_t>(bucket.mults.size());
  if (bucket.slots.empty()) {
    for (uint32_t e = 0; e < n; ++e) {
      if (EntryMatches(bucket, e, row)) return e;
    }
    return -1;
  }
  size_t mask = bucket.slots.size() - 1;
  for (size_t s = HashRowY(row) & mask;; s = (s + 1) & mask) {
    uint32_t e = bucket.slots[s];
    if (e == kEmptySlot) {
      if (free_slot != nullptr) *free_slot = s;
      return -1;
    }
    if (EntryMatches(bucket, e, row)) return e;
  }
}

void AcIndex::RebuildSlots(Bucket* bucket) const {
  uint32_t n = static_cast<uint32_t>(bucket->mults.size());
  bucket->slots.assign(SlotCapacity(n), kEmptySlot);
  size_t mask = bucket->slots.size() - 1;
  for (uint32_t e = 0; e < n; ++e) {
    size_t s = HashEntry(*bucket, e) & mask;
    while (bucket->slots[s] != kEmptySlot) s = (s + 1) & mask;
    bucket->slots[s] = e;
  }
}

size_t AcIndex::SlotOf(const Bucket& bucket, uint32_t entry) const {
  size_t mask = bucket.slots.size() - 1;
  size_t s = HashEntry(bucket, entry) & mask;
  while (bucket.slots[s] != entry) s = (s + 1) & mask;
  return s;
}

void AcIndex::EraseSlot(Bucket* bucket, uint32_t entry) const {
  std::vector<uint32_t>& slots = bucket->slots;
  size_t mask = slots.size() - 1;
  size_t hole = SlotOf(*bucket, entry);
  slots[hole] = kEmptySlot;
  // Backward-shift deletion: pull later members of the probe run into the
  // hole unless their home slot lies cyclically in (hole, s].
  for (size_t s = (hole + 1) & mask; slots[s] != kEmptySlot;
       s = (s + 1) & mask) {
    size_t home = HashEntry(*bucket, slots[s]) & mask;
    bool stays = hole <= s ? (home > hole && home <= s)
                           : (home > hole || home <= s);
    if (stays) continue;
    slots[hole] = slots[s];
    slots[s] = kEmptySlot;
    hole = s;
  }
}

void AcIndex::InsertRow(SubIndex* sub, const ValueVec& key, const Row& row) {
  Bucket& bucket = sub->buckets[key];  // copies the key for a new bucket only
  size_t free_slot = 0;
  int64_t found = FindEntry(bucket, row, &free_slot);
  if (found >= 0) {
    ++bucket.mults[static_cast<size_t>(found)];
    return;
  }
  uint32_t entry = static_cast<uint32_t>(bucket.mults.size());
  for (size_t c : y_cols_) bucket.cells.push_back(row[c]);
  bucket.mults.push_back(1);
  ++sub->num_entries;
  if (bucket.slots.empty()) {
    if (entry + 1 > kLinearMax) RebuildSlots(&bucket);
  } else if (bucket.slots.size() < SlotCapacity(entry + 1)) {
    RebuildSlots(&bucket);
  } else {
    bucket.slots[free_slot] = entry;
  }
}

void AcIndex::DeleteRow(SubIndex* sub, const ValueVec& key, const Row& row) {
  auto it = sub->buckets.find(key);
  if (it == sub->buckets.end()) return;
  Bucket& bucket = it->second;
  int64_t found = FindEntry(bucket, row, nullptr);
  if (found < 0) return;
  uint32_t pos = static_cast<uint32_t>(found);
  if (--bucket.mults[pos] > 0) return;
  // Multiplicity hit zero: remove the entry. Swap-with-last keeps removal
  // O(1) and fixes the entry order every later fetch observes.
  uint32_t last = static_cast<uint32_t>(bucket.mults.size() - 1);
  if (!bucket.slots.empty()) {
    EraseSlot(&bucket, pos);
    if (pos != last) bucket.slots[SlotOf(bucket, last)] = pos;
  }
  size_t arity = y_cols_.size();
  if (pos != last) {
    for (size_t k = 0; k < arity; ++k) {
      bucket.cells[pos * arity + k] = std::move(bucket.cells[last * arity + k]);
    }
    bucket.mults[pos] = bucket.mults[last];
  }
  bucket.cells.resize(last * arity);
  bucket.mults.pop_back();
  --sub->num_entries;
  if (bucket.mults.empty()) {
    sub->buckets.erase(it);
  } else if (!bucket.slots.empty() && last <= kLinearMax / 2) {
    std::vector<uint32_t>().swap(bucket.slots);  // back to linear scans
  }
}

void AcIndex::ForEachBucket(
    const std::function<void(const ValueVec& key, const BucketView& bucket)>&
        fn) const {
  for (const std::unique_ptr<SubIndex>& sub : shards_) {
    for (const auto& [key, bucket] : sub->buckets) fn(key, ViewOf(bucket));
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
  size_t arity = index->y_cols_.size();
  for (RestoredBucket& restored : buckets) {
    if (restored.cells.size() != restored.mults.size() * arity) {
      return Status::Internal("restored bucket cells/mults size mismatch");
    }
    SubIndex& sub = *index->shards_[index->ShardOfKey(restored.key)];
    Bucket& bucket = sub.buckets[std::move(restored.key)];
    if (!bucket.mults.empty()) {
      return Status::Internal("duplicate restored bucket key");
    }
    bucket.cells = std::move(restored.cells);
    bucket.mults = std::move(restored.mults);
    if (bucket.mults.size() > kLinearMax) index->RebuildSlots(&bucket);
    sub.num_entries += bucket.mults.size();
  }
  return index;
}

size_t AcIndex::NumKeys() const {
  size_t n = 0;
  for (const auto& sub : shards_) n += sub->buckets.size();
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
    for (const auto& [key, bucket] : sub->buckets) {
      max_size = std::max(max_size, bucket.mults.size());
    }
  }
  return max_size;
}

uint64_t AcIndex::EstimateBytes(uint64_t num_keys, uint64_t num_entries,
                                size_t x_arity, size_t y_arity) {
  // Per key: the hash-map node (next pointer, key vector, bucket, cached
  // hash), its bucket-array slot, and the key's cells. Per entry: the Y
  // cells and the multiplicity. Slot tables of large buckets and vector
  // growth slack are left out: the model is what a compact build holds.
  constexpr uint64_t kNodeBytes = sizeof(void*) + sizeof(ValueVec) +
                                  sizeof(Bucket) + sizeof(size_t) +
                                  sizeof(void*);
  uint64_t per_key = kNodeBytes + x_arity * sizeof(Value);
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
    keys += sub->buckets.size();
    entries += sub->num_entries;
  }
  return EstimateBytes(keys, entries, x_cols_.size(), y_cols_.size());
}

uint64_t AcIndex::HeldBytes() const {
  uint64_t bytes = 0;
  for (const auto& sub : shards_) {
    bytes += sub->buckets.bucket_count() * sizeof(void*);
    for (const auto& [key, bucket] : sub->buckets) {
      bytes += sizeof(void*) + sizeof(key) + sizeof(bucket) + sizeof(size_t);
      bytes += key.capacity() * sizeof(Value);
      bytes += bucket.cells.capacity() * sizeof(Value) +
               bucket.mults.capacity() * sizeof(uint32_t) +
               bucket.slots.capacity() * sizeof(uint32_t);
    }
  }
  return bytes;
}

}  // namespace beas
