#include "discovery/profiler.h"

#include <unordered_map>
#include <unordered_set>

#include "asx/ac_index.h"
#include "common/string_util.h"

namespace beas {

std::string CandidateProfile::ToString() const {
  return pattern.ToString() +
         StringPrintf(" | observed_n=%llu keys=%llu entries=%llu ~%llu bytes",
                      static_cast<unsigned long long>(observed_n),
                      static_cast<unsigned long long>(num_keys),
                      static_cast<unsigned long long>(index_entries),
                      static_cast<unsigned long long>(approx_bytes));
}

Result<CandidateProfile> ProfileCandidate(const TableHeap& heap,
                                          const CandidatePattern& pattern) {
  const Schema& schema = heap.schema();
  std::vector<size_t> x_cols;
  std::vector<size_t> y_cols;
  for (const std::string& attr : pattern.x_attrs) {
    BEAS_ASSIGN_OR_RETURN(size_t idx, schema.IndexOf(attr));
    x_cols.push_back(idx);
  }
  for (const std::string& attr : pattern.y_attrs) {
    BEAS_ASSIGN_OR_RETURN(size_t idx, schema.IndexOf(attr));
    y_cols.push_back(idx);
  }

  std::unordered_map<ValueVec,
                     std::unordered_set<ValueVec, ValueVecHash, ValueVecEq>,
                     ValueVecHash, ValueVecEq>
      groups;
  for (auto it = heap.Begin(); it.Valid(); it.Next()) {
    const Row& row = it.row();
    ValueVec key;
    key.reserve(x_cols.size());
    bool null_key = false;
    for (size_t c : x_cols) {
      if (row[c].is_null()) null_key = true;
      key.push_back(row[c]);
    }
    if (null_key) continue;
    ValueVec y;
    y.reserve(y_cols.size());
    for (size_t c : y_cols) y.push_back(row[c]);
    groups[std::move(key)].insert(std::move(y));
  }

  CandidateProfile profile;
  profile.pattern = pattern;
  profile.num_keys = groups.size();
  for (const auto& [key, ys] : groups) {
    profile.observed_n = std::max<uint64_t>(profile.observed_n, ys.size());
    profile.index_entries += ys.size();
  }
  profile.approx_bytes =
      AcIndex::EstimateBytes(profile.num_keys, profile.index_entries,
                             x_cols.size(), y_cols.size());
  return profile;
}

}  // namespace beas
