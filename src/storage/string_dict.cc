#include "storage/string_dict.h"

#include <algorithm>
#include <numeric>

namespace beas {

uint32_t StringDict::Intern(std::string_view s) {
  if ((strings_.size() + 1) * 2 > slots_.size()) Grow();
  uint64_t h = HashString(s);
  size_t slot = static_cast<size_t>(h) & mask_;
  for (;;) {
    uint32_t code = slots_[slot];
    if (code == kNullCode) {
      code = static_cast<uint32_t>(strings_.size());
      slots_[slot] = code;
      strings_.emplace_back(s);
      hashes_.push_back(h);
      string_bytes_ += sizeof(std::string) + strings_.back().capacity();
      // Order tracking: one compare against the running maximum. A fresh
      // string below the maximum is out-of-order debt; above it, it
      // becomes the maximum (and, while sorted_, keeps the order intact —
      // interning deduplicates, so distinct codes imply distinct bytes).
      if (code == 0) {
        max_code_ = 0;
      } else if (s < strings_[max_code_]) {
        sorted_ = false;
        ++out_of_order_;
      } else {
        max_code_ = code;
      }
      return code;
    }
    if (hashes_[code] == h && strings_[code] == s) return code;
    slot = (slot + 1) & mask_;
  }
}

int64_t StringDict::FindWithHash(std::string_view s, uint64_t hash) const {
  size_t slot = static_cast<size_t>(hash) & mask_;
  for (;;) {
    uint32_t code = slots_[slot];
    if (code == kNullCode) return -1;
    if (hashes_[code] == hash && strings_[code] == s) return code;
    slot = (slot + 1) & mask_;
  }
}

std::vector<uint32_t> StringDict::SortedRebuild() {
  if (sorted_) return {};
  size_t n = strings_.size();
  // Sort the old codes by their bytes. Interning deduplicates, so the
  // order is strict — no stability concern.
  std::vector<uint32_t> by_bytes(n);
  std::iota(by_bytes.begin(), by_bytes.end(), 0u);
  std::sort(by_bytes.begin(), by_bytes.end(),
            [this](uint32_t a, uint32_t b) { return strings_[a] < strings_[b]; });

  std::vector<uint32_t> old_to_new(n);
  std::deque<std::string> new_strings;
  std::vector<uint64_t> new_hashes;
  new_hashes.reserve(n);
  for (uint32_t new_code = 0; new_code < n; ++new_code) {
    uint32_t old_code = by_bytes[new_code];
    old_to_new[old_code] = new_code;
    new_strings.push_back(std::move(strings_[old_code]));
    new_hashes.push_back(hashes_[old_code]);
  }
  strings_ = std::move(new_strings);
  hashes_ = std::move(new_hashes);
  // Re-point the intern table at the new codes. Byte hashes are
  // unchanged (they hash bytes, not codes), so the table keeps its size.
  std::fill(slots_.begin(), slots_.end(), kNullCode);
  for (uint32_t code = 0; code < n; ++code) {
    size_t slot = static_cast<size_t>(hashes_[code]) & mask_;
    while (slots_[slot] != kNullCode) slot = (slot + 1) & mask_;
    slots_[slot] = code;
  }
  sorted_ = true;
  out_of_order_ = 0;
  max_code_ = n == 0 ? 0 : static_cast<uint32_t>(n - 1);
  ++rebuilds_;
  return old_to_new;
}

Status StringDict::RestoreFrom(std::vector<std::string> strings, bool sorted,
                               uint64_t out_of_order, uint64_t rebuilds) {
  if (!strings_.empty()) {
    return Status::Internal("StringDict::RestoreFrom on non-empty dictionary");
  }
  // Intern in code order: codes are first-appearance numbered, so the
  // restored dictionary assigns exactly code i to strings[i].
  for (std::string& s : strings) Intern(s);
  // Interning recomputed the order state from this replay; the checkpoint
  // captured the true historical state (e.g. sorted_ == true right after
  // a rebuild even though first-appearance order is unsorted). max_code_
  // (code of the lexicographic maximum) is derivable: argmax by bytes.
  sorted_ = sorted;
  out_of_order_ = out_of_order;
  rebuilds_ = rebuilds;
  max_code_ = 0;
  for (uint32_t code = 1; code < strings_.size(); ++code) {
    if (strings_[max_code_] < strings_[code]) max_code_ = code;
  }
  return Status::OK();
}

uint32_t StringDict::LowerBoundCode(std::string_view s) const {
  uint32_t lo = 0;
  uint32_t hi = static_cast<uint32_t>(strings_.size());
  while (lo < hi) {
    uint32_t mid = lo + (hi - lo) / 2;
    if (strings_[mid] < s) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

uint32_t StringDict::UpperBoundCode(std::string_view s) const {
  uint32_t lo = 0;
  uint32_t hi = static_cast<uint32_t>(strings_.size());
  while (lo < hi) {
    uint32_t mid = lo + (hi - lo) / 2;
    if (strings_[mid] <= s) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

void StringDict::Grow() {
  size_t capacity = slots_.size() * 2;
  mask_ = capacity - 1;
  slots_.assign(capacity, kNullCode);
  for (uint32_t code = 0; code < strings_.size(); ++code) {
    size_t slot = static_cast<size_t>(hashes_[code]) & mask_;
    while (slots_[slot] != kNullCode) slot = (slot + 1) & mask_;
    slots_[slot] = code;
  }
}

}  // namespace beas
