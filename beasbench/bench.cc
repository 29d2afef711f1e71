#include "bench.h"

#include <algorithm>
#include <cmath>
#include <fstream>

#include "common/hash.h"
#include "types/value.h"

namespace beasbench {

uint64_t OpKey(const Op& op) {
  uint64_t h = beas::HashInt64(op.tmpl);
  for (int32_t v : op.p) {
    beas::HashCombine(&h, beas::HashInt64(static_cast<uint64_t>(v)));
  }
  return h;
}

Answer Fingerprint(const beas::QueryResult& result, bool ordered) {
  Answer a;
  a.rows = result.rows.size();
  beas::ValueVecHash row_hash;
  for (const beas::Row& row : result.rows) {
    uint64_t h = beas::HashInt64(row_hash(row));
    if (ordered) {
      beas::HashCombine(&a.hash, h);
    } else {
      a.hash += h;  // multiset: insensitive to row order, not to multiplicity
    }
  }
  return a;
}

const char* SpanNameText(SpanName name) {
  static const char* kNames[kSpanCount] = {
      "sql.mask",           "sql.canonicalize", "net.encode_req",
      "net.decode_req",     "service.query",    "net.encode_resp",
      "net.decode_resp",    "net.wire_query",   "bounded.check",
      "bounded.execute",    "bounded.fetch_chain", "bounded.tail",
      "durability.insert",  "durability.checkpoint",
  };
  return name < kSpanCount ? kNames[name] : "?";
}

double Trace::MedianUs(SpanName name) const {
  std::vector<double> all;
  for (const std::vector<double>& us : us_[name]) {
    all.insert(all.end(), us.begin(), us.end());
  }
  return Median(std::move(all));
}

double Trace::MedianUs(SpanName name, SpanTag tag) const {
  return Median(us_[name][tag]);
}

size_t Trace::Count(SpanName name) const {
  size_t n = 0;
  for (const std::vector<double>& us : us_[name]) n += us.size();
  return n;
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  rank = std::min(values.size(), std::max<size_t>(rank, 1)) - 1;
  std::nth_element(values.begin(), values.begin() + rank, values.end());
  return values[rank];
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

namespace {

uint64_t StatusKb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  size_t n = std::char_traits<char>::length(field);
  while (std::getline(in, line)) {
    if (line.compare(0, n, field) == 0) {
      return std::stoull(line.substr(n));
    }
  }
  return 0;
}

}  // namespace

uint64_t PeakRssBytes() { return StatusKb("VmHWM:") * 1024; }
uint64_t RssBytes() { return StatusKb("VmRSS:") * 1024; }

}  // namespace beasbench
