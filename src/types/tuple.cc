#include "types/tuple.h"

#include <algorithm>

namespace beas {

std::string RowToString(RowRef row) { return ValueVecToString(row.ToRow()); }

Row ProjectRow(const Row& row, const std::vector<size_t>& indices) {
  Row out;
  out.reserve(indices.size());
  for (size_t i : indices) out.push_back(row[i]);
  return out;
}

Row ConcatRows(const Row& a, const Row& b) {
  Row out;
  out.reserve(a.size() + b.size());
  out.insert(out.end(), a.begin(), a.end());
  out.insert(out.end(), b.begin(), b.end());
  return out;
}

namespace {
bool RowLess(const Row& a, const Row& b) { return CompareValueVec(a, b) < 0; }
}  // namespace

void SortAndDedupRows(std::vector<Row>* rows) {
  std::sort(rows->begin(), rows->end(), RowLess);
  rows->erase(std::unique(rows->begin(), rows->end(),
                          [](const Row& a, const Row& b) {
                            return CompareValueVec(a, b) == 0;
                          }),
              rows->end());
}

bool RowMultisetsEqual(std::vector<Row> a, std::vector<Row> b) {
  if (a.size() != b.size()) return false;
  std::sort(a.begin(), a.end(), RowLess);
  std::sort(b.begin(), b.end(), RowLess);
  for (size_t i = 0; i < a.size(); ++i) {
    if (CompareValueVec(a[i], b[i]) != 0) return false;
  }
  return true;
}

}  // namespace beas
