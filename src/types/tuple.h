#ifndef BEAS_TYPES_TUPLE_H_
#define BEAS_TYPES_TUPLE_H_

#include <cstddef>
#include <string>
#include <vector>

#include "types/value.h"

namespace beas {

/// \brief A row of values. The engine's tuple representation.
///
/// Rows do not carry their schema; executors know the layout of the rows
/// they produce. "Partial tuples" (the projections fetched via access
/// constraints) are plain Rows over a subset of a relation's columns.
using Row = std::vector<Value>;

/// \brief A read-only view of one row's cells stored elsewhere: a row in a
/// TableHeap page, or a Row (implicit conversion).
///
/// A view is two words and is passed by value. It does not own the cells:
/// a heap row's cells stay put for the heap's lifetime, a Row's only until
/// the Row is modified or destroyed.
class RowRef {
 public:
  RowRef() = default;
  RowRef(const Value* cells, size_t size) : cells_(cells), size_(size) {}
  RowRef(const Row& row)  // NOLINT(google-explicit-constructor)
      : cells_(row.data()), size_(row.size()) {}

  const Value& operator[](size_t i) const { return cells_[i]; }
  size_t size() const { return size_; }
  const Value* begin() const { return cells_; }
  const Value* end() const { return cells_ + size_; }

  /// Copies the cells out into an owned Row.
  Row ToRow() const { return Row(begin(), end()); }

 private:
  const Value* cells_ = nullptr;
  size_t size_ = 0;
};

/// \brief Renders a row as "(v1, v2, ...)" for debugging and result dumps.
std::string RowToString(RowRef row);

/// \brief Projects `row` onto the given column indices.
Row ProjectRow(const Row& row, const std::vector<size_t>& indices);

/// \brief Concatenates two rows (join output).
Row ConcatRows(const Row& a, const Row& b);

/// \brief Sorts rows lexicographically and removes duplicates, in place.
/// Used for DISTINCT semantics and deterministic result comparison in tests.
void SortAndDedupRows(std::vector<Row>* rows);

/// \brief True if two multisets of rows are equal (order-insensitive).
bool RowMultisetsEqual(std::vector<Row> a, std::vector<Row> b);

}  // namespace beas

#endif  // BEAS_TYPES_TUPLE_H_
