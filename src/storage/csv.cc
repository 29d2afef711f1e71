#include "storage/csv.h"

#include <cerrno>
#include <cstdlib>
#include <fstream>

#include "common/string_util.h"

namespace beas {

Result<Row> ParseCsvLine(const std::string& line, const Schema& schema) {
  std::vector<std::string> fields = Split(line, ',');
  if (fields.size() != schema.NumColumns()) {
    return Status::IoError("CSV arity mismatch: got " +
                           std::to_string(fields.size()) + " fields, want " +
                           std::to_string(schema.NumColumns()));
  }
  Row row;
  row.reserve(fields.size());
  for (size_t i = 0; i < fields.size(); ++i) {
    const std::string& f = fields[i];
    if (f.empty()) {
      row.push_back(Value::Null());
      continue;
    }
    switch (schema.ColumnAt(i).type) {
      case TypeId::kInt64: {
        errno = 0;
        char* end = nullptr;
        long long v = std::strtoll(f.c_str(), &end, 10);
        if (errno != 0 || end == f.c_str() || *end != '\0') {
          return Status::IoError("bad INT field '" + f + "'");
        }
        row.push_back(Value::Int64(v));
        break;
      }
      case TypeId::kDouble: {
        errno = 0;
        char* end = nullptr;
        double v = std::strtod(f.c_str(), &end);
        if (errno != 0 || end == f.c_str() || *end != '\0') {
          return Status::IoError("bad DOUBLE field '" + f + "'");
        }
        row.push_back(Value::Double(v));
        break;
      }
      case TypeId::kDate: {
        BEAS_ASSIGN_OR_RETURN(Value v, Value::DateFromString(f));
        row.push_back(std::move(v));
        break;
      }
      case TypeId::kString:
        row.push_back(Value::String(f));
        break;
      case TypeId::kNull:
        row.push_back(Value::Null());
        break;
    }
  }
  return row;
}

Result<size_t> LoadCsv(const std::string& path, TableHeap* heap) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open '" + path + "' for reading");
  std::string line;
  size_t count = 0;
  size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    auto row = ParseCsvLine(line, heap->schema());
    if (!row.ok()) {
      return Status::IoError(path + ":" + std::to_string(lineno) + ": " +
                             row.status().message());
    }
    heap->InsertUnchecked(std::move(row).ValueOrDie());
    ++count;
  }
  return count;
}

Status SaveCsv(const std::string& path, const TableHeap& heap) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open '" + path + "' for writing");
  for (auto it = heap.Begin(); it.Valid(); it.Next()) {
    RowRef row = it.row();
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) out << ',';
      out << row[i].ToCsv();
    }
    out << '\n';
  }
  return Status::OK();
}

}  // namespace beas
