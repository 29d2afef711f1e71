#ifndef BEAS_TESTS_CHECKPOINT_FIXTURE_H_
#define BEAS_TESTS_CHECKPOINT_FIXTURE_H_

// A small fixed database state and the checkpoint payloads it encodes to.
// checkpoint_golden_test.cc pins these payloads byte for byte against
// checkpoint_golden_data.h, so a change to how rows, dictionaries or AC
// indexes are held in memory can never silently change the on-disk format.
// Only long-stable API is used here, so the same fixture can be compiled
// against an older tree to regenerate the golden data on purpose.

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "asx/ac_index.h"
#include "catalog/catalog.h"
#include "durability/segment.h"

namespace beas {
namespace checkpoint_fixture {

/// One table of the fixture plus the AC indexes maintained over it.
struct FixtureTable {
  std::unique_ptr<TableInfo> table;
  std::vector<std::unique_ptr<AcIndex>> indexes;
};

/// A named checkpoint payload.
struct Payload {
  std::string name;
  std::string bytes;
};

inline Row FixtureRow(int i, bool long_strings) {
  static const char* kNames[] = {"delta", "alpha", "kilo",  "echo",
                                 "bravo", "mike",  "golf",  "charlie",
                                 "india", "hotel", "juliet"};
  std::string tag = long_strings
                        ? "tag-with-a-long-body-" + std::to_string(i % 4)
                        : "t" + std::to_string(i % 4);
  return {Value::Int64(i % 6), Value::String(kNames[(i * 7) % 11]),
          Value::Date(20160301 + i % 5),
          i % 9 == 0 ? Value::Null() : Value::Double(i * 0.5),
          Value::String(tag)};
}

/// Builds one fixture table over `shards` heap shards: a bulk load, a few
/// tombstones, AC indexes built over the heap, then incremental
/// maintenance (appends, duplicate Y-values, and deletes that drop an
/// entry's multiplicity to zero and reorder its bucket).
inline FixtureTable BuildTable(const std::string& name, size_t shards,
                               bool dict_enabled) {
  FixtureTable out;
  out.table = std::make_unique<TableInfo>(
      name, Schema({{"k", TypeId::kInt64},
                    {"name", TypeId::kString},
                    {"d", TypeId::kDate},
                    {"x", TypeId::kDouble},
                    {"tag", TypeId::kString}}));
  TableHeap* heap = out.table->heap();
  heap->set_num_shards(shards);
  heap->set_dict_enabled(dict_enabled);
  heap->DeclareShardKey(0);
  bool long_strings = !dict_enabled;
  for (int i = 0; i < 24; ++i) {
    heap->InsertUnchecked(FixtureRow(i, long_strings));
  }
  for (SlotId slot : {3, 10, 17}) (void)heap->Delete(slot);

  std::vector<AccessConstraint> constraints = {
      {name + "_k", name, {"k"}, {"name", "tag"}, 64},
      {name + "_name", name, {"name"}, {"k", "d"}, 64}};
  for (const AccessConstraint& c : constraints) {
    Result<std::unique_ptr<AcIndex>> index = AcIndex::Build(c, *heap);
    out.indexes.push_back(std::move(*index));
  }
  auto insert = [&](const Row& row) {
    RowRef stored;
    heap->InsertUnchecked(row, &stored);
    for (auto& index : out.indexes) index->OnInsert(stored);
  };
  auto erase = [&](SlotId slot) {
    for (auto& index : out.indexes) index->OnDelete(heap->At(slot));
    (void)heap->Delete(slot);
  };
  for (int i = 24; i < 32; ++i) insert(FixtureRow(i * 5, long_strings));
  for (SlotId slot : {0, 6, 12, 25, 28}) erase(slot);
  insert(FixtureRow(7, long_strings));
  return out;
}

/// Every checkpoint payload of `t`, in a fixed order.
inline std::vector<Payload> Encode(const FixtureTable& t) {
  const TableInfo& table = *t.table;
  const TableHeap& heap = table.heap();
  std::vector<Payload> out;
  out.push_back({table.name() + ".meta",
                 durability::BuildTableMetaPayload(table)});
  if (heap.dict() != nullptr) {
    out.push_back({table.name() + ".dict",
                   durability::BuildDictPayload(*heap.dict())});
  }
  for (size_t s = 0; s < heap.num_shards(); ++s) {
    out.push_back({table.name() + ".s" + std::to_string(s),
                   durability::BuildShardRowsPayload(heap, s)});
  }
  for (const auto& index : t.indexes) {
    out.push_back({index->constraint().name + ".idx",
                   durability::BuildIndexPayload(*index)});
  }
  return out;
}

/// The whole fixture: a dictionary-encoded table and one that keeps its
/// strings inline (short and long), each at 1 and 3 shards.
inline std::vector<FixtureTable> BuildAll() {
  std::vector<FixtureTable> out;
  for (size_t shards : {size_t{1}, size_t{3}}) {
    std::string suffix = std::to_string(shards);
    out.push_back(BuildTable("dict" + suffix, shards, true));
    out.push_back(BuildTable("inline" + suffix, shards, false));
  }
  return out;
}

inline std::string ToHex(const std::string& bytes) {
  static const char* kDigits = "0123456789abcdef";
  std::string hex;
  hex.reserve(bytes.size() * 2);
  for (unsigned char c : bytes) {
    hex.push_back(kDigits[c >> 4]);
    hex.push_back(kDigits[c & 15]);
  }
  return hex;
}

}  // namespace checkpoint_fixture
}  // namespace beas

#endif  // BEAS_TESTS_CHECKPOINT_FIXTURE_H_
