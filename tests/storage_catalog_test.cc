#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <thread>

#include "catalog/catalog.h"
#include "catalog/statistics.h"
#include "common/rng.h"
#include "durability/segment.h"
#include "durability/serde.h"
#include "storage/csv.h"
#include "storage/table_heap.h"
#include "test_util.h"
#include "types/schema.h"

namespace beas {
namespace {

using testing_util::Dt;
using testing_util::I;
using testing_util::N;
using testing_util::S;

Schema TwoColSchema() {
  return Schema({{"id", TypeId::kInt64}, {"name", TypeId::kString}});
}

TEST(SchemaTest, IndexOfAndContains) {
  Schema s = TwoColSchema();
  EXPECT_EQ(*s.IndexOf("id"), 0u);
  EXPECT_EQ(*s.IndexOf("name"), 1u);
  EXPECT_FALSE(s.IndexOf("missing").ok());
  EXPECT_TRUE(s.Contains("id"));
  EXPECT_FALSE(s.Contains("missing"));
}

TEST(SchemaTest, Concat) {
  Schema a({{"x", TypeId::kInt64}});
  Schema b({{"y", TypeId::kString}});
  Schema c = Schema::Concat(a, b);
  EXPECT_EQ(c.NumColumns(), 2u);
  EXPECT_EQ(c.ColumnAt(1).name, "y");
}

TEST(SchemaTest, ToString) {
  EXPECT_EQ(TwoColSchema().ToString(), "id INT, name STRING");
}

TEST(TupleTest, ProjectAndConcat) {
  Row r{I(1), S("a"), I(3)};
  EXPECT_EQ(ProjectRow(r, {2, 0}), (Row{I(3), I(1)}));
  EXPECT_EQ(ConcatRows({I(1)}, {S("b")}), (Row{I(1), S("b")}));
}

TEST(TupleTest, SortAndDedupRows) {
  std::vector<Row> rows{{I(2)}, {I(1)}, {I(2)}, {I(1)}};
  SortAndDedupRows(&rows);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (Row{I(1)}));
  EXPECT_EQ(rows[1], (Row{I(2)}));
}

TEST(TupleTest, RowMultisetsEqual) {
  EXPECT_TRUE(RowMultisetsEqual({{I(1)}, {I(2)}, {I(2)}},
                                {{I(2)}, {I(1)}, {I(2)}}));
  EXPECT_FALSE(RowMultisetsEqual({{I(1)}, {I(2)}}, {{I(1)}, {I(1)}}));
  EXPECT_FALSE(RowMultisetsEqual({{I(1)}}, {{I(1)}, {I(1)}}));
}

TEST(TableHeapTest, InsertValidatesArity) {
  TableHeap heap(TwoColSchema());
  EXPECT_FALSE(heap.Insert({I(1)}).ok());
  EXPECT_TRUE(heap.Insert({I(1), S("a")}).ok());
  EXPECT_EQ(heap.NumRows(), 1u);
}

TEST(TableHeapTest, InsertCoercesTypes) {
  TableHeap heap(Schema({{"d", TypeId::kDate}}));
  ASSERT_TRUE(heap.Insert({S("2016-03-15")}).ok());
  EXPECT_EQ(heap.At(0)[0].type(), TypeId::kDate);
  EXPECT_FALSE(heap.Insert({S("garbage")}).ok());
}

TEST(TableHeapTest, InsertAllowsNulls) {
  TableHeap heap(TwoColSchema());
  ASSERT_TRUE(heap.Insert({N(), N()}).ok());
  EXPECT_TRUE(heap.At(0)[0].is_null());
}

TEST(TableHeapTest, DeleteTombstones) {
  TableHeap heap(TwoColSchema());
  SlotId s0 = *heap.Insert({I(1), S("a")});
  SlotId s1 = *heap.Insert({I(2), S("b")});
  ASSERT_TRUE(heap.Delete(s0).ok());
  EXPECT_EQ(heap.NumRows(), 1u);
  EXPECT_EQ(heap.NumSlots(), 2u);
  EXPECT_FALSE(heap.IsLive(s0));
  EXPECT_TRUE(heap.IsLive(s1));
  EXPECT_FALSE(heap.Delete(s0).ok()) << "double delete";
  EXPECT_FALSE(heap.Delete(99).ok()) << "out of range";
}

TEST(TableHeapTest, IteratorSkipsDead) {
  TableHeap heap(TwoColSchema());
  heap.InsertUnchecked({I(1), S("a")});
  SlotId s1 = heap.InsertUnchecked({I(2), S("b")});
  heap.InsertUnchecked({I(3), S("c")});
  ASSERT_TRUE(heap.Delete(s1).ok());
  std::vector<int64_t> seen;
  for (auto it = heap.Begin(); it.Valid(); it.Next()) {
    seen.push_back(it.row()[0].AsInt64());
  }
  EXPECT_EQ(seen, (std::vector<int64_t>{1, 3}));
}

TEST(TableHeapTest, SnapshotCopiesLiveRows) {
  TableHeap heap(TwoColSchema());
  heap.InsertUnchecked({I(1), S("a")});
  SlotId s1 = heap.InsertUnchecked({I(2), S("b")});
  ASSERT_TRUE(heap.Delete(s1).ok());
  auto rows = heap.Snapshot();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], I(1));
}

// ---------------------------------------------------------------------------
// Sharded TableHeap: hash partitioning must be invisible through the
// public surface — slots, iteration order, deletes, snapshots are all
// identical at every shard count.
// ---------------------------------------------------------------------------

TEST(ShardedHeapTest, PublicSurfaceInvariantAcrossShardCounts) {
  for (size_t shards : {size_t{1}, size_t{3}, size_t{8}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    TableHeap heap(TwoColSchema());
    heap.set_num_shards(shards);
    ASSERT_EQ(heap.num_shards(), shards);

    std::vector<SlotId> slots;
    for (int i = 0; i < 50; ++i) {
      slots.push_back(heap.InsertUnchecked({I(i), S("v" + std::to_string(i))}));
    }
    // Slots are dense and in insertion order, whatever the partitioning.
    for (int i = 0; i < 50; ++i) {
      EXPECT_EQ(slots[i], static_cast<SlotId>(i));
      EXPECT_EQ(heap.At(slots[i])[0], I(i));
    }
    ASSERT_TRUE(heap.Delete(slots[10]).ok());
    ASSERT_TRUE(heap.Delete(slots[11]).ok());
    EXPECT_EQ(heap.NumRows(), 48u);
    EXPECT_EQ(heap.NumSlots(), 50u);

    std::vector<int64_t> seen;
    for (auto it = heap.Begin(); it.Valid(); it.Next()) {
      seen.push_back(it.row()[0].AsInt64());
    }
    ASSERT_EQ(seen.size(), 48u);
    for (size_t i = 0; i < seen.size(); ++i) {
      // Insertion order with 10 and 11 skipped.
      EXPECT_EQ(seen[i], static_cast<int64_t>(i < 10 ? i : i + 2));
    }

    // Per-shard live counts cover exactly the live rows.
    size_t per_shard_total = 0;
    for (size_t s = 0; s < heap.num_shards(); ++s) {
      per_shard_total += heap.ShardLiveRows(s);
    }
    EXPECT_EQ(per_shard_total, heap.NumRows());
  }
}

TEST(ShardedHeapTest, ShardKeyRoutesByDeclaredColumn) {
  TableHeap heap(TwoColSchema());
  heap.set_num_shards(4);
  heap.DeclareShardKey(0);
  EXPECT_EQ(heap.shard_key_col(), 0);
  // Same key value => same shard, independent of the other columns.
  EXPECT_EQ(heap.ShardOf({I(7), S("a")}), heap.ShardOf({I(7), S("zzz")}));
  // Distinct key values spread across more than one shard (hash quality).
  std::vector<char> hit(4, 0);
  for (int k = 0; k < 64; ++k) hit[heap.ShardOf({I(k), S("x")})] = 1;
  EXPECT_GT(hit[0] + hit[1] + hit[2] + hit[3], 1);
  // A second declaration is ignored (first constraint wins).
  heap.DeclareShardKey(1);
  EXPECT_EQ(heap.shard_key_col(), 0);
}

// ---------------------------------------------------------------------------
// Row pages: the paged heap against a naive per-row model.
// ---------------------------------------------------------------------------

Schema PagedSchema() {
  return Schema({{"k", TypeId::kInt64},
                 {"name", TypeId::kString},
                 {"n", TypeId::kInt64}});
}

/// The heap's slot history as plain rows: each slot's row and live flag.
struct NaiveHeap {
  std::vector<Row> rows;
  std::vector<bool> live;

  void Add(const Row& row) {
    rows.push_back(row);
    live.push_back(true);
  }
};

bool SameCells(RowRef got, const Row& want) {
  if (got.size() != want.size()) return false;
  for (size_t i = 0; i < want.size(); ++i) {
    if (got[i].type() != want[i].type() || got[i] != want[i]) return false;
  }
  return true;
}

/// Checks every read surface of `heap` against `model`.
void ExpectMatchesModel(const TableHeap& heap, const NaiveHeap& model) {
  ASSERT_EQ(heap.NumSlots(), model.rows.size());
  std::vector<SlotId> want_order;
  std::vector<size_t> next_local(heap.num_shards(), 0);
  for (SlotId slot = 0; slot < model.rows.size(); ++slot) {
    EXPECT_EQ(heap.IsLive(slot), model.live[slot]) << slot;
    auto [s, local] = heap.DirectorySlot(slot);
    ASSERT_LT(s, heap.num_shards()) << slot;
    // A shard's rows sit in slot order, one local position each.
    EXPECT_EQ(local, next_local[s]++) << slot;
    ASSERT_LT(local, heap.ShardRowCount(s)) << slot;
    EXPECT_EQ(heap.ShardRowLive(s, local), model.live[slot]) << slot;
    // Tombstoned rows keep their cells (checkpoints persist them).
    EXPECT_TRUE(SameCells(heap.ShardRowAt(s, local), model.rows[slot]))
        << slot;
    if (model.live[slot]) {
      EXPECT_TRUE(SameCells(heap.At(slot), model.rows[slot])) << slot;
      want_order.push_back(slot);
    }
  }
  for (size_t s = 0; s < heap.num_shards(); ++s) {
    EXPECT_EQ(next_local[s], heap.ShardRowCount(s)) << "shard " << s;
  }
  EXPECT_EQ(heap.NumRows(), want_order.size());
  std::vector<SlotId> order;
  for (auto it = heap.Begin(); it.Valid(); it.Next()) {
    EXPECT_TRUE(SameCells(it.row(), model.rows[it.slot()])) << it.slot();
    order.push_back(it.slot());
  }
  EXPECT_EQ(order, want_order);
  std::vector<Row> snapshot = heap.Snapshot();
  ASSERT_EQ(snapshot.size(), want_order.size());
  for (size_t i = 0; i < snapshot.size(); ++i) {
    EXPECT_TRUE(SameCells(snapshot[i], model.rows[want_order[i]])) << i;
  }
}

durability::ByteReader ReaderOf(const std::string& bytes) {
  return durability::ByteReader(bytes.data(), bytes.size());
}

/// Checkpoints `table` into its segment payloads and restores them into a
/// fresh table the way recovery does; the restored shards must re-encode
/// to the same bytes.
std::unique_ptr<TableInfo> CheckpointRoundTrip(const TableInfo& table) {
  const TableHeap& heap = table.heap();
  Result<durability::TableMetaRestore> meta = durability::ParseTableMetaPayload(
      ReaderOf(durability::BuildTableMetaPayload(table)));
  EXPECT_TRUE(meta.ok());
  auto out = std::make_unique<TableInfo>(table.name(), meta->schema);
  TableHeap* restored = out->heap();
  EXPECT_EQ(meta->dict_enabled, heap.dict() != nullptr);
  if (heap.dict() != nullptr) {
    Result<durability::DictRestore> dict = durability::ParseDictPayload(
        ReaderOf(durability::BuildDictPayload(*heap.dict())));
    EXPECT_TRUE(dict.ok());
    EXPECT_TRUE(restored
                    ->RestoreDict(std::move(dict->strings), dict->sorted,
                                  dict->out_of_order, dict->rebuilds)
                    .ok());
  } else {
    restored->set_dict_enabled(false);
  }
  EXPECT_TRUE(restored->BeginRestore(meta->num_shards).ok());
  for (uint32_t s = 0; s < meta->num_shards; ++s) {
    std::string bytes = durability::BuildShardRowsPayload(heap, s);
    Status parsed = durability::ParseShardRowsPayload(
        ReaderOf(bytes), [&](Row* row, bool live) {
          durability::CanonicalizeRow(row, restored->dict());
          return restored->RestoreRow(s, row, live);
        });
    EXPECT_TRUE(parsed.ok()) << parsed.ToString();
  }
  EXPECT_TRUE(
      restored->FinishRestore(meta->directory, meta->shard_key_col).ok());
  for (size_t s = 0; s < heap.num_shards(); ++s) {
    EXPECT_TRUE(durability::BuildShardRowsPayload(*restored, s) ==
                durability::BuildShardRowsPayload(heap, s))
        << "shard " << s;
  }
  return out;
}

TEST(ShardedHeapTest, PagedHeapMatchesNaiveRowModel) {
  for (size_t shards : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    TableInfo table("paged", PagedSchema());
    TableHeap& heap = *table.heap();
    heap.set_num_shards(shards);
    NaiveHeap model;
    Rng rng(17 + shards);
    auto make_row = [&] {
      return Row{rng.Chance(0.03) ? N() : I(rng.Uniform(0, 999)),
                 S("name" + std::to_string(rng.Uniform(0, 300))),
                 I(rng.Uniform(-5, 5))};
    };
    // Enough rows that every shard spans at least three pages (checked
    // below); the dictionary is rebuilt into sorted order half way.
    const size_t target = 16000 * shards;
    bool rebuilt = false;
    while (model.rows.size() < target) {
      double dice = rng.UniformReal(0, 1);
      if (dice < 0.6) {
        Row row = make_row();
        RowRef stored;
        EXPECT_EQ(heap.InsertUnchecked(row, &stored), model.rows.size());
        EXPECT_TRUE(SameCells(stored, row));
        model.Add(row);
      } else if (dice < 0.9) {
        std::vector<Row> batch(static_cast<size_t>(rng.Uniform(1, 600)));
        for (Row& row : batch) {
          row = make_row();
          model.Add(row);
        }
        heap.InsertBatchUnchecked(std::move(batch));
      } else {
        SlotId slot = static_cast<SlotId>(
            rng.Uniform(0, static_cast<int64_t>(model.rows.size())));
        Status st = heap.Delete(slot);
        if (slot < model.rows.size() && model.live[slot]) {
          EXPECT_TRUE(st.ok()) << st.ToString();
          model.live[slot] = false;
        } else {
          EXPECT_FALSE(st.ok()) << slot;
        }
      }
      if (!rebuilt && model.rows.size() >= target / 2) {
        std::vector<uint32_t> old_to_new;
        EXPECT_TRUE(heap.RebuildDictSorted(&old_to_new));
        rebuilt = true;
        ExpectMatchesModel(heap, model);
      }
    }
    for (size_t s = 0; s < heap.num_shards(); ++s) {
      EXPECT_GT(heap.ShardRowCount(s), 2 * TableHeap::kPageRows)
          << "shard " << s;
    }
    ExpectMatchesModel(heap, model);
    std::unique_ptr<TableInfo> reopened = CheckpointRoundTrip(table);
    ExpectMatchesModel(*reopened->heap(), model);
  }

  // A tiny table stays inside each shard's first page. Its strings stay
  // inline (no dictionary), long ones in reference-counted blocks that
  // the pages take over.
  TableInfo tiny("tiny", PagedSchema());
  TableHeap& heap = *tiny.heap();
  heap.set_num_shards(4);
  heap.set_dict_enabled(false);
  NaiveHeap model;
  for (int i = 0; i < 40; ++i) {
    Row row{I(i), S("a string too long to be stored inline #" +
                    std::to_string(i)),
            i % 5 == 0 ? N() : I(i * 7)};
    model.Add(row);
    if (i % 2 == 0) {
      heap.InsertUnchecked(row);
    } else {
      heap.InsertBatchUnchecked({row});
    }
  }
  for (SlotId slot : {3, 17, 38}) {
    ASSERT_TRUE(heap.Delete(slot).ok());
    model.live[slot] = false;
  }
  ExpectMatchesModel(heap, model);
  uint64_t bytes = 0;
  for (size_t s = 0; s < heap.num_shards(); ++s) bytes += heap.ShardBytes(s);
  EXPECT_LT(bytes, TableHeap::kPageRows * 3 * sizeof(Value));
  std::unique_ptr<TableInfo> reopened = CheckpointRoundTrip(tiny);
  ExpectMatchesModel(*reopened->heap(), model);
}

TEST(TableHeapTest, RowRefStaysValidAcrossInserts) {
  TableHeap heap(PagedSchema());
  heap.set_num_shards(4);
  heap.DeclareShardKey(0);  // every row below routes to one shard
  // Views taken in the first block, later in the first page, and in a
  // full page.
  std::vector<std::pair<SlotId, RowRef>> views;
  std::vector<Row> rows;
  for (int i = 0; i < 10001 + 5000; ++i) {
    Row row{I(7), S("v" + std::to_string(i)), I(i)};
    RowRef stored;
    SlotId slot = heap.InsertUnchecked(row, &stored);
    if (i == 0 || i == 100 || i == 5000) {
      views.emplace_back(slot, stored);
      rows.push_back(row);
    }
  }
  // The first view saw 15,000 further inserts, at least 10,000 after
  // each view.
  size_t shard = heap.DirectorySlot(0).first;
  EXPECT_EQ(heap.ShardRowCount(shard), 15001u);
  for (size_t v = 0; v < views.size(); ++v) {
    auto [slot, view] = views[v];
    EXPECT_EQ(heap.At(slot).begin(), view.begin()) << slot;
    EXPECT_TRUE(SameCells(view, rows[v])) << slot;
  }
}

TEST(TableHeapTest, BulkLoadedBytesPerRowArePageExact) {
  // Per row: three 24-byte cells, a live flag and a directory entry; on
  // top of that at most one page of rows per shard (the unfilled rest of
  // the last block, and the block pointer array).
  constexpr size_t kRows = 100000;
  const uint64_t per_row = 3 * sizeof(Value) + 9;
  for (size_t shards : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    TableHeap heap(PagedSchema());
    heap.set_num_shards(shards);
    for (size_t at = 0; at < kRows; at += 1000) {
      std::vector<Row> batch;
      for (size_t i = at; i < at + 1000; ++i) {
        int64_t k = static_cast<int64_t>(i);
        batch.push_back({I(k), S("n" + std::to_string(k % 50)), I(k * 3)});
      }
      heap.InsertBatchUnchecked(std::move(batch));
    }
    uint64_t bytes = 0;
    for (size_t s = 0; s < heap.num_shards(); ++s) bytes += heap.ShardBytes(s);
    EXPECT_GE(bytes, kRows * per_row);
    EXPECT_LE(bytes, kRows * per_row + shards * TableHeap::kPageRows * per_row)
        << static_cast<double>(bytes) / kRows << " B/row";
  }
}

TEST(ShardedHeapTest, ConcurrentBatchWritersAppendPages) {
  testing_util::ShardOverrideGuard guard(4);
  Database db;
  ASSERT_TRUE(db.CreateTable("t", PagedSchema()).ok());
  TableHeap* heap = (*db.catalog()->GetTable("t"))->heap();
  ASSERT_EQ(heap->num_shards(), 4u);
  // Writer w appends only rows that route to heap shard w, so the four
  // writers take disjoint shard locks and append pages concurrently,
  // while the directory mutex serializes their slot ids.
  const size_t per_writer = 3 * TableHeap::kPageRows;
  std::vector<std::vector<Row>> rows(4);
  for (int64_t k = 0; rows[0].size() < per_writer || rows[1].size() < per_writer ||
                      rows[2].size() < per_writer || rows[3].size() < per_writer;
       ++k) {
    Row row{I(k), S("w" + std::to_string(k % 97)), I(k * 3)};
    std::vector<Row>& mine = rows[heap->ShardOf(row)];
    if (mine.size() < per_writer) mine.push_back(std::move(row));
  }
  std::vector<std::thread> writers;
  for (size_t w = 0; w < 4; ++w) {
    writers.emplace_back([&, w] {
      for (size_t at = 0; at < per_writer; at += 500) {
        std::vector<Row> batch(
            rows[w].begin() + static_cast<ptrdiff_t>(at),
            rows[w].begin() +
                static_cast<ptrdiff_t>(std::min(at + 500, per_writer)));
        Status st = db.InsertBatch("t", std::move(batch));
        EXPECT_TRUE(st.ok()) << st.ToString();
      }
    });
  }
  for (std::thread& t : writers) t.join();
  // Every slot holds the next row of the writer that owns its shard.
  ASSERT_EQ(heap->NumSlots(), 4 * per_writer);
  std::vector<size_t> next(4, 0);
  for (SlotId slot = 0; slot < heap->NumSlots(); ++slot) {
    auto [s, local] = heap->DirectorySlot(slot);
    ASSERT_LT(s, 4u);
    EXPECT_EQ(local, next[s]);
    ASSERT_LT(next[s], per_writer);
    EXPECT_TRUE(SameCells(heap->At(slot), rows[s][next[s]])) << slot;
    ++next[s];
  }
}

TEST(CsvTest, RoundTrip) {
  std::string path =
      (std::filesystem::temp_directory_path() / "beas_csv_test.csv").string();
  TableHeap heap(Schema({{"id", TypeId::kInt64},
                         {"name", TypeId::kString},
                         {"score", TypeId::kDouble},
                         {"day", TypeId::kDate}}));
  heap.InsertUnchecked({I(1), S("alice"), Value::Double(1.5), Dt("2016-03-15")});
  heap.InsertUnchecked({I(2), S("bob"), N(), Dt("2016-03-16")});
  ASSERT_TRUE(SaveCsv(path, heap).ok());

  TableHeap loaded(heap.schema());
  auto count = LoadCsv(path, &loaded);
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(*count, 2u);
  EXPECT_EQ(loaded.At(0)[1], S("alice"));
  EXPECT_TRUE(loaded.At(1)[2].is_null());
  EXPECT_EQ(loaded.At(1)[3].AsDate(), 20160316);
  std::remove(path.c_str());
}

TEST(CsvTest, RejectsBadArityAndTypes) {
  Schema schema({{"id", TypeId::kInt64}});
  EXPECT_FALSE(ParseCsvLine("1,2", schema).ok());
  EXPECT_FALSE(ParseCsvLine("abc", schema).ok());
  EXPECT_TRUE(ParseCsvLine("42", schema).ok());
  EXPECT_TRUE(ParseCsvLine("", schema).ok()) << "empty field is NULL";
}

TEST(CsvTest, MissingFileErrors) {
  TableHeap heap(Schema({{"id", TypeId::kInt64}}));
  EXPECT_EQ(LoadCsv("/nonexistent/beas.csv", &heap).status().code(),
            StatusCode::kIoError);
}

TEST(CatalogTest, CreateGetDrop) {
  Catalog catalog;
  ASSERT_TRUE(catalog.CreateTable("t", TwoColSchema()).ok());
  EXPECT_FALSE(catalog.CreateTable("T", TwoColSchema()).ok())
      << "names are case-insensitive";
  EXPECT_TRUE(catalog.GetTable("T").ok());
  EXPECT_TRUE(catalog.HasTable("t"));
  ASSERT_TRUE(catalog.DropTable("t").ok());
  EXPECT_FALSE(catalog.GetTable("t").ok());
  EXPECT_FALSE(catalog.DropTable("t").ok());
}

TEST(CatalogTest, TableNamesSorted) {
  Catalog catalog;
  ASSERT_TRUE(catalog.CreateTable("zeta", TwoColSchema()).ok());
  ASSERT_TRUE(catalog.CreateTable("alpha", TwoColSchema()).ok());
  EXPECT_EQ(catalog.TableNames(), (std::vector<std::string>{"alpha", "zeta"}));
}

TEST(StatisticsTest, ComputesCountsAndMinMax) {
  TableHeap heap(TwoColSchema());
  heap.InsertUnchecked({I(5), S("b")});
  heap.InsertUnchecked({I(3), S("a")});
  heap.InsertUnchecked({I(5), N()});
  TableStats stats = ComputeTableStats(heap);
  EXPECT_EQ(stats.row_count, 3u);
  EXPECT_EQ(stats.columns[0].distinct_count, 2u);
  EXPECT_EQ(stats.columns[0].min, I(3));
  EXPECT_EQ(stats.columns[0].max, I(5));
  EXPECT_EQ(stats.columns[1].null_count, 1u);
  EXPECT_EQ(stats.columns[1].distinct_count, 2u);
  EXPECT_EQ(stats.DistinctOf("id"), 2u);
  EXPECT_EQ(stats.DistinctOf("nope"), 0u);
}

TEST(StatisticsTest, CachedAndInvalidated) {
  Catalog catalog;
  TableInfo* info = *catalog.CreateTable("t", TwoColSchema());
  info->heap()->InsertUnchecked({I(1), S("a")});
  EXPECT_EQ(info->stats().row_count, 1u);
  info->heap()->InsertUnchecked({I(2), S("b")});
  // Slot count changed, stats recompute automatically.
  EXPECT_EQ(info->stats().row_count, 2u);
}

}  // namespace
}  // namespace beas
