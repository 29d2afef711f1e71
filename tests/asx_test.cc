#include <gtest/gtest.h>

#include <memory>
#include <unordered_map>

#include "asx/ac_index.h"
#include "asx/access_schema.h"
#include "asx/conformance.h"
#include "common/rng.h"
#include "common/task_pool.h"
#include "discovery/profiler.h"
#include "maintenance/maintenance.h"
#include "test_util.h"

namespace beas {
namespace {

using testing_util::Dt;
using testing_util::I;
using testing_util::MakeTable;
using testing_util::N;
using testing_util::S;

Schema CallSchema() {
  return Schema({{"pnum", TypeId::kInt64},
                 {"date", TypeId::kDate},
                 {"recnum", TypeId::kInt64},
                 {"region", TypeId::kString}});
}

AccessConstraint Psi1() {
  return {"psi1", "call", {"pnum", "date"}, {"recnum", "region"}, 3};
}

/// A bucket's Y-projections as rows, in bucket order.
std::vector<Row> YRows(const AcIndex::BucketView& bucket) {
  std::vector<Row> rows;
  for (size_t b = 0; b < bucket.size(); ++b) {
    const Value* cells = bucket.cells + b * bucket.arity;
    rows.emplace_back(cells, cells + bucket.arity);
  }
  return rows;
}

TEST(AccessConstraintTest, ToStringAndResolve) {
  AccessConstraint c = Psi1();
  EXPECT_EQ(c.ToString(),
            "psi1: call({pnum, date} -> {recnum, region}, 3)");
  Schema schema = CallSchema();
  EXPECT_EQ(*c.ResolveX(schema), (std::vector<size_t>{0, 1}));
  EXPECT_EQ(*c.ResolveY(schema), (std::vector<size_t>{2, 3}));
  AccessConstraint bad{"b", "call", {"nope"}, {"recnum"}, 1};
  EXPECT_FALSE(bad.ResolveX(schema).ok());
}

TEST(AcIndexTest, BuildAndLookup) {
  TableHeap heap(CallSchema());
  heap.InsertUnchecked({I(7), Dt("2016-03-15"), I(100), S("R1")});
  heap.InsertUnchecked({I(7), Dt("2016-03-15"), I(101), S("R1")});
  heap.InsertUnchecked({I(7), Dt("2016-03-16"), I(100), S("R1")});
  heap.InsertUnchecked({I(8), Dt("2016-03-15"), I(200), S("R2")});
  auto index = AcIndex::Build(Psi1(), heap);
  ASSERT_TRUE(index.ok());
  auto bucket = (*index)->LookupWithCounts({I(7), Dt("2016-03-15")});
  ASSERT_EQ(bucket.size(), 2u);
  EXPECT_EQ(bucket.arity, 2u);
  EXPECT_EQ(bucket.at(0, 0), I(100));
  EXPECT_EQ(bucket.at(1, 0), I(101));
  EXPECT_EQ(bucket.at(1, 1), S("R1"));
  EXPECT_EQ((*index)->NumKeys(), 3u);
  EXPECT_EQ((*index)->NumEntries(), 4u);
  EXPECT_EQ((*index)->LookupWithCounts({I(9), Dt("2016-03-15")}).size(), 0u);
}

TEST(AcIndexTest, DistinctYDeduplicated) {
  TableHeap heap(CallSchema());
  // Two identical (recnum, region) projections for the same key.
  heap.InsertUnchecked({I(7), Dt("2016-03-15"), I(100), S("R1")});
  heap.InsertUnchecked({I(7), Dt("2016-03-15"), I(100), S("R1")});
  auto index = AcIndex::Build(Psi1(), heap);
  auto view = (*index)->LookupWithCounts({I(7), Dt("2016-03-15")});
  ASSERT_EQ(view.size(), 1u) << "partial tuples are distinct";
  EXPECT_EQ(view.mult(0), 2u) << "bag weight preserved";
}

TEST(AcIndexTest, EmptyYProjectionCountsRowsPerKey) {
  TableHeap heap(CallSchema());
  for (int i = 0; i < 3; ++i) {
    heap.InsertUnchecked({I(7), Dt("2016-03-15"), I(100 + i), S("R1")});
  }
  auto index = AcIndex::Build({"psi0", "call", {"pnum", "date"}, {}, 1}, heap);
  ASSERT_TRUE(index.ok());
  auto view = (*index)->LookupWithCounts({I(7), Dt("2016-03-15")});
  ASSERT_EQ(view.size(), 1u) << "one empty partial tuple per key";
  EXPECT_EQ(view.arity, 0u);
  EXPECT_EQ(view.mult(0), 3u);
  (*index)->OnDelete({I(7), Dt("2016-03-15"), I(100), S("R1")});
  EXPECT_EQ((*index)->LookupWithCounts({I(7), Dt("2016-03-15")}).mult(0), 2u);
}

TEST(AcIndexTest, NullKeysNotIndexed) {
  TableHeap heap(CallSchema());
  heap.InsertUnchecked({N(), Dt("2016-03-15"), I(100), S("R1")});
  auto index = AcIndex::Build(Psi1(), heap);
  EXPECT_EQ((*index)->NumKeys(), 0u);
}

TEST(AcIndexTest, IncrementalInsertDelete) {
  TableHeap heap(CallSchema());
  auto index = AcIndex::Build(Psi1(), heap);
  Row r1{I(7), Dt("2016-03-15"), I(100), S("R1")};
  Row r2{I(7), Dt("2016-03-15"), I(100), S("R1")};  // duplicate projection
  Row r3{I(7), Dt("2016-03-15"), I(101), S("R1")};
  (*index)->OnInsert(r1);
  (*index)->OnInsert(r2);
  (*index)->OnInsert(r3);
  ValueVec key{I(7), Dt("2016-03-15")};
  EXPECT_EQ((*index)->LookupWithCounts(key).size(), 2u);
  (*index)->OnDelete(r1);  // multiplicity 2 -> 1, still present
  EXPECT_EQ((*index)->LookupWithCounts(key).size(), 2u);
  (*index)->OnDelete(r2);  // multiplicity 1 -> 0, removed
  EXPECT_EQ((*index)->LookupWithCounts(key).size(), 1u);
  (*index)->OnDelete(r3);  // bucket empties and disappears
  EXPECT_EQ((*index)->LookupWithCounts(key).size(), 0u);
  EXPECT_EQ((*index)->NumKeys(), 0u);
  EXPECT_EQ((*index)->NumEntries(), 0u);
}

TEST(AcIndexTest, IncrementalEqualsRebuildProperty) {
  // Property: after any interleaving of inserts/deletes, the incrementally
  // maintained index equals one rebuilt from scratch.
  Rng rng(99);
  TableHeap heap(CallSchema());
  auto incremental = AcIndex::Build(Psi1(), heap);
  std::vector<Row> live;
  for (int step = 0; step < 500; ++step) {
    bool do_insert = live.empty() || rng.Chance(0.6);
    if (do_insert) {
      Row row{I(rng.Uniform(1, 5)), Dt("2016-03-15"), I(rng.Uniform(100, 104)),
              S(rng.Chance(0.5) ? "R1" : "R2")};
      live.push_back(row);
      heap.InsertUnchecked(row);
      (*incremental)->OnInsert(row);
    } else {
      size_t pick = static_cast<size_t>(
          rng.Uniform(0, static_cast<int64_t>(live.size()) - 1));
      Row row = live[pick];
      live.erase(live.begin() + static_cast<ptrdiff_t>(pick));
      // Delete one matching live row from the heap.
      for (auto it = heap.Begin(); it.Valid(); it.Next()) {
        if (ValueVecEq{}(it.row(), row)) {
          ASSERT_TRUE(heap.Delete(it.slot()).ok());
          break;
        }
      }
      (*incremental)->OnDelete(row);
    }
  }
  auto rebuilt = AcIndex::Build(Psi1(), heap);
  EXPECT_EQ((*incremental)->NumKeys(), (*rebuilt)->NumKeys());
  EXPECT_EQ((*incremental)->NumEntries(), (*rebuilt)->NumEntries());
  // Spot-check every key of the rebuilt index.
  for (int p = 1; p <= 5; ++p) {
    ValueVec key{I(p), Dt("2016-03-15")};
    EXPECT_TRUE(RowMultisetsEqual(
        YRows((*incremental)->LookupWithCounts(key)),
        YRows((*rebuilt)->LookupWithCounts(key))));
  }
}

// ---------------------------------------------------------------------------
// Flat buckets against a naive reference model: random insert/delete
// sequences with duplicate Y-values, buckets growing past the linear-scan
// limit into slot tables and draining back (and down to empty), and sorted
// dictionary rebuilds — at 1 and 4 shards. Every bucket's entries, their
// order and their multiplicities must match the model exactly.
// ---------------------------------------------------------------------------

/// Per key: distinct Y tuples in maintenance order with multiplicities.
/// Appends new tuples; a delete that drops a multiplicity to zero moves the
/// last tuple into the hole.
class NaiveIndexModel {
 public:
  void Insert(const ValueVec& key, const Row& y) {
    std::vector<Entry>& bucket = buckets_[key];
    for (Entry& e : bucket) {
      if (ValueVecEq{}(e.y, y)) {
        ++e.mult;
        return;
      }
    }
    bucket.push_back({Detach(y), 1});
  }

  void Delete(const ValueVec& key, const Row& y) {
    auto it = buckets_.find(key);
    ASSERT_NE(it, buckets_.end());
    std::vector<Entry>& bucket = it->second;
    for (size_t i = 0; i < bucket.size(); ++i) {
      if (!ValueVecEq{}(bucket[i].y, y)) continue;
      if (--bucket[i].mult == 0) {
        bucket[i] = bucket.back();
        bucket.pop_back();
        if (bucket.empty()) buckets_.erase(it);
      }
      return;
    }
    FAIL() << "deleting an absent Y " << RowToString(y);
  }

  void ExpectMatches(const AcIndex& index, const StringDict* dict) const {
    size_t entries = 0;
    for (const auto& [key, bucket] : buckets_) {
      SCOPED_TRACE("key " + RowToString(key));
      AcIndex::BucketView view = index.LookupWithCounts(key);
      ASSERT_EQ(view.size(), bucket.size());
      for (size_t b = 0; b < bucket.size(); ++b) {
        EXPECT_EQ(view.mult(b), bucket[b].mult) << "entry " << b;
        for (size_t k = 0; k < view.arity; ++k) {
          const Value& cell = view.at(b, k);
          EXPECT_EQ(cell, bucket[b].y[k]) << "entry " << b << " cell " << k;
          if (cell.type() == TypeId::kString) {
            EXPECT_EQ(cell.dict(), dict);
          }
        }
      }
      entries += bucket.size();
    }
    EXPECT_EQ(index.NumKeys(), buckets_.size());
    EXPECT_EQ(index.NumEntries(), entries);
    size_t visited = 0;
    index.ForEachBucket(
        [&](const ValueVec&, const AcIndex::BucketView&) { ++visited; });
    EXPECT_EQ(visited, buckets_.size());
  }

 private:
  struct Entry {
    Row y;
    uint64_t mult;
  };
  /// A copy whose strings own their bytes, so the model is immune to
  /// dictionary renumbering.
  static Row Detach(const Row& row) {
    Row out;
    for (const Value& v : row) {
      out.push_back(v.type() == TypeId::kString
                        ? Value::String(v.AsString())
                        : v);
    }
    return out;
  }
  std::unordered_map<ValueVec, std::vector<Entry>, ValueVecHash, ValueVecEq>
      buckets_;
};

TEST(AcIndexDifferentialTest, FlatBucketsMatchNaiveModel) {
  for (size_t shards : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    TableHeap heap(Schema({{"k", TypeId::kInt64},
                           {"a", TypeId::kInt64},
                           {"s", TypeId::kString}}));
    heap.set_num_shards(shards);
    auto built = AcIndex::Build({"psi", "t", {"k"}, {"a", "s"}, 1000}, heap);
    ASSERT_TRUE(built.ok());
    AcIndex& index = **built;
    ASSERT_EQ(index.num_shards(), shards);
    NaiveIndexModel model;
    Rng rng(2024);
    std::vector<SlotId> live;
    bool grew_past_linear = false;
    bool shrank_back = false;
    size_t rebuilds = 0;
    for (int step = 0; step < 6000; ++step) {
      // Phases of 1000 steps: grow, churn, drain (repeated twice).
      int phase = (step / 1000) % 3;
      double p_insert = phase == 0 ? 0.85 : (phase == 1 ? 0.5 : 0.08);
      if (live.empty() || rng.Chance(p_insert)) {
        // Fresh strings keep arriving out of byte order, so every sorted
        // rebuild below has codes to renumber.
        int64_t s = rng.Chance(0.8) ? rng.Uniform(0, 3)
                                    : rng.Uniform(0, 5 + step / 100);
        Row row{rng.Chance(0.02) ? N() : I(rng.Uniform(0, 3)),
                rng.Chance(0.05) ? N() : I(rng.Uniform(0, 12)),
                S("v" + std::to_string(s))};
        const Row* stored = nullptr;
        SlotId slot = heap.InsertUnchecked(row, &stored);
        index.OnInsert(*stored);
        if (!row[0].is_null()) model.Insert({row[0]}, {row[1], row[2]});
        live.push_back(slot);
      } else {
        size_t pick = static_cast<size_t>(
            rng.Uniform(0, static_cast<int64_t>(live.size()) - 1));
        SlotId slot = live[pick];
        live[pick] = live.back();
        live.pop_back();
        const Row& row = heap.At(slot);
        index.OnDelete(row);
        if (!row[0].is_null()) model.Delete({row[0]}, {row[1], row[2]});
        ASSERT_TRUE(heap.Delete(slot).ok());
      }
      if (step % 700 == 699) {
        std::vector<uint32_t> old_to_new;
        if (heap.RebuildDictSorted(&old_to_new)) {
          index.RemapDictCodes(old_to_new);
          ++rebuilds;
        }
      }
      size_t largest = index.MaxBucketSize();
      grew_past_linear |= largest > 16;
      shrank_back |= grew_past_linear && largest > 0 && largest <= 8;
      if (step % 50 == 0 || step % 700 == 699) {
        ASSERT_NO_FATAL_FAILURE(model.ExpectMatches(index, heap.dict()));
      }
    }
    model.ExpectMatches(index, heap.dict());
    EXPECT_TRUE(grew_past_linear);
    EXPECT_TRUE(shrank_back);
    EXPECT_GE(rebuilds, 2u);
  }
}

// ---------------------------------------------------------------------------
// Footprint: one estimate for built indexes and for discovery's candidates,
// checked against what the index's containers hold.
// ---------------------------------------------------------------------------

TEST(AcIndexFootprintTest, EstimateTracksHeldBytes) {
  Database db;
  std::vector<Row> rows;
  Rng rng(5);
  for (int k = 0; k < 400; ++k) {
    int fan = static_cast<int>(rng.Uniform(1, 40));  // both sides of 16
    for (int f = 0; f < fan; ++f) {
      rows.push_back({I(k), I(rng.Uniform(0, 60)),
                      S("r" + std::to_string(rng.Uniform(0, 9)))});
    }
  }
  TableInfo* info = MakeTable(&db, "t",
                              Schema({{"k", TypeId::kInt64},
                                      {"a", TypeId::kInt64},
                                      {"s", TypeId::kString}}),
                              rows);
  auto index = AcIndex::Build({"psi", "t", {"k"}, {"a", "s"}, 64},
                              *info->heap());
  ASSERT_TRUE(index.ok());
  uint64_t estimate = (*index)->ApproxBytes();
  uint64_t held = (*index)->HeldBytes();
  EXPECT_EQ(estimate, AcIndex::EstimateBytes((*index)->NumKeys(),
                                             (*index)->NumEntries(), 1, 2));
  // The estimate is what a compact build holds: it leaves out vector
  // growth slack and the slot tables of large buckets, so it stays below
  // the held bytes, but not far below.
  EXPECT_LE(estimate, held);
  EXPECT_GE(static_cast<double>(estimate), 0.6 * static_cast<double>(held))
      << "estimate " << estimate << " held " << held;

  // Discovery sizes the same candidate with the same formula.
  auto profile = ProfileCandidate(*info->heap(), {"t", {"k"}, {"a", "s"}});
  ASSERT_TRUE(profile.ok());
  EXPECT_EQ(profile->approx_bytes, estimate);
}

// ---------------------------------------------------------------------------
// Sharded AcIndex: sub-indexing by key hash must be invisible — same
// buckets, same in-bucket order, same counters at every shard count, and
// the shard-routed LookupBatch (serial or pooled) must agree with the
// per-key probes.
// ---------------------------------------------------------------------------

TEST(AcIndexShardingTest, ShardCountsProduceIdenticalBuckets) {
  Rng rng(1234);
  std::vector<Row> rows;
  for (int i = 0; i < 300; ++i) {
    rows.push_back({I(rng.Uniform(0, 40)), Dt("2016-03-15"),
                    I(rng.Uniform(100, 110)), S("R" + std::to_string(i % 3))});
  }

  auto build = [&](size_t shards) {
    auto heap = std::make_unique<TableHeap>(CallSchema());
    heap->set_num_shards(shards);
    for (const Row& row : rows) heap->InsertUnchecked(row);
    auto index = AcIndex::Build(Psi1(), *heap);
    EXPECT_TRUE(index.ok());
    return std::make_pair(std::move(heap), std::move(*index));
  };
  auto [heap1, ref] = build(1);
  ASSERT_EQ(ref->num_shards(), 1u);

  // Probe keys: all present keys plus misses and a NULL-bearing key.
  std::vector<ValueVec> keys;
  for (int k = 0; k < 44; ++k) keys.push_back({I(k), Dt("2016-03-15")});
  keys.push_back({I(7), Dt("1999-01-01")});
  keys.push_back({N(), Dt("2016-03-15")});
  for (int k = 0; k < 44; ++k) keys.push_back({I(k), Dt("2016-03-15")});

  TaskPool pool(3);
  for (size_t shards : {size_t{3}, size_t{8}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    auto [heap_s, sharded] = build(shards);
    EXPECT_EQ(sharded->num_shards(), shards);
    EXPECT_EQ(sharded->NumKeys(), ref->NumKeys());
    EXPECT_EQ(sharded->NumEntries(), ref->NumEntries());
    EXPECT_EQ(sharded->MaxBucketSize(), ref->MaxBucketSize());

    std::vector<AcIndex::BucketView> pooled(keys.size());
    std::vector<AcIndex::BucketView> serial(keys.size());
    sharded->LookupBatch(keys.data(), keys.size(), pooled.data(), &pool);
    sharded->LookupBatch(keys.data(), keys.size(), serial.data(),
                         static_cast<TaskPool*>(nullptr));
    for (size_t i = 0; i < keys.size(); ++i) {
      SCOPED_TRACE("key " + std::to_string(i));
      AcIndex::BucketView expect = ref->LookupWithCounts(keys[i]);
      for (const AcIndex::BucketView* got : {&pooled[i], &serial[i]}) {
        ASSERT_EQ(got->size(), expect.size());
        for (size_t b = 0; b < expect.size(); ++b) {
          // Same distinct Y-projections, same first-appearance order,
          // same multiplicities.
          for (size_t k = 0; k < expect.arity; ++k) {
            EXPECT_EQ(got->at(b, k), expect.at(b, k));
          }
          EXPECT_EQ(got->mult(b), expect.mult(b));
        }
      }
    }

    // Incremental maintenance routes to the right sub-index.
    Row extra{I(7), Dt("2016-03-15"), I(999), S("RX")};
    sharded->OnInsert(extra);
    ref->OnInsert(extra);
    EXPECT_EQ(sharded->NumEntries(), ref->NumEntries());
    auto after = sharded->LookupWithCounts({I(7), Dt("2016-03-15")});
    auto after_ref = ref->LookupWithCounts({I(7), Dt("2016-03-15")});
    ASSERT_EQ(after.size(), after_ref.size());
    EXPECT_EQ(YRows(after).back(), YRows(after_ref).back());
    sharded->OnDelete(extra);
    ref->OnDelete(extra);
    EXPECT_EQ(sharded->NumEntries(), ref->NumEntries());
  }
}

TEST(AcIndexTest, ConformsAgainstDeclaredBound) {
  TableHeap heap(CallSchema());
  for (int i = 0; i < 5; ++i) {
    heap.InsertUnchecked({I(7), Dt("2016-03-15"), I(100 + i), S("R1")});
  }
  auto index = AcIndex::Build(Psi1(), heap);  // N=3 but 5 distinct
  EXPECT_EQ((*index)->MaxBucketSize(), 5u);
  EXPECT_FALSE((*index)->Conforms());
  (*index)->set_limit(10);
  EXPECT_TRUE((*index)->Conforms());
}

TEST(ConformanceTest, ReportsViolations) {
  TableHeap heap(CallSchema());
  for (int i = 0; i < 5; ++i) {
    heap.InsertUnchecked({I(7), Dt("2016-03-15"), I(100 + i), S("R1")});
  }
  heap.InsertUnchecked({I(8), Dt("2016-03-15"), I(1), S("R1")});
  auto report = VerifyConformance(heap, Psi1());
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->conforms);
  EXPECT_EQ(report->observed_max, 5u);
  EXPECT_EQ(report->num_keys, 2u);
  EXPECT_EQ(report->sample_violations.size(), 1u);
  EXPECT_NE(report->ToString().find("VIOLATED"), std::string::npos);
}

TEST(ConformanceTest, PassesWhenWithinBound) {
  TableHeap heap(CallSchema());
  heap.InsertUnchecked({I(7), Dt("2016-03-15"), I(100), S("R1")});
  auto report = VerifyConformance(heap, Psi1());
  EXPECT_TRUE(report->conforms);
}

TEST(AccessSchemaTest, AddFindDuplicates) {
  AccessSchema schema;
  ASSERT_TRUE(schema.Add(Psi1()).ok());
  EXPECT_EQ(schema.Add(Psi1()).code(), StatusCode::kAlreadyExists);
  AccessConstraint unnamed{"", "call", {"pnum"}, {"recnum"}, 9};
  ASSERT_TRUE(schema.Add(unnamed).ok());
  EXPECT_EQ(schema.constraints()[1].name, "psi2") << "auto-named";
  EXPECT_TRUE(schema.Find("psi1").ok());
  EXPECT_FALSE(schema.Find("nope").ok());
  EXPECT_EQ(schema.ForTable("call").size(), 2u);
  EXPECT_EQ(schema.ForTable("other").size(), 0u);
}

class AsCatalogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MakeTable(&db_, "call", CallSchema(),
              {{I(7), Dt("2016-03-15"), I(100), S("R1")},
               {I(7), Dt("2016-03-15"), I(101), S("R1")}});
  }
  Database db_;
};

TEST_F(AsCatalogTest, RegisterBuildsIndex) {
  AsCatalog catalog(&db_);
  ASSERT_TRUE(catalog.Register(Psi1()).ok());
  AcIndex* index = catalog.IndexFor("psi1");
  ASSERT_NE(index, nullptr);
  EXPECT_EQ(index->NumEntries(), 2u);
  EXPECT_EQ(catalog.IndexesForTable("call").size(), 1u);
  EXPECT_GT(catalog.TotalIndexBytes(), 0u);
  EXPECT_NE(catalog.MetadataReport().find("psi1"), std::string::npos);
}

TEST_F(AsCatalogTest, RegisterUnknownTableFails) {
  AsCatalog catalog(&db_);
  AccessConstraint c{"x", "missing", {"a"}, {"b"}, 1};
  EXPECT_FALSE(catalog.Register(c).ok());
  EXPECT_EQ(catalog.schema().size(), 0u) << "rollback on failure";
}

TEST_F(AsCatalogTest, UnregisterRemoves) {
  AsCatalog catalog(&db_);
  ASSERT_TRUE(catalog.Register(Psi1()).ok());
  ASSERT_TRUE(catalog.Unregister("psi1").ok());
  EXPECT_EQ(catalog.IndexFor("psi1"), nullptr);
  EXPECT_EQ(catalog.Unregister("psi1").code(), StatusCode::kNotFound);
}

TEST_F(AsCatalogTest, AdjustLimitUpdatesSchemaAndIndex) {
  AsCatalog catalog(&db_);
  ASSERT_TRUE(catalog.Register(Psi1()).ok());
  ASSERT_TRUE(catalog.AdjustLimit("psi1", 77).ok());
  EXPECT_EQ((*catalog.schema().Find("psi1"))->limit_n, 77u);
  EXPECT_EQ(catalog.IndexFor("psi1")->constraint().limit_n, 77u);
}

TEST_F(AsCatalogTest, MaintenanceHookKeepsIndexFresh) {
  AsCatalog catalog(&db_);
  ASSERT_TRUE(catalog.Register(Psi1()).ok());
  MaintenanceManager maintenance(&db_, &catalog);
  maintenance.Attach();

  ASSERT_TRUE(
      db_.Insert("call", {I(9), Dt("2016-03-16"), I(300), S("R3")}).ok());
  AcIndex* index = catalog.IndexFor("psi1");
  ASSERT_EQ(index->LookupWithCounts({I(9), Dt("2016-03-16")}).size(), 1u);
  EXPECT_EQ(maintenance.updates_applied(), 1u);

  ASSERT_TRUE(db_.DeleteWhereEquals(
                     "call", {I(9), Dt("2016-03-16"), I(300), S("R3")})
                  .ok());
  EXPECT_EQ(index->LookupWithCounts({I(9), Dt("2016-03-16")}).size(), 0u);
  EXPECT_EQ(maintenance.updates_applied(), 2u);
}

TEST_F(AsCatalogTest, RevalidateSuggestsAdjustments) {
  AsCatalog catalog(&db_);
  AccessConstraint tight = Psi1();
  tight.limit_n = 1;  // data has 2 distinct Y for the key -> violated
  ASSERT_TRUE(catalog.Register(tight).ok());
  MaintenanceManager maintenance(&db_, &catalog);
  auto suggestions = maintenance.RevalidateAndSuggest(1.5);
  ASSERT_EQ(suggestions.size(), 1u);
  EXPECT_TRUE(suggestions[0].violated);
  EXPECT_EQ(suggestions[0].observed_max, 2u);
  EXPECT_EQ(suggestions[0].suggested_n, 3u);  // ceil(2 * 1.5)
  ASSERT_TRUE(maintenance.ApplySuggestions(suggestions).ok());
  EXPECT_EQ((*catalog.schema().Find("psi1"))->limit_n, 3u);
  EXPECT_FALSE(maintenance.RevalidateAndSuggest(1.0)[0].violated);
}

}  // namespace
}  // namespace beas
