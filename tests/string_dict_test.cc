// Unit tests for the per-table string dictionary: byte-exact interning
// (embedded NULs, empty strings), code/hash round trips, the
// dictionary-backed Value representation's equality/hash consistency
// with the inline representation, and TableHeap's interning insert paths.

#include <gtest/gtest.h>

#include "asx/access_schema.h"
#include "engine/database.h"
#include "storage/string_dict.h"
#include "storage/table_heap.h"
#include "test_util.h"

namespace beas {
namespace {

using testing_util::I;
using testing_util::S;

TEST(StringDictTest, InternAssignsStableDenseCodesFirstAppearance) {
  StringDict dict;
  EXPECT_EQ(dict.Intern("a"), 0u);
  EXPECT_EQ(dict.Intern("b"), 1u);
  EXPECT_EQ(dict.Intern("a"), 0u);
  EXPECT_EQ(dict.Intern("c"), 2u);
  EXPECT_EQ(dict.size(), 3u);
  EXPECT_EQ(dict.str(0), "a");
  EXPECT_EQ(dict.str(1), "b");
  EXPECT_EQ(dict.str(2), "c");
}

TEST(StringDictTest, SurvivesGrowthWithStableReferences) {
  StringDict dict;
  const std::string& first = dict.str(dict.Intern("first"));
  std::vector<uint32_t> codes;
  for (int i = 0; i < 1000; ++i) {
    codes.push_back(dict.Intern("value_" + std::to_string(i)));
  }
  EXPECT_EQ(first, "first") << "deque storage keeps references stable";
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(dict.str(codes[i]), "value_" + std::to_string(i));
    EXPECT_EQ(dict.Intern("value_" + std::to_string(i)), codes[i]);
  }
}

TEST(StringDictTest, ByteExactForEmbeddedNulAndEmptyStrings) {
  // Dictionary round-trips are byte-exact, not C-string-exact: "a\0b",
  // "a\0c", "a" and "" are four distinct entries.
  StringDict dict;
  std::string nul_b("a\0b", 3);
  std::string nul_c("a\0c", 3);
  uint32_t c1 = dict.Intern(nul_b);
  uint32_t c2 = dict.Intern(nul_c);
  uint32_t c3 = dict.Intern("a");
  uint32_t c4 = dict.Intern("");
  EXPECT_EQ(dict.size(), 4u);
  EXPECT_NE(c1, c2);
  EXPECT_NE(c1, c3);
  EXPECT_NE(c3, c4);
  EXPECT_EQ(dict.str(c1), nul_b);
  EXPECT_EQ(dict.str(c1).size(), 3u);
  EXPECT_EQ(dict.str(c4), "");
  EXPECT_EQ(dict.Intern(nul_b), c1);
  EXPECT_EQ(dict.Intern(std::string()), c4);
}

TEST(StringDictTest, FindDoesNotInsert) {
  StringDict dict;
  uint32_t code = dict.Intern("present");
  EXPECT_EQ(dict.Find("present"), static_cast<int64_t>(code));
  EXPECT_EQ(dict.Find("absent"), -1);
  EXPECT_EQ(dict.size(), 1u);
}

TEST(StringDictTest, FindWithHashMatchesAndSkipsByteHashing) {
  StringDict dict;
  uint32_t code = dict.Intern("needle");
  uint64_t h = HashString("needle");
  uint64_t before = tls_hash_string_calls;
  EXPECT_EQ(dict.FindWithHash("needle", h), static_cast<int64_t>(code));
  EXPECT_EQ(dict.hash(code), h);
  EXPECT_EQ(tls_hash_string_calls, before);
}

// ---------------------------------------------------------------------------
// Dictionary-backed Values vs inline Values.
// ---------------------------------------------------------------------------

TEST(DictValueTest, EqualityHashAndRenderingMatchInline) {
  StringDict dict;
  for (const std::string& s :
       {std::string("plain"), std::string(""), std::string("a\0b", 3),
        std::string("longer string with spaces and \xc3\xa9 bytes")}) {
    Value inline_v = Value::String(s);
    Value dict_v = Value::DictString(&dict, dict.Intern(s));
    EXPECT_EQ(dict_v.type(), TypeId::kString);
    EXPECT_EQ(dict_v.AsString(), s);
    EXPECT_TRUE(dict_v == inline_v);
    EXPECT_TRUE(inline_v == dict_v);
    EXPECT_EQ(dict_v.Compare(inline_v), 0);
    EXPECT_EQ(dict_v.Hash(), inline_v.Hash())
        << "hash must be representation-independent";
    EXPECT_EQ(dict_v.ToString(), inline_v.ToString());
    EXPECT_EQ(dict_v.ToCsv(), inline_v.ToCsv());
  }
}

TEST(DictValueTest, EmbeddedNulValuesStayDistinct) {
  // The historical trap the dictionary must not reintroduce: values equal
  // as C strings but different as byte strings.
  StringDict dict;
  Value a = Value::DictString(&dict, dict.Intern(std::string("x\0y", 3)));
  Value b = Value::DictString(&dict, dict.Intern(std::string("x\0z", 3)));
  Value c = Value::DictString(&dict, dict.Intern("x"));
  EXPECT_FALSE(a == b);
  EXPECT_FALSE(a == c);
  EXPECT_NE(a.Hash(), b.Hash());
  EXPECT_LT(a.Compare(b), 0);
  // Inline twins agree on every verdict.
  EXPECT_TRUE(a == Value::String(std::string("x\0y", 3)));
  EXPECT_FALSE(a == Value::String(std::string("x\0z", 3)));
}

TEST(DictValueTest, SameDictEqualityIsCodeCompare) {
  StringDict dict;
  Value a = Value::DictString(&dict, dict.Intern("alpha"));
  Value b = Value::DictString(&dict, dict.Intern("beta"));
  Value a2 = Value::DictString(&dict, dict.Intern("alpha"));
  EXPECT_TRUE(a == a2);
  EXPECT_FALSE(a == b);
  // Cross-dictionary values of equal bytes compare equal (byte fallback).
  StringDict other;
  Value a3 = Value::DictString(&other, other.Intern("alpha"));
  EXPECT_TRUE(a == a3);
  EXPECT_EQ(a.Hash(), a3.Hash());
}

TEST(DictValueTest, OrderingDecodesBytesNotCodes) {
  // Codes are first-appearance; interning "zz" before "aa" must not make
  // "zz" order first.
  StringDict dict;
  Value zz = Value::DictString(&dict, dict.Intern("zz"));
  Value aa = Value::DictString(&dict, dict.Intern("aa"));
  EXPECT_LT(zz.dict_code(), aa.dict_code());
  EXPECT_GT(zz.Compare(aa), 0);
  EXPECT_LT(aa.Compare(zz), 0);
}

// ---------------------------------------------------------------------------
// TableHeap interning.
// ---------------------------------------------------------------------------

TEST(TableHeapDictTest, InsertInternsStringsAndSharesCodes) {
  TableHeap heap(Schema({{"k", TypeId::kString}, {"n", TypeId::kInt64}}));
  ASSERT_NE(heap.dict(), nullptr);
  ASSERT_TRUE(heap.Insert({S("dup"), I(1)}).ok());
  ASSERT_TRUE(heap.Insert({S("dup"), I(2)}).ok());
  ASSERT_TRUE(heap.Insert({S("other"), I(3)}).ok());
  EXPECT_EQ(heap.dict()->size(), 2u) << "duplicate strings intern once";
  const Value& v0 = heap.At(0)[0];
  const Value& v1 = heap.At(1)[0];
  EXPECT_EQ(v0.dict(), heap.dict());
  EXPECT_EQ(v0.dict_code(), v1.dict_code());
  EXPECT_EQ(v0.AsString(), "dup");
  // NULLs and non-strings pass through untouched.
  ASSERT_TRUE(heap.Insert({Value::Null(), I(4)}).ok());
  EXPECT_TRUE(heap.At(3)[0].is_null());
}

TEST(TableHeapDictTest, BatchInsertInternsAndCountsLikeRowInserts) {
  TableHeap heap(Schema({{"k", TypeId::kString}}));
  std::vector<Row> rows;
  for (int i = 0; i < 100; ++i) rows.push_back({S("s" + std::to_string(i % 7))});
  heap.InsertBatchUnchecked(std::move(rows));
  EXPECT_EQ(heap.NumRows(), 100u);
  ASSERT_NE(heap.dict(), nullptr);
  EXPECT_EQ(heap.dict()->size(), 7u);
}

TEST(TableHeapDictTest, NoDictForAllNumericTablesOrWhenDisabled) {
  TableHeap numeric(Schema({{"a", TypeId::kInt64}, {"b", TypeId::kDouble}}));
  EXPECT_EQ(numeric.dict(), nullptr);

  TableHeap disabled(Schema({{"k", TypeId::kString}}));
  disabled.set_dict_enabled(false);
  EXPECT_EQ(disabled.dict(), nullptr);
  ASSERT_TRUE(disabled.Insert({S("inline")}).ok());
  EXPECT_EQ(disabled.At(0)[0].dict(), nullptr)
      << "disabled heap stores inline strings";
}

TEST(TableHeapDictTest, DeleteKeepsDictEntriesAndReinsertReusesCode) {
  Database db;
  testing_util::MakeTable(&db, "t", Schema({{"k", TypeId::kString}}),
                          {{S("keep")}, {S("gone")}});
  TableHeap* heap = (*db.catalog()->GetTable("t"))->heap();
  ASSERT_TRUE(db.DeleteWhereEquals("t", {S("gone")}).ok());
  EXPECT_EQ(heap->dict()->size(), 2u) << "dictionary is append-only";
  ASSERT_TRUE(db.Insert("t", {S("gone")}).ok());
  EXPECT_EQ(heap->dict()->size(), 2u) << "re-insert reuses the old code";
}

// ---------------------------------------------------------------------------
// Order-preserving mode: sortedness tracking, the renumbering rebuild,
// and the code-bound search the range kernels build on.
// ---------------------------------------------------------------------------

TEST(SortedDictTest, TracksSortednessIncrementally) {
  StringDict dict;
  EXPECT_TRUE(dict.is_sorted()) << "empty dictionary is trivially sorted";
  dict.Intern("apple");
  dict.Intern("banana");
  dict.Intern("cherry");
  EXPECT_TRUE(dict.is_sorted()) << "appends in byte order keep the flag";
  EXPECT_EQ(dict.out_of_order_codes(), 0u);
  dict.Intern("aardvark");
  EXPECT_FALSE(dict.is_sorted());
  EXPECT_EQ(dict.out_of_order_codes(), 1u);
  dict.Intern("zebra");  // above the max: no additional debt
  EXPECT_EQ(dict.out_of_order_codes(), 1u);
  dict.Intern("mango");  // below the max: more debt
  EXPECT_EQ(dict.out_of_order_codes(), 2u);
}

TEST(SortedDictTest, SortedRebuildRenumbersIntoByteOrder) {
  StringDict dict;
  std::vector<std::string> words = {"delta", "alpha", "echo", "",
                                    std::string("a\0b", 3), "charlie"};
  std::vector<uint32_t> old_codes;
  for (const std::string& w : words) old_codes.push_back(dict.Intern(w));
  ASSERT_FALSE(dict.is_sorted());

  std::vector<uint32_t> old_to_new = dict.SortedRebuild();
  ASSERT_EQ(old_to_new.size(), words.size());
  EXPECT_TRUE(dict.is_sorted());
  EXPECT_EQ(dict.out_of_order_codes(), 0u);
  EXPECT_EQ(dict.rebuilds(), 1u);

  // The permutation maps every old code to the same bytes.
  for (size_t i = 0; i < words.size(); ++i) {
    EXPECT_EQ(dict.str(old_to_new[old_codes[i]]), words[i]);
  }
  // Codes are now in byte order, and Find/hash still work per string.
  for (uint32_t c = 0; c + 1 < dict.size(); ++c) {
    EXPECT_LT(dict.str(c), dict.str(c + 1));
  }
  for (const std::string& w : words) {
    int64_t code = dict.Find(w);
    ASSERT_GE(code, 0);
    EXPECT_EQ(dict.str(static_cast<uint32_t>(code)), w);
    EXPECT_EQ(dict.hash(static_cast<uint32_t>(code)), HashString(w));
  }
  // A second rebuild is a no-op.
  EXPECT_TRUE(dict.SortedRebuild().empty());
  EXPECT_EQ(dict.rebuilds(), 1u);

  // Sorted values compare by code — zero decodes.
  Value a = Value::DictString(&dict, static_cast<uint32_t>(dict.Find("alpha")));
  Value e = Value::DictString(&dict, static_cast<uint32_t>(dict.Find("echo")));
  uint64_t decodes_before = tls_string_order_decodes;
  EXPECT_LT(a.Compare(e), 0);
  EXPECT_GT(e.Compare(a), 0);
  EXPECT_EQ(tls_string_order_decodes, decodes_before);
}

TEST(SortedDictTest, LowerAndUpperBoundCodes) {
  StringDict dict;
  for (const char* w : {"b", "d", "f"}) dict.Intern(w);
  ASSERT_TRUE(dict.is_sorted());
  EXPECT_EQ(dict.LowerBoundCode("a"), 0u);
  EXPECT_EQ(dict.LowerBoundCode("b"), 0u);
  EXPECT_EQ(dict.LowerBoundCode("c"), 1u);
  EXPECT_EQ(dict.LowerBoundCode("g"), 3u);
  EXPECT_EQ(dict.UpperBoundCode("a"), 0u);
  EXPECT_EQ(dict.UpperBoundCode("b"), 1u);
  EXPECT_EQ(dict.UpperBoundCode("f"), 3u);
  EXPECT_EQ(dict.UpperBoundCode("g"), 3u);
}

TEST(SortedDictTest, HeapRebuildRemapsStoredRows) {
  TableHeap heap(Schema({{"k", TypeId::kString}, {"n", TypeId::kInt64}}));
  ASSERT_TRUE(heap.Insert({S("zulu"), I(1)}).ok());
  ASSERT_TRUE(heap.Insert({S("alpha"), I(2)}).ok());
  ASSERT_TRUE(heap.Insert({S("mike"), I(3)}).ok());
  ASSERT_FALSE(heap.dict()->is_sorted());

  std::vector<uint32_t> old_to_new;
  ASSERT_TRUE(heap.RebuildDictSorted(&old_to_new));
  EXPECT_TRUE(heap.dict()->is_sorted());
  // Rows decode to the same bytes through the new codes.
  EXPECT_EQ(heap.At(0)[0].AsString(), "zulu");
  EXPECT_EQ(heap.At(1)[0].AsString(), "alpha");
  EXPECT_EQ(heap.At(2)[0].AsString(), "mike");
  // And the stored codes now order like the bytes.
  EXPECT_LT(heap.At(1)[0].dict_code(), heap.At(2)[0].dict_code());
  EXPECT_LT(heap.At(2)[0].dict_code(), heap.At(0)[0].dict_code());
  // Already sorted: no further rebuild.
  EXPECT_FALSE(heap.RebuildDictSorted(&old_to_new));
  TableHeap::DictGauges gauges = heap.SampleDictGauges();
  EXPECT_TRUE(gauges.sorted);
  EXPECT_EQ(gauges.rebuilds, 1u);
}

TEST(SortedDictTest, CatalogRebuildRemapsAcIndexes) {
  Database db;
  testing_util::MakeTable(
      &db, "edges", Schema({{"src", TypeId::kString}, {"dst", TypeId::kString}}),
      {{S("w"), S("x")}, {S("b"), S("y")}, {S("b"), S("x")}, {S("m"), S("z")}});
  AsCatalog catalog(&db);
  ASSERT_TRUE(catalog.Register({"edge_ac", "edges", {"src"}, {"dst"}, 4}).ok());
  AcIndex* index = catalog.IndexFor("edge_ac");
  ASSERT_NE(index, nullptr);

  size_t invalidations = 0;
  catalog.AddChangeListener([&](AsCatalog::ChangeKind kind, const std::string&,
                                const std::string&) {
    if (kind == AsCatalog::ChangeKind::kDictRebuilt) ++invalidations;
  });

  auto lookup_b = [&]() {
    const TableHeap* heap = (*db.catalog()->GetTable("edges"))->heap();
    int64_t code = heap->dict()->Find("b");
    EXPECT_GE(code, 0);
    return index->LookupWithCounts(
        {Value::DictString(heap->dict(), static_cast<uint32_t>(code))});
  };
  AcIndex::BucketView before = lookup_b();
  ASSERT_EQ(before.size(), 2u);
  std::vector<std::string> before_y;
  for (size_t i = 0; i < before.size(); ++i) {
    before_y.emplace_back(before.at(i, 0).AsString());
  }

  auto rebuilt = catalog.RebuildTableDictSorted("edges");
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_TRUE(*rebuilt);
  EXPECT_EQ(invalidations, 1u);

  // Probes with fresh (post-rebuild) codes — and with inline strings —
  // find the same bucket, whose Y-projections decode to the same bytes.
  AcIndex::BucketView after = lookup_b();
  ASSERT_EQ(after.size(), 2u);
  for (size_t i = 0; i < after.size(); ++i) {
    EXPECT_EQ(after.at(i, 0).AsString(), before_y[i]);
    EXPECT_EQ(after.mult(i), before.mult(i));
  }
  AcIndex::BucketView inline_probe = index->LookupWithCounts({S("b")});
  EXPECT_EQ(inline_probe.size(), 2u);
  // Incremental maintenance keeps working on the renumbered index.
  ASSERT_TRUE(db.Insert("edges", {S("b"), S("q")}).ok());
  index->OnInsert((*db.catalog()->GetTable("edges"))->heap()->At(4));
  EXPECT_EQ(lookup_b().size(), 3u);
}

}  // namespace
}  // namespace beas
