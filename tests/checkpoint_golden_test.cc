// Checkpoint-format regression test: the segment payloads of a small fixed
// database state (checkpoint_fixture.h) must encode to exactly the
// committed golden bytes, and restoring from those bytes must reproduce the
// same state. In-memory layout changes (Value, AC-index buckets, heap
// rows) must leave the on-disk format untouched.

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "checkpoint_fixture.h"
#include "checkpoint_golden_data.h"
#include "durability/serde.h"

namespace beas {
namespace checkpoint_fixture {
namespace {

std::string FromHex(const std::string& hex) {
  std::string bytes;
  bytes.reserve(hex.size() / 2);
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    bytes.push_back(static_cast<char>(std::stoi(hex.substr(i, 2), nullptr, 16)));
  }
  return bytes;
}

std::string GoldenBytes(const std::string& name) {
  for (const GoldenPayload& p : kGoldenPayloads) {
    if (name == p.name) return FromHex(p.hex);
  }
  ADD_FAILURE() << "no golden payload " << name;
  return "";
}

durability::ByteReader ReaderOf(const std::string& bytes) {
  return durability::ByteReader(bytes.data(), bytes.size());
}

/// An index payload's buckets rendered one line each and sorted: bucket
/// visit order is hash-map order (a restore re-inserts in segment order),
/// while the entry order inside a bucket is state and must survive.
std::vector<std::string> BucketLines(const std::string& payload) {
  Result<durability::IndexRestore> parsed =
      durability::ParseIndexPayload(ReaderOf(payload));
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  std::vector<std::string> lines;
  if (!parsed.ok()) return lines;
  size_t arity = parsed->constraint.y_attrs.size();
  for (const AcIndex::RestoredBucket& b : parsed->buckets) {
    std::ostringstream line;
    line << RowToString(b.key) << " :";
    for (size_t i = 0; i < b.mults.size(); ++i) {
      Row y(b.cells.begin() + static_cast<ptrdiff_t>(i * arity),
            b.cells.begin() + static_cast<ptrdiff_t>((i + 1) * arity));
      line << " " << RowToString(y) << "x" << b.mults[i];
    }
    lines.push_back(line.str());
  }
  std::sort(lines.begin(), lines.end());
  return lines;
}

/// Rebuilds a fixture table from golden payloads, the way recovery does:
/// meta, dictionary, shard rows canonicalized against the dictionary,
/// then each index from its cells.
FixtureTable Restore(const FixtureTable& original) {
  const std::string& name = original.table->name();
  Result<durability::TableMetaRestore> meta =
      durability::ParseTableMetaPayload(ReaderOf(GoldenBytes(name + ".meta")));
  EXPECT_TRUE(meta.ok());
  FixtureTable out;
  out.table = std::make_unique<TableInfo>(name, meta->schema);
  TableHeap* heap = out.table->heap();
  if (meta->dict_enabled) {
    Result<durability::DictRestore> dict =
        durability::ParseDictPayload(ReaderOf(GoldenBytes(name + ".dict")));
    EXPECT_TRUE(dict.ok());
    EXPECT_TRUE(heap->RestoreDict(std::move(dict->strings), dict->sorted,
                                  dict->out_of_order, dict->rebuilds)
                    .ok());
  } else {
    heap->set_dict_enabled(false);
  }
  std::vector<std::vector<Row>> rows(meta->num_shards);
  std::vector<std::vector<uint8_t>> live(meta->num_shards);
  for (uint32_t s = 0; s < meta->num_shards; ++s) {
    Result<durability::ShardRowsRestore> shard =
        durability::ParseShardRowsPayload(
            ReaderOf(GoldenBytes(name + ".s" + std::to_string(s))));
    EXPECT_TRUE(shard.ok());
    for (Row& row : shard->rows) durability::CanonicalizeRow(&row, heap->dict());
    rows[s] = std::move(shard->rows);
    live[s] = std::move(shard->live);
  }
  EXPECT_TRUE(heap->RestoreContent(std::move(rows), std::move(live),
                                   meta->directory, meta->shard_key_col)
                  .ok());
  for (const auto& index : original.indexes) {
    Result<durability::IndexRestore> parsed = durability::ParseIndexPayload(
        ReaderOf(GoldenBytes(index->constraint().name + ".idx")));
    EXPECT_TRUE(parsed.ok());
    for (AcIndex::RestoredBucket& b : parsed->buckets) {
      durability::CanonicalizeRow(&b.key, heap->dict());
      durability::CanonicalizeRow(&b.cells, heap->dict());
    }
    Result<std::unique_ptr<AcIndex>> restored = AcIndex::Restore(
        parsed->constraint, *heap, std::move(parsed->buckets));
    EXPECT_TRUE(restored.ok()) << restored.status().ToString();
    out.indexes.push_back(std::move(*restored));
  }
  return out;
}

TEST(CheckpointGoldenTest, EncodingMatchesCommittedBytes) {
  std::vector<FixtureTable> all = BuildAll();
  size_t n = 0;
  for (const FixtureTable& t : all) {
    for (const Payload& p : Encode(t)) {
      ASSERT_LT(n, std::size(kGoldenPayloads));
      EXPECT_EQ(p.name, kGoldenPayloads[n].name);
      EXPECT_EQ(ToHex(p.bytes), kGoldenPayloads[n].hex) << p.name;
      ++n;
    }
  }
  EXPECT_EQ(n, std::size(kGoldenPayloads));
}

TEST(CheckpointGoldenTest, RestoreFromGoldenBytesRoundTrips) {
  std::vector<FixtureTable> all = BuildAll();
  for (const FixtureTable& original : all) {
    SCOPED_TRACE(original.table->name());
    FixtureTable restored = Restore(original);
    ASSERT_EQ(restored.indexes.size(), original.indexes.size());
    for (const Payload& p : Encode(restored)) {
      std::string golden = GoldenBytes(p.name);
      if (p.name.size() > 4 && p.name.compare(p.name.size() - 4, 4, ".idx") == 0) {
        EXPECT_EQ(BucketLines(p.bytes), BucketLines(golden)) << p.name;
      } else {
        EXPECT_EQ(ToHex(p.bytes), ToHex(golden)) << p.name;
      }
    }
    // Every bucket answers identically: same entries, order and weights.
    for (size_t i = 0; i < original.indexes.size(); ++i) {
      const AcIndex& a = *original.indexes[i];
      const AcIndex& b = *restored.indexes[i];
      EXPECT_EQ(a.NumKeys(), b.NumKeys());
      EXPECT_EQ(a.NumEntries(), b.NumEntries());
      a.ForEachBucket([&](const ValueVec& key, const AcIndex::BucketView& va) {
        AcIndex::BucketView vb = b.LookupWithCounts(key);
        ASSERT_EQ(va.size(), vb.size()) << RowToString(key);
        for (size_t e = 0; e < va.size(); ++e) {
          EXPECT_EQ(va.mult(e), vb.mult(e));
          for (size_t k = 0; k < va.arity; ++k) {
            EXPECT_EQ(va.at(e, k), vb.at(e, k)) << RowToString(key);
          }
        }
      });
    }
  }
}

}  // namespace
}  // namespace checkpoint_fixture
}  // namespace beas
