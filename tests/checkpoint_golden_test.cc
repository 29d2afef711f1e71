// Checkpoint-format regression test: the segment payloads of a small fixed
// database state (checkpoint_fixture.h) must encode to exactly the
// committed golden bytes (an index payload's buckets in any order, each
// bucket's record byte for byte), and restoring from those bytes must
// reproduce the same state and the same bytes. In-memory layout changes
// (Value, AC-index storage, heap rows) must leave the on-disk format
// untouched.

#include <gtest/gtest.h>

#include <algorithm>

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

bool IsIndexPayload(const std::string& name) {
  return name.size() > 4 && name.compare(name.size() - 4, 4, ".idx") == 0;
}

/// An index payload split into its header (the constraint and the bucket
/// count) and the exact byte record of each bucket (key, entry count,
/// entries with multiplicities), the records sorted. Bucket visit order is
/// a property of the in-memory layout, not of the format — readers
/// address buckets only by key — while every byte of every record,
/// entry order included, is format and state.
struct IndexPayloadParts {
  std::string header;
  std::vector<std::string> records;
  bool operator==(const IndexPayloadParts& o) const {
    return header == o.header && records == o.records;
  }
};

IndexPayloadParts SplitIndexPayload(const std::string& payload) {
  IndexPayloadParts parts;
  durability::ByteReader r = ReaderOf(payload);
  auto offset = [&] { return payload.size() - r.remaining(); };
  EXPECT_TRUE(durability::ReadConstraint(&r).ok());
  uint64_t num_buckets = r.GetU64();
  parts.header = payload.substr(0, offset());
  for (uint64_t b = 0; b < num_buckets && r.ok(); ++b) {
    size_t begin = offset();
    EXPECT_TRUE(durability::ReadRow(&r).ok());
    uint32_t entries = r.GetU32();
    for (uint32_t e = 0; e < entries && r.ok(); ++e) {
      EXPECT_TRUE(durability::ReadRow(&r).ok());
      r.GetU64();
    }
    parts.records.push_back(payload.substr(begin, offset() - begin));
  }
  EXPECT_TRUE(r.ok() && r.AtEnd());
  std::sort(parts.records.begin(), parts.records.end());
  return parts;
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
  EXPECT_TRUE(heap->BeginRestore(meta->num_shards).ok());
  for (uint32_t s = 0; s < meta->num_shards; ++s) {
    Status parsed = durability::ParseShardRowsPayload(
        ReaderOf(GoldenBytes(name + ".s" + std::to_string(s))),
        [&](Row* row, bool live) {
          durability::CanonicalizeRow(row, heap->dict());
          return heap->RestoreRow(s, row, live);
        });
    EXPECT_TRUE(parsed.ok()) << parsed.ToString();
  }
  EXPECT_TRUE(heap->FinishRestore(meta->directory, meta->shard_key_col).ok());
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
      if (IsIndexPayload(p.name)) {
        EXPECT_TRUE(SplitIndexPayload(p.bytes) ==
                    SplitIndexPayload(FromHex(kGoldenPayloads[n].hex)))
            << p.name << " encodes to " << ToHex(p.bytes);
      } else {
        EXPECT_EQ(ToHex(p.bytes), kGoldenPayloads[n].hex) << p.name;
      }
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
    // Restore takes each sub-index's buckets as key ids in segment order,
    // so a restored index re-encodes to the very bytes it came from.
    for (const Payload& p : Encode(restored)) {
      EXPECT_EQ(ToHex(p.bytes), ToHex(GoldenBytes(p.name))) << p.name;
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

TEST(CheckpointGoldenTest, IndexEncodingIsDeterministic) {
  std::vector<FixtureTable> first = BuildAll();
  std::vector<FixtureTable> second = BuildAll();
  ASSERT_EQ(first.size(), second.size());
  for (size_t t = 0; t < first.size(); ++t) {
    SCOPED_TRACE(first[t].table->name());
    // The same write history encodes to the same bytes, bucket order
    // included.
    std::vector<Payload> a = Encode(first[t]);
    std::vector<Payload> b = Encode(second[t]);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(ToHex(a[i].bytes), ToHex(b[i].bytes)) << a[i].name;
    }
    // Two builds from one heap encode identically.
    const TableHeap& heap = *first[t].table->heap();
    for (const auto& index : first[t].indexes) {
      Result<std::unique_ptr<AcIndex>> x = AcIndex::Build(index->constraint(), heap);
      Result<std::unique_ptr<AcIndex>> y = AcIndex::Build(index->constraint(), heap);
      ASSERT_TRUE(x.ok() && y.ok());
      EXPECT_EQ(ToHex(durability::BuildIndexPayload(**x)),
                ToHex(durability::BuildIndexPayload(**y)))
          << index->constraint().name;
    }
  }
}

}  // namespace
}  // namespace checkpoint_fixture
}  // namespace beas
