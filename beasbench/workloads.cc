// The benchmark's two data sets and their read templates:
//
//  * TLC at SF 32 (12,800 subscribers), read through the ten covered TLC
//    templates Q1-Q10 with parameters drawn over the whole domain — the
//    common point-read path, whose chains stay below the executor's
//    1024-key / 4096-row fan-out thresholds. Q11, the uncovered region
//    scan, is left out: one full scan would set the read p99 by itself.
//  * A string-keyed three-level edge graph with ~32-byte node names, read
//    through covered three-step chains that probe ~1,450 keys and gather
//    ~5,800 tuples in their last step, then end in GROUP BY / DISTINCT /
//    ORDER BY-LIMIT tails returning at most 100 rows — the other side of
//    the fan-out thresholds.
#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <unordered_set>

#include "bench.h"
#include "workload/tlc_access_schema.h"
#include "workload/tlc_generator.h"
#include "workload/tlc_schema.h"

namespace beasbench {
namespace {

using beas::Status;

std::string Format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));
std::string Format(const char* fmt, ...) {
  char buf[1024];
  va_list args;
  va_start(args, fmt);
  int n = std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  return std::string(buf, n < 0 ? 0 : std::min<size_t>(n, sizeof(buf) - 1));
}

// ---------------------------------------------------------------------------
// TLC point reads.
// ---------------------------------------------------------------------------

constexpr double kTlcScaleFactor = 32;
constexpr int kTlcSubscribers = 400 * 32;  // the generator's 400 per SF
constexpr int kTlcDays = 28;               // 2016-03-01 .. 2016-03-28
constexpr int kTlcPackages = 20;
const char* const kTlcTypes[] = {"bank",       "hospital", "school",
                                 "retail",     "restaurant", "pharmacy"};
constexpr int kTlcNumTypes = 6;
constexpr int kTlcNumRegions = 8;

std::string Day(int day) { return Format("2016-03-%02d", day); }
int64_t Pnum(int index) { return beas::kTlcProbePnum + index; }

class TlcWorkload : public Workload {
 public:
  double scale_factor() const override { return kTlcScaleFactor; }

  Status Load(beas::BeasService* svc, uint64_t seed, double* generate_s,
              double* index_s, uint64_t* rows) override {
    beas::TlcOptions options;
    options.scale_factor = kTlcScaleFactor;
    options.seed = seed;
    auto t0 = Clock::now();
    // Bulk load into the owned database: this bypasses the WAL, which is
    // why the durable workload checkpoints right after.
    BEAS_ASSIGN_OR_RETURN(beas::TlcStats stats,
                          beas::GenerateTlc(svc->db(), options));
    *generate_s = SecondsSince(t0);
    auto t1 = Clock::now();
    for (const beas::AccessConstraint& c : beas::TlcAccessConstraints()) {
      BEAS_RETURN_NOT_OK(svc->RegisterConstraint(c));
    }
    *index_s = SecondsSince(t1);
    *rows = stats.total_rows;
    return Status::OK();
  }

  Op Draw(beas::Rng* rng) const override {
    Op op;
    op.tmpl = static_cast<uint16_t>(rng->Uniform(0, 9));
    auto pnum = [&] {
      return static_cast<int32_t>(rng->Uniform(0, kTlcSubscribers - 1));
    };
    auto day = [&](int last) {
      return static_cast<int32_t>(rng->Uniform(1, last));
    };
    auto type = [&] {
      return static_cast<int32_t>(rng->Uniform(0, kTlcNumTypes - 1));
    };
    auto region = [&] {
      return static_cast<int32_t>(rng->Uniform(0, kTlcNumRegions - 1));
    };
    auto pid = [&] {
      return static_cast<int32_t>(rng->Uniform(1, kTlcPackages));
    };
    switch (op.tmpl) {
      case 0:
        op.p[0] = type();
        op.p[1] = region();
        op.p[2] = day(kTlcDays);
        op.p[3] = pid();
        break;
      case 2:  // three consecutive days
        op.p[0] = pnum();
        op.p[1] = day(kTlcDays - 2);
        break;
      case 5:  // seven consecutive days
        op.p[0] = pnum();
        op.p[1] = day(kTlcDays - 6);
        break;
      case 3:
      case 7:
        op.p[0] = pnum();
        break;
      case 6:
        op.p[0] = type();
        op.p[1] = region();
        break;
      case 9:
        op.p[0] = pid();
        break;
      default:  // Q2, Q5, Q9: subscriber-day
        op.p[0] = pnum();
        op.p[1] = day(kTlcDays);
        break;
    }
    return op;
  }

  bool Ordered(const Op& op) const override {
    return op.tmpl == 4 || op.tmpl == 9;
  }

  std::string Sql(const Op& op) const override {
    const int32_t* p = op.p;
    switch (op.tmpl) {
      case 0: {
        std::string d = Day(p[2]);
        return Format(
            "SELECT call.region FROM call, package, business "
            "WHERE business.type = '%s' AND business.region = 'R%d' "
            "AND business.pnum = call.pnum AND call.date = '%s' "
            "AND call.pnum = package.pnum AND package.year = 2016 "
            "AND package.start <= '%s' AND package.end >= '%s' "
            "AND package.pid = %d",
            kTlcTypes[p[0]], p[1] + 1, d.c_str(), d.c_str(), d.c_str(), p[3]);
      }
      case 1:
        return Format(
            "SELECT DISTINCT call.recnum FROM call WHERE call.pnum = %" PRId64
            " AND call.date = '%s'",
            Pnum(p[0]), Day(p[1]).c_str());
      case 2:
        return Format(
            "SELECT count(*) AS trips, sum(roaming.minutes) AS total_minutes "
            "FROM roaming WHERE roaming.pnum = %" PRId64
            " AND roaming.date IN ('%s', '%s', '%s')",
            Pnum(p[0]), Day(p[1]).c_str(), Day(p[1] + 1).c_str(),
            Day(p[1] + 2).c_str());
      case 3:
        return Format(
            "SELECT sum(payment.amount) AS total FROM customer, payment "
            "WHERE customer.pnum = %" PRId64
            " AND customer.cid = payment.cid AND payment.year = 2016",
            Pnum(p[0]));
      case 4:
        return Format(
            "SELECT call.region, count(*) AS calls FROM call "
            "WHERE call.pnum = %" PRId64
            " AND call.date = '%s' "
            "GROUP BY call.region ORDER BY calls DESC LIMIT 3",
            Pnum(p[0]), Day(p[1]).c_str());
      case 5: {
        std::string days;
        for (int i = 0; i < 7; ++i) {
          days += (i ? ", '" : "'") + Day(p[1] + i) + "'";
        }
        return Format(
            "SELECT avg(data_usage.mb_used) AS avg_mb FROM data_usage "
            "WHERE data_usage.pnum = %" PRId64 " AND data_usage.date IN (%s)",
            Pnum(p[0]), days.c_str());
      }
      case 6:
        return Format(
            "SELECT complaint.category, complaint.severity "
            "FROM business, customer, complaint "
            "WHERE business.type = '%s' AND business.region = 'R%d' "
            "AND business.pnum = customer.pnum "
            "AND customer.cid = complaint.cid AND complaint.severity >= 3",
            kTlcTypes[p[0]], p[1] + 1);
      case 7:
        return Format(
            "SELECT package.pid, package.fee FROM package "
            "WHERE package.pnum = %" PRId64
            " AND package.year = 2016 AND package.fee > 20.0",
            Pnum(p[0]));
      case 8:
        return Format(
            "SELECT handoff.tid, tower.capacity FROM handoff, tower "
            "WHERE handoff.pnum = %" PRId64
            " AND handoff.date = '%s' AND handoff.tid = tower.tid",
            Pnum(p[0]), Day(p[1]).c_str());
      default:
        return Format(
            "SELECT promotion.region, promotion.month, promotion.discount "
            "FROM promotion WHERE promotion.pid = %d "
            "AND promotion.month BETWEEN 1 AND 3 "
            "ORDER BY promotion.region, promotion.month",
            p[0]);
    }
  }
};

// ---------------------------------------------------------------------------
// Wide string-keyed chains.
// ---------------------------------------------------------------------------

constexpr int kRoots = 64;
constexpr int kLevel1 = 2048;
constexpr int kLevel2 = 8192;
constexpr int kLevel3 = 4096;
constexpr int kFan1 = 32;  // e1: root -> level-1
constexpr int kFan2 = 24;  // e2: level-1 -> level-2
constexpr int kFan3 = 4;   // e3: level-2 -> level-3

std::string Node(const char* level, int i) {
  return Format("%s_%05d_padpadpadpadpadpadpad", level, i);
}

class WideChainWorkload : public Workload {
 public:
  double scale_factor() const override { return 1; }

  Status Load(beas::BeasService* svc, uint64_t seed, double* generate_s,
              double* index_s, uint64_t* rows) override {
    auto t0 = Clock::now();
    beas::Schema edge({{"src", beas::TypeId::kString},
                       {"dst", beas::TypeId::kString}});
    beas::Rng rng(seed);
    struct Level {
      const char* table;
      const char* from;
      int from_count;
      const char* to;
      int to_count;
      int fan;
    };
    const Level levels[] = {{"e1", "root", kRoots, "l1", kLevel1, kFan1},
                            {"e2", "l1", kLevel1, "l2", kLevel2, kFan2},
                            {"e3", "l2", kLevel2, "l3", kLevel3, kFan3}};
    *rows = 0;
    for (const Level& level : levels) {
      BEAS_RETURN_NOT_OK(svc->CreateTable(level.table, edge).status());
      std::vector<beas::Row> batch;
      batch.reserve(static_cast<size_t>(level.from_count) * level.fan);
      for (int i = 0; i < level.from_count; ++i) {
        std::string src = Node(level.from, i);
        std::unordered_set<int64_t> seen;
        while (static_cast<int>(seen.size()) < level.fan) {
          int64_t j = rng.Uniform(0, level.to_count - 1);
          if (!seen.insert(j).second) continue;
          batch.push_back({beas::Value::String(src),
                           beas::Value::String(
                               Node(level.to, static_cast<int>(j)))});
        }
      }
      *rows += batch.size();
      BEAS_RETURN_NOT_OK(svc->InsertBatch(level.table, std::move(batch)));
    }
    *generate_s = SecondsSince(t0);
    auto t1 = Clock::now();
    BEAS_RETURN_NOT_OK(
        svc->RegisterConstraint({"wide1", "e1", {"src"}, {"dst"}, kFan1}));
    BEAS_RETURN_NOT_OK(
        svc->RegisterConstraint({"wide2", "e2", {"src"}, {"dst"}, kFan2}));
    BEAS_RETURN_NOT_OK(
        svc->RegisterConstraint({"wide3", "e3", {"src"}, {"dst"}, kFan3}));
    *index_s = SecondsSince(t1);
    return Status::OK();
  }

  Op Draw(beas::Rng* rng) const override {
    Op op;
    op.tmpl = static_cast<uint16_t>(rng->Uniform(0, 3));
    op.p[0] = static_cast<int32_t>(rng->Uniform(0, kRoots - 1));
    do {
      op.p[1] = static_cast<int32_t>(rng->Uniform(0, kRoots - 1));
    } while (op.p[1] == op.p[0]);
    op.p[2] = static_cast<int32_t>(
        op.tmpl == 2 ? rng->Uniform(0, kLevel2 - 1)
                     : rng->Uniform(0, kLevel3 - 65));
    return op;
  }

  bool Ordered(const Op& op) const override { return op.tmpl != 1; }

  std::string Sql(const Op& op) const override {
    std::string chain = "FROM e1 a, e2 b, e3 c WHERE a.src IN ('" +
                        Node("root", op.p[0]) + "', '" +
                        Node("root", op.p[1]) +
                        "') AND b.src = a.dst AND c.src = b.dst";
    std::string k = Node(op.tmpl == 2 ? "l2" : "l3", op.p[2]);
    switch (op.tmpl) {
      case 0:
        return "SELECT c.dst, count(*) AS n " + chain + " AND c.dst >= '" +
               k + "' GROUP BY c.dst ORDER BY 2 DESC, 1 LIMIT 50";
      case 1:
        return "SELECT DISTINCT c.dst " + chain + " AND c.dst >= '" + k +
               "' AND c.dst < '" + Node("l3", op.p[2] + 64) + "'";
      case 2:
        return "SELECT c.dst, b.dst " + chain + " AND b.dst <> '" + k +
               "' ORDER BY 1 DESC, 2 LIMIT 100";
      default:
        return "SELECT b.dst, count(*) AS n, count(DISTINCT c.dst) AS m " +
               chain + " AND c.dst >= '" + k +
               "' GROUP BY b.dst ORDER BY 2 DESC, 1 LIMIT 100";
    }
  }
};

}  // namespace

std::unique_ptr<Workload> MakeTlcWorkload() {
  return std::make_unique<TlcWorkload>();
}

std::unique_ptr<Workload> MakeWideChainWorkload() {
  return std::make_unique<WideChainWorkload>();
}

}  // namespace beasbench
