// Shared pieces of the product benchmark: the op model, answer
// fingerprints, the in-memory span recorder, and small statistics helpers.
#ifndef BEASBENCH_BENCH_H_
#define BEASBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "engine/query_result.h"
#include "service/beas_service.h"

namespace beasbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// One read: a template id plus its integer-coded parameters. Ops are kept
/// compact (the SQL text is rendered per send) so a long op stream costs
/// little memory next to the service under test.
struct Op {
  uint16_t tmpl = 0;
  int32_t p[4] = {0, 0, 0, 0};
};

/// Identity of an op's (template, parameter tuple), for repeat counting.
uint64_t OpKey(const Op& op);

/// What an answer must look like: its row count and a fingerprint of its
/// rows — order-sensitive when the query has an ORDER BY, a multiset hash
/// otherwise.
struct Answer {
  uint64_t rows = 0;
  uint64_t hash = 0;
  bool operator==(const Answer& o) const {
    return rows == o.rows && hash == o.hash;
  }
  bool operator!=(const Answer& o) const { return !(*this == o); }
};
Answer Fingerprint(const beas::QueryResult& result, bool ordered);

/// The reference for one distinct op, computed before the timed window on
/// the uncached path (bind, coverage check, bounded execution), with the
/// executor's counters for the workload-property and per-read figures.
struct Reference {
  Answer answer;
  uint64_t keys_probed = 0;
  uint64_t tuples_fetched = 0;
  uint64_t max_step_tuples = 0;  ///< largest single fetch step's gather
};

/// A workload's data and read templates. The service it loads into runs
/// with the program's defaults.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Creates and fills the tables, then registers the access constraints.
  /// Sets the generate / index-build seconds and the rows loaded.
  virtual beas::Status Load(beas::BeasService* svc, uint64_t seed,
                            double* generate_s, double* index_s,
                            uint64_t* rows) = 0;
  /// One read drawn uniformly from the workload's parameter domain.
  virtual Op Draw(beas::Rng* rng) const = 0;
  virtual std::string Sql(const Op& op) const = 0;
  /// True when the template ends in ORDER BY (answers compare in order).
  virtual bool Ordered(const Op& op) const = 0;
  /// Scale factor of the loaded data (reported in the fingerprint).
  virtual double scale_factor() const = 0;
};

std::unique_ptr<Workload> MakeTlcWorkload();
std::unique_ptr<Workload> MakeWideChainWorkload();

/// \name Span recorder of a traced run: the durations of each kind of
/// timed call, kept in memory until the run ends, then summarized.
/// @{
enum SpanName : uint8_t {
  kSpanMask = 0,       ///< MaskSqlLiterals
  kSpanCanonicalize,   ///< CanonicalizeTemplate + RenderTemplate
  kSpanEncodeRequest,  ///< EncodeQueryRequestFrame
  kSpanDecodeRequest,  ///< DecodeQueryRequest
  kSpanQuery,          ///< BeasService::Query, in process
  kSpanEncodeResponse, ///< EncodeResponseFrame
  kSpanDecodeResponse, ///< DecodeResponse
  kSpanWireQuery,      ///< net::Client::Query of the same op, one client
  kSpanCheck,          ///< BeasSession::Check on the bound query
  kSpanExecute,        ///< BoundedExecutor::Execute (fetch chain + tail)
  kSpanFetchChain,     ///< its fetch steps, from the executor's step timers
  kSpanTail,           ///< its relational tail, from the executor's timer
  kSpanInsert,         ///< BeasService::Insert ack, in process
  kSpanCheckpoint,     ///< BeasService::Checkpoint
  kSpanCount,
};
const char* SpanNameText(SpanName name);

/// Cache path a kSpanQuery took, from the response flags.
enum SpanTag : uint8_t {
  kTagNone = 0,
  kTagMiss,
  kTagPlanHit,
  kTagResultHit,
  kTagCount,
};

class Trace {
 public:
  void Add(SpanName name, double us, SpanTag tag = kTagNone) {
    us_[name][tag].push_back(us);
  }
  void Add(SpanName name, Clock::time_point start, Clock::time_point end,
           SpanTag tag = kTagNone) {
    Add(name, std::chrono::duration<double, std::micro>(end - start).count(),
        tag);
  }

  /// Median duration in microseconds of the spans named `name`, over all
  /// tags or only `tag`; 0 with no such span.
  double MedianUs(SpanName name) const;
  double MedianUs(SpanName name, SpanTag tag) const;
  size_t Count(SpanName name) const;

 private:
  std::vector<double> us_[kSpanCount][kTagCount];
};
/// @}

/// Per-layer figures from the in-process probes of a traced run.
struct ProbeFigures {
  size_t ops = 0;                 ///< sampled ops probed
  double wire_overhead_us = 0;    ///< median of (wire RTT - in-process Query)
  double codec_us = 0;            ///< median of the four codec calls per op
  double bytes_out_per_read = 0;  ///< NetGauges bytes_out delta per wire read
  double mask_us = 0;
  double canonicalize_us = 0;
  double result_hit_us = 0;
  double plan_hit_us = 0;
  double miss_us = 0;
  double check_us = 0;
  double fetch_chain_us = 0;
  double tail_us = 0;
  bool ok = true;
  std::string error;
};

/// Times the calls into each layer's public functions for `sample` ops on
/// the loaded service (no other traffic may run), recording spans into
/// `trace`. Clears the service's caches as it goes.
ProbeFigures ProbeLayers(beas::BeasService* svc, uint16_t port,
                         const Workload& workload,
                         const std::vector<Op>& sample, double max_seconds,
                         Trace* trace);

/// Nearest-rank percentile of an unsorted sample (copied); 0 when empty.
double Percentile(std::vector<double> values, double q);
double Median(std::vector<double> values);

/// Process peak resident set in bytes (VmHWM), and current (VmRSS).
uint64_t PeakRssBytes();
uint64_t RssBytes();

}  // namespace beasbench

#endif  // BEASBENCH_BENCH_H_
