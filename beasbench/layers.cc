// Per-layer probes of a traced run: the sampled ops are pushed through the
// public functions of one layer at a time, and every call is a span. The
// probes run on the loaded service after the timed window, with no other
// traffic, so the numbers split one read's work rather than a contended
// one's.

#include "bench.h"
#include "bounded/bounded_executor.h"
#include "net/client.h"
#include "net/protocol.h"
#include "sql/canonical_template.h"
#include "sql/sql_template.h"

namespace beasbench {
namespace {

double Us(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

SpanTag TagOf(const beas::QueryResponse& resp) {
  if (resp.result_cache_hit) return kTagResultHit;
  return resp.cache_hit ? kTagPlanHit : kTagMiss;
}

}  // namespace

ProbeFigures ProbeLayers(beas::BeasService* svc, uint16_t port,
                         const Workload& workload,
                         const std::vector<Op>& sample, double max_seconds,
                         Trace* trace) {
  ProbeFigures f;
  auto fail = [&](const std::string& what) {
    f.ok = false;
    if (f.error.empty()) f.error = what;
  };
  beas::net::Client client;
  if (!client.Connect("127.0.0.1", port).ok()) {
    fail("probe client cannot connect");
    return f;
  }
  beas::BoundedExecutor executor(svc->catalog());
  std::vector<beas::QueryRequest> requests;
  std::vector<double> codec_us;

  // Pass 1, per op: sql (masking, canonicalization and its rendering), the
  // net codec, and the bounded layer (the coverage search a plan-cache hit
  // skips, then one execution split by the executor's own step and tail
  // timers — the fetch chain's batch form is not public).
  auto t_begin = Clock::now();
  for (size_t i = 0; i < sample.size() && f.ok; ++i) {
    if (SecondsSince(t_begin) > max_seconds) break;
    uint32_t req = static_cast<uint32_t>(i + 1);
    beas::QueryRequest request;
    request.sql = workload.Sql(sample[i]);

    auto t0 = Clock::now();
    auto masked = beas::MaskSqlLiterals(request.sql);
    auto t1 = Clock::now();
    if (!masked.ok()) {
      fail("MaskSqlLiterals: " + masked.status().ToString());
      break;
    }
    trace->Add(kSpanMask, t0, t1);
    t0 = Clock::now();
    beas::CanonicalizedTemplate canon = beas::CanonicalizeTemplate(*masked);
    auto rendered = beas::RenderTemplate(canon.tmpl);
    t1 = Clock::now();
    if (!rendered.ok()) {
      fail("RenderTemplate: " + rendered.status().ToString());
      break;
    }
    trace->Add(kSpanCanonicalize, t0, t1);

    double codec = 0;
    t0 = Clock::now();
    std::string frame = beas::net::EncodeQueryRequestFrame(req, request);
    t1 = Clock::now();
    trace->Add(kSpanEncodeRequest, t0, t1);
    codec += Us(t0, t1);
    t0 = Clock::now();
    auto decoded = beas::net::DecodeQueryRequest(
        reinterpret_cast<const uint8_t*>(frame.data()) +
            beas::net::kFrameHeaderSize,
        frame.size() - beas::net::kFrameHeaderSize);
    t1 = Clock::now();
    if (!decoded.ok() || decoded->sql != request.sql) {
      fail("DecodeQueryRequest did not round-trip");
      break;
    }
    trace->Add(kSpanDecodeRequest, t0, t1);
    codec += Us(t0, t1);

    auto answer = svc->Query(request);
    if (!answer.ok()) {
      fail("Query: " + answer.status().ToString());
      break;
    }
    beas::net::WireResponse wire;
    wire.response = std::move(*answer);
    t0 = Clock::now();
    std::string resp_frame = beas::net::EncodeResponseFrame(req, wire);
    t1 = Clock::now();
    trace->Add(kSpanEncodeResponse, t0, t1);
    codec += Us(t0, t1);
    t0 = Clock::now();
    auto resp_decoded = beas::net::DecodeResponse(
        reinterpret_cast<const uint8_t*>(resp_frame.data()) +
            beas::net::kFrameHeaderSize,
        resp_frame.size() - beas::net::kFrameHeaderSize);
    t1 = Clock::now();
    if (!resp_decoded.ok() || resp_decoded->response.result.rows.size() !=
                                  wire.response.result.rows.size()) {
      fail("DecodeResponse did not round-trip");
      break;
    }
    trace->Add(kSpanDecodeResponse, t0, t1);
    codec += Us(t0, t1);
    codec_us.push_back(codec);

    auto bound = svc->db()->Bind(request.sql);
    if (!bound.ok()) {
      fail("Bind: " + bound.status().ToString());
      break;
    }
    t0 = Clock::now();
    auto coverage = svc->session().Check(*bound);
    t1 = Clock::now();
    if (!coverage.ok() || !coverage->covered) {
      fail("Check: query not covered");
      break;
    }
    trace->Add(kSpanCheck, t0, t1);
    t0 = Clock::now();
    auto executed = executor.Execute(*bound, coverage->plan);
    t1 = Clock::now();
    if (!executed.ok() || executed->stats.children.empty()) {
      fail("Execute failed or reported no steps");
      break;
    }
    trace->Add(kSpanExecute, t0, t1);
    // Children: one entry per fetch step, then the relational tail.
    const std::vector<beas::OperatorStats>& parts =
        executed->stats.children;
    double chain_ms = 0;
    for (size_t k = 0; k + 1 < parts.size(); ++k) {
      chain_ms += parts[k].self_millis;
    }
    trace->Add(kSpanFetchChain, 1000 * chain_ms);
    trace->Add(kSpanTail, 1000 * parts.back().self_millis);
    requests.push_back(std::move(request));
  }
  f.ops = requests.size();

  // Pass 2: the service in process and over one connection, result cache
  // off so both take the plan-cache path; back to back per op so the
  // server's threads are as warm as the in-process call's.
  std::vector<double> overhead_us;
  svc->set_result_cache_enabled(false);
  uint64_t bytes_before = svc->net_gauges()->bytes_out_total.load();
  for (size_t i = 0; i < f.ops && f.ok; ++i) {
    double local_us = 0, wire_us = 0;
    for (int leg = 0; leg < 2; ++leg) {
      bool in_process = (leg == 0) == (i % 2 == 0);
      auto t0 = Clock::now();
      auto resp = in_process ? svc->Query(requests[i])
                             : client.Query(requests[i]);
      auto t1 = Clock::now();
      if (!resp.ok()) {
        fail(std::string(in_process ? "Query: " : "wire Query: ") +
             resp.status().ToString());
        break;
      }
      if (in_process) {
        trace->Add(kSpanQuery, t0, t1, TagOf(*resp));
        local_us = Us(t0, t1);
      } else {
        trace->Add(kSpanWireQuery, t0, t1);
        wire_us = Us(t0, t1);
      }
    }
    overhead_us.push_back(wire_us - local_us);
  }
  uint64_t bytes_after = svc->net_gauges()->bytes_out_total.load();

  // Pass 3: plan-cache misses, each on a cleared plan cache.
  for (size_t i = 0; i < f.ops && f.ok; i += 8) {
    svc->ClearCache();
    auto t0 = Clock::now();
    auto resp = svc->Query(requests[i]);
    auto t1 = Clock::now();
    if (!resp.ok()) {
      fail("miss Query: " + resp.status().ToString());
      break;
    }
    trace->Add(kSpanQuery, t0, t1, TagOf(*resp));
  }

  // Pass 4: result-cache hits — the first call stores the answer, the
  // repeat is served from it.
  svc->set_result_cache_enabled(true);
  svc->ClearResultCache();
  for (size_t i = 0; i < f.ops && f.ok; ++i) {
    auto first = svc->Query(requests[i]);
    auto t0 = Clock::now();
    auto resp = svc->Query(requests[i]);
    auto t1 = Clock::now();
    if (!first.ok() || !resp.ok()) {
      fail("repeat Query failed");
      break;
    }
    trace->Add(kSpanQuery, t0, t1, TagOf(*resp));
  }
  svc->ClearResultCache();

  f.wire_overhead_us = Median(overhead_us);
  f.codec_us = Median(codec_us);
  f.bytes_out_per_read =
      f.ops == 0 ? 0
                 : static_cast<double>(bytes_after - bytes_before) /
                       static_cast<double>(f.ops);
  f.mask_us = trace->MedianUs(kSpanMask);
  f.canonicalize_us = trace->MedianUs(kSpanCanonicalize);
  f.result_hit_us = trace->MedianUs(kSpanQuery, kTagResultHit);
  f.plan_hit_us = trace->MedianUs(kSpanQuery, kTagPlanHit);
  f.miss_us = trace->MedianUs(kSpanQuery, kTagMiss);
  f.check_us = trace->MedianUs(kSpanCheck);
  f.fetch_chain_us = trace->MedianUs(kSpanFetchChain);
  f.tail_us = trace->MedianUs(kSpanTail);
  if (f.ops == 0) fail("no op was probed");
  return f;
}

}  // namespace beasbench
