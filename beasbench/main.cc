// beasbench: the product-level benchmark of BEAS. Every workload runs
// against a loopback BNW1 server over the public BeasService and
// net::Client API from this one process, checks every answer against a
// reference computed on the uncached path before the timed window, and
// prints its metrics; the last line of standard output is one JSON object.
//
//   beasbench --workload tlc_point|tlc_hot_rw|wide_chain --seed N
//             --seconds S --trace 0|1 --data-dir DIR [--break-reference]
//
// --trace 0 prints the end-to-end metrics, measured with tracing off.
// --trace 1 is the separate traced run: it prints the per-layer metrics,
// from spans kept in memory until the end. Its window records no spans
// (the probes run after it), so tracing adds nothing to its read times.
// --break-reference corrupts one reference answer; the run must then
// report itself incorrect (the answer check's self-check).
// See beasbench/README.md.
#include <sys/statfs.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench.h"
#include "bounded/bounded_executor.h"
#include "net/client.h"
#include "net/server.h"
#include "service/result_cache.h"

namespace beasbench {
namespace {

using beas::BeasService;

// setup_s is the median of several setups in two bursts, one before the
// run and one as long after it: at least kMinBurstReps setups a burst, more
// while the first burst adds up to less than kBurstSeconds (cheap setups
// are noisier). The machine's speed drifts over seconds, so measurements
// spread over the run agree better between runs than back-to-back ones.
constexpr int kMinBurstReps = 2;
constexpr int kMaxBurstReps = 8;
constexpr double kBurstSeconds = 1;
constexpr int kSlices = 20;          // the window is cut into this many
constexpr double kWarmupSeconds = 0.5;
constexpr size_t kConnections = 2;   // closed-loop reader connections
constexpr size_t kHotTuples = 256;   // tlc_hot_rw's hot parameter tuples
constexpr double kZipfExponent = 1.1;
constexpr size_t kWriteWindow = 8;   // pipelined inserts kept in flight
constexpr int64_t kWriterPnumBase = 90000000;  // never read by the mix
constexpr size_t kProbeOps = 400;    // per-layer probe sample
constexpr double kProbeSeconds = 6;
constexpr size_t kInsertProbes = 200;
// In-process replay: each read's minimum over passes in two clusters of this
// many, before the window and after it, for the same reason.
constexpr int kReplayCluster = 2;
constexpr uint64_t kFanoutKeys = 1024;    // executor probe fan-out threshold
constexpr uint64_t kFanoutTuples = 4096;  // executor gather fan-out threshold

enum class Kind { kTlcPoint, kTlcHotRw, kWideChain };

struct Args {
  std::string workload;
  Kind kind = Kind::kTlcPoint;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string data_dir;
  bool break_reference = false;
};

int Usage() {
  std::fprintf(stderr,
               "usage: beasbench --workload tlc_point|tlc_hot_rw|wide_chain "
               "--seed N --seconds S --trace 0|1 --data-dir DIR "
               "[--break-reference]\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--break-reference") {
      a->break_reference = true;
      continue;
    }
    if (v == nullptr) return false;
    ++i;
    if (arg == "--workload") {
      a->workload = v;
    } else if (arg == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds") {
      a->seconds = std::atof(v);
    } else if (arg == "--trace") {
      a->trace = std::atoi(v) != 0;
    } else if (arg == "--data-dir") {
      a->data_dir = v;
    } else {
      return false;
    }
  }
  if (a->workload == "tlc_point") {
    a->kind = Kind::kTlcPoint;
  } else if (a->workload == "tlc_hot_rw") {
    a->kind = Kind::kTlcHotRw;
  } else if (a->workload == "wide_chain") {
    a->kind = Kind::kWideChain;
  } else {
    return false;
  }
  return a->seconds > 0 && !a->data_dir.empty();
}

/// Reads per second the op stream is sized for: about 2.5 times what the
/// workload reaches on a 4-core box (more would lengthen the reference
/// pass, which is most of a wide_chain run), and fifty times on
/// tlc_hot_rw, whose reads wait on the writer there and whose stream costs
/// almost nothing (256 distinct ops). A stream that runs out anyway fails
/// the run, so the window never shrinks silently; a build that fast raises
/// these.
double StreamRate(Kind kind) {
  switch (kind) {
    case Kind::kTlcPoint:
      return 48000;
    case Kind::kTlcHotRw:
      return 200000;
    default:
      return 1100;
  }
}

/// Reads of the in-process replay, one thread: about 0.6 s a pass on a
/// 4-core box.
size_t ReplayReads(Kind kind) {
  return kind == Kind::kWideChain ? 200 : 20000;
}

std::string FilesystemOf(const std::string& path) {
  struct statfs fs;
  if (::statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<uint64_t>(fs.f_type)) {
    case 0x01021994:
      return "tmpfs";
    case 0xEF53:
      return "ext4";
    case 0x58465342:
      return "xfs";
    case 0x9123683E:
      return "btrfs";
    case 0x794C7630:
      return "overlayfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%" PRIx64,
                    static_cast<uint64_t>(fs.f_type));
      return buf;
    }
  }
}

/// The op stream: distinct ops, their references, and the order they are
/// sent in (indices into `ops`). The window sends order[0, window_end);
/// the rest is the in-process replay's.
struct Stream {
  std::vector<Op> ops;
  std::vector<Reference> refs;
  std::vector<uint32_t> order;
  size_t window_end = 0;
};

Stream MakeStream(const Args& args, const Workload& w) {
  Stream s;
  beas::Rng rng(args.seed * 0x9E3779B97F4A7C15ULL + 17);
  s.window_end = static_cast<size_t>(StreamRate(args.kind) *
                                     (args.seconds + kWarmupSeconds));
  size_t n = s.window_end + ReplayReads(args.kind);
  s.order.reserve(n);
  std::unordered_map<uint64_t, uint32_t> index;
  auto intern = [&](const Op& op) {
    auto it = index.emplace(OpKey(op), static_cast<uint32_t>(s.ops.size()));
    if (it.second) s.ops.push_back(op);
    return it.first->second;
  };
  if (args.kind == Kind::kTlcHotRw) {
    while (s.ops.size() < kHotTuples) intern(w.Draw(&rng));
    // Zipf ranks go round-robin over the templates, so every seed's
    // heaviest ranks mix the templates alike; a seed whose top tuple
    // happened to be a large answer would otherwise set the replay's mean.
    std::vector<std::pair<uint32_t, Op>> ranked;
    std::map<uint16_t, uint32_t> drawn;
    for (const Op& op : s.ops) {
      ranked.push_back({(drawn[op.tmpl]++ << 16) | op.tmpl, op});
    }
    std::stable_sort(ranked.begin(), ranked.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    for (size_t k = 0; k < kHotTuples; ++k) s.ops[k] = ranked[k].second;
    std::vector<double> cdf(kHotTuples);
    double total = 0;
    for (size_t k = 0; k < kHotTuples; ++k) {
      total += 1.0 / std::pow(static_cast<double>(k + 1), kZipfExponent);
      cdf[k] = total;
    }
    for (size_t i = 0; i < n; ++i) {
      double u = rng.UniformReal(0, total);
      size_t k = static_cast<size_t>(
          std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
      s.order.push_back(static_cast<uint32_t>(std::min(k, kHotTuples - 1)));
    }
  } else {
    for (size_t i = 0; i < n; ++i) s.order.push_back(intern(w.Draw(&rng)));
  }
  return s;
}

/// References on the uncached path: bind, coverage check, bounded
/// execution — BeasSession::Execute's covered route, with the executor's
/// counters kept. Runs before the timed window, in parallel.
bool ComputeReferences(BeasService* svc, const Workload& w, Stream* s,
                       std::string* error) {
  s->refs.assign(s->ops.size(), Reference{});
  std::atomic<size_t> next{0};
  std::mutex error_mutex;
  auto worker = [&] {
    beas::BoundedExecutor executor(svc->catalog());
    for (size_t i = next++; i < s->ops.size(); i = next++) {
      const Op& op = s->ops[i];
      std::string sql = w.Sql(op);
      auto fail = [&](const std::string& what) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (error->empty()) *error = what + " for: " + sql;
      };
      auto bound = svc->db()->Bind(sql);
      if (!bound.ok()) {
        fail("bind failed (" + bound.status().ToString() + ")");
        continue;
      }
      auto coverage = svc->session().Check(*bound);
      if (!coverage.ok() || !coverage->covered) {
        fail("not covered");
        continue;
      }
      beas::BoundedExecStats stats;
      auto result = executor.Execute(*bound, coverage->plan, {}, &stats);
      if (!result.ok()) {
        fail("reference execution failed (" + result.status().ToString() +
             ")");
        continue;
      }
      Reference& ref = s->refs[i];
      ref.answer = Fingerprint(*result, w.Ordered(op));
      ref.keys_probed = stats.keys_probed;
      ref.tuples_fetched = stats.tuples_fetched;
      for (const beas::OperatorStats& step : stats.root.children) {
        ref.max_step_tuples = std::max(ref.max_step_tuples,
                                       step.tuples_accessed);
      }
    }
  };
  size_t threads = std::max<size_t>(
      1, std::min<size_t>(4, std::thread::hardware_concurrency()));
  std::vector<std::thread> pool;
  for (size_t t = 0; t < threads; ++t) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
  return error->empty();
}

/// CPU time of the whole process, all threads (the executor's probe pool
/// included). Time the hypervisor gave to other guests is not in it.
double ProcessCpuSeconds() {
  struct timespec ts;
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

/// Per-read figures of the in-process replay: each the read's minimum over
/// the passes, so a pass that the machine slowed does not count.
struct Replay {
  std::vector<double> wall_us;
  std::vector<double> cpu_us;
  uint64_t reads = 0;  ///< reads issued over all passes
  int passes = 0;
};

/// Replays the stream's reads past the window's share through
/// BeasService::Query on one thread, `passes` times, with no other traffic
/// and the result cache cleared before each pass and after the last: the
/// read path without the wire or any thread hand-off, on work that depends
/// only on the seed. Counts wrong answers into `*wrong`.
void InProcessReplay(BeasService* svc, const Workload& w, const Stream& s,
                     int passes, Replay* r, uint64_t* wrong) {
  size_t n = s.order.size() - s.window_end;
  r->wall_us.resize(n, 1e300);
  r->cpu_us.resize(n, 1e300);
  beas::QueryRequest request;
  for (int pass = 0; pass < passes; ++pass, ++r->passes) {
    svc->ClearResultCache();
    for (size_t i = 0; i < n; ++i) {
      uint32_t o = s.order[s.window_end + i];
      request.sql = w.Sql(s.ops[o]);
      double c0 = ProcessCpuSeconds();
      auto a = Clock::now();
      auto resp = svc->Query(request);
      auto b = Clock::now();
      double c1 = ProcessCpuSeconds();
      ++r->reads;
      if (!resp.ok() ||
          Fingerprint(resp->result, w.Ordered(s.ops[o])) != s.refs[o].answer) {
        ++*wrong;
      }
      r->wall_us[i] = std::min(
          r->wall_us[i],
          std::chrono::duration<double, std::micro>(b - a).count());
      r->cpu_us[i] = std::min(r->cpu_us[i], 1e6 * (c1 - c0));
    }
  }
  svc->ClearResultCache();
}

double Mean(const std::vector<double>& values) {
  double sum = 0;
  for (double v : values) sum += v;
  return values.empty() ? 0 : sum / static_cast<double>(values.size());
}

/// One timed operation: when it completed (seconds since the window
/// opened; negative during warm-up) and how long it took.
struct Sample {
  float done_s = 0;
  float latency_ms = 0;
};

struct ReaderLog {
  std::vector<Sample> samples;
  uint64_t wrong = 0;
  uint64_t refused = 0;
  uint64_t result_hits = 0;
  std::map<std::string, uint64_t> refusals;  ///< status name -> count
};

struct WriterLog {
  std::vector<Sample> samples;
  std::vector<uint64_t> acked_keys;
  uint64_t sent = 0;
  uint64_t failed = 0;
  std::string error;
};

/// Row `key` of the CDR feed: 4 rows per (subscriber, day) and 112 per
/// subscriber, on subscriber numbers the read mix never touches.
beas::Row CallRow(uint64_t key) {
  int day = 1 + static_cast<int>((key / 4) % 28);
  return {beas::Value::Int64(kWriterPnumBase + static_cast<int64_t>(key / 112)),
          beas::Value::Int64(static_cast<int64_t>(key)),
          beas::Value::Date(20160300 + day),
          beas::Value::String("R1"),
          beas::Value::Int64(60),
          beas::Value::Double(1.0),
          beas::Value::Int64(1),
          beas::Value::Int64(static_cast<int64_t>(key))};
}

/// Machine-wide CPU jiffies from /proc/stat: {steal, total}. Steal is
/// time the hypervisor ran something else while a vCPU wanted to run.
std::pair<double, double> CpuSteal() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return {0, 0};
  double v[10] = {0};
  int n = std::fscanf(f, "cpu %lf %lf %lf %lf %lf %lf %lf %lf %lf %lf", &v[0],
                      &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7], &v[8],
                      &v[9]);
  std::fclose(f);
  double total = 0;
  for (int i = 0; i < std::min(n, 8); ++i) total += v[i];
  return {n >= 8 ? v[7] : 0, total};
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Progress on standard error, so a stalled run shows where it stopped.
void Phase(Clock::time_point t0, const char* what) {
  std::fprintf(stderr, "beasbench: %7.2f s  %s\n", SecondsSince(t0), what);
}

struct Window {
  Clock::time_point open;  ///< start of the measured part (after warm-up)
  double seconds = 0;      ///< measured length
  bool exhausted = false;  ///< the op stream ran out before the deadline
  size_t reads = 0;        ///< reads sent = stream prefix consumed
  std::vector<ReaderLog> readers;
  WriterLog writer;
  /// Per slice: the machine's steal share (see CpuSteal) and this
  /// process's CPU seconds.
  std::vector<double> slice_steal;
  std::vector<double> slice_cpu;
};

/// Closed-loop readers (and, on tlc_hot_rw, the pipelined writer) over
/// loopback for warm-up + `seconds`.
Window RunWindow(const Args& args, const Workload& w, const Stream& s,
                 uint16_t port) {
  Window win;
  win.readers.resize(kConnections);
  std::atomic<size_t> next{0};
  std::atomic<bool> exhausted{false};
  auto start = Clock::now();
  win.open = start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(kWarmupSeconds));
  auto deadline = win.open + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(args.seconds));
  double slice_s = args.seconds / kSlices;
  auto since_open = [&](Clock::time_point t) {
    return std::chrono::duration<double>(t - win.open).count();
  };

  auto reader = [&](size_t c) {
    ReaderLog& log = win.readers[c];
    log.samples.reserve(s.window_end / kConnections + 1024);
    beas::net::Client client;
    if (!client.Connect("127.0.0.1", port).ok()) {
      log.refusals["connect"]++;
      log.refused++;
      return;
    }
    beas::QueryRequest request;
    for (;;) {
      auto t_send = Clock::now();
      if (t_send >= deadline || exhausted.load()) break;
      size_t i = next++;
      if (i >= s.window_end) {
        exhausted = true;
        break;
      }
      uint32_t o = s.order[i];
      request.sql = w.Sql(s.ops[o]);
      t_send = Clock::now();
      auto resp = client.Query(request);
      auto t_done = Clock::now();
      double at = since_open(t_done);
      log.samples.push_back(
          {static_cast<float>(at),
           static_cast<float>(
               std::chrono::duration<double, std::milli>(t_done - t_send)
                   .count())});
      if (!resp.ok()) {
        log.refused++;
        log.refusals[beas::StatusCodeName(resp.status().code())]++;
        continue;
      }
      if (resp->result_cache_hit) log.result_hits++;
      if (Fingerprint(resp->result, w.Ordered(s.ops[o])) !=
          s.refs[o].answer) {
        log.wrong++;
      }
    }
  };

  auto writer = [&] {
    WriterLog& log = win.writer;
    beas::net::Client client;
    if (!client.Connect("127.0.0.1", port).ok()) {
      log.error = "writer cannot connect";
      return;
    }
    struct Pending {
      Clock::time_point sent;
      uint64_t key;
    };
    std::unordered_map<uint32_t, Pending> pending;
    uint64_t next_key = 0;
    for (;;) {
      bool open = Clock::now() < deadline;
      while (open && pending.size() < kWriteWindow) {
        uint64_t key = next_key++;
        auto t = Clock::now();
        auto id = client.SendInsert("call", {CallRow(key)});
        if (!id.ok()) {
          log.error = "SendInsert: " + id.status().ToString();
          return;
        }
        ++log.sent;
        pending[*id] = {t, key};
      }
      if (pending.empty()) break;
      auto resp = client.ReadResponse();
      auto t_done = Clock::now();
      if (!resp.ok()) {
        log.error = "ReadResponse: " + resp.status().ToString();
        return;
      }
      auto it = pending.find(resp->first);
      if (it == pending.end()) {
        log.error = "ack for an unknown request id";
        return;
      }
      const beas::net::WireResponse& wr = resp->second;
      if (!wr.status.ok() || wr.rows_inserted != 1) {
        ++log.failed;
      } else {
        log.acked_keys.push_back(it->second.key);
        log.samples.push_back(
            {static_cast<float>(since_open(t_done)),
             static_cast<float>(std::chrono::duration<double, std::milli>(
                                    t_done - it->second.sent)
                                    .count())});
      }
      pending.erase(it);
    }
  };

  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    std::pair<double, double> prev{0, 0};
    double prev_cpu = 0;
    for (int k = 0; k <= kSlices; ++k) {
      std::this_thread::sleep_until(
          win.open + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(k * slice_s)));
      std::pair<double, double> now = CpuSteal();
      double cpu = ProcessCpuSeconds();
      if (k > 0) {
        double d = now.second - prev.second;
        win.slice_steal.push_back(d > 0 ? (now.first - prev.first) / d : 0);
        win.slice_cpu.push_back(cpu - prev_cpu);
      }
      prev = now;
      prev_cpu = cpu;
    }
  });
  for (size_t c = 0; c < kConnections; ++c) threads.emplace_back(reader, c);
  if (args.kind == Kind::kTlcHotRw) threads.emplace_back(writer);
  for (std::thread& t : threads) t.join();
  win.reads = std::min(next.load(), s.window_end);
  win.exhausted = exhausted.load();
  win.seconds = args.seconds;
  return win;
}

/// Figures of one sample set over a chosen subset of the window's slices.
struct SliceStats {
  double rate = 0;  ///< median of the chosen slices' completions per second
  double p50 = 0;   ///< percentiles pooled over the chosen slices
  double p99 = 0;
  double p999 = 0;
  size_t n = 0;     ///< samples in the chosen slices
};

/// Whole slices in the measured window.
int SliceCount(const Window& win, double slice_s) {
  return static_cast<int>(std::lround(win.seconds / slice_s));
}

std::vector<int> AllSlices(const Window& win, double slice_s) {
  std::vector<int> out(SliceCount(win, slice_s));
  for (size_t k = 0; k < out.size(); ++k) out[k] = static_cast<int>(k);
  return out;
}

/// The quietest quarter of the window's slices, ranked by the machine's
/// CPU steal in each: on a shared host, other tenants' bursts then do not
/// set the figures, while a program that is slow all the time still shows.
std::vector<int> QuietSlices(const Window& win, double slice_s) {
  std::vector<int> order = AllSlices(win, slice_s);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    auto steal = [&](int k) {
      return static_cast<size_t>(k) < win.slice_steal.size()
                 ? win.slice_steal[k]
                 : 0.0;
    };
    return steal(a) < steal(b);
  });
  order.resize((order.size() + 3) / 4);
  return order;
}

SliceStats Slices(const std::vector<const std::vector<Sample>*>& logs,
                  const Window& win, double slice_s,
                  const std::vector<int>& chosen) {
  SliceStats out;
  int slices = SliceCount(win, slice_s);
  std::vector<char> take(slices, 0);
  for (int k : chosen) take[k] = 1;
  std::vector<double> count(slices, 0), lat;
  for (const std::vector<Sample>* log : logs) {
    for (const Sample& x : *log) {
      if (x.done_s < 0 || x.done_s >= win.seconds) continue;
      int k = std::min(slices - 1, static_cast<int>(x.done_s / slice_s));
      if (!take[k]) continue;
      count[k] += 1;
      lat.push_back(x.latency_ms);
    }
  }
  std::vector<double> rate;
  for (int k : chosen) rate.push_back(count[k] / slice_s);
  out.rate = Median(rate);
  out.p50 = Percentile(lat, 0.5);
  out.p99 = Percentile(lat, 0.99);
  out.p999 = Percentile(lat, 0.999);
  out.n = lat.size();
  return out;
}

/// "p50 X ms, p99 Y ms (n=N)" with the highest percentile that has at
/// least ten samples beyond it.
std::string Describe(const SliceStats& s) {
  char buf[256];
  if (s.n >= 10000) {
    std::snprintf(buf, sizeof(buf),
                  "p50 %.4f ms, p99 %.4f ms, p99.9 %.4f ms (n=%zu)", s.p50,
                  s.p99, s.p999, s.n);
  } else if (s.n >= 1000) {
    std::snprintf(buf, sizeof(buf), "p50 %.4f ms, p99 %.4f ms (n=%zu)", s.p50,
                  s.p99, s.n);
  } else {
    std::snprintf(buf, sizeof(buf), "p50 %.4f ms (n=%zu)", s.p50, s.n);
  }
  return buf;
}

double StorageShards(BeasService* svc) {
  auto r = svc->Execute(
      "SELECT beas_stats.value FROM beas_stats "
      "WHERE beas_stats.metric = 'storage_shards'");
  if (!r.ok() || r->result.rows.size() != 1) return 0;
  return r->result.rows[0][0].AsDouble();
}

struct Counters {
  beas::PlanCacheStats plan;
  beas::ResultCacheStats result;
  beas::ServiceCounters service;
  beas::durability::DurabilityCounters durability;
  uint64_t canonicalizations = 0;
};

Counters Snapshot(const BeasService& svc) {
  return {svc.cache_stats(), svc.result_cache_stats(),
          svc.service_counters(), svc.durability_counters(),
          svc.template_canonicalizations()};
}

/// The service and server a run measures, and what setting them up cost.
struct Setup {
  std::unique_ptr<BeasService> svc;
  std::unique_ptr<beas::net::Server> server;  ///< declared after svc
  std::vector<double> seconds, cpu_s, generate_s, index_s;
  uint64_t rows = 0;
  double rss_per_row = 0;  ///< RSS change across the first load, per row
};

/// One setup: creates the service in `options`' data dir (when durable),
/// loads the data, checkpoints it when durable, and starts the server.
beas::Status SetUp(Workload* w, uint64_t seed, bool durable,
                   const beas::ServiceOptions& options, Setup* out) {
  uint64_t rss0 = RssBytes();
  double c0 = ProcessCpuSeconds();
  auto t0 = Clock::now();
  out->svc = std::make_unique<BeasService>(options);
  double gen = 0, idx = 0;
  BEAS_RETURN_NOT_OK(out->svc->durability_status());
  BEAS_RETURN_NOT_OK(w->Load(out->svc.get(), seed, &gen, &idx, &out->rows));
  if (durable) BEAS_RETURN_NOT_OK(out->svc->Checkpoint());
  out->server = std::make_unique<beas::net::Server>(out->svc.get());
  BEAS_RETURN_NOT_OK(out->server->Start());
  out->seconds.push_back(SecondsSince(t0));
  out->cpu_s.push_back(ProcessCpuSeconds() - c0);
  out->generate_s.push_back(gen);
  out->index_s.push_back(idx);
  if (out->seconds.size() == 1) {
    out->rss_per_row = Ratio(static_cast<double>(RssBytes() - rss0),
                             static_cast<double>(out->rows));
  }
  return beas::Status::OK();
}

/// Stops and closes the setup's server and service, and deletes the data
/// dir of `options` when durable.
void TearDown(bool durable, const beas::ServiceOptions& options, Setup* s) {
  s->server.reset();
  s->svc.reset();
  std::error_code ec;
  if (durable) std::filesystem::remove_all(options.durability.dir, ec);
}

/// What reopening the durable data dir after the window showed.
struct Recovery {
  double seconds = 0;       ///< the timed reopen
  double checkpoint_s = 0;  ///< one Checkpoint() after it (traced run)
  uint64_t replayed = 0;    ///< WAL records replayed by the reopen
  uint64_t missing = 0;     ///< acked rows that did not read back
  std::string error;
};

/// Reopens the data dir of `options` (its previous service must be gone)
/// and checks that every acked row reads back, by count and key sum.
Recovery ReopenAndVerify(const beas::ServiceOptions& options,
                         const std::vector<uint64_t>& acked, bool checkpoint,
                         Trace* trace) {
  Recovery r;
  auto t0 = Clock::now();
  BeasService svc(options);
  r.seconds = SecondsSince(t0);
  r.replayed = svc.durability_counters().recovery_replayed_records;
  double expect_sum = 0;
  for (uint64_t k : acked) expect_sum += static_cast<double>(k);
  auto res = svc.Execute(
      "SELECT count(*) AS n, sum(call.recnum) AS s FROM call "
      "WHERE call.pnum >= " + std::to_string(kWriterPnumBase));
  if (!svc.durable() || !res.ok() || res->result.rows.size() != 1) {
    r.error = "reopened data dir does not answer";
    r.missing = acked.size();
    return r;
  }
  const beas::Row& row = res->result.rows[0];
  uint64_t got = static_cast<uint64_t>(row[0].AsInt64());
  double got_sum = acked.empty() ? 0 : row[1].AsDouble();
  if (got != acked.size() || got_sum != expect_sum) {
    r.error = "acked rows did not read back: " + std::to_string(got) +
              " of " + std::to_string(acked.size());
    r.missing = got < acked.size() ? acked.size() - got : 1;
  }
  if (checkpoint) {
    auto c0 = Clock::now();
    beas::Status st = svc.Checkpoint();
    auto c1 = Clock::now();
    trace->Add(kSpanCheckpoint, c0, c1);
    r.checkpoint_s = std::chrono::duration<double>(c1 - c0).count();
    if (!st.ok() && r.error.empty()) r.error = "checkpoint: " + st.ToString();
  }
  return r;
}

/// Result-line metric with its unit.
struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), v, metrics[i].unit);
  }
  std::printf("}}\n");
}

int Run(const Args& args) {
  std::unique_ptr<Workload> w = args.kind == Kind::kWideChain
                                    ? MakeWideChainWorkload()
                                    : MakeTlcWorkload();
  bool durable = args.kind == Kind::kTlcHotRw;
  std::string run_dir = args.data_dir + "/" + args.workload + "-" +
                        std::to_string(::getpid());
  std::error_code ec;
  std::filesystem::remove_all(run_dir, ec);
  if (durable && !std::filesystem::create_directories(run_dir, ec)) {
    std::fprintf(stderr, "cannot create %s\n", run_dir.c_str());
    return 1;
  }
  std::string fs = durable ? FilesystemOf(run_dir) : "none (in-memory)";

  auto t_start = Clock::now();
  beas::ServiceOptions options;
  Setup setup;
  auto data_dir = [&](size_t k) {
    if (durable) options.durability.dir = run_dir + "/data" + std::to_string(k);
  };
  // First burst; its last setup serves the run.
  beas::Status st;
  for (double total = 0;;) {
    data_dir(setup.seconds.size());
    st = SetUp(w.get(), args.seed, durable, options, &setup);
    if (!st.ok()) break;
    total += setup.seconds.back();
    int reps = static_cast<int>(setup.seconds.size());
    if (reps >= kMinBurstReps &&
        (total >= kBurstSeconds || reps >= kMaxBurstReps)) {
      break;
    }
    TearDown(durable, options, &setup);
  }
  int first_burst = static_cast<int>(setup.seconds.size());
  if (!st.ok()) {
    std::fprintf(stderr, "setup failed: %s\n", st.ToString().c_str());
    std::filesystem::remove_all(run_dir, ec);
    return 1;
  }
  std::unique_ptr<BeasService>& svc = setup.svc;
  std::unique_ptr<beas::net::Server>& server = setup.server;
  uint16_t port = server->port();

  Phase(t_start, "set up");
  // --- Op stream and its references, before the timed window. ---
  auto t_ref = Clock::now();
  Stream stream = MakeStream(args, *w);
  std::string ref_error;
  if (!ComputeReferences(svc.get(), *w, &stream, &ref_error)) {
    std::fprintf(stderr, "reference computation failed: %s\n",
                 ref_error.c_str());
    server.reset();
    svc.reset();
    std::filesystem::remove_all(run_dir, ec);
    return 1;
  }
  double ref_s = SecondsSince(t_ref);
  if (args.break_reference) stream.refs[stream.order[0]].answer.hash ^= 1;
  double shards = StorageShards(svc.get());

  std::printf("beasbench workload=%s seed=%" PRIu64 " seconds=%g trace=%d\n",
              args.workload.c_str(), args.seed, args.seconds,
              args.trace ? 1 : 0);
  std::printf(
      "fingerprint: nproc=%u compiler=\"%s\" build=%s storage_shards=%g "
      "sf=%g rows=%" PRIu64 " data_dir_fs=%s flush=%s\n",
      std::thread::hardware_concurrency(), BEASBENCH_COMPILER,
      BEASBENCH_BUILD_TYPE, shards, w->scale_factor(), setup.rows,
      fs.c_str(),
      durable ? "fsync on every group commit" : "n/a");
  std::printf("load: %zu connections closed-loop%s; %zu distinct ops, "
              "%zu in stream; references in %.2f s\n",
              kConnections,
              durable ? " + 1 writer connection, 8 inserts in flight" : "",
              stream.ops.size(), stream.order.size(), ref_s);

  Phase(t_start, "references computed");
  // --- In-process replay, first cluster. ---
  Replay replay;
  uint64_t wrong = 0;
  InProcessReplay(svc.get(), *w, stream, kReplayCluster, &replay, &wrong);
  Phase(t_start, "in-process replay, first cluster");
  // --- Timed window. ---
  Counters before = Snapshot(*svc);
  // Peak memory of the loaded service, before traffic: what the window
  // writes and caches depends on how fast the run went.
  double peak_mb = static_cast<double>(PeakRssBytes()) / (1024.0 * 1024.0);
  Window win = RunWindow(args, *w, stream, port);
  Counters after = Snapshot(*svc);
  double slice_s = args.seconds / kSlices;

  uint64_t refused = 0, result_hits = 0;
  std::map<std::string, uint64_t> refusals;
  std::vector<const std::vector<Sample>*> read_logs;
  for (ReaderLog& log : win.readers) {
    wrong += log.wrong;
    refused += log.refused;
    result_hits += log.result_hits;
    for (auto& kv : log.refusals) refusals[kv.first] += kv.second;
    read_logs.push_back(&log.samples);
  }
  std::vector<int> quiet = QuietSlices(win, slice_s);
  SliceStats reads = Slices(read_logs, win, slice_s, quiet);
  SliceStats reads_all =
      Slices(read_logs, win, slice_s, AllSlices(win, slice_s));
  SliceStats writes = Slices({&win.writer.samples}, win, slice_s, quiet);
  double quiet_cpu = 0;
  for (int k : quiet) {
    if (static_cast<size_t>(k) < win.slice_cpu.size()) {
      quiet_cpu += win.slice_cpu[k];
    }
  }
  // Completed requests in the quiet slices: the median rate is per slice,
  // the pooled sample count is the total.
  double cpu_us_per_request =
      Ratio(1e6 * quiet_cpu, static_cast<double>(reads.n + writes.n));

  // Workload properties over the reads actually sent.
  std::vector<char> seen(stream.ops.size(), 0);
  uint64_t repeats = 0, crossed = 0, keys = 0, tuples = 0, answer_rows = 0;
  for (size_t i = 0; i < win.reads; ++i) {
    uint32_t o = stream.order[i];
    if (seen[o]) ++repeats;
    seen[o] = 1;
    const Reference& ref = stream.refs[o];
    if (ref.keys_probed >= kFanoutKeys ||
        ref.max_step_tuples >= kFanoutTuples) {
      ++crossed;
    }
    keys += ref.keys_probed;
    tuples += ref.tuples_fetched;
    answer_rows += ref.answer.rows;
  }
  double n_reads = static_cast<double>(win.reads);

  Phase(t_start, "window closed");
  // --- In-process replay, second cluster. ---
  InProcessReplay(svc.get(), *w, stream, kReplayCluster, &replay, &wrong);
  Phase(t_start, "in-process replay, second cluster");
  // Means, not medians: the replay mixes templates whose costs lie apart,
  // and a median that falls between two of them jumps with small shifts in
  // the mix.
  double inproc_read_us = Mean(replay.wall_us);
  double read_cpu_us = Mean(replay.cpu_us);
  // --- Traced run: per-layer probes on the idle service. ---
  Trace trace;
  ProbeFigures probe;
  std::vector<double> insert_us;
  if (args.trace) {
    std::vector<Op> sample;
    std::vector<char> taken(stream.ops.size(), 0);
    size_t step = std::max<size_t>(1, win.reads / kProbeOps);
    for (size_t i = 0; i < win.reads && sample.size() < kProbeOps; i += step) {
      uint32_t o = stream.order[i];
      if (taken[o]) continue;
      taken[o] = 1;
      sample.push_back(stream.ops[o]);
    }
    probe = ProbeLayers(svc.get(), port, *w, sample, kProbeSeconds, &trace);
    if (durable) {
      uint64_t key = win.writer.sent;
      for (size_t i = 0; i < kInsertProbes; ++i, ++key) {
        auto t0 = Clock::now();
        beas::Status st = svc->Insert("call", CallRow(key));
        auto t1 = Clock::now();
        trace.Add(kSpanInsert, t0, t1);
        if (st.ok()) {
          win.writer.acked_keys.push_back(key);
        } else {
          ++win.writer.failed;
        }
        insert_us.push_back(
            std::chrono::duration<double, std::micro>(t1 - t0).count());
      }
      win.writer.sent += kInsertProbes;
    }
  }

  // --- Durability: close, reopen (timed), every acked row must read back.
  Phase(t_start, "closing the service");
  server->Stop();
  server.reset();
  svc.reset();
  Recovery recovery;
  if (durable) {
    recovery = ReopenAndVerify(options, win.writer.acked_keys, args.trace,
                               &trace);
  }
  std::string durability_error =
      win.writer.error.empty() ? recovery.error : win.writer.error;

  // --- Second burst of setups, as many as the first. ---
  Phase(t_start, "closed");
  for (int k = 0; k < first_burst && st.ok(); ++k) {
    data_dir(setup.seconds.size());
    st = SetUp(w.get(), args.seed, durable, options, &setup);
    TearDown(durable, options, &setup);
  }
  std::filesystem::remove_all(run_dir, ec);
  if (!st.ok()) {
    std::fprintf(stderr, "setup failed: %s\n", st.ToString().c_str());
    return 1;
  }


  Phase(t_start, "set up again");
  // --- Verdict. ---
  uint64_t attempted = win.reads + win.writer.sent + replay.reads;
  uint64_t write_failed = win.writer.failed + recovery.missing +
                          (win.writer.error.empty() ? 0 : 1);
  uint64_t failed = wrong + refused + write_failed;
  if (!probe.ok) ++failed;
  if (win.exhausted) ++failed;
  bool correct = failed == 0 && durability_error.empty() && win.reads > 0;
  if (attempted == 0) attempted = 1;
  double error_rate =
      Ratio(static_cast<double>(failed), static_cast<double>(attempted));

  double rc_ratio = Ratio(static_cast<double>(result_hits), n_reads);
  double plan_lookups = static_cast<double>(
      (after.plan.hits - before.plan.hits) +
      (after.plan.misses - before.plan.misses));
  double plan_ratio = Ratio(
      static_cast<double>(after.plan.hits - before.plan.hits), plan_lookups);
  double setup_median = Median(setup.seconds);
  double setup_cpu_median = Median(setup.cpu_s);

  std::printf("window: %.2f s measured, %zu reads, %" PRIu64
              " writes acked; %d slices of %.3f s\n",
              win.seconds,
              win.reads, static_cast<uint64_t>(win.writer.acked_keys.size()),
              kSlices, slice_s);
  std::printf("properties: repeated_param_share=%.4f "
              "result_cache_hit_ratio=%.4f (base: reads) "
              "fanout_crossing_share=%.4f (reads with >=%" PRIu64
              " keys probed or a step gathering >=%" PRIu64 " tuples)\n",
              Ratio(static_cast<double>(repeats), n_reads), rc_ratio,
              Ratio(static_cast<double>(crossed), n_reads), kFanoutKeys,
              kFanoutTuples);
  std::printf("setup: %zu setups, %d before the run and %zu after it; "
              "setup_s = process CPU median %.4f s (",
              setup.cpu_s.size(), first_burst,
              setup.cpu_s.size() - first_burst, setup_cpu_median);
  for (size_t i = 0; i < setup.cpu_s.size(); ++i) {
    std::printf("%s%.4f", i ? ", " : "", setup.cpu_s[i]);
  }
  std::printf("), wall median %.4f s (", setup_median);
  for (size_t i = 0; i < setup.seconds.size(); ++i) {
    std::printf("%s%.4f", i ? ", " : "", setup.seconds[i]);
  }
  std::printf(")\n");
  double max_quiet_steal = 0;
  for (int k : quiet) {
    if (static_cast<size_t>(k) < win.slice_steal.size()) {
      max_quiet_steal = std::max(max_quiet_steal, win.slice_steal[k]);
    }
  }
  std::printf("slices (reads/s, machine steal share):");
  for (int k = 0; k < SliceCount(win, slice_s); ++k) {
    SliceStats one = Slices(read_logs, win, slice_s, {k});
    std::printf(" %.0f/%.3f", one.rate,
                static_cast<size_t>(k) < win.slice_steal.size()
                    ? win.slice_steal[k]
                    : 0.0);
  }
  std::printf("\nfigures below use the %zu quietest slices (steal share <= "
              "%.3f)\n",
              quiet.size(), max_quiet_steal);
  std::printf("cpu_us_per_request: %.2f (process CPU, client side included, "
              "per completed request)\n",
              cpu_us_per_request);
  std::printf("read_qps: %.1f (median of the slices' rates, %zu connections)\n",
              reads.rate, kConnections);
  std::printf("read latency: %s; all slices: %s\n", Describe(reads).c_str(),
              Describe(reads_all).c_str());
  if (durable) {
    std::printf("write_rows_per_s: %.1f (median of the slices' ack rates)\n",
                writes.rate);
    std::printf("write ack latency: %s\n", Describe(writes).c_str());
    std::printf("recovery_s: %.4f (reopen, %" PRIu64
                " WAL records replayed)\n",
                recovery.seconds, recovery.replayed);
  } else {
    std::printf("write_rows_per_s, write_ack_p50_ms, write_ack_p99_ms, "
                "recovery_s: n/a (read-only workload)\n");
  }
  std::printf("peak_rss_mb: %.1f before the window, %.1f at the end\n",
              peak_mb,
              static_cast<double>(PeakRssBytes()) / (1024.0 * 1024.0));
  std::printf("in-process replay (BeasService::Query on one thread, %zu "
              "reads x %d passes, result cache cleared before each; per read "
              "the minimum over the passes): read_cpu_us mean %.3f, "
              "inproc_read_us mean %.3f\n",
              replay.wall_us.size(), replay.passes, read_cpu_us,
              inproc_read_us);
  std::printf("error_rate: %.6f (%" PRIu64 " wrong answers, %" PRIu64
              " refused reads, %" PRIu64 " failed or unread writes of %" PRIu64
              " attempted)\n",
              error_rate, wrong, refused, write_failed, attempted);
  for (auto& kv : refusals) {
    std::printf("  refused %s: %" PRIu64 "\n", kv.first.c_str(), kv.second);
  }
  if (!durability_error.empty()) {
    std::printf("durability check FAILED: %s\n", durability_error.c_str());
  } else if (durable) {
    std::printf("durability check: all %zu acked rows read back after reopen\n",
                win.writer.acked_keys.size());
  }
  if (!probe.ok) std::printf("layer probe FAILED: %s\n", probe.error.c_str());
  if (win.exhausted) {
    std::printf("op stream FAILED: all %zu reads were sent before the window "
                "ended; raise StreamRate\n",
                stream.window_end);
  }

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {{"setup_s", setup_cpu_median, "s"},
               {"peak_rss_mb", peak_mb, "MB"}};
  } else {
    double canon = static_cast<double>(after.canonicalizations -
                                       before.canonicalizations);
    metrics = {
        {"net.wire_overhead_us", probe.wire_overhead_us, "us"},
        {"net.codec_us", probe.codec_us, "us"},
        {"net.bytes_out_per_read", probe.bytes_out_per_read, "B"},
        {"sql.mask_us", probe.mask_us, "us"},
        {"sql.canonicalize_us", probe.canonicalize_us, "us"},
        {"sql.canonicalized_share", Ratio(canon, n_reads), "ratio"},
        {"service.result_hit_us", probe.result_hit_us, "us"},
        {"service.plan_hit_us", probe.plan_hit_us, "us"},
        {"service.miss_us", probe.miss_us, "us"},
        {"service.plan_cache_hit_ratio", plan_ratio, "ratio"},
        {"service.result_cache_hit_ratio", rc_ratio, "ratio"},
        {"service.result_cache_invalidations",
         static_cast<double>(after.result.invalidations -
                             before.result.invalidations),
         "count"},
        {"service.result_cache_evictions",
         static_cast<double>(after.result.evictions -
                             before.result.evictions),
         "count"},
        {"service.result_cache_bytes", static_cast<double>(after.result.bytes),
         "B"},
        {"service.rejected",
         static_cast<double>(after.service.queries_rejected_total -
                             before.service.queries_rejected_total),
         "count"},
        {"service.degraded",
         static_cast<double>(after.service.queries_degraded_total -
                             before.service.queries_degraded_total),
         "count"},
        {"bounded.check_us", probe.check_us, "us"},
        {"bounded.fetch_chain_us", probe.fetch_chain_us, "us"},
        {"bounded.tail_us", probe.tail_us, "us"},
        {"bounded.keys_probed_per_read",
         Ratio(static_cast<double>(keys), n_reads), "count"},
        {"bounded.tuples_fetched_per_read",
         Ratio(static_cast<double>(tuples), n_reads), "count"},
        {"bounded.tuples_per_row_returned",
         Ratio(static_cast<double>(tuples), static_cast<double>(answer_rows)),
         "ratio"},
        {"workload.generate_s", Median(setup.generate_s), "s"},
        {"asx.index_build_s", Median(setup.index_s), "s"},
        {"storage.rss_bytes_per_row", setup.rss_per_row, "B"},
    };
    std::printf("tracing overhead: none by construction. This traced run's "
                "window records no spans (the probes run after it); its "
                "read p50 %.4f ms compares with an untraced run's.\n",
                reads.p50);
    std::printf("per-layer (%zu ops probed in process; plan-cache ratio base: "
                "%.0f plan-cache lookups; result-cache ratio base: reads):\n",
                probe.ops, plan_lookups);
    for (const Metric& m : metrics) {
      std::printf("  %-36s %.6g %s\n", m.name.c_str(), m.value, m.unit);
    }
    if (durable) {
      double records = static_cast<double>(
          after.durability.wal_records_total -
          before.durability.wal_records_total);
      std::printf(
          "  %-36s %.6g us\n  %-36s %.6g rows\n  %-36s %.6g\n"
          "  %-36s %.6g B\n  %-36s %.6g s\n  %-36s %" PRIu64 "\n",
          "durability.insert_us", Median(insert_us),
          "durability.rows_per_group",
          Ratio(records,
                static_cast<double>(after.durability.wal_group_commits_total -
                                    before.durability.wal_group_commits_total)),
          "durability.fsyncs_per_row",
          Ratio(static_cast<double>(after.durability.wal_fsyncs_total -
                                    before.durability.wal_fsyncs_total),
                records),
          "durability.wal_bytes_per_row",
          Ratio(static_cast<double>(after.durability.wal_bytes_total -
                                    before.durability.wal_bytes_total),
                records),
          "durability.checkpoint_s", recovery.checkpoint_s,
          "durability.replayed_records", recovery.replayed);
    }
    std::printf("spans (in memory until now):\n");
    for (int n = 0; n < kSpanCount; ++n) {
      SpanName name = static_cast<SpanName>(n);
      size_t count = trace.Count(name);
      if (count == 0) continue;
      std::printf("  %-24s count %-8zu median %.2f us\n", SpanNameText(name),
                  count, trace.MedianUs(name));
    }
  }
  std::printf("extra: {\"read_qps\": %.6g, \"read_p50_ms\": %.6g, "
              "\"read_p99_ms\": %.6g, \"cpu_us_per_request\": %.6g, "
              "\"read_cpu_us\": %.6g, \"inproc_read_us\": %.6g, "
              "\"setup_wall_s\": %.6g, "
              "\"error_rate\": %.6g, "
              "\"write_rows_per_s\": %.6g, \"write_ack_p50_ms\": %.6g, "
              "\"write_ack_p99_ms\": %.6g, \"recovery_s\": %.6g}\n",
              reads.rate, reads.p50, reads.p99, cpu_us_per_request,
              read_cpu_us, inproc_read_us, setup_median,
              error_rate, writes.rate, writes.p50,
              writes.p99, recovery.seconds);
  PrintResult(correct, attempted, failed, metrics);
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace beasbench

int main(int argc, char** argv) {
  beasbench::Args args;
  if (!beasbench::ParseArgs(argc, argv, &args)) return beasbench::Usage();
  return beasbench::Run(args);
}
