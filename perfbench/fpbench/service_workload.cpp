// service_mixed: fpoptd under open-loop traffic.
//
// Reads (90%) walk four base slicing floorplans (30 modules, N = 8) one
// PolishExpr::random_move at a time and ask for an incremental optimize,
// so most T' nodes are served from the shared cache. Writes (10%) are a
// fresh-seed FP1 at N = 5: they miss, insert and make the cache evict.
// With one write in every ten requests, p50 lies inside the read class
// and p99 inside the write class, so each percentile measures one kind
// of request.
//
// The base floorplans are fixed; the seed drives the walks, the write
// instances, the read/write interleaving and the arrival times.
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "floorplan/serialize.h"
#include "replay.h"
#include "service/protocol.h"
#include "telemetry/json.h"
#include "topology/polish.h"
#include "workload/floorplans.h"
#include "workload/module_gen.h"
#include "workloads.h"

namespace perfbench {

using namespace fpopt;

std::string scratch_path(const std::string& stem) {
  // Relative, so the socket path stays far below the sun_path limit.
  ::mkdir(".bench_build", 0755);
  ::mkdir(".bench_build/tmp", 0755);
  return ".bench_build/tmp/" + stem + "-" + std::to_string(::getpid());
}

ServiceConfig bench_service_config() {
  ServiceConfig c;
  c.max_inflight = 2;           // the dispatch gate queues the third connection
  c.shared_cache = true;
  c.cache_bytes = 512u << 10;   // small enough that writes evict
  c.metrics = true;
  c.trace_requests = 0;
  return c;
}

void add_service_layers(RunResult& r, const StageTimes& stages, const MetricsSnapshot& pre,
                        const MetricsSnapshot& before, const MetricsSnapshot& after,
                        const std::vector<Outcome>& window) {
  // A metrics request is observed after its snapshot is taken, so the
  // window's difference holds the `before` request once; `pre` -> `before`
  // holds exactly one such request, which prices it.
  const double metrics_request_s = before.request_sum_s - pre.request_sum_s;
  const double requests = std::max(1.0, after.requests - before.requests - 1);
  const double request_s =
      (after.request_sum_s - before.request_sum_s - metrics_request_s) / requests;
  const double executes = std::max(1.0, after.execute_count - before.execute_count);
  const double execute_s = (after.execute_sum_s - before.execute_sum_s) / executes;
  const double waits = std::max(1.0, after.queue_wait_count - before.queue_wait_count);
  const double wait_s = (after.queue_wait_sum_s - before.queue_wait_sum_s) / waits;
  const double hits = after.cache_hits - before.cache_hits;
  const double misses = after.cache_misses - before.cache_misses;
  double client_s = 0;
  std::size_t answered = 0;
  for (const Outcome& o : window) {
    if (o.received_s < 0) continue;
    client_s += o.received_s - o.issued_s;
    ++answered;
  }
  client_s /= static_cast<double>(std::max<std::size_t>(1, answered));

  r.add("floorplan.parse_ms", stages.parse_s * 1e3, "ms");
  r.add("service.decode_ms", stages.decode_s * 1e3, "ms");
  r.add("service.encode_ms", stages.encode_s * 1e3, "ms");
  r.add("io.format_ms", stages.format_s * 1e3, "ms");
  r.add("service.overhead_ms", (request_s - execute_s - wait_s) * 1e3, "ms");
  r.add("telemetry.log_lines", after.log_lines - before.log_lines, "count");
  r.add("service.queue_wait_ms", wait_s * 1e3, "ms");
  r.add("service.execute_ms", execute_s * 1e3, "ms");
  r.add("cache.hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
  r.add("cache.insertions", after.cache_insertions - before.cache_insertions, "count");
  r.add("cache.evictions", after.cache_evictions - before.cache_evictions, "count");
  r.add("cache.peak_bytes", after.cache_peak_bytes, "bytes");
  r.add("service.transport_ms", (client_s - request_s) * 1e3, "ms");
}

namespace {

// The rate ladder: rung i offers kLadderBase * kLadderStep^i requests/s.
constexpr double kLadderBase = 200;
constexpr double kLadderStep = 1.04;
constexpr int kLadderRungs = 110;  // top rung ~ 14.4k/s

double rung_rate(int i) { return kLadderBase * std::pow(kLadderStep, i); }

// Generator lag (send time - due time) above which a run is invalid,
// because latency is timed from the due time and would include it. Over 52
// runs on a 4-vCPU KVM guest the lag's p50 was 0.006-0.009 ms and the
// median 1000-request window's p99 0.03-5.8 ms.
constexpr double kMaxLagP50Ms = 0.1;
constexpr double kMaxLagP99Ms = 10;

// The cache warm pass of every set-up: these many requests, all sent at once.
constexpr std::size_t kWarmRequests = 600;

constexpr std::size_t kBases = 4;
constexpr std::size_t kWalkReset = 64;  // a walk restarts from its base this often

/// The request frames, compact: each frame keeps its own head and tail,
/// and the reads on one base share its library text. (Whole frames would
/// repeat a 30-module library in every read and swamp the server's memory
/// in peak_rss_mb.)
class Corpus {
 public:
  void add(const FrameAround& f, std::size_t library) {
    frames_.push_back({f.head + f.tail, static_cast<std::uint32_t>(f.head.size()),
                       static_cast<std::uint32_t>(library)});
  }
  /// Adds a JSON-quoted library text; returns its index.
  std::size_t add_library(const std::string& library) {
    libraries_.push_back(telemetry::json_quote(library));
    return libraries_.size() - 1;
  }
  [[nodiscard]] std::size_t size() const { return frames_.size(); }
  [[nodiscard]] FramePieces frame(std::size_t i) const {
    const Frame& f = frames_[i];
    const std::string_view around = f.around;
    return {around.substr(0, f.split), libraries_[f.library], around.substr(f.split)};
  }
  [[nodiscard]] std::string text(std::size_t i) const { return joined(frame(i)); }

 private:
  struct Frame {
    std::string around;  ///< head + tail
    std::uint32_t split = 0;
    std::uint32_t library = 0;
  };
  std::vector<Frame> frames_;
  std::vector<std::string> libraries_;
};

struct Base {
  std::vector<Module> modules;
  PolishExpr expr;
};

/// `count` requests: one write in every block of ten, at a seeded position.
Corpus make_corpus(std::uint64_t seed, std::size_t count, std::uint64_t first_id, bool smoke) {
  const std::size_t modules = smoke ? 12 : 30;
  std::vector<Base> bases;
  Corpus c;
  for (std::size_t b = 0; b < kBases; ++b) {
    ModuleGenConfig cfg;
    cfg.impl_count = 8;
    Base base{generate_modules(modules, cfg, 1000 + b, "b" + std::to_string(b) + "m"),
              PolishExpr::initial(modules)};
    Pcg32 shape(77 + b);
    for (int m = 0; m < 200; ++m) (void)base.expr.random_move(shape);
    (void)c.add_library(to_module_library_string(base.modules));  // library b
    bases.push_back(std::move(base));
  }
  std::vector<PolishExpr> walk;
  std::vector<std::size_t> steps(kBases, 0);
  for (const Base& b : bases) walk.push_back(b.expr);

  Pcg32 rng(seed, 0xc0ffee);
  std::size_t write_slot = rng.below(10);
  for (std::size_t i = 0; i < count; ++i) {
    if (i % 10 == 0 && i != 0) write_slot = rng.below(10);
    const std::uint64_t id = first_id + i;
    const int priority = static_cast<int>(i % 3);
    if (i % 10 == write_slot) {
      WorkloadConfig w;
      w.impls_per_module = 5;
      w.seed = (static_cast<std::uint64_t>(rng.next()) << 20) | i;
      const FloorplanTree fp1 = make_fp1(w);
      c.add(optimize_frame_around(id, to_topology_string(fp1), "\"incremental\":true", priority),
            c.add_library(to_module_library_string(fp1.modules())));
      continue;
    }
    const std::size_t b = rng.below(kBases);
    if (++steps[b] % kWalkReset == 0) walk[b] = bases[b].expr;
    while (!walk[b].random_move(rng)) {
    }
    c.add(optimize_frame_around(id, to_topology_string(walk[b].to_tree(bases[b].modules)),
                                "\"incremental\":true", priority),
          b);
  }
  return c;
}

/// Client connections: three, but never more than the CPUs, so the
/// generator side cannot outnumber the host.
unsigned connections() { return std::min(3u, online_cpus()); }

/// An open-loop schedule over corpus[first, first + n): Poisson arrivals
/// at `rate`, connections in rotation.
std::vector<Planned> schedule(const Corpus& c, std::size_t first, std::size_t n, double rate,
                              Pcg32& rng, std::size_t keep_every) {
  std::vector<Planned> plan;
  plan.reserve(n);
  const unsigned conns = connections();
  double t = 0;
  for (std::size_t i = 0; i < n; ++i) {
    t += -std::log(1.0 - rng.unit()) / rate;
    const std::size_t k = (first + i) % c.size();
    plan.push_back({c.frame(k), t, static_cast<unsigned>(i % conns),
                    keep_every != 0 && i % keep_every == 0});
  }
  return plan;
}

struct Window {
  std::vector<double> latency_ms;  ///< received - due, answered requests
  std::vector<double> lag_ms;      ///< issued - due, the same requests
  std::size_t failed = 0;          ///< error responses and missing answers
  bool growing = false;            ///< last quarter's p50 far above the first's

  void append(const Window& w) {
    latency_ms.insert(latency_ms.end(), w.latency_ms.begin(), w.latency_ms.end());
    lag_ms.insert(lag_ms.end(), w.lag_ms.begin(), w.lag_ms.end());
    failed += w.failed;
  }
};

Window summarize(const std::vector<Planned>& plan, const std::vector<Outcome>& outs) {
  Window w;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    if (outs[i].received_s < 0 || !outs[i].ok) {
      ++w.failed;
      continue;
    }
    w.lag_ms.push_back((outs[i].issued_s - plan[i].due_s) * 1e3);
    w.latency_ms.push_back((outs[i].received_s - plan[i].due_s) * 1e3);
  }
  const std::size_t q = w.latency_ms.size() / 4;
  if (q >= 8) {
    const double first = median({w.latency_ms.begin(), w.latency_ms.begin() + static_cast<std::ptrdiff_t>(q)});
    const double last = median({w.latency_ms.end() - static_cast<std::ptrdiff_t>(q), w.latency_ms.end()});
    w.growing = last > 2 * first + 1.0;
  }
  return w;
}

class ServiceRun {
 public:
  explicit ServiceRun(const RunArgs& args) : args_(args) {}

  RunResult run() {
    // The corpus is the generator's, not the server's: built once, before
    // any set-up is timed.
    corpus_ = make_corpus(args_.seed, args_.smoke ? 3000 : 16000, 1000, args_.smoke);
    r_.notes.emplace_back("peak_rss_after_corpus_mb", json_num(peak_rss_mb()));
    set_up();
    warm_up_cores(mt_threads(), args_.smoke ? 0.2 : 2.0);
    if (args_.trace) {
      traced();
    } else {
      end_to_end();
    }
    server_.reset();
    return std::move(r_);
  }

 private:
  /// Server start, connections and the cache warm pass, five times; the
  /// last server stays up. The warm pass sends its requests all at once,
  /// so it takes as long as the server needs to answer them.
  void set_up() {
    std::vector<Planned> warm;
    for (std::size_t i = 0; i < kWarmRequests; ++i) {
      warm.push_back({corpus_.frame(i), 0.0, static_cast<unsigned>(i % connections()), false});
    }
    std::vector<double> setups;
    for (int i = 0; i < 5; ++i) {
      server_.reset();
      const auto t0 = Clock::now();
      server_ = std::make_unique<LiveServer>(bench_service_config(), scratch_path("sock"),
                                             scratch_path("log"));
      const std::vector<Outcome> outs =
          run_open_loop(server_->socket_path(), connections(), warm, 10.0);
      setups.push_back(since(t0));
      for (const Outcome& o : outs) {
        ++r_.attempted;
        if (!o.ok) {
          ++r_.failed;
          r_.fail("warm pass request failed");
        }
      }
    }
    r_.keep_samples("setup_s", setups);
    r_.notes.emplace_back("peak_rss_after_setup_mb", json_num(peak_rss_mb()));
    setup_s_ = median(setups);
    next_frame_ = kWarmRequests;
  }

  /// One open-loop phase at `rate` over the next `n` corpus frames.
  Window phase(double rate, std::size_t n, std::size_t keep_every,
               std::vector<Outcome>* outs_out = nullptr, std::vector<Planned>* plan_out = nullptr) {
    const std::vector<Planned> plan = schedule(corpus_, next_frame_, n, rate, rng_, keep_every);
    next_frame_ += n;
    const std::vector<Outcome> outs =
        run_open_loop(server_->socket_path(), connections(), plan, 3.0);
    Window w = summarize(plan, outs);
    if (outs_out != nullptr) *outs_out = outs;
    if (plan_out != nullptr) *plan_out = plan;
    return w;
  }

  /// `n` requests at the fixed rate: every answer is checked, a sample of
  /// them byte for byte.
  Window fixed_rate(std::size_t n, std::vector<Outcome>* outs_out = nullptr) {
    std::vector<Outcome> outs;
    std::vector<Planned> plan;
    const Window w = phase(args_.rate_rps, n, 25, &outs, &plan);
    for (std::size_t i = 0; i < plan.size(); ++i) {
      ++r_.attempted;
      if (!outs[i].ok) {
        ++r_.failed;
        continue;
      }
      if (!plan[i].keep_response) continue;
      ++r_.attempted;
      if (outs[i].response != expected_response(joined(plan[i].frame))) {
        ++r_.failed;
        r_.fail("fpoptd response differs from in-process execute_command output");
      }
    }
    if (w.failed > 0) r_.fail(std::to_string(w.failed) + " requests failed in the fixed-rate phase");
    if (outs_out != nullptr) *outs_out = std::move(outs);
    return w;
  }

  /// One ladder probe: three windows of kP99Window requests; it passes
  /// when every request succeeds, the backlog does not grow, and the p99
  /// of at least one window is within the limit. An overload grows the
  /// backlog and raises every window's p99. A stall of the host (5-20 ms,
  /// several a second in its busy phases) raises the p99 of the windows
  /// it hits only, and must not fail a rung the server sustains.
  bool probe(int rung) {
    const double rate = rung_rate(rung);
    const Window w = phase(rate, args_.smoke ? kP99Window : 3 * kP99Window, 0);
    double best_p99 = std::numeric_limits<double>::infinity();
    for (const WindowP99& x : window_p99s(w)) best_p99 = std::min(best_p99, x.latency_ms);
    const bool pass = w.failed == 0 && !w.growing && best_p99 <= args_.p99_limit_ms;
    probes_.push_back(rate);
    probes_.push_back(pass ? 1 : 0);
    return pass;
  }

  /// Highest passing rung: widen [lo, hi] until lo passes and hi fails
  /// (the top rung is known to fail), then bisect.
  int search(int lo, int hi) {
    constexpr int kTop = kLadderRungs - 1;
    while (lo > 0 && !probe(lo)) {
      hi = lo;
      lo = std::max(0, lo - 4);
    }
    while (hi < kTop && probe(hi)) {
      lo = hi;
      hi = std::min(kTop, hi + 4);
    }
    while (hi - lo > 1) {
      const int mid = (lo + hi) / 2;
      (probe(mid) ? lo : hi) = mid;
    }
    return lo;
  }

  /// The p99 latency of each run of kP99Window consecutive answered
  /// requests, with the generator's own p99 lag over the same requests.
  struct WindowP99 {
    double lag_ms = 0;
    double latency_ms = 0;
  };
  static std::vector<WindowP99> window_p99s(const Window& w) {
    const std::vector<double> lags = window_quantiles(w.lag_ms, kP99Window, 0.99);
    const std::vector<double> p99s = window_quantiles(w.latency_ms, kP99Window, 0.99);
    std::vector<WindowP99> out;
    for (std::size_t i = 0; i < p99s.size(); ++i) out.push_back({lags[i], p99s[i]});
    return out;
  }
  static double median_p99(const std::vector<WindowP99>& ws) {
    std::vector<double> p99s;
    for (const WindowP99& w : ws) p99s.push_back(w.latency_ms);
    return median(p99s);
  }

  /// The windows in which the host disturbed the run least: the half with
  /// the smallest generator lag. When the host preempts the generator's
  /// vCPU it preempts the server's too, and a 1-40 ms stall sets a
  /// window's p99; the generator's lag is the witness of such stalls.
  static std::vector<WindowP99> least_disturbed_half(std::vector<WindowP99> ws) {
    std::sort(ws.begin(), ws.end(),
              [](const WindowP99& a, const WindowP99& b) { return a.lag_ms < b.lag_ms; });
    ws.resize((ws.size() + 1) / 2);
    return ws;
  }

  void end_to_end() {
    refuse_mt_below_threads(r_);
    const double s = args_.seconds;
    std::vector<RequestTree> trees;
    constexpr int kTop = kLadderRungs - 1;
    int best = static_cast<int>(
        std::floor(std::log(args_.rate_rps / kLadderBase) / std::log(kLadderStep)));
    const auto window = Clock::now();

    // Fixed-rate windows, ladder searches and engine passes over the
    // request trees take turns until the run ends. The host's speed drifts
    // over seconds, so each metric samples the whole run, not one phase.
    Window fixed;
    std::vector<double> found;
    double rss_mb = 0;
    for (std::size_t round = 0; round < 3 || since(window) < 0.92 * s; ++round) {
      fixed.append(fixed_rate(2 * kP99Window));
      if (round == 0) {
        // The memory mark comes before the ladder, whose overloaded rungs
        // pile their backlog up in the generator's send buffers, and before
        // the request trees are parsed: neither is the server's memory.
        rss_mb = peak_rss_mb();
        trees = request_trees();
        // The top rung must fail, or the ladder cannot measure capacity.
        if (probe(kTop)) r_.fail("rate ladder saturated: the top rung passed");
        best = search(best, kTop);
      } else {
        best = search(std::max(0, best - 2), std::min(kTop, best + 2));
      }
      found.push_back(rung_rate(best));
      engine_pass(trees, round == 0, false);
    }
    const std::vector<WindowP99> all = window_p99s(fixed);
    const std::vector<WindowP99> kept = least_disturbed_half(all);
    std::vector<double> window_lags;
    for (const WindowP99& w : all) window_lags.push_back(w.lag_ms);
    const double lag_p50 = quantile(fixed.lag_ms, 0.5);
    const double lag_p99 = median(window_lags);
    r_.notes.emplace_back("generator_lag_p50_ms", json_num(lag_p50));
    r_.notes.emplace_back("generator_lag_p99_ms", json_num(lag_p99));
    r_.notes.emplace_back("p99_windows", std::to_string(all.size()));
    if (kept.empty()) {
      r_.fail("fewer answered requests than one p99 window in the fixed-rate phase");
    } else if (lag_p50 > kMaxLagP50Ms || lag_p99 > kMaxLagP99Ms) {
      r_.fail("generator lag p50 " + json_num(lag_p50) + " ms / median window p99 " +
              json_num(lag_p99) + " ms above " + json_num(kMaxLagP50Ms) + " / " +
              json_num(kMaxLagP99Ms) + " ms: the generator did not hold its schedule");
    }

    std::vector<double> p99s;
    for (const WindowP99& w : all) p99s.push_back(w.latency_ms);
    r_.keep_samples("max_rate_rps", found);
    r_.raw.emplace_back("ladder_probes_rate_pass", probes_);
    r_.keep_samples("latency_ms", fixed.latency_ms);
    r_.raw.emplace_back("latency_ms.p99_windows", p99s);
    r_.raw.emplace_back("generator_lag_ms.p99_windows", window_lags);
    r_.raw.emplace_back("generator_lag_ms", fixed.lag_ms);
    r_.notes.emplace_back("fixed_rate_rps", json_num(args_.rate_rps));
    r_.notes.emplace_back("p99_limit_ms", json_num(args_.p99_limit_ms));
    // Kept out of the result: host stalls make it unsteady across runs.
    r_.notes.emplace_back("latency_ms.p99", json_num(median_p99(kept)));
    r_.notes.emplace_back("ladder", "{\"base\":" + json_num(kLadderBase) + ",\"step\":" +
                                        json_num(kLadderStep) + ",\"rungs\":" +
                                        std::to_string(kLadderRungs) + "}");

    r_.add("setup_s", setup_s_, "s");
    r_.add("solve_1t_s", median(solve_1t_), "s");
    r_.add("solve_mt_s", median(solve_mt_), "s");
    r_.add("peak_impls", median(peak_impls_), "count");
    r_.add("peak_rss_mb", rss_mb, "MB");
    r_.add("area_ratio", median(area_ratio_), "ratio");
    r_.add("latency_ms.p50", quantile(fixed.latency_ms, 0.5), "ms");
    r_.add("max_rate_rps", median(found), "1/s");
  }

  void traced() {
    const double s = args_.seconds;
    // The fixed-rate load, bracketed by `metrics` snapshots.
    const MetricsSnapshot pre = snapshot_metrics(server_->socket_path());
    const MetricsSnapshot before = snapshot_metrics(server_->socket_path());
    std::vector<Outcome> outs;
    (void)fixed_rate(std::max(kP99Window, static_cast<std::size_t>(0.5 * s * args_.rate_rps)),
                     &outs);
    const MetricsSnapshot after = snapshot_metrics(server_->socket_path());

    // Direct stage timing over a deterministic sample of the same frames.
    std::vector<std::string> sample;
    for (std::size_t i = 0; i < corpus_.size() && sample.size() < 400; i += 37) {
      sample.push_back(corpus_.text(i));
    }
    const StageTimes stages = time_stages(sample);
    for (const std::string& problem : stages.problems) r_.fail("stage timing: " + problem);

    engine_pass(request_trees(), true, true);

    add_engine_layers(r_, layers_, pools_);
    add_service_layers(r_, stages, pre, before, after, outs);
    r_.add("unattributed_share", 1.0 - stages.named_total_s / stages.handle_total_s, "ratio");
    // What tracing adds to the server's work: the three snapshot requests,
    // against the server time of the window's requests.
    const double snapshot_s = before.request_sum_s - pre.request_sum_s;
    const double window_s = after.request_sum_s - before.request_sum_s - snapshot_s;
    r_.add("trace_overhead_share", window_s > 0 ? 3 * snapshot_s / window_s : 0.0, "ratio");
  }

  struct RequestTree {
    FloorplanTree tree;
    OptimizerOptions options;
  };

  /// A deterministic sample of the corpus's request trees, parsed.
  std::vector<RequestTree> request_trees() {
    std::vector<RequestTree> out;
    const std::size_t trees = args_.smoke ? 40 : 500;
    const std::size_t step = std::max<std::size_t>(1, corpus_.size() / trees);
    for (std::size_t i = 0; i < corpus_.size(); i += step) {
      ServiceRequest req;
      ServiceError err;
      if (!decode_request(corpus_.text(i), req, err)) {
        r_.fail("corpus frame does not decode");
        continue;
      }
      OptimizerOptions o = req.spec.options;
      o.incremental = false;
      out.push_back({parse_floorplan(req.topology, parse_module_library(req.library)), o});
    }
    return out;
  }

  /// The engine on the request trees, outside the service: a serial and a
  /// multi-threaded solve of each (checked equal). The `first` pass also
  /// records M and the area ratio, and `with_replay` adds the pool
  /// counters and the replay with its guard.
  void engine_pass(const std::vector<RequestTree>& trees, bool first, bool with_replay) {
    const unsigned mt = mt_threads();
    for (const RequestTree& t : trees) {
      OptimizerOptions o = t.options;
      o.threads = 0;
      auto t0 = Clock::now();
      const OptimizeOutcome serial = optimize_floorplan(t.tree, o);
      solve_1t_.push_back(since(t0));
      o.threads = mt;
      t0 = Clock::now();
      const OptimizeOutcome parallel = optimize_floorplan(t.tree, o);
      const double mt_s = since(t0);
      solve_mt_.push_back(mt_s);
      ++r_.attempted;
      if (serial.out_of_memory || !same_result(serial, parallel)) {
        ++r_.failed;
        r_.fail("request tree: serial and multi-threaded results differ");
        continue;
      }
      if (first) {
        peak_impls_.push_back(static_cast<double>(serial.stats.peak_stored));
        area_ratio_.push_back(area_ratio(t.tree, serial));
      }
      if (!with_replay) continue;

      pools_.push_back(pool_sample(parallel, mt_s));
      o.threads = 0;
      const ReplayProfile rp = replay_engine(t.tree, o);
      ++r_.attempted;
      if (const auto diffs = replay_guard(rp, serial); !diffs.empty()) {
        ++r_.failed;
        r_.fail("replay guard: " + diffs.front());
      }
      layers_.push_back(layer_sample(rp));
    }
  }

  const RunArgs& args_;
  RunResult r_;
  Corpus corpus_;
  std::unique_ptr<LiveServer> server_;
  Pcg32 rng_{args_.seed, 0xfeed};
  std::size_t next_frame_ = 0;
  double setup_s_ = 0;
  std::vector<double> probes_;
  std::vector<double> solve_1t_, solve_mt_, peak_impls_, area_ratio_;
  std::vector<LayerSample> layers_;
  std::vector<PoolSample> pools_;
};

}  // namespace

RunResult run_service_workload(const RunArgs& args) {
  ServiceRun run(args);
  return run.run();
}

}  // namespace perfbench
