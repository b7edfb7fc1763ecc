// exact_fp3 and bounded_fp4: one paper floorplan, solved again and again.
//
// The benchmark seed never changes the problem, only its text: module
// names and the order of library lines and implementations are permuted
// before the program parses them. So every seed poses the same instance
// (peak_impls and area_ratio repeat exactly) through different bytes.
#include <algorithm>
#include <sstream>
#include <thread>

#include "floorplan/restructure.h"
#include "floorplan/serialize.h"
#include "optimize/optimizer.h"
#include "optimize/placement.h"
#include "replay.h"
#include "workload/floorplans.h"
#include "workloads.h"

namespace perfbench {

using namespace fpopt;

namespace {

struct SolveSpec {
  int fp = 3;
  OptimizerOptions options;  ///< threads set per measurement
  std::string options_json;  ///< the same settings as an fpoptd request
};

SolveSpec spec_for(const std::string& workload) {
  SolveSpec s;
  s.options.impl_budget = 0;  // exact [9] with an unlimited budget
  s.options_json = "\"budget\":0";
  if (workload == "bounded_fp4") {
    // Table 4: K1 = 40, K2 = 1000, theta = 0.75, S = 1024, L1.
    s.fp = 4;
    s.options.selection.k1 = 40;
    s.options.selection.k2 = 1000;
    s.options.selection.theta = 0.75;
    s.options.selection.heuristic_cap = 1024;
    s.options.selection.metric = LpMetric::L1;
    s.options_json += ",\"k1\":40,\"k2\":1000,\"theta\":0.75,\"scap\":1024,\"metric\":\"l1\"";
  }
  return s;
}

FloorplanTree base_floorplan(const SolveSpec& spec, bool smoke) {
  if (!smoke) return make_paper_floorplan(spec.fp, 3);  // test case 3: N = 40
  WorkloadConfig cfg;
  cfg.impls_per_module = 8;
  cfg.seed = 3;
  return spec.fp == 4 ? make_fp4(cfg) : make_fp3(cfg);
}

struct TextInput {
  std::string topology;
  std::string library;
};

/// The instance as text, with seeded module names and line/implementation
/// order.
TextInput render_input(const FloorplanTree& base, std::uint64_t seed) {
  Pcg32 rng(seed, 0x5eed);
  const std::vector<Module>& mods = base.modules();
  std::vector<std::size_t> rename(mods.size());
  for (std::size_t i = 0; i < rename.size(); ++i) rename[i] = i;
  seeded_shuffle(rename, rng);
  std::vector<std::pair<std::string, std::string>> names;  // old -> new
  for (std::size_t i = 0; i < mods.size(); ++i) {
    names.emplace_back(mods[i].name, "u" + std::to_string(rename[i]));
  }
  std::sort(names.begin(), names.end());

  // Topology tokens: '(' op children... ')'; every other token is a name.
  const std::string topo = to_topology_string(base);
  TextInput in;
  std::size_t i = 0;
  bool after_open = false;
  while (i < topo.size()) {
    const char c = topo[i];
    if (c == '(' || c == ')' || c == ' ' || c == '\n' || c == '\t') {
      in.topology += c;
      if (c == '(') after_open = true;
      ++i;
      continue;
    }
    std::size_t j = i;
    while (j < topo.size() && std::string(" ()\n\t").find(topo[j]) == std::string::npos) ++j;
    const std::string token = topo.substr(i, j - i);
    if (after_open) {
      in.topology += token;  // slice/wheel operator
    } else {
      const auto it = std::lower_bound(names.begin(), names.end(),
                                       std::make_pair(token, std::string()));
      in.topology += (it != names.end() && it->first == token) ? it->second : token;
    }
    after_open = false;
    i = j;
  }

  std::vector<std::size_t> order(mods.size());
  for (std::size_t k = 0; k < order.size(); ++k) order[k] = k;
  seeded_shuffle(order, rng);
  std::ostringstream lib;
  for (std::size_t k : order) {
    std::vector<RectImpl> impls(mods[k].impls.begin(), mods[k].impls.end());
    seeded_shuffle(impls, rng);
    lib << "u" << rename[k];
    for (const RectImpl& r : impls) lib << ' ' << r.w << 'x' << r.h;
    lib << '\n';
  }
  in.library = lib.str();
  return in;
}

FloorplanTree parse_input(const TextInput& in) {
  FloorplanTree tree = parse_floorplan(in.topology, parse_module_library(in.library));
  if (!tree.validate().empty()) throw std::runtime_error("generated floorplan is invalid");
  return tree;
}

OptimizeOutcome solve(const FloorplanTree& tree, const SolveSpec& spec, std::size_t threads) {
  OptimizerOptions o = spec.options;
  o.threads = threads;
  return optimize_floorplan(tree, o);
}

/// Set-up state: the parsed instance and the reference outcome.
struct Prepared {
  FloorplanTree tree;
  OptimizeOutcome reference;  ///< threads = 0
  TextInput input;
};

/// One full set-up: input generation and parse, restructure, and the first
/// solve on the serial engine and on the multi-threaded one (which starts
/// its pool). Returns its wall time.
double set_up(const SolveSpec& spec, const RunArgs& args, Prepared& out, RunResult& result) {
  const auto t0 = Clock::now();
  out.input = render_input(base_floorplan(spec, args.smoke), args.seed);
  out.tree = parse_input(out.input);
  (void)restructure(out.tree, spec.options.restructure);
  out.reference = solve(out.tree, spec, 0);
  const OptimizeOutcome mt = solve(out.tree, spec, mt_threads());
  const double elapsed = since(t0);
  ++result.attempted;
  if (out.reference.out_of_memory || !same_result(out.reference, mt)) {
    ++result.failed;
    result.fail("set-up: serial and multi-threaded results differ");
  }
  return elapsed;
}

void check_solve(const OptimizeOutcome& got, const Prepared& p, RunResult& r, const char* what) {
  ++r.attempted;
  if (!same_result(got, p.reference)) {
    ++r.failed;
    r.fail(std::string(what) + ": result differs from the reference solve");
  }
}

/// One batch round: `threads` independent serial solves at once. Returns
/// the round's wall time.
double batch_round(const Prepared& p, const SolveSpec& spec, unsigned threads, RunResult& r) {
  std::vector<OptimizeOutcome> outs(threads);
  std::vector<std::thread> workers;
  const auto t0 = Clock::now();
  for (unsigned i = 0; i < threads; ++i) {
    workers.emplace_back([&, i] {
      try {
        outs[i] = solve(p.tree, spec, 0);
      } catch (const std::exception&) {
        // Left empty, the outcome fails the check below.
      }
    });
  }
  for (std::thread& t : workers) t.join();
  const double wall = since(t0);
  for (const OptimizeOutcome& o : outs) check_solve(o, p, r, "batch solve");
  return wall;
}

void end_to_end(const RunArgs& args, const SolveSpec& spec, RunResult& r) {
  refuse_mt_below_threads(r);
  const unsigned mt = mt_threads();
  std::vector<double> setups;
  Prepared p;
  for (int i = 0; i < 3; ++i) setups.push_back(set_up(spec, args, p, r));
  r.keep_samples("setup_s", setups);

  // Correctness of the answer itself.
  const std::size_t min_idx = p.reference.root.min_area_index();
  ++r.attempted;
  const Placement best = trace_placement(p.tree, p.reference, min_idx);
  if (const auto problems = validate_placement(best, p.tree); !problems.empty()) {
    ++r.failed;
    r.fail("min-area placement invalid: " + problems.front());
  }
  const double ratio = area_ratio(p.tree, p.reference);
  if (!(ratio >= 1.0)) r.fail("area_ratio below 1");

  // Requests: this instance as one fpoptd `optimize` request, served
  // in-process as an idle daemon serves it minus the transport (decode,
  // parse, solve on the default serial engine, format, encode). Every
  // response must repeat the first byte for byte.
  const std::string frame =
      optimize_frame(1, p.input.topology, p.input.library, spec.options_json, 1);
  const std::string first_response = expected_response(frame);
  ++r.attempted;
  if (first_response.empty()) {
    ++r.failed;
    r.fail("optimize request failed");
  }

  warm_up_cores(mt, args.smoke ? 0.2 : 2.0);
  const auto window = Clock::now();
  const double solve_end = 0.65 * args.seconds;

  // Serial solves, multi-threaded solves and requests, interleaved in a
  // rotating order so the host's speed drift hits all three alike.
  std::vector<double> t1, tm, request_ms;
  for (std::size_t cycle = 0; cycle < 3 || since(window) < solve_end; ++cycle) {
    for (std::size_t leg = 0; leg < 3; ++leg) {
      const std::size_t kind = (cycle + leg) % 3;
      const auto t0 = Clock::now();
      if (kind == 2) {
        const std::string response = expected_response(frame);
        request_ms.push_back(since(t0) * 1e3);
        ++r.attempted;
        if (response != first_response) {
          ++r.failed;
          r.fail("optimize request: response differs from the first");
        }
        continue;
      }
      const bool serial = kind == 0;
      const OptimizeOutcome o = solve(p.tree, spec, serial ? 0 : mt);
      (serial ? t1 : tm).push_back(since(t0));
      check_solve(o, p, r, serial ? "serial solve" : "multi-threaded solve");
    }
  }

  // Batch throughput: mt independent serial solves at once. (They can set
  // peak_rss_mb; the note gives the peak before them.)
  r.notes.emplace_back("peak_rss_before_batch_mb", json_num(peak_rss_mb()));
  std::vector<double> rates;
  while (rates.size() < 3 || since(window) < args.seconds) {
    rates.push_back(static_cast<double>(mt) / batch_round(p, spec, mt, r));
  }

  // Every root implementation's placement must tile (checked outside the
  // timed loops).
  const std::size_t roots = p.reference.root.size();
  for (std::size_t i = 0; i < roots; ++i) {
    ++r.attempted;
    if (!validate_placement(trace_placement(p.tree, p.reference, i), p.tree).empty()) {
      ++r.failed;
      r.fail("placement of root implementation " + std::to_string(i) + " invalid");
    }
  }

  r.keep_samples("solve_1t_s", t1);
  r.keep_samples("solve_mt_s", tm);
  r.keep_samples("batch_rate_rps", rates);
  r.keep_samples("latency_ms", request_ms);
  r.notes.emplace_back("root_implementations", std::to_string(roots));

  r.add("setup_s", median(setups), "s");
  r.add("solve_1t_s", median(t1), "s");
  r.add("solve_mt_s", median(tm), "s");
  r.add("peak_impls", static_cast<double>(p.reference.stats.peak_stored), "count");
  r.add("peak_rss_mb", peak_rss_mb(), "MB");
  r.add("area_ratio", ratio, "ratio");
  r.add("latency_ms.p50", median(request_ms), "ms");
  r.add("max_rate_rps", median(rates), "1/s");
}

void traced(const RunArgs& args, const SolveSpec& spec, RunResult& r) {
  const unsigned mt = mt_threads();
  Prepared p;
  (void)set_up(spec, args, p, r);
  warm_up_cores(mt, args.smoke ? 0.2 : 2.0);
  const auto window = Clock::now();

  // Replay / engine pairs: the replay's spans give the layers; the engine
  // run next to it gives the untraced time the replay is compared with.
  std::vector<LayerSample> layers;
  std::vector<double> wall, overhead;
  for (std::size_t i = 0; i < 3 || since(window) < 0.5 * args.seconds; ++i) {
    const auto t0 = Clock::now();
    const OptimizeOutcome engine = solve(p.tree, spec, 0);
    const double engine_s = since(t0);
    const ReplayProfile rp = replay_engine(p.tree, spec.options);
    ++r.attempted;
    if (const auto diffs = replay_guard(rp, engine); !diffs.empty()) {
      ++r.failed;
      r.fail("replay guard: " + diffs.front());
    }
    layers.push_back(layer_sample(rp));
    wall.push_back(rp.wall_s);
    overhead.push_back(rp.wall_s / engine_s - 1.0);
  }

  // Runtime layer: the pool counters of multi-threaded solves.
  std::vector<PoolSample> pools;
  for (std::size_t i = 0; i < 3 || since(window) < 0.75 * args.seconds; ++i) {
    const auto t0 = Clock::now();
    const OptimizeOutcome o = solve(p.tree, spec, mt);
    pools.push_back(pool_sample(o, since(t0)));
    check_solve(o, p, r, "multi-threaded solve");
  }

  // Service layers on this workload's own request.
  const std::string frame =
      optimize_frame(1, p.input.topology, p.input.library, spec.options_json, 1);
  const StageTimes stages = time_stages({frame});
  for (const std::string& problem : stages.problems) r.fail("stage timing: " + problem);
  LiveServer server(bench_service_config(), scratch_path("sock"), scratch_path("log"));
  const MetricsSnapshot pre = snapshot_metrics(server.socket_path());
  const MetricsSnapshot before = snapshot_metrics(server.socket_path());
  std::vector<std::string> frames;
  std::vector<Planned> plan;
  for (int i = 0; i < 2; ++i) {
    frames.push_back(optimize_frame(static_cast<std::uint64_t>(10 + i), p.input.topology,
                                    p.input.library, spec.options_json + ",\"incremental\":true",
                                    i));
  }
  for (int i = 0; i < 2; ++i) plan.push_back({{frames[i]}, 1.5 * median(wall) * i, 0, false});
  const std::vector<Outcome> outs = run_open_loop(server.socket_path(), 1, plan, 60.0);
  const MetricsSnapshot after = snapshot_metrics(server.socket_path());
  for (const Outcome& o : outs) {
    ++r.attempted;
    if (!o.ok) {
      ++r.failed;
      r.fail("fpoptd request failed");
    }
  }

  add_engine_layers(r, layers, pools);
  add_service_layers(r, stages, pre, before, after, outs);
  std::vector<double> unattributed;
  for (const LayerSample& l : layers) unattributed.push_back(l.unattributed_share);
  r.add("unattributed_share", median(unattributed), "ratio");
  r.add("trace_overhead_share", median(overhead), "ratio");
  r.keep_samples("replay_wall_s", wall);
}

}  // namespace

RunResult run_solve_workload(const RunArgs& args) {
  RunResult r;
  const SolveSpec spec = spec_for(args.workload);
  if (args.trace) {
    traced(args, spec, r);
  } else {
    end_to_end(args, spec, r);
  }
  return r;
}

}  // namespace perfbench
