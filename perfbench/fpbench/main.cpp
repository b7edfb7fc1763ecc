// fpbench: the repository benchmark's measuring program.
//
//   fpbench --workload <exact_fp3|bounded_fp4|service_mixed> --seed N
//           --seconds S --trace 0|1 --rate-rps R --p99-limit-ms L
//           [--smoke] [--samples-dir DIR]
//   fpbench --selftest
//
// Prints one JSON object as its last stdout line: correct, attempted,
// failed, and the metrics (end-to-end with --trace 0, per-layer with
// --trace 1). Raw samples go to DIR/<workload>-seed<N>-trace<T>.json.
// Exits 0 once a result is printed (its "correct" says whether every
// check passed), 1 when the run could not finish, 2 on bad arguments.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "common.h"
#include "replay.h"
#include "workload/floorplans.h"
#include "workloads.h"

namespace {

using namespace perfbench;

void write_samples(const std::string& dir, const RunArgs& args, const RunResult& r) {
  if (dir.empty()) return;
  const std::string path = dir + "/" + args.workload + "-seed" + std::to_string(args.seed) +
                           "-trace" + (args.trace ? "1" : "0") + ".json";
  std::ofstream out(path, std::ios::trunc);
  out << "{\"workload\":\"" << args.workload << "\",\"seed\":" << args.seed
      << ",\"seconds\":" << json_num(args.seconds) << ",\"trace\":" << (args.trace ? 1 : 0)
      << ",\"nproc\":" << online_cpus() << ",\"threads_mt\":" << mt_threads();
  for (const auto& [key, value] : r.notes) out << ",\"" << key << "\":" << value;
  out << ",\"samples\":{";
  for (std::size_t i = 0; i < r.raw.size(); ++i) {
    out << (i ? "," : "") << "\"" << r.raw[i].first << "\":[";
    for (std::size_t j = 0; j < r.raw[i].second.size(); ++j) {
      out << (j ? "," : "") << json_num(r.raw[i].second[j]);
    }
    out << "]";
  }
  out << "}}\n";
}

void print_result(const RunResult& r) {
  std::string line = std::string("{\"correct\": ") + (r.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(r.attempted) +
                     ", \"failed\": " + std::to_string(r.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    line += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + json_num(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  line += "}}";
  std::cout << line << std::endl;
}

/// The replay guard must pass on a faithful replay and trip when the
/// replay runs another selection config than the engine; the bimodality
/// guard must flag the idle-core evidence and pass steady samples.
int selftest() {
  int failures = 0;
  const auto expect = [&](bool ok, const char* what) {
    std::fprintf(stderr, "selftest: %-58s %s\n", what, ok ? "ok" : "FAILED");
    if (!ok) ++failures;
  };
  fpopt::WorkloadConfig cfg;
  cfg.impls_per_module = 8;
  cfg.seed = 3;
  const fpopt::FloorplanTree tree = fpopt::make_fp4(cfg);
  fpopt::OptimizerOptions engine_opts;
  engine_opts.impl_budget = 0;
  engine_opts.selection.k1 = 12;
  engine_opts.selection.k2 = 60;
  engine_opts.selection.theta = 0.75;
  const fpopt::OptimizeOutcome engine = fpopt::optimize_floorplan(tree, engine_opts);
  expect(engine.stats.r_selection_calls > 0 && engine.stats.l_selection_calls > 0,
         "smoke instance exercises R- and L-selection");
  expect(replay_guard(replay_engine(tree, engine_opts), engine).empty(),
         "replay guard passes with the engine's config");
  fpopt::OptimizerOptions other = engine_opts;
  other.selection.k1 = 10;
  expect(!replay_guard(replay_engine(tree, other), engine).empty(),
         "replay guard trips when K1 differs");
  other = engine_opts;
  other.selection.k2 = 50;
  expect(!replay_guard(replay_engine(tree, other), engine).empty(),
         "replay guard trips when K2 differs");

  // FP4 case 1 bounded at 2 threads after idle: four runs at 0.30 s, the
  // rest at 0.10 s.
  std::vector<double> idle_evidence(4, 0.30);
  idle_evidence.resize(16, 0.10);
  expect(bimodal(idle_evidence), "bimodality guard flags 4 x 0.30 s + 12 x 0.10 s");
  std::vector<double> steady;
  for (int i = 0; i < 16; ++i) steady.push_back(0.10 + 0.001 * (i % 7));
  expect(!bimodal(steady), "bimodality guard passes 0.10-0.11 s samples");
  return failures == 0 ? 0 : 1;
}

int usage(const char* why) {
  std::fprintf(stderr, "fpbench: %s\n", why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunArgs args;
  std::string samples_dir;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
      return argv[++i];
    };
    try {
      if (a == "--selftest") return selftest();
      if (a == "--workload") {
        args.workload = value();
      } else if (a == "--seed") {
        args.seed = std::stoull(value());
      } else if (a == "--seconds") {
        args.seconds = std::stod(value());
      } else if (a == "--trace") {
        args.trace = value() == "1";
      } else if (a == "--rate-rps") {
        args.rate_rps = std::stod(value());
      } else if (a == "--p99-limit-ms") {
        args.p99_limit_ms = std::stod(value());
      } else if (a == "--smoke") {
        args.smoke = true;
      } else if (a == "--samples-dir") {
        samples_dir = value();
      } else {
        return usage(("unknown argument " + a).c_str());
      }
    } catch (const std::exception& e) {
      return usage(e.what());
    }
  }
  if (args.seconds <= 0) return usage("--seconds must be positive");

  RunResult result;
  const KeepAwake awake;
  try {
    if (args.workload == "exact_fp3" || args.workload == "bounded_fp4") {
      result = run_solve_workload(args);
    } else if (args.workload == "service_mixed") {
      if (args.rate_rps <= 0 || args.p99_limit_ms <= 0) {
        return usage("service_mixed needs --rate-rps and --p99-limit-ms");
      }
      result = run_service_workload(args);
    } else {
      return usage("unknown --workload");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fpbench: %s\n", e.what());
    return 1;
  }
  result.notes.emplace_back("keep_awake", awake.active() ? "true" : "false");
  write_samples(samples_dir, args, result);
  for (const std::string& p : result.problems) std::fprintf(stderr, "fpbench: check: %s\n", p.c_str());
  print_result(result);
  return 0;
}
