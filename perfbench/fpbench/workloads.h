// The benchmark's workloads. Each run measures one workload in its own
// process and reports either the end-to-end metrics (untraced run) or the
// per-layer metrics (traced run) named in BENCHMARK.json.
#pragma once

#include <string>
#include <vector>

#include "common.h"
#include "service_probe.h"

namespace perfbench {

/// exact_fp3 and bounded_fp4.
[[nodiscard]] RunResult run_solve_workload(const RunArgs& args);

/// service_mixed.
[[nodiscard]] RunResult run_service_workload(const RunArgs& args);

/// The ServiceConfig of every live fpoptd the benchmark starts.
[[nodiscard]] fpopt::ServiceConfig bench_service_config();

/// Per-layer numbers of the service path, common to all workloads:
/// direct stage timings, the `metrics` snapshots bracketing a load window,
/// and that window's client-side outcomes. `pre` is a snapshot taken right
/// before `before`; their difference is the cost of one metrics request,
/// which the window's totals then exclude.
void add_service_layers(RunResult& result, const StageTimes& stages, const MetricsSnapshot& pre,
                        const MetricsSnapshot& before, const MetricsSnapshot& after,
                        const std::vector<Outcome>& window);

/// A socket / log path inside the checkout's build directory, unique to
/// this process.
[[nodiscard]] std::string scratch_path(const std::string& stem);

}  // namespace perfbench
