// Traced replay of the serial engine, timed from outside the program.
//
// The replay walks restructure(tree) in postorder and, per T' node, calls
// the same public functions the engine's NodeEvaluator calls, in the same
// order and with the same arguments: the combine kernels (optimize),
// LListSet::canonicalize (shape), r_selection and reduce_l_set (core).
// Each call is one span. The guard then demands that the replay's root
// list and counters equal optimize_floorplan's exactly, so the spans are
// known to describe the work the engine really does.
#pragma once

#include <string>
#include <vector>

#include "common.h"
#include "floorplan/tree.h"
#include "optimize/optimizer.h"

namespace perfbench {

struct ReplayProfile {
  double wall_s = 0;            ///< the whole postorder walk
  double combine_s = 0;         ///< combine_slice + combine_wheel_*
  double canonicalize_s = 0;    ///< LListSet::canonicalize
  double r_selection_s = 0;     ///< r_selection
  double l_selection_s = 0;     ///< reduce_l_set
  std::vector<double> node_combine_s;  ///< combine time by T' node id
  std::size_t kept = 0;               ///< list sizes after prune/canonicalize, summed
  std::size_t canonicalize_in = 0;    ///< L entries entering canonicalize
  std::size_t canonicalize_dropped = 0;
  std::size_t selection_in = 0;       ///< implementations entering a triggered selection
  fpopt::OptimizerStats stats;
  fpopt::RList root;
};

[[nodiscard]] ReplayProfile replay_engine(const fpopt::FloorplanTree& tree,
                                          const fpopt::OptimizerOptions& opts);

/// Differences between the replay and a reference engine run (root list
/// and every counter the replay reproduces). Empty = the guard passes.
[[nodiscard]] std::vector<std::string> replay_guard(const ReplayProfile& replay,
                                                    const fpopt::OptimizeOutcome& engine);

/// Every counter of the paper's columns and the selection bookkeeping
/// agree, and so do the root lists; `seconds` is timing and excluded.
[[nodiscard]] bool same_result(const fpopt::OptimizeOutcome& a, const fpopt::OptimizeOutcome& b);

/// best area / sum of every module's smallest implementation area: the
/// dead-space factor of the solution, >= 1 for any valid floorplan.
[[nodiscard]] double area_ratio(const fpopt::FloorplanTree& tree,
                                const fpopt::OptimizeOutcome& out);

/// The optimize, shape and core layer numbers of one replay.
struct LayerSample {
  double combine_s = 0;
  double candidates = 0;
  double keep_ratio = 0;         ///< kept / generated
  double top2_node_share = 0;    ///< combine time in the two heaviest T' nodes
  double canonicalize_s = 0;
  double canonicalize_drop_ratio = 0;
  double r_selection_s = 0;
  double l_selection_s = 0;
  double cspp_calls = 0;
  double selected_away_ratio = 0;
  double unattributed_share = 0;  ///< replay wall time outside the named layers
};

[[nodiscard]] LayerSample layer_sample(const ReplayProfile& replay);

/// The runtime layer numbers of one multi-threaded solve that took `wall_s`.
struct PoolSample {
  double idle_share = 0;  ///< worker idle time / (workers x wall time)
  double steals = 0;
  double tasks = 0;
};

[[nodiscard]] PoolSample pool_sample(const fpopt::OptimizeOutcome& parallel, double wall_s);

/// Adds the medians of the samples under their BENCHMARK.json names.
void add_engine_layers(RunResult& result, const std::vector<LayerSample>& layers,
                       const std::vector<PoolSample>& pools);

}  // namespace perfbench
