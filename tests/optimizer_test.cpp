// Integration tests for the optimizer engine: agreement with Stockmeyer on
// slicing inputs, brute force on tiny floorplans, exactness of the wheel
// path, bounded-mode semantics, and the simulated memory budget.
#include <gtest/gtest.h>

#include <optional>

#include "core/l_selection.h"
#include "core/r_selection.h"
#include "floorplan/serialize.h"
#include "test_util.h"
#include "optimize/optimizer.h"
#include "optimize/stockmeyer.h"
#include "workload/floorplans.h"

namespace fpopt {
namespace {

OptimizerOptions exact_options() {
  OptimizerOptions o;
  o.impl_budget = 0;  // unlimited
  return o;
}

TEST(OptimizerTest, SingleModuleFloorplanIsItsBestImplementation) {
  // A one-leaf tree is not interesting but must still work via a slice of
  // two; use two modules.
  FloorplanTree tree = parse_floorplan("(V a b)", parse_module_library("a 2x3 3x2\nb 1x4 4x1\n"));
  const OptimizeOutcome out = optimize_floorplan(tree, exact_options());
  ASSERT_FALSE(out.out_of_memory);
  // Candidates: widths sum, heights max. Best: (3+4)x2=14? (3,2)+(4,1)->7x2=14;
  // (2,3)+(1,4) -> 3x4=12; (2,3)+(4,1)->6x3=18; (3,2)+(1,4)->4x4=16.
  EXPECT_EQ(out.best_area, 12);
}

TEST(OptimizerTest, MatchesStockmeyerOnSlicingTrees) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    WorkloadConfig cfg;
    cfg.impls_per_module = 6;
    cfg.seed = seed;
    for (const bool alternate : {false, true}) {
      const FloorplanTree tree = make_slicing_chain(9, SliceDir::Vertical, alternate, cfg);
      const OptimizeOutcome out = optimize_floorplan(tree, exact_options());
      ASSERT_FALSE(out.out_of_memory);
      const auto oracle = stockmeyer_best_area(tree);
      ASSERT_TRUE(oracle.has_value());
      EXPECT_EQ(out.best_area, *oracle) << "seed " << seed;
      // Full root curves agree as well.
      EXPECT_EQ(out.root, *stockmeyer_shape_curve(tree));
    }
  }
}

TEST(OptimizerTest, MatchesStockmeyerOnGrids) {
  WorkloadConfig cfg;
  cfg.impls_per_module = 4;
  for (const std::uint64_t seed : {7u, 8u}) {
    cfg.seed = seed;
    const FloorplanTree tree = make_grid(3, 4, cfg);
    const OptimizeOutcome out = optimize_floorplan(tree, exact_options());
    ASSERT_FALSE(out.out_of_memory);
    EXPECT_EQ(out.best_area, stockmeyer_best_area(tree).value());
  }
}

/// Brute-force minimal area of a single pinwheel by trying all 5-tuples.
Area brute_force_pinwheel(const FloorplanTree& tree) {
  const auto& m = tree.modules();
  Area best = std::numeric_limits<Area>::max();
  for (const RectImpl& d : m[0].impls)
    for (const RectImpl& a : m[1].impls)
      for (const RectImpl& e : m[2].impls)
        for (const RectImpl& c : m[3].impls)
          for (const RectImpl& b : m[4].impls) {
            const Dim x2 = std::max(d.w, a.w + e.w);
            const Dim y2 = std::max(c.h, d.h + e.h);
            const Dim w = std::max(x2 + c.w, a.w + b.w);
            const Dim h = std::max(y2 + b.h, d.h + a.h);
            best = std::min(best, w * h);
          }
  return best;
}

TEST(OptimizerTest, PinwheelMatchesBruteForceBothChiralities) {
  for (const std::uint64_t seed : {11u, 12u, 13u, 14u, 15u}) {
    WorkloadConfig cfg;
    cfg.impls_per_module = 5;
    cfg.seed = seed;
    for (const WheelChirality chir :
         {WheelChirality::Clockwise, WheelChirality::CounterClockwise}) {
      const FloorplanTree tree = make_single_pinwheel(cfg, chir);
      const OptimizeOutcome out = optimize_floorplan(tree, exact_options());
      ASSERT_FALSE(out.out_of_memory);
      EXPECT_EQ(out.best_area, brute_force_pinwheel(tree)) << "seed " << seed;
    }
  }
}

TEST(OptimizerTest, MixedWheelAndSliceTreeMatchesBruteForce) {
  // 7 modules, 3 impls each: 3^7 = 2187 assignments.
  const char* lib =
      "a 4x2 3x3 2x5\nb 5x1 3x2 1x6\nc 2x2 1x4 4x1\nd 3x3 2x4 5x2\n"
      "e 2x6 4x3 6x2\nf 1x3 2x2 3x1\ng 2x4 3x3 5x2\n";
  for (const char* topo : {"(W (V a b) c d e (H f g))", "(M a (H b c) d (V e f) g)",
                           "(V a (W b c d e f) g)", "(H (W a b c d e) (V f g))"}) {
    FloorplanTree tree = parse_floorplan(topo, parse_module_library(lib));
    const OptimizeOutcome out = optimize_floorplan(tree, exact_options());
    ASSERT_FALSE(out.out_of_memory) << topo;
    EXPECT_EQ(out.best_area, test::brute_force_tree_area(tree)) << topo;
  }
}

TEST(OptimizerTest, NestedWheelsMatchBruteForce) {
  const char* lib =
      "a 3x2 2x3\nb 2x2 1x4\nc 4x1 2x2\nd 1x3 3x1\ne 2x4 4x2\n"
      "f 3x3 2x4\ng 1x2 2x1\nh 2x2 3x1\ni 4x2 2x3\n";
  FloorplanTree tree =
      parse_floorplan("(W (W a b c d e) f g h i)", parse_module_library(lib));
  const OptimizeOutcome out = optimize_floorplan(tree, exact_options());
  ASSERT_FALSE(out.out_of_memory);
  EXPECT_EQ(out.best_area, test::brute_force_tree_area(tree));
}

TEST(OptimizerTest, BoundedModeNeverBeatsExactAndConvergesWithK) {
  WorkloadConfig cfg;
  cfg.impls_per_module = 8;
  cfg.seed = 5;
  const FloorplanTree tree = make_single_pinwheel(cfg);
  const OptimizeOutcome exact = optimize_floorplan(tree, exact_options());
  ASSERT_FALSE(exact.out_of_memory);

  Area prev = std::numeric_limits<Area>::max();
  for (const std::size_t k : {3u, 6u, 12u, 200u}) {
    OptimizerOptions o = exact_options();
    o.selection.k1 = k;
    o.selection.k2 = 4 * k;
    const OptimizeOutcome bounded = optimize_floorplan(tree, o);
    ASSERT_FALSE(bounded.out_of_memory);
    EXPECT_GE(bounded.best_area, exact.best_area) << "selection is a relaxation, never a win";
    prev = std::min(prev, bounded.best_area);
  }
  // With generous limits the answer is exact again.
  OptimizerOptions generous = exact_options();
  generous.selection.k1 = 10'000;
  generous.selection.k2 = 100'000;
  EXPECT_EQ(optimize_floorplan(tree, generous).best_area, exact.best_area);
}

TEST(OptimizerTest, BoundedModeReducesPeakMemory) {
  WorkloadConfig cfg;
  cfg.impls_per_module = 12;
  cfg.seed = 9;
  const FloorplanTree tree = make_fp1(cfg);

  const OptimizeOutcome exact = optimize_floorplan(tree, exact_options());
  ASSERT_FALSE(exact.out_of_memory);

  OptimizerOptions bounded = exact_options();
  bounded.selection.k1 = 10;
  bounded.selection.k2 = 60;
  const OptimizeOutcome small = optimize_floorplan(tree, bounded);
  ASSERT_FALSE(small.out_of_memory);
  EXPECT_LT(small.stats.peak_stored, exact.stats.peak_stored);
  EXPECT_GT(small.stats.r_selection_calls + small.stats.l_selection_calls, 0u);
  EXPECT_GE(small.best_area, exact.best_area);
}

TEST(OptimizerTest, MemoryBudgetAbortsLikeTheSparc) {
  WorkloadConfig cfg;
  cfg.impls_per_module = 12;
  cfg.seed = 9;
  const FloorplanTree tree = make_fp1(cfg);
  OptimizerOptions tight;
  tight.impl_budget = 2'000;
  const OptimizeOutcome out = optimize_floorplan(tree, tight);
  EXPECT_TRUE(out.out_of_memory);
  EXPECT_EQ(out.artifacts, nullptr);
  EXPECT_EQ(out.best_area, 0);
  EXPECT_GT(out.stats.peak_stored + out.stats.peak_transient, 0u);
}

TEST(OptimizerTest, SelectionRescuesABudgetThatExactModeBusts) {
  WorkloadConfig cfg;
  cfg.impls_per_module = 12;
  cfg.seed = 9;
  const FloorplanTree tree = make_fp1(cfg);

  OptimizerOptions tight;
  tight.impl_budget = 8'000;
  ASSERT_TRUE(optimize_floorplan(tree, tight).out_of_memory);

  tight.selection.k1 = 12;
  tight.selection.k2 = 80;
  tight.selection.theta = 1.0;
  const OptimizeOutcome rescued = optimize_floorplan(tree, tight);
  EXPECT_FALSE(rescued.out_of_memory)
      << "the paper's headline: selection makes infeasible instances feasible";
  EXPECT_GT(rescued.best_area, 0);
}

TEST(OptimizerTest, ExactAreaIndependentOfSliceRestructureShape) {
  WorkloadConfig cfg;
  cfg.impls_per_module = 5;
  cfg.seed = 21;
  const FloorplanTree tree = make_grid(4, 4, cfg);
  OptimizerOptions left_deep = exact_options();
  OptimizerOptions balanced = exact_options();
  balanced.restructure.balanced_slices = true;
  const OptimizeOutcome a = optimize_floorplan(tree, left_deep);
  const OptimizeOutcome b = optimize_floorplan(tree, balanced);
  EXPECT_EQ(a.best_area, b.best_area);
  EXPECT_EQ(a.root, b.root);
}

TEST(OptimizerTest, RootCurveIsIrreducible) {
  WorkloadConfig cfg;
  cfg.impls_per_module = 6;
  cfg.seed = 2;
  const FloorplanTree tree = make_fp1(cfg);
  const OptimizeOutcome out = optimize_floorplan(tree, exact_options());
  ASSERT_FALSE(out.out_of_memory);
  EXPECT_TRUE(is_irreducible_r_list(out.root.impls()));
  EXPECT_GT(out.root.size(), 1u);
}

// ---- the paper's counters, pinned ---------------------------------------
//
// total_generated and the tracker peaks are the paper's M and must not
// move when the combine and canonicalize layers change how they prune.
// The numbers below were recorded before the fused generate-and-prune
// rewrite of combine_wheel_close / LListSet::canonicalize; every budget
// decision and the abort-time state at peak_live - 1 are pinned with them.

/// Mirrors NodeEvaluator (src/optimize/optimizer.cpp) on one serial
/// tracker, so a test can see the MemoryLimitExceeded payload that
/// optimize_floorplan turns into out_of_memory.
std::optional<MemoryLimitExceeded> replay_budget_abort(const FloorplanTree& tree,
                                                       const OptimizerOptions& opts) {
  const BinaryTree btree = restructure(tree, opts.restructure);
  std::vector<NodeResult> nodes(btree.node_count);
  BudgetTracker budget(opts.impl_budget);
  OptimizerStats stats;
  const SelectionConfig& sel = opts.selection;
  const auto store_rect = [&](NodeResult& res, RCombineResult&& combined) {
    budget.add_stored(combined.list.size());
    if (sel.k1 != 0 && combined.list.size() > sel.k1) {
      const SelectionResult picked = r_selection(combined.list, sel.k1, sel.dp);
      budget.sub_stored(combined.list.size() - picked.kept.size());
      combined.list = combined.list.subset(picked.kept);
    }
    res.rlist = std::move(combined.list);
  };
  const auto store_l = [&](NodeResult& res, LCombineResult&& combined) {
    if (opts.l_pruning != LPruning::PerChain) budget.sub_stored(combined.set.canonicalize());
    if (sel.k2 != 0) {
      const LSelectionOptions lopts{sel.metric, sel.dp, sel.heuristic_cap,
                                    LHeuristic::UniformSubsample};
      const LReductionReport report = reduce_l_set(combined.set, sel.k2, sel.theta, lopts);
      if (report.triggered) budget.sub_stored(report.before - report.after);
    }
    res.is_l = true;
    res.lset = std::move(combined.set);
  };
  const std::function<void(const BinaryNode&)> eval = [&](const BinaryNode& node) {
    if (node.left) eval(*node.left);
    if (node.right) eval(*node.right);
    NodeResult& res = nodes[node.id];
    const auto rect = [&](const BinaryNode& n) -> const RList& { return nodes[n.id].rlist; };
    const auto lset = [&](const BinaryNode& n) -> const LListSet& { return nodes[n.id].lset; };
    switch (node.op) {
      case BinaryOp::LeafModule:
        res.rlist = tree.module(node.module_id).impls;
        budget.add_stored(res.rlist.size());
        break;
      case BinaryOp::SliceH:
      case BinaryOp::SliceV:
        store_rect(res, combine_slice(rect(*node.left), rect(*node.right),
                                      node.op == BinaryOp::SliceH, budget, stats));
        break;
      case BinaryOp::WheelStack:
        store_l(res, combine_wheel_stack(rect(*node.left), rect(*node.right), opts.l_pruning,
                                         budget, stats));
        break;
      case BinaryOp::WheelFillNotch:
        store_l(res, combine_wheel_fill_notch(lset(*node.left), rect(*node.right),
                                              opts.l_pruning, budget, stats));
        break;
      case BinaryOp::WheelExtend:
        store_l(res, combine_wheel_extend(lset(*node.left), rect(*node.right), opts.l_pruning,
                                          budget, stats));
        break;
      case BinaryOp::WheelClose:
        store_rect(res, combine_wheel_close(lset(*node.left), rect(*node.right), budget, stats));
        break;
    }
  };
  try {
    eval(*btree.root);
  } catch (const MemoryLimitExceeded& e) {
    return e;
  }
  return std::nullopt;
}

struct PaperCounterPin {
  const char* name;
  int fp;
  bool table4;  ///< Table 4 selection config instead of exact [9]
  std::size_t total_generated, peak_stored, peak_transient, peak_live;
  Area best_area;
  // Run at impl_budget = peak_live - 1, at any thread count: the serial
  // trip point's stats and MemoryLimitExceeded payload.
  std::size_t abort_generated, abort_peak_stored, abort_peak_transient, abort_peak_live,
      abort_final_stored;
  std::size_t payload_stored, payload_transient;
};

void PrintTo(const PaperCounterPin& pin, std::ostream* os) { *os << pin.name; }

OptimizerOptions pin_options(const PaperCounterPin& pin, std::size_t threads, std::size_t budget) {
  OptimizerOptions o;
  o.impl_budget = budget;
  o.threads = threads;
  if (pin.table4) {
    o.selection.k1 = 40;
    o.selection.k2 = 1000;
    o.selection.theta = 0.75;
    o.selection.heuristic_cap = 1024;
    o.selection.metric = LpMetric::L1;
  }
  return o;
}

class PaperCounterTest
    : public ::testing::TestWithParam<std::tuple<PaperCounterPin, std::size_t>> {};

TEST_P(PaperCounterTest, CountersAndBudgetDecisionsArePinned) {
  const auto& [pin, threads] = GetParam();
  const FloorplanTree tree = make_paper_floorplan(pin.fp, 3);

  const auto expect_counters = [&](const OptimizeOutcome& out, const char* what) {
    ASSERT_FALSE(out.out_of_memory) << what;
    EXPECT_EQ(out.stats.total_generated, pin.total_generated) << what;
    EXPECT_EQ(out.stats.peak_stored, pin.peak_stored) << what;
    EXPECT_EQ(out.stats.peak_transient, pin.peak_transient) << what;
    EXPECT_EQ(out.stats.peak_live, pin.peak_live) << what;
    EXPECT_EQ(out.best_area, pin.best_area) << what;
  };
  expect_counters(optimize_floorplan(tree, pin_options(pin, threads, 0)), "unlimited");
  expect_counters(optimize_floorplan(tree, pin_options(pin, threads, pin.peak_live)),
                  "budget = peak_live");

  const OptimizerOptions tight = pin_options(pin, threads, pin.peak_live - 1);
  const OptimizeOutcome aborted = optimize_floorplan(tree, tight);
  ASSERT_TRUE(aborted.out_of_memory);
  EXPECT_EQ(aborted.stats.total_generated, pin.abort_generated);
  EXPECT_EQ(aborted.stats.peak_stored, pin.abort_peak_stored);
  EXPECT_EQ(aborted.stats.peak_transient, pin.abort_peak_transient);
  EXPECT_EQ(aborted.stats.peak_live, pin.abort_peak_live);
  EXPECT_EQ(aborted.stats.final_stored, pin.abort_final_stored);
  const std::optional<MemoryLimitExceeded> payload = replay_budget_abort(tree, tight);
  ASSERT_TRUE(payload.has_value());
  EXPECT_EQ(payload->stored, pin.payload_stored);
  EXPECT_EQ(payload->transient, pin.payload_transient);
  EXPECT_EQ(payload->stored, aborted.stats.final_stored);
}

// FP3 case 3 exact [9], and FP4 case 3 under Table 4's K1=40 K2=1000
// theta=0.75 S=1024 L1 — the two solve workloads of perfbench/.
INSTANTIATE_TEST_SUITE_P(
    PaperCases, PaperCounterTest,
    ::testing::Combine(
        ::testing::Values(PaperCounterPin{"fp3_exact", 3, false, 3273901, 490754, 26698, 490840,
                                          116365, 943550, 490751, 87, 490837, 490751, 490751,
                                          86},
                          PaperCounterPin{"fp4_table4", 4, true, 5857577, 191277, 8754, 191300,
                                          254188, 5738621, 191272, 8754, 191295, 191272, 191272,
                                          23}),
        ::testing::Values(std::size_t{0}, std::size_t{4})),
    [](const auto& param_info) {
      return std::string(std::get<0>(param_info.param).name) + "_threads" +
             std::to_string(std::get<1>(param_info.param));
    });

}  // namespace
}  // namespace fpopt
