// Differential tests for the prune-as-you-generate combine layer: the
// library's WheelStack/FillNotch/Extend/Close and LListSet::canonicalize
// against the append-then-sort references in tests/reference/, on shapes,
// provenance, total_generated, every BudgetTracker peak and, for budgets
// below the peak, the abort point and its MemoryLimitExceeded payload.
// Also pins the tie rule: of exact duplicates, the earliest-generated
// copy survives every sort-based prune.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <optional>
#include <vector>

#include "optimize/combine.h"
#include "reference/reference.h"
#include "shape/l_list_set.h"
#include "shape/r_list.h"
#include "test_util.h"

namespace fpopt {
namespace {

/// Fisher-Yates with the suite's deterministic generator.
template <typename T>
void seeded_shuffle(std::vector<T>& v, Pcg32& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.below(static_cast<std::uint32_t>(i))]);
  }
}

/// One implementation of the wheel layers.
struct WheelImpl {
  LCombineResult (*stack)(const RList&, const RList&, LPruning, BudgetTracker&, OptimizerStats&);
  LCombineResult (*fill_notch)(const LListSet&, const RList&, LPruning, BudgetTracker&,
                               OptimizerStats&);
  LCombineResult (*extend)(const LListSet&, const RList&, LPruning, BudgetTracker&,
                           OptimizerStats&);
  RCombineResult (*close)(const LListSet&, const RList&, BudgetTracker&, OptimizerStats&);
  std::size_t (*canonicalize)(LListSet&);
};

const WheelImpl kLibrary{&combine_wheel_stack, &combine_wheel_fill_notch, &combine_wheel_extend,
                         &combine_wheel_close,
                         [](LListSet& set) { return set.canonicalize(); }};
const WheelImpl kReference{&reference::combine_wheel_stack, &reference::combine_wheel_fill_notch,
                           &reference::combine_wheel_extend, &reference::combine_wheel_close,
                           &reference::canonicalize};

struct WheelInputs {
  RList d, a, e, c, b;
};

/// Everything one pinwheel pipeline run exposes.
struct PipelineRun {
  std::vector<LCombineResult> l_steps;  ///< stack, fill-notch, extend (as stored)
  std::optional<RCombineResult> closed;
  std::size_t total_generated = 0;
  std::size_t peak_stored = 0, peak_transient = 0, peak_total = 0, stored = 0;
  std::optional<MemoryLimitExceeded> abort;
};

/// The four wheel ops as the optimizer runs them on one tracker: an L
/// result is canonicalized at store time unless pruning is PerChain, and
/// the closed R-list is stored.
PipelineRun run_pipeline(const WheelImpl& impl, const WheelInputs& in, LPruning pruning,
                         std::size_t budget) {
  PipelineRun run;
  BudgetTracker tracker(budget);
  OptimizerStats stats;
  const auto store = [&](LCombineResult&& r) {
    if (pruning != LPruning::PerChain) tracker.sub_stored(impl.canonicalize(r.set));
    run.l_steps.push_back(std::move(r));
    return &run.l_steps.back().set;
  };
  try {
    store(impl.stack(in.d, in.a, pruning, tracker, stats));
    store(impl.fill_notch(run.l_steps.back().set, in.e, pruning, tracker, stats));
    store(impl.extend(run.l_steps.back().set, in.c, pruning, tracker, stats));
    run.closed = impl.close(run.l_steps.back().set, in.b, tracker, stats);
    tracker.add_stored(run.closed->list.size());
  } catch (const MemoryLimitExceeded& e) {
    run.abort = e;
  }
  run.total_generated = stats.total_generated;
  run.peak_stored = tracker.peak_stored();
  run.peak_transient = tracker.peak_transient();
  run.peak_total = tracker.peak_total();
  run.stored = tracker.stored();
  return run;
}

void expect_same_run(const PipelineRun& lib, const PipelineRun& ref, const std::string& what) {
  ASSERT_EQ(lib.l_steps.size(), ref.l_steps.size()) << what;
  for (std::size_t i = 0; i < lib.l_steps.size(); ++i) {
    EXPECT_TRUE(lib.l_steps[i].set == ref.l_steps[i].set) << what << " L step " << i;
    EXPECT_EQ(lib.l_steps[i].prov, ref.l_steps[i].prov) << what << " L step " << i;
  }
  ASSERT_EQ(lib.closed.has_value(), ref.closed.has_value()) << what;
  if (lib.closed) {
    EXPECT_EQ(lib.closed->list, ref.closed->list) << what;
    EXPECT_EQ(lib.closed->prov, ref.closed->prov) << what;
  }
  EXPECT_EQ(lib.total_generated, ref.total_generated) << what;
  EXPECT_EQ(lib.peak_stored, ref.peak_stored) << what;
  EXPECT_EQ(lib.peak_transient, ref.peak_transient) << what;
  EXPECT_EQ(lib.peak_total, ref.peak_total) << what;
  EXPECT_EQ(lib.stored, ref.stored) << what;
  ASSERT_EQ(lib.abort.has_value(), ref.abort.has_value()) << what;
  if (lib.abort) {
    EXPECT_EQ(lib.abort->stored, ref.abort->stored) << what;
    EXPECT_EQ(lib.abort->transient, ref.abort->transient) << what;
  }
}

WheelInputs random_inputs(Pcg32& rng, std::uint32_t max_len, Dim max_step) {
  const auto list = [&] { return test::random_r_list(1 + rng.below(max_len), rng, max_step); };
  return {list(), list(), list(), list(), list()};
}

constexpr LPruning kModes[] = {LPruning::PerChain, LPruning::GlobalAtNode,
                               LPruning::GlobalEager};

const char* mode_name(LPruning p) {
  switch (p) {
    case LPruning::PerChain: return "PerChain";
    case LPruning::GlobalAtNode: return "GlobalAtNode";
    case LPruning::GlobalEager: return "GlobalEager";
  }
  return "?";
}

TEST(GeneratePruneTest, SmallWheelsMatchTheReferenceAtEveryBudget) {
  // Small coordinate steps make exact duplicates and cross-chain
  // dominance common, so the tie rule is exercised constantly.
  Pcg32 rng(1301);
  for (int iter = 0; iter < 24; ++iter) {
    const WheelInputs in = random_inputs(rng, 6, 3);
    for (const LPruning mode : kModes) {
      const std::string what = std::string(mode_name(mode)) + " iter " + std::to_string(iter);
      const PipelineRun lib = run_pipeline(kLibrary, in, mode, 0);
      const PipelineRun ref = run_pipeline(kReference, in, mode, 0);
      expect_same_run(lib, ref, what);
      ASSERT_FALSE(lib.abort.has_value());
      for (std::size_t budget = 1; budget <= ref.peak_total; ++budget) {
        expect_same_run(run_pipeline(kLibrary, in, mode, budget),
                        run_pipeline(kReference, in, mode, budget),
                        what + " budget " + std::to_string(budget));
        if (HasFatalFailure()) return;
      }
    }
  }
}

TEST(GeneratePruneTest, LargeWheelsMatchTheReferenceThroughCompactions) {
  // Big enough that the close buffer and the GlobalEager L set both pass
  // their 4096-element compaction thresholds several times.
  Pcg32 rng(1302);
  for (int iter = 0; iter < 3; ++iter) {
    const WheelInputs in = random_inputs(rng, 24, 4);
    for (const LPruning mode : kModes) {
      const std::string what = std::string(mode_name(mode)) + " iter " + std::to_string(iter);
      const PipelineRun ref = run_pipeline(kReference, in, mode, 0);
      expect_same_run(run_pipeline(kLibrary, in, mode, 0), ref, what);
      // Budgets spread over the whole range, plus the edges of the peak.
      std::vector<std::size_t> budgets{1, ref.peak_total - 1, ref.peak_total};
      for (std::size_t k = 1; k < 40; ++k) budgets.push_back(ref.peak_total * k / 40);
      for (const std::size_t budget : budgets) {
        expect_same_run(run_pipeline(kLibrary, in, mode, budget),
                        run_pipeline(kReference, in, mode, budget),
                        what + " budget " + std::to_string(budget));
      }
    }
  }
}

TEST(GeneratePruneTest, CanonicalizeMatchesTheReferenceOnShuffledSets) {
  Pcg32 rng(1303);
  for (int iter = 0; iter < 60; ++iter) {
    // Chains over a few w2 values with tiny steps: duplicates across
    // chains and cross-chain dominance everywhere.
    std::vector<LList> chains;
    const std::size_t count = 1 + rng.below(12);
    std::uint32_t next_id = 0;
    for (std::size_t k = 0; k < count; ++k) {
      LList chain = test::random_l_chain(1 + rng.below(8), rng, 2);
      std::vector<LEntry> entries(chain.begin(), chain.end());
      const Dim w2 = 5 + static_cast<Dim>(rng.below(3));
      for (LEntry& e : entries) {
        e.shape.w1 += w2 - e.shape.w2;
        e.shape.w2 = w2;
        e.id = next_id++;
      }
      chains.push_back(LList::from_chain_unchecked(std::move(entries)));
    }
    seeded_shuffle(chains, rng);
    LListSet lib, ref;
    for (const LList& c : chains) {
      lib.add(c);
      ref.add(c);
    }
    EXPECT_EQ(lib.canonicalize(), reference::canonicalize(ref)) << "iter " << iter;
    EXPECT_TRUE(lib == ref) << "iter " << iter;
  }
}

// ---- the tie rule ---------------------------------------------------------

TEST(TieRuleTest, PruneRectKeepsTheEarliestCopyOfADuplicate) {
  Pcg32 rng(1311);
  const std::vector<RectImpl> shapes{{9, 2}, {7, 3}, {7, 3}, {5, 5}, {9, 2}, {5, 5}, {8, 4}};
  for (int iter = 0; iter < 50; ++iter) {
    std::vector<RectImpl> cands = shapes;
    seeded_shuffle(cands, rng);
    for (const std::size_t idx : prune_rect_candidates(cands)) {
      const auto first = std::find(cands.begin(), cands.end(), cands[idx]);
      EXPECT_EQ(static_cast<std::size_t>(first - cands.begin()), idx)
          << "a later copy of " << cands[idx] << " survived";
    }
  }
}

TEST(TieRuleTest, CanonicalizeKeepsTheLowestIdOfADuplicate) {
  Pcg32 rng(1312);
  // Three copies of one chain and a fourth chain that shares one entry.
  const std::vector<LImpl> base{{12, 5, 6, 3}, {10, 5, 7, 4}, {8, 5, 9, 6}};
  for (int iter = 0; iter < 30; ++iter) {
    std::vector<std::uint32_t> ids(10);
    std::iota(ids.begin(), ids.end(), 0u);
    seeded_shuffle(ids, rng);
    std::vector<LList> chains;
    for (std::size_t k = 0; k < 3; ++k) {
      std::vector<LEntry> entries;
      for (std::size_t i = 0; i < base.size(); ++i) entries.push_back({base[i], ids[3 * k + i]});
      chains.push_back(LList::from_chain_unchecked(std::move(entries)));
    }
    chains.push_back(LList::from_chain_unchecked({{base[1], ids[9]}}));
    seeded_shuffle(chains, rng);
    LListSet set;
    for (LList& c : chains) set.add(std::move(c));
    EXPECT_EQ(set.canonicalize(), 7u);
    for (const LList& c : set.lists()) {
      for (const LEntry& e : c) {
        std::uint32_t lowest = ids[9] + 1000;
        for (std::size_t k = 0; k < 3; ++k) {
          for (std::size_t i = 0; i < base.size(); ++i) {
            if (base[i] == e.shape) lowest = std::min(lowest, ids[3 * k + i]);
          }
        }
        if (e.shape == base[1]) lowest = std::min(lowest, ids[9]);
        EXPECT_EQ(e.id, lowest) << e.shape;
      }
    }
  }
}

TEST(TieRuleTest, CloseKeepsTheEarliestChainAcrossCompactions) {
  // Identical chains close to identical rectangles. With enough of them the
  // candidate buffer compacts several times; every surviving rectangle
  // must still come from the first chain, whose entry ids are 0..n-1.
  Pcg32 rng(1313);
  const LList chain = test::random_l_chain(90, rng);
  const RList top = test::random_r_list(40, rng);
  LListSet set;
  std::uint32_t next_id = 0;
  for (int k = 0; k < 6; ++k) {
    std::vector<LEntry> entries(chain.begin(), chain.end());
    for (LEntry& e : entries) e.id = next_id++;
    set.add(LList::from_chain_unchecked(std::move(entries)));
  }
  BudgetTracker budget(0);
  OptimizerStats stats;
  const RCombineResult lib = combine_wheel_close(set, top, budget, stats);
  BudgetTracker ref_budget(0);
  OptimizerStats ref_stats;
  const RCombineResult ref = reference::combine_wheel_close(set, top, ref_budget, ref_stats);
  EXPECT_EQ(lib.list, ref.list);
  EXPECT_EQ(lib.prov, ref.prov);
  EXPECT_EQ(budget.peak_transient(), ref_budget.peak_transient());
  EXPECT_GT(stats.total_generated, 3u * 4096u) << "the buffer must have compacted";
  for (const Prov& p : lib.prov) EXPECT_LT(p.left, chain.size());
}

}  // namespace
}  // namespace fpopt
