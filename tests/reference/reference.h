// Test-only reference implementations of the combine and canonicalize
// layers: the straightforward "append every candidate, then sort and
// prune" algorithms of [9]. The library versions in src/optimize/combine.cpp
// and src/shape/l_list_set.cpp prune while they generate; differential
// tests hold them to these references on shapes, provenance,
// total_generated, every BudgetTracker peak and every budget-abort
// decision with its payload.
//
// Tie rule shared with the library: wherever a sort-based prune meets
// exact duplicates, the earliest-generated copy survives (lowest buffer
// index for rectangles, lowest entry id for L entries). Within one
// generation context's stack sweep an exact duplicate of the stack top
// replaces it, as LList::from_prechain does.
#pragma once

#include <vector>

#include "optimize/combine.h"
#include "optimize/stats.h"
#include "shape/l_list_set.h"
#include "shape/r_list.h"

namespace fpopt::reference {

/// combine_slice via the full cross product.
[[nodiscard]] RCombineResult combine_slice_naive(const RList& a, const RList& b, bool horizontal,
                                                 BudgetTracker& budget, OptimizerStats& stats);

/// The wheel ops with every generation context staged in full: candidates
/// are appended one at a time (one transient unit each) to a pre-chain,
/// which LList::from_prechain then prunes.
[[nodiscard]] LCombineResult combine_wheel_stack(const RList& d, const RList& a,
                                                 LPruning pruning, BudgetTracker& budget,
                                                 OptimizerStats& stats);
[[nodiscard]] LCombineResult combine_wheel_fill_notch(const LListSet& l, const RList& e,
                                                      LPruning pruning, BudgetTracker& budget,
                                                      OptimizerStats& stats);
[[nodiscard]] LCombineResult combine_wheel_extend(const LListSet& l, const RList& c,
                                                  LPruning pruning, BudgetTracker& budget,
                                                  OptimizerStats& stats);

/// WheelClose with one physical candidate buffer: every stack-pruned run
/// is appended, and the whole buffer is sorted and pruned whenever it
/// outgrows the compaction threshold, and once more at the end.
[[nodiscard]] RCombineResult combine_wheel_close(const LListSet& l, const RList& b,
                                                 BudgetTracker& budget, OptimizerStats& stats);

/// LListSet::canonicalize by copying every entry out, sorting by w2, then
/// pareto_min_l_entries and partition_into_chains per w2 group. Returns
/// the number of entries removed.
std::size_t canonicalize(LListSet& set);

/// Pareto-minimal subset of `entries` under Definition 1 dominance: a
/// sort by (w1, h1, h2, id) and a std::map staircase sweep. Of exact
/// duplicates the lowest id survives. All entries must share one w2.
[[nodiscard]] std::vector<LEntry> pareto_min_l_entries(std::vector<LEntry> entries);

/// Partition `entries` (one w2, mutually non-dominating) into irreducible
/// chains: first fit in (w1 desc, h1 asc, h2 asc) order.
[[nodiscard]] std::vector<LList> partition_into_chains(std::vector<LEntry> entries);

}  // namespace fpopt::reference
