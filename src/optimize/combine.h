// Combine kernels of the DAC'90 optimizer: how the implementation lists of
// two child blocks merge into the parent block's list.
//
// Every kernel enumerates, for each pair of child implementations, the
// *minimal* parent shape that can host both children, with rooms allowed
// to stretch. Stretching is folded into max() terms applied lazily at the
// step that needs the room ("lazy stretching"):
//
//  slice (V):   (wa + wb, max(ha, hb))                     rect x rect -> rect
//  slice (H):   (max(wa, wb), ha + hb)
//  stack:       Bottom d=(wd,hd) with Left a=(wa,ha) on the left part of
//               its top edge:
//               L(w1 = max(wd, wa), w2 = wa, h1 = hd + ha, h2 = hd)
//  fill notch:  center e=(we,he) drops into the notch of l:
//               L(max(w1, w2 + we), w2, max(h1, h2 + he), h2 + he)
//  extend:      right column c=(wc,hc) glues to the right edge:
//               L(w1 + wc, w2, max(h1, y2'), y2'),  y2' = max(h2, hc)
//  close:       top strip b=(wb,hb) fills the remaining notch:
//               (max(w1, w2 + wb), max(h1, h2 + hb))        L x rect -> rect
//
// Every formula is monotone non-decreasing in each child coordinate, so
// dominance pruning of the children never loses an optimal parent, and for
// the pinwheel the composition of the four wheel ops reproduces exactly
// the minimal enveloping rectangle
//    W = max(x2 + wc, wa + wb),  x2 = max(wd, wa + we)
//    H = max(y2 + hb, hd + ha),  y2 = max(hc, hd + he)
// for each 5-tuple of child implementations (the tests check this against
// brute force).
//
// Provenance: each emitted implementation records which child
// implementations produced it (rect children by list index, L children by
// entry id), so an optimal solution can be traced back to a placement.
#pragma once

#include <cstdint>
#include <vector>

#include "optimize/stats.h"
#include "shape/l_list_set.h"
#include "shape/r_list.h"

namespace fpopt {

/// Which child implementations produced an implementation.
struct Prov {
  std::uint32_t left = 0;   ///< rect child: list index; L child: entry id
  std::uint32_t right = 0;  ///< right (always rect) child: list index

  friend bool operator==(const Prov&, const Prov&) = default;
};

struct RCombineResult {
  RList list;
  std::vector<Prov> prov;  ///< parallel to list
};

struct LCombineResult {
  LListSet set;
  std::vector<Prov> prov;  ///< indexed by LEntry::id
};

/// rect (+) rect slice merge, O(na + nb) candidate generation (the classic
/// Stockmeyer merge) followed by dominance pruning.
[[nodiscard]] RCombineResult combine_slice(const RList& a, const RList& b, bool horizontal,
                                           BudgetTracker& budget, OptimizerStats& stats);

/// How aggressively L sets are kept non-redundant.
///  * PerChain: dominated implementations are eliminated within each
///    irreducible L-list only; cross-chain redundancy survives.
///  * GlobalAtNode: additionally, a full 3-D Pareto sweep per w2 group
///    runs once an internal node's generation completes — this is [9]:
///    the node ends up storing exactly its non-redundant implementations,
///    but the redundant candidates live in memory *during* generation,
///    which is what makes the paper's M numbers large.
///  * GlobalEager: the sweep also runs periodically while the set grows
///    (a modern improvement ablated in bench/ablation_l_pruning — it
///    pushes the memory wall out considerably).
enum class LPruning { PerChain, GlobalAtNode, GlobalEager };

/// op1 (WheelStack): Bottom x Left -> L set (one chain per Left impl).
[[nodiscard]] LCombineResult combine_wheel_stack(const RList& d, const RList& a,
                                                 LPruning pruning, BudgetTracker& budget,
                                                 OptimizerStats& stats);

/// op2 (WheelFillNotch): L set x Center -> L set.
[[nodiscard]] LCombineResult combine_wheel_fill_notch(const LListSet& l, const RList& e,
                                                      LPruning pruning, BudgetTracker& budget,
                                                      OptimizerStats& stats);

/// op3 (WheelExtend): L set x Right -> L set.
[[nodiscard]] LCombineResult combine_wheel_extend(const LListSet& l, const RList& c,
                                                  LPruning pruning, BudgetTracker& budget,
                                                  OptimizerStats& stats);

/// op4 (WheelClose): L set x Top -> rect list (the completed wheel).
[[nodiscard]] RCombineResult combine_wheel_close(const LListSet& l, const RList& b,
                                                 BudgetTracker& budget, OptimizerStats& stats);

}  // namespace fpopt
