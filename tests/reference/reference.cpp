#include "reference/reference.h"

#include <algorithm>
#include <cassert>
#include <map>

namespace fpopt::reference {
namespace {

RectImpl slice_shape(const RectImpl& a, const RectImpl& b, bool horizontal) {
  return horizontal ? RectImpl{std::max(a.w, b.w), a.h + b.h}
                    : RectImpl{a.w + b.w, std::max(a.h, b.h)};
}

RCombineResult finalize_rect(const std::vector<RectImpl>& cands, const std::vector<Prov>& prov) {
  RCombineResult out;
  std::vector<RectImpl> impls;
  for (std::size_t idx : prune_rect_candidates(cands)) {
    impls.push_back(cands[idx]);
    out.prov.push_back(prov[idx]);
  }
  out.list = RList::from_sorted_unchecked(std::move(impls));
  return out;
}

/// Prune one staged pre-chain, turn the surviving left-child references
/// into provenance records and store the chain.
void emit_chain(std::vector<LEntry>& pre_chain, std::uint32_t right_idx, LCombineResult& out,
                BudgetTracker& budget, OptimizerStats& stats) {
  stats.total_generated += pre_chain.size();
  std::vector<LEntry> entries;
  for (LEntry e : LList::from_prechain(pre_chain)) {
    out.prov.push_back({e.id, right_idx});
    e.id = static_cast<std::uint32_t>(out.prov.size() - 1);
    entries.push_back(e);
  }
  budget.add_stored(entries.size());
  out.set.add(LList::from_chain_unchecked(std::move(entries)));
  pre_chain.clear();
}

void maybe_compact_l(LCombineResult& out, LPruning pruning, std::size_t& compact_at,
                     BudgetTracker& budget) {
  if (pruning != LPruning::GlobalEager || out.set.total_size() <= compact_at) return;
  budget.sub_stored(canonicalize(out.set));
  compact_at = std::max<std::size_t>(4096, out.set.total_size() * 2);
}

template <typename ShapeFn>
LCombineResult l_with_rect(const LListSet& l, const RList& r, ShapeFn&& shape, LPruning pruning,
                           BudgetTracker& budget, OptimizerStats& stats) {
  LCombineResult out;
  std::vector<LEntry> pre_chain;
  std::size_t compact_at = 4096;
  for (const LList& chain : l.lists()) {
    for (std::size_t j = 0; j < r.size(); ++j) {
      TransientScope transient(budget);
      for (const LEntry& e : chain) {
        pre_chain.push_back({shape(e.shape, r[j]), e.id});
        transient.add(1);
      }
      emit_chain(pre_chain, static_cast<std::uint32_t>(j), out, budget, stats);
      maybe_compact_l(out, pruning, compact_at, budget);
    }
  }
  return out;
}

}  // namespace

RCombineResult combine_slice_naive(const RList& a, const RList& b, bool horizontal,
                                   BudgetTracker& budget, OptimizerStats& stats) {
  assert(!a.empty() && !b.empty());
  TransientScope transient(budget);
  std::vector<RectImpl> cands;
  std::vector<Prov> prov;
  cands.reserve(a.size() * b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    for (std::size_t j = 0; j < b.size(); ++j) {
      cands.push_back(slice_shape(a[i], b[j], horizontal));
      prov.push_back({static_cast<std::uint32_t>(i), static_cast<std::uint32_t>(j)});
      transient.add(1);
    }
  }
  stats.total_generated += cands.size();
  return finalize_rect(cands, prov);
}

LCombineResult combine_wheel_stack(const RList& d, const RList& a, LPruning pruning,
                                   BudgetTracker& budget, OptimizerStats& stats) {
  LCombineResult out;
  std::vector<LEntry> pre_chain;
  std::size_t compact_at = 4096;
  for (std::size_t j = 0; j < a.size(); ++j) {
    TransientScope transient(budget);
    for (std::size_t i = 0; i < d.size(); ++i) {
      pre_chain.push_back(
          {{std::max(d[i].w, a[j].w), a[j].w, d[i].h + a[j].h, d[i].h},
           static_cast<std::uint32_t>(i)});
      transient.add(1);
    }
    emit_chain(pre_chain, static_cast<std::uint32_t>(j), out, budget, stats);
    maybe_compact_l(out, pruning, compact_at, budget);
  }
  return out;
}

LCombineResult combine_wheel_fill_notch(const LListSet& l, const RList& e, LPruning pruning,
                                        BudgetTracker& budget, OptimizerStats& stats) {
  return l_with_rect(
      l, e,
      [](const LImpl& s, const RectImpl& r) {
        return LImpl{std::max(s.w1, s.w2 + r.w), s.w2, std::max(s.h1, s.h2 + r.h), s.h2 + r.h};
      },
      pruning, budget, stats);
}

LCombineResult combine_wheel_extend(const LListSet& l, const RList& c, LPruning pruning,
                                    BudgetTracker& budget, OptimizerStats& stats) {
  return l_with_rect(
      l, c,
      [](const LImpl& s, const RectImpl& r) {
        const Dim y2 = std::max(s.h2, r.h);
        return LImpl{s.w1 + r.w, s.w2, std::max(s.h1, y2), y2};
      },
      pruning, budget, stats);
}

RCombineResult combine_wheel_close(const LListSet& l, const RList& b, BudgetTracker& budget,
                                   OptimizerStats& stats) {
  TransientScope transient(budget);
  std::vector<RectImpl> cands;
  std::vector<Prov> prov;
  std::size_t compact_at = 4096;
  for (const LList& chain : l.lists()) {
    for (std::size_t j = 0; j < b.size(); ++j) {
      // One run: w non-increasing, h non-decreasing; stack-prune it onto
      // the end of the buffer, one transient unit per push.
      stats.total_generated += chain.size();
      const std::size_t first_kept = cands.size();
      for (const LEntry& e : chain) {
        const RectImpl c{std::max(e.shape.w1, e.shape.w2 + b[j].w),
                         std::max(e.shape.h1, e.shape.h2 + b[j].h)};
        while (cands.size() > first_kept && cands.back().dominates(c)) {
          cands.pop_back();
          prov.pop_back();
        }
        if (cands.size() > first_kept && c.dominates(cands.back())) continue;
        cands.push_back(c);
        prov.push_back({e.id, static_cast<std::uint32_t>(j)});
        transient.add(1);
      }
      if (cands.size() > compact_at) {
        RCombineResult compacted = finalize_rect(cands, prov);
        cands.assign(compacted.list.begin(), compacted.list.end());
        prov = std::move(compacted.prov);
        transient.reset_to(cands.size());
        compact_at = std::max<std::size_t>(4096, cands.size() * 2);
      }
    }
  }
  return finalize_rect(cands, prov);
}

std::vector<LEntry> pareto_min_l_entries(std::vector<LEntry> entries) {
  // Sweep in (w1, h1, h2, id) ascending order. Everything already kept has
  // w1 <= current (and for w1 ties, h1 <=), so the current entry is
  // redundant iff some kept entry has both heights <=. The kept heights
  // form a staircase: h1 -> smallest h2 at h1' <= h1, strictly decreasing.
  std::sort(entries.begin(), entries.end(), [](const LEntry& a, const LEntry& b) {
    if (a.shape.w1 != b.shape.w1) return a.shape.w1 < b.shape.w1;
    if (a.shape.h1 != b.shape.h1) return a.shape.h1 < b.shape.h1;
    if (a.shape.h2 != b.shape.h2) return a.shape.h2 < b.shape.h2;
    return a.id < b.id;
  });
  std::map<Dim, Dim> frontier;
  std::vector<LEntry> kept;
  for (const LEntry& e : entries) {
    assert(e.shape.w2 == entries.front().shape.w2);
    auto it = frontier.upper_bound(e.shape.h1);
    if (it != frontier.begin() && std::prev(it)->second <= e.shape.h2) continue;
    kept.push_back(e);
    auto pos = frontier.insert_or_assign(e.shape.h1, e.shape.h2).first;
    for (auto nxt = std::next(pos); nxt != frontier.end() && nxt->second >= pos->second;) {
      nxt = frontier.erase(nxt);
    }
  }
  return kept;
}

std::vector<LList> partition_into_chains(std::vector<LEntry> entries) {
  std::sort(entries.begin(), entries.end(), [](const LEntry& a, const LEntry& b) {
    if (a.shape.w1 != b.shape.w1) return a.shape.w1 > b.shape.w1;
    if (a.shape.h1 != b.shape.h1) return a.shape.h1 < b.shape.h1;
    return a.shape.h2 < b.shape.h2;
  });
  std::vector<std::vector<LEntry>> chains;
  for (const LEntry& e : entries) {
    auto fits = [&](const std::vector<LEntry>& chain) {
      const LImpl& tail = chain.back().shape;
      return tail.w1 > e.shape.w1 && tail.h1 <= e.shape.h1 && tail.h2 <= e.shape.h2;
    };
    auto it = std::find_if(chains.begin(), chains.end(), fits);
    if (it == chains.end()) {
      chains.push_back({e});
    } else {
      it->push_back(e);
    }
  }
  std::vector<LList> out;
  for (auto& chain : chains) out.push_back(LList::from_chain_unchecked(std::move(chain)));
  return out;
}

std::size_t canonicalize(LListSet& set) {
  std::vector<LEntry> entries = set.all_entries();
  const std::size_t before = entries.size();
  std::stable_sort(entries.begin(), entries.end(), [](const LEntry& a, const LEntry& b) {
    return a.shape.w2 < b.shape.w2;
  });
  std::vector<LList> lists;
  for (std::size_t lo = 0; lo < entries.size();) {
    std::size_t hi = lo + 1;
    while (hi < entries.size() && entries[hi].shape.w2 == entries[lo].shape.w2) ++hi;
    std::vector<LEntry> group(entries.begin() + static_cast<std::ptrdiff_t>(lo),
                              entries.begin() + static_cast<std::ptrdiff_t>(hi));
    for (LList& c : partition_into_chains(pareto_min_l_entries(std::move(group)))) {
      lists.push_back(std::move(c));
    }
    lo = hi;
  }
  set.replace_lists(std::move(lists));
  return before - set.total_size();
}

}  // namespace fpopt::reference
