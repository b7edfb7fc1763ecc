#include "optimize/combine.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <vector>

#include "kernel/arena.h"
#include "kernel/soa.h"
#include "kernel/sweep.h"

#if defined(FPOPT_VALIDATE)
#include "check/check_shapes.h"  // FPOPT-LINT-OK(layering): FPOPT_VALIDATE post-condition hook; compiled to no-ops by default
#endif

// Float-accumulation audit (docs/ALGORITHMS.md §11): every combine kernel
// below is pure int64 arithmetic — min/max/+ over Dim — with no
// floating-point accumulation anywhere, so handing rows to the SIMD
// kernels cannot reassociate anything observable.
//
// Memory accounting (docs/ALGORITHMS.md §2): the kernels prune while they
// generate, but the BudgetTracker is charged what [9]'s append-then-prune
// generation holds — one transient unit per candidate [9] appends, in
// generation order, and the compaction points of its candidate buffer —
// so total_generated, every peak and every budget-abort decision are the
// paper's, while the physical buffers hold only survivors.

namespace fpopt {
namespace {

/// Close one L generation context: candidate i is (w1[i], w2, h1[i], h2[i])
/// with left-child reference id[i] (i itself when `id` is null), in
/// pre-chain order (w1 non-increasing, heights non-decreasing). [9] appends
/// all n candidates before pruning, so they are charged one unit each;
/// LList::from_prechain's stack sweep then runs over the rows in index
/// space (`stack` has room for n) and only the survivors are written, into
/// the chain's own vector. Counts the chain as stored right away —
/// partially built L sets are real memory and must be able to trip the
/// budget mid-combine, exactly like [9] running out of memory halfway
/// through a node.
void emit_chain(const Dim* w1, Dim w2, const Dim* h1, const Dim* h2, const std::uint32_t* id,
                std::size_t n, std::uint32_t* stack, std::uint32_t right_idx,
                LCombineResult& out, BudgetTracker& budget, OptimizerStats& stats) {
  TransientScope transient(budget);
  transient.add_units(n);
  stats.total_generated += n;
  // w2 is shared, so Definition 1 dominance is over (w1, h1, h2). In
  // pre-chain order an earlier candidate dominates a later one only when
  // the heights are equal, and a later one an earlier one only when w1
  // ties; an exact duplicate of the stack top replaces it.
  const auto dominates = [&](std::size_t a, std::size_t b) {
    return w1[a] >= w1[b] && h1[a] >= h1[b] && h2[a] >= h2[b];
  };
  std::size_t top = 0;
  for (std::size_t i = 0; i < n; ++i) {
    assert(i == 0 || (w1[i - 1] >= w1[i] && h1[i - 1] <= h1[i] && h2[i - 1] <= h2[i]));
    while (top > 0 && dominates(stack[top - 1], i)) --top;
    if (top > 0 && dominates(i, stack[top - 1])) continue;
    stack[top++] = static_cast<std::uint32_t>(i);
  }
  std::vector<LEntry> entries(top);
  for (std::size_t k = 0; k < top; ++k) {
    const std::uint32_t i = stack[k];
    out.prov.push_back({id != nullptr ? id[i] : i, right_idx});
    entries[k] = {{w1[i], w2, h1[i], h2[i]}, static_cast<std::uint32_t>(out.prov.size() - 1)};
  }
  budget.add_stored(top);
  out.set.add(LList::from_chain_unchecked(std::move(entries)));
}

/// Same idea for a growing L set: drop cross-chain redundancy eagerly.
void maybe_compact_l(LCombineResult& out, LPruning pruning, std::size_t& compact_at,
                     BudgetTracker& budget) {
  if (pruning != LPruning::GlobalEager || out.set.total_size() <= compact_at) return;
  budget.sub_stored(out.set.canonicalize());
  compact_at = std::max<std::size_t>(4096, out.set.total_size() * 2);
}

RCombineResult finalize_rect(std::vector<RectImpl>& cands, std::vector<Prov>& prov) {
  const std::vector<std::size_t> kept = prune_rect_candidates(cands);
  RCombineResult out;
  std::vector<RectImpl> impls;
  impls.reserve(kept.size());
  out.prov.reserve(kept.size());
  for (std::size_t idx : kept) {
    impls.push_back(cands[idx]);
    out.prov.push_back(prov[idx]);
  }
  out.list = RList::from_sorted_unchecked(std::move(impls));
#if defined(FPOPT_VALIDATE)
  CheckResult post;
  if (out.prov.size() != out.list.size()) {
    post.add("combine/provenance", "finalize_rect",
             "provenance array no longer parallel to the pruned list");
  }
  enforce(post, "combine finalize_rect");
#endif
  return out;
}

/// WheelClose's running Pareto frontier. [9] appends every stack-pruned
/// run to one candidate buffer and prunes the whole buffer whenever it
/// outgrows a threshold. Here the buffer is virtual: its size drives the
/// transient charge and the compaction points exactly, while physically
///  * `front_` is the pruned buffer as of the last compaction (R-list
///    order), and
///  * `fresh_` holds, in generation order, the run survivors since then
///    that `front_` does not already dominate.
/// A compaction merges the two into the new `front_`. Dropping what
/// `front_` dominates cannot change any prune: dominance is transitive,
/// and an exact duplicate of a `front_` element is a later copy, which
/// the tie rule (earliest-generated wins) drops anyway.
class CloseFrontier {
 public:
  explicit CloseFrontier(BudgetTracker& budget) : transient_(budget) {}

  /// One run of n candidates (w[i], h[i]) from left entry left_id[i] and
  /// top rect right_idx, in generation order (w non-increasing, h
  /// non-decreasing). `stack` has room for n.
  void add_run(const Dim* w, const Dim* h, const std::uint32_t* left_id,
               std::uint32_t right_idx, std::size_t n, std::uint32_t* stack,
               OptimizerStats& stats) {
    stats.total_generated += n;
    // The stack prune [9] runs on the end of its buffer: within the run an
    // earlier candidate dominates a later one only on equal h, a later one
    // an earlier one only on equal w. Every push is charged one unit (pops
    // give nothing back); the survivors stay in the buffer.
    std::size_t top = 0, pushes = 0;
    for (std::size_t i = 0; i < n; ++i) {
      assert(i == 0 || (w[i - 1] >= w[i] && h[i - 1] <= h[i]));
      while (top > 0 && w[stack[top - 1]] >= w[i] && h[stack[top - 1]] >= h[i]) --top;
      if (top > 0 && w[i] >= w[stack[top - 1]] && h[i] >= h[stack[top - 1]]) continue;
      stack[top++] = static_cast<std::uint32_t>(i);
      ++pushes;
    }
    transient_.add_units(pushes);
    buffered_ += top;
    for (std::size_t k = 0; k < top; ++k) {
      const std::uint32_t i = stack[k];
      if (front_dominates(w[i], h[i])) continue;
      fresh_.push_back({w[i], h[i]});
      fresh_prov_.push_back({left_id[i], right_idx});
    }
    if (buffered_ > compact_at_) {
      merge_fresh();
      buffered_ = front_.size();
      transient_.reset_to(buffered_);
      compact_at_ = std::max<std::size_t>(4096, buffered_ * 2);
    }
  }

  /// The final prune of [9]'s buffer.
  RCombineResult finish() {
    merge_fresh();
    RCombineResult out;
    out.list = RList::from_sorted_unchecked(std::move(front_));
    out.prov = std::move(front_prov_);
#if defined(FPOPT_VALIDATE)
    CheckResult post;
    if (out.prov.size() != out.list.size()) {
      post.add("combine/provenance", "CloseFrontier::finish",
               "provenance array no longer parallel to the pruned list");
    }
    enforce(post, "combine CloseFrontier::finish");
#endif
    return out;
  }

 private:
  /// True iff some element of front_ has w' <= w and h' <= h. front_ is
  /// width-descending with heights ascending, so the first element with
  /// w' <= w has the smallest h' among them.
  [[nodiscard]] bool front_dominates(Dim w, Dim h) const {
    const auto it = std::partition_point(front_.begin(), front_.end(),
                                         [w](const RectImpl& r) { return r.w > w; });
    return it != front_.end() && it->h <= h;
  }

  /// front_ := Pareto-minimal subset of front_ + fresh_, in R-list order.
  /// Both sides are walked width-ascending; on an exact tie front_ (the
  /// earlier-generated side) wins, and within fresh_ the earliest copy.
  void merge_fresh() {
    if (fresh_.empty()) return;
    const std::vector<std::size_t> kept = prune_rect_candidates(fresh_);
    std::vector<RectImpl> merged;
    std::vector<Prov> merged_prov;
    merged.reserve(front_.size() + kept.size());
    merged_prov.reserve(front_.size() + kept.size());
    std::size_t a = front_.size(), b = kept.size();
    Dim min_h = std::numeric_limits<Dim>::max();
    const auto offer = [&](const RectImpl& r, const Prov& p) {
      if (r.h >= min_h) return;
      min_h = r.h;
      merged.push_back(r);
      merged_prov.push_back(p);
    };
    while (a > 0 || b > 0) {
      const bool take_front =
          b == 0 || (a > 0 && (front_[a - 1].w != fresh_[kept[b - 1]].w
                                   ? front_[a - 1].w < fresh_[kept[b - 1]].w
                                   : front_[a - 1].h <= fresh_[kept[b - 1]].h));
      if (take_front) {
        --a;
        offer(front_[a], front_prov_[a]);
      } else {
        --b;
        offer(fresh_[kept[b]], fresh_prov_[kept[b]]);
      }
    }
    std::reverse(merged.begin(), merged.end());
    std::reverse(merged_prov.begin(), merged_prov.end());
    front_ = std::move(merged);
    front_prov_ = std::move(merged_prov);
    fresh_.clear();
    fresh_prov_.clear();
  }

  TransientScope transient_;
  std::size_t buffered_ = 0;  ///< size of [9]'s candidate buffer
  std::size_t compact_at_ = 4096;
  std::vector<RectImpl> front_;
  std::vector<Prov> front_prov_;
  std::vector<RectImpl> fresh_;
  std::vector<Prov> fresh_prov_;
};

RectImpl slice_shape(const RectImpl& a, const RectImpl& b, bool horizontal) {
  return horizontal ? RectImpl{std::max(a.w, b.w), a.h + b.h}
                    : RectImpl{a.w + b.w, std::max(a.h, b.h)};
}

/// One irreducible L-chain gathered into arena rows, plus the entry ids
/// (needed to rebuild provenance) and the chain-constant w2.
struct LChainRows {
  kernel::LChainSoA soa;
  const std::uint32_t* id = nullptr;
  Dim w2 = 0;
};

LChainRows load_chain_rows(kernel::Arena& arena, const LList& chain) {
  const std::size_t n = chain.size();
  Dim* w1 = arena.alloc_array<Dim>(n);
  Dim* h1 = arena.alloc_array<Dim>(n);
  Dim* h2 = arena.alloc_array<Dim>(n);
  std::uint32_t* id = arena.alloc_array<std::uint32_t>(n);
  for (std::size_t i = 0; i < n; ++i) {
    const LEntry& e = chain[i];
    w1[i] = e.shape.w1;
    h1[i] = e.shape.h1;
    h2[i] = e.shape.h2;
    id[i] = e.id;
  }
  return {{w1, h1, h2, n}, id, chain.w2()};
}

}  // namespace

RCombineResult combine_slice(const RList& a, const RList& b, bool horizontal,
                             BudgetTracker& budget, OptimizerStats& stats) {
  assert(!a.empty() && !b.empty());
  TransientScope transient(budget);
  std::vector<RectImpl> cands;
  std::vector<Prov> prov;
  cands.reserve(a.size() + b.size());
  prov.reserve(a.size() + b.size());

  const auto emit = [&](std::size_t i, std::size_t j) {
    cands.push_back(slice_shape(a[i], b[j], horizontal));
    prov.push_back({static_cast<std::uint32_t>(i), static_cast<std::uint32_t>(j)});
    transient.add(1);
  };

  if (!horizontal) {
    // Vertical slice: h = max(ha, hb). For each a[i], the best partner is
    // the largest j with b[j].h <= a[i].h (minimal width not exceeding the
    // height cap); symmetric for b[j]. Both sweeps are linear merges.
    for (std::size_t i = 0, j = 0; i < a.size(); ++i) {
      while (j + 1 < b.size() && b[j + 1].h <= a[i].h) ++j;
      if (b[j].h <= a[i].h) emit(i, j);
    }
    for (std::size_t j = 0, i = 0; j < b.size(); ++j) {
      while (i + 1 < a.size() && a[i + 1].h <= b[j].h) ++i;
      if (a[i].h <= b[j].h) emit(i, j);
    }
  } else {
    // Horizontal slice: w = max(wa, wb). For each a[i], the best partner
    // is the first j with b[j].w <= a[i].w (minimal height within the
    // width cap); symmetric for b[j]. Lists are width-descending.
    for (std::size_t i = 0, j = 0; i < a.size(); ++i) {
      while (j < b.size() && b[j].w > a[i].w) ++j;
      if (j < b.size()) emit(i, j);
    }
    for (std::size_t j = 0, i = 0; j < b.size(); ++j) {
      while (i < a.size() && a[i].w > b[j].w) ++i;
      if (i < a.size()) emit(i, j);
    }
  }

  stats.total_generated += cands.size();
  return finalize_rect(cands, prov);
}

LCombineResult combine_wheel_stack(const RList& d, const RList& a, LPruning pruning,
                                   BudgetTracker& budget, OptimizerStats& stats) {
  assert(!d.empty() && !a.empty());
  LCombineResult out;
  std::size_t compact_at = 4096;

  // SoA pass: D's curve is gathered once, and per a[j] the whole w1/h1
  // column pair is produced by two row kernels (w2 == a[j].w and h2 == d_i.h
  // need no work); emit_chain prunes the rows in the original (j, i) order.
  kernel::Arena& arena = kernel::scratch_arena();
  kernel::ArenaScope scope(arena);
  const kernel::RCurveSoA ds = kernel::load_r_curve(arena, d.impls());
  Dim* w1 = scope.alloc_array<Dim>(ds.n);
  Dim* h1 = scope.alloc_array<Dim>(ds.n);
  std::uint32_t* stack = scope.alloc_array<std::uint32_t>(ds.n);

  for (std::size_t j = 0; j < a.size(); ++j) {
    kernel::max_broadcast(ds.w, ds.n, a[j].w, w1);  // max(d_i.w, a_j.w)
    kernel::add_broadcast(ds.h, ds.n, a[j].h, h1);  // d_i.h + a_j.h
    emit_chain(w1, a[j].w, h1, ds.h, nullptr, ds.n, stack, static_cast<std::uint32_t>(j), out,
               budget, stats);
    maybe_compact_l(out, pruning, compact_at, budget);
  }
  return out;
}

namespace {

/// Shared driver for op2/op3: apply a row transform to every
/// (chain element, rect impl) pair, one context per (chain, rect impl).
/// `row_op(rows, rect, ow1, oh1, oh2)` fills the transformed w1/h1/h2
/// columns for one rect via the sweep kernels; emit_chain prunes them in
/// the original (chain, j, i) order.
template <typename RowOpFn>
LCombineResult combine_l_with_rect(const LListSet& l, const RList& r, RowOpFn&& row_op,
                                   LPruning pruning, BudgetTracker& budget,
                                   OptimizerStats& stats) {
  assert(!r.empty());
  LCombineResult out;
  std::size_t compact_at = 4096;
  kernel::Arena& arena = kernel::scratch_arena();
  for (const LList& chain : l.lists()) {
    kernel::ArenaScope scope(arena);
    const LChainRows rows = load_chain_rows(arena, chain);
    const std::size_t n = rows.soa.n;
    Dim* ow1 = scope.alloc_array<Dim>(n);
    Dim* oh1 = scope.alloc_array<Dim>(n);
    Dim* oh2 = scope.alloc_array<Dim>(n);
    std::uint32_t* stack = scope.alloc_array<std::uint32_t>(n);
    for (std::size_t j = 0; j < r.size(); ++j) {
      row_op(rows, r[j], ow1, oh1, oh2);
      emit_chain(ow1, rows.w2, oh1, oh2, rows.id, n, stack, static_cast<std::uint32_t>(j), out,
                 budget, stats);
      maybe_compact_l(out, pruning, compact_at, budget);
    }
  }
  return out;
}

}  // namespace

LCombineResult combine_wheel_fill_notch(const LListSet& l, const RList& e, LPruning pruning,
                                        BudgetTracker& budget, OptimizerStats& stats) {
  // Per element: { max(w1, w2 + r.w), w2, max(h1, h2 + r.h), h2 + r.h }.
  return combine_l_with_rect(
      l, e,
      [](const LChainRows& rows, const RectImpl& r, Dim* ow1, Dim* oh1, Dim* oh2) {
        const std::size_t n = rows.soa.n;
        kernel::add_broadcast(rows.soa.h2, n, r.h, oh2);
        kernel::max_broadcast(rows.soa.w1, n, rows.w2 + r.w, ow1);
        kernel::max_rows(rows.soa.h1, oh2, n, oh1);
      },
      pruning, budget, stats);
}

LCombineResult combine_wheel_extend(const LListSet& l, const RList& c, LPruning pruning,
                                    BudgetTracker& budget, OptimizerStats& stats) {
  // Per element: { w1 + r.w, w2, max(h1, max(h2, r.h)), max(h2, r.h) }.
  return combine_l_with_rect(
      l, c,
      [](const LChainRows& rows, const RectImpl& r, Dim* ow1, Dim* oh1, Dim* oh2) {
        const std::size_t n = rows.soa.n;
        kernel::max_broadcast(rows.soa.h2, n, r.h, oh2);
        kernel::add_broadcast(rows.soa.w1, n, r.w, ow1);
        kernel::max_rows(rows.soa.h1, oh2, n, oh1);
      },
      pruning, budget, stats);
}

RCombineResult combine_wheel_close(const LListSet& l, const RList& b, BudgetTracker& budget,
                                   OptimizerStats& stats) {
  assert(!b.empty());
  CloseFrontier frontier(budget);
  kernel::Arena& arena = kernel::scratch_arena();
  for (const LList& chain : l.lists()) {
    kernel::ArenaScope scope(arena);
    const LChainRows rows = load_chain_rows(arena, chain);
    const std::size_t n = rows.soa.n;
    Dim* ow = scope.alloc_array<Dim>(n);
    Dim* oh = scope.alloc_array<Dim>(n);
    std::uint32_t* stack = scope.alloc_array<std::uint32_t>(n);
    for (std::size_t j = 0; j < b.size(); ++j) {
      // Per element: { max(w1, w2 + b_j.w), max(h1, h2 + b_j.h) }.
      kernel::max_broadcast(rows.soa.w1, n, rows.w2 + b[j].w, ow);
      kernel::max_add_broadcast(rows.soa.h1, rows.soa.h2, n, b[j].h, oh);
      frontier.add_run(ow, oh, rows.id, static_cast<std::uint32_t>(j), n, stack, stats);
    }
  }
  return frontier.finish();
}

}  // namespace fpopt
