#include "replay.h"

#include <algorithm>

#include "common.h"
#include "core/l_selection.h"
#include "core/r_selection.h"
#include "optimize/combine.h"

namespace perfbench {

using namespace fpopt;

namespace {

/// Times `fn` into `total` (and returns its result).
template <typename Fn>
auto timed(double& total, Fn&& fn) {
  const auto t0 = Clock::now();
  auto out = fn();
  total += since(t0);
  return out;
}

class Replay {
 public:
  Replay(const FloorplanTree& tree, const OptimizerOptions& opts, std::size_t node_count)
      : tree_(tree), opts_(opts), budget_(0), nodes_(node_count) {
    prof_.node_combine_s.assign(node_count, 0.0);
  }

  ReplayProfile run(const BinaryNode& root) {
    const auto t0 = Clock::now();
    eval(root);
    prof_.wall_s = since(t0);
    prof_.stats.peak_stored = budget_.peak_stored();
    prof_.stats.final_stored = budget_.stored();
    prof_.root = nodes_[root.id].rlist;
    return std::move(prof_);
  }

 private:
  // Mirrors NodeEvaluator::eval_node (src/optimize/optimizer.cpp).
  void eval(const BinaryNode& node) {
    if (node.left) eval(*node.left);
    if (node.right) eval(*node.right);
    ++prof_.stats.nodes_evaluated;
    NodeResult& res = nodes_[node.id];
    double& combine = prof_.node_combine_s[node.id];
    OptimizerStats& st = prof_.stats;
    switch (node.op) {
      case BinaryOp::LeafModule: {
        res.rlist = tree_.module(node.module_id).impls;
        res.rprov.resize(res.rlist.size());
        for (std::size_t i = 0; i < res.rlist.size(); ++i) {
          res.rprov[i] = {static_cast<std::uint32_t>(i), 0};
        }
        budget_.add_stored(res.rlist.size());
        return;
      }
      case BinaryOp::SliceH:
      case BinaryOp::SliceV:
        store_rect(res, timed(combine, [&] {
                     return combine_slice(rect(*node.left), rect(*node.right),
                                          node.op == BinaryOp::SliceH, budget_, st);
                   }));
        break;
      case BinaryOp::WheelStack:
        store_l(res, timed(combine, [&] {
                  return combine_wheel_stack(rect(*node.left), rect(*node.right),
                                             opts_.l_pruning, budget_, st);
                }));
        break;
      case BinaryOp::WheelFillNotch:
        store_l(res, timed(combine, [&] {
                  return combine_wheel_fill_notch(lset(*node.left), rect(*node.right),
                                                  opts_.l_pruning, budget_, st);
                }));
        break;
      case BinaryOp::WheelExtend:
        store_l(res, timed(combine, [&] {
                  return combine_wheel_extend(lset(*node.left), rect(*node.right),
                                              opts_.l_pruning, budget_, st);
                }));
        break;
      case BinaryOp::WheelClose:
        store_rect(res, timed(combine, [&] {
                     return combine_wheel_close(lset(*node.left), rect(*node.right), budget_,
                                                st);
                   }));
        break;
    }
    prof_.combine_s += combine;
  }

  const RList& rect(const BinaryNode& n) const { return nodes_[n.id].rlist; }
  const LListSet& lset(const BinaryNode& n) const { return nodes_[n.id].lset; }

  void store_rect(NodeResult& res, RCombineResult&& combined) {
    budget_.add_stored(combined.list.size());
    OptimizerStats& st = prof_.stats;
    st.max_rlist_len = std::max(st.max_rlist_len, combined.list.size());
    prof_.kept += combined.list.size();
    const SelectionConfig& sel = opts_.selection;
    if (sel.k1 != 0 && combined.list.size() > sel.k1) {
      prof_.selection_in += combined.list.size();
      const SelectionResult picked = timed(prof_.r_selection_s, [&] {
        return r_selection(combined.list, sel.k1, sel.dp, nullptr);
      });
      ++st.cspp_calls;
      if (sel.dp != SelectionDp::Generic) ++st.cspp_monge_calls;
      const std::size_t removed = combined.list.size() - picked.kept.size();
      std::vector<Prov> prov;
      prov.reserve(picked.kept.size());
      for (std::size_t idx : picked.kept) prov.push_back(combined.prov[idx]);
      combined.list = combined.list.subset(picked.kept);
      combined.prov = std::move(prov);
      budget_.sub_stored(removed);
      ++st.r_selection_calls;
      st.r_selected_away += removed;
      st.r_selection_error += picked.error;
    }
    res.is_l = false;
    res.rlist = std::move(combined.list);
    res.rprov = std::move(combined.prov);
  }

  void store_l(NodeResult& res, LCombineResult&& combined) {
    OptimizerStats& st = prof_.stats;
    if (opts_.l_pruning != LPruning::PerChain) {
      prof_.canonicalize_in += combined.set.total_size();
      const std::size_t dropped =
          timed(prof_.canonicalize_s, [&] { return combined.set.canonicalize(); });
      prof_.canonicalize_dropped += dropped;
      budget_.sub_stored(dropped);
    }
    st.max_llist_len = std::max(st.max_llist_len, combined.set.total_size());
    prof_.kept += combined.set.total_size();
    const SelectionConfig& sel = opts_.selection;
    if (sel.k2 != 0) {
      const LSelectionOptions lopts{sel.metric, sel.dp, sel.heuristic_cap,
                                    LHeuristic::UniformSubsample};
      const LReductionReport report = timed(prof_.l_selection_s, [&] {
        return reduce_l_set(combined.set, sel.k2, sel.theta, lopts, nullptr);
      });
      if (report.triggered) {
        prof_.selection_in += report.before;
        budget_.sub_stored(report.before - report.after);
        ++st.l_selection_calls;
        st.l_selected_away += report.before - report.after;
        st.l_selection_error += report.total_error;
        st.cspp_calls += report.cspp_calls;
        st.cspp_monge_calls += report.cspp_monge_calls;
        st.l_heuristic_prereductions += report.heuristic_prereductions;
      }
    }
    res.is_l = true;
    res.lset = std::move(combined.set);
    res.lprov = std::move(combined.prov);
  }

  const FloorplanTree& tree_;
  const OptimizerOptions& opts_;
  BudgetTracker budget_;
  std::vector<NodeResult> nodes_;
  ReplayProfile prof_;
};

}  // namespace

ReplayProfile replay_engine(const FloorplanTree& tree, const OptimizerOptions& opts) {
  const BinaryTree btree = restructure(tree, opts.restructure);
  Replay replay(tree, opts, btree.node_count);
  return replay.run(*btree.root);
}

std::vector<std::string> replay_guard(const ReplayProfile& replay, const OptimizeOutcome& engine) {
  std::vector<std::string> diffs;
  if (engine.out_of_memory) {
    diffs.push_back("engine run aborted over its budget");
    return diffs;
  }
  if (!(replay.root == engine.root)) diffs.push_back("root R-list differs");
  const OptimizerStats& a = replay.stats;
  const OptimizerStats& b = engine.stats;
  const auto check = [&](const char* name, std::size_t x, std::size_t y) {
    if (x != y) {
      diffs.push_back(std::string(name) + ": replay " + std::to_string(x) + " vs engine " +
                      std::to_string(y));
    }
  };
  check("total_generated", a.total_generated, b.total_generated);
  check("nodes_evaluated", a.nodes_evaluated, b.nodes_evaluated);
  check("r_selection_calls", a.r_selection_calls, b.r_selection_calls);
  check("l_selection_calls", a.l_selection_calls, b.l_selection_calls);
  check("cspp_calls", a.cspp_calls, b.cspp_calls);
  check("r_selected_away", a.r_selected_away, b.r_selected_away);
  check("l_selected_away", a.l_selected_away, b.l_selected_away);
  check("peak_stored", a.peak_stored, b.peak_stored);
  return diffs;
}

bool same_result(const OptimizeOutcome& a, const OptimizeOutcome& b) {
  const OptimizerStats& x = a.stats;
  const OptimizerStats& y = b.stats;
  return a.out_of_memory == b.out_of_memory && a.root == b.root && a.best_area == b.best_area &&
         x.peak_stored == y.peak_stored && x.final_stored == y.final_stored &&
         x.peak_transient == y.peak_transient && x.peak_live == y.peak_live &&
         x.total_generated == y.total_generated && x.nodes_evaluated == y.nodes_evaluated &&
         x.r_selection_calls == y.r_selection_calls &&
         x.l_selection_calls == y.l_selection_calls && x.r_selected_away == y.r_selected_away &&
         x.l_selected_away == y.l_selected_away && x.cspp_calls == y.cspp_calls &&
         x.cspp_monge_calls == y.cspp_monge_calls &&
         x.l_heuristic_prereductions == y.l_heuristic_prereductions &&
         x.max_rlist_len == y.max_rlist_len && x.max_llist_len == y.max_llist_len &&
         x.r_selection_error == y.r_selection_error && x.l_selection_error == y.l_selection_error;
}

double area_ratio(const FloorplanTree& tree, const OptimizeOutcome& out) {
  double bound = 0;
  for (const Module& m : tree.modules()) {
    Area best = m.impls[0].area();
    for (const RectImpl& r : m.impls) best = std::min(best, r.area());
    bound += static_cast<double>(best);
  }
  return static_cast<double>(out.best_area) / bound;
}

namespace {
double share(double part, double whole) { return whole > 0 ? part / whole : 0.0; }
}  // namespace

LayerSample layer_sample(const ReplayProfile& rp) {
  const OptimizerStats& st = rp.stats;
  std::vector<double> nodes = rp.node_combine_s;
  std::sort(nodes.rbegin(), nodes.rend());
  const double top2 = (nodes.empty() ? 0.0 : nodes[0]) + (nodes.size() > 1 ? nodes[1] : 0.0);
  const double named = rp.combine_s + rp.canonicalize_s + rp.r_selection_s + rp.l_selection_s;
  LayerSample s;
  s.combine_s = rp.combine_s;
  s.candidates = static_cast<double>(st.total_generated);
  s.keep_ratio = share(static_cast<double>(rp.kept), static_cast<double>(st.total_generated));
  s.top2_node_share = share(top2, rp.combine_s);
  s.canonicalize_s = rp.canonicalize_s;
  s.canonicalize_drop_ratio = share(static_cast<double>(rp.canonicalize_dropped),
                                    static_cast<double>(rp.canonicalize_in));
  s.r_selection_s = rp.r_selection_s;
  s.l_selection_s = rp.l_selection_s;
  s.cspp_calls = static_cast<double>(st.cspp_calls);
  s.selected_away_ratio = share(static_cast<double>(st.r_selected_away + st.l_selected_away),
                                static_cast<double>(rp.selection_in));
  s.unattributed_share = 1.0 - share(named, rp.wall_s);
  return s;
}

PoolSample pool_sample(const OptimizeOutcome& parallel, double wall_s) {
  const telemetry::PoolStats& ps = parallel.pool_stats;
  return {share(ps.total_idle_seconds(), static_cast<double>(ps.workers.size()) * wall_s),
          static_cast<double>(ps.total_steals()), static_cast<double>(ps.total_tasks())};
}

void add_engine_layers(RunResult& r, const std::vector<LayerSample>& layers,
                       const std::vector<PoolSample>& pools) {
  const auto med = [](const auto& samples, auto field) {
    std::vector<double> v;
    for (const auto& s : samples) v.push_back(s.*field);
    return median(v);
  };
  r.add("optimize.combine_s", med(layers, &LayerSample::combine_s), "s");
  r.add("optimize.candidates", med(layers, &LayerSample::candidates), "count");
  r.add("optimize.keep_ratio", med(layers, &LayerSample::keep_ratio), "ratio");
  r.add("optimize.top2_node_share", med(layers, &LayerSample::top2_node_share), "ratio");
  r.add("shape.canonicalize_s", med(layers, &LayerSample::canonicalize_s), "s");
  r.add("shape.canonicalize_drop_ratio", med(layers, &LayerSample::canonicalize_drop_ratio),
        "ratio");
  r.add("core.r_selection_s", med(layers, &LayerSample::r_selection_s), "s");
  r.add("core.l_selection_s", med(layers, &LayerSample::l_selection_s), "s");
  r.add("core.cspp_calls", med(layers, &LayerSample::cspp_calls), "count");
  r.add("core.selected_away_ratio", med(layers, &LayerSample::selected_away_ratio), "ratio");
  r.add("runtime.idle_share", med(pools, &PoolSample::idle_share), "ratio");
  r.add("runtime.steals", med(pools, &PoolSample::steals), "count");
  r.add("runtime.tasks", med(pools, &PoolSample::tasks), "count");
}

}  // namespace perfbench
