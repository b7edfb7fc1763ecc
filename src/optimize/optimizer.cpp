#include "optimize/optimizer.h"

#include <atomic>
#include <cassert>
#include <chrono>
#include <optional>

#include "cache/cache_key.h"
#include "cache/memo_cache.h"
#include "core/l_selection.h"
#include "runtime/thread_pool.h"
#include "telemetry/trace.h"

#if defined(FPOPT_VALIDATE)
#include <string>

#include "check/check_shapes.h"  // FPOPT-LINT-OK(layering): FPOPT_VALIDATE post-condition hook; compiled to no-ops by default
#endif

namespace fpopt {

const LImpl* NodeResult::find_l(std::uint32_t id) const {
  for (const LList& list : lset.lists()) {
    for (const LEntry& e : list) {
      if (e.id == id) return &e.shape;
    }
  }
  return nullptr;
}

namespace {

/// Evaluates one T' node from its children's (already computed)
/// NodeResults, charging `budget` and counting into `stats`. The engine's
/// prefetch tasks hand in a task-local tracker; its settle pass hands in
/// one that holds the serial schedule's stored count at the node.
class NodeEvaluator {
 public:
  NodeEvaluator(const FloorplanTree& tree, const OptimizerOptions& opts, OptimizeArtifacts& art,
                BudgetTracker& budget, OptimizerStats& stats, ThreadPool* pool)
      : tree_(tree), opts_(opts), art_(art), budget_(budget), stats_(stats), pool_(pool) {}

  /// Both children of `node` (if any) must already have their NodeResult.
  void eval_node(const BinaryNode& node) {
    // Trace identity is the node id; the child links let fpopt_trace
    // rebuild the T' dependency DAG for critical-path extraction. The
    // arg (result list size) is deterministic — bit-identical results at
    // every thread count — so it participates in trace diffs.
    telemetry::TraceSpan span(telemetry::TraceCat::kNode, "eval_node", node.id);
    span.set_children(node.left ? static_cast<std::int64_t>(node.left->id) : -1,
                      node.right ? static_cast<std::int64_t>(node.right->id) : -1);
    ++stats_.nodes_evaluated;
    NodeResult& res = art_.nodes[node.id];
    switch (node.op) {
      case BinaryOp::LeafModule: {
        const RList& impls = tree_.module(node.module_id).impls;
        res.rlist = impls;
        res.rprov.resize(impls.size());
        for (std::size_t i = 0; i < impls.size(); ++i) {
          res.rprov[i] = {static_cast<std::uint32_t>(i), 0};
        }
        budget_.add_stored(impls.size());
        break;
      }
      case BinaryOp::SliceH:
      case BinaryOp::SliceV:
        store_rect(res, combine_slice(rect_of(*node.left), rect_of(*node.right),
                                      node.op == BinaryOp::SliceH, budget_, stats_));
        break;
      case BinaryOp::WheelStack:
        store_l(res, combine_wheel_stack(rect_of(*node.left), rect_of(*node.right),
                                         opts_.l_pruning, budget_, stats_));
        break;
      case BinaryOp::WheelFillNotch:
        store_l(res, combine_wheel_fill_notch(lset_of(*node.left), rect_of(*node.right),
                                              opts_.l_pruning, budget_, stats_));
        break;
      case BinaryOp::WheelExtend:
        store_l(res, combine_wheel_extend(lset_of(*node.left), rect_of(*node.right),
                                          opts_.l_pruning, budget_, stats_));
        break;
      case BinaryOp::WheelClose:
        store_rect(res, combine_wheel_close(lset_of(*node.left), rect_of(*node.right), budget_,
                                            stats_));
        break;
    }
    span.set_arg(res.is_l ? res.lset.total_size() : res.rlist.size());
  }

 private:
  [[nodiscard]] const RList& rect_of(const BinaryNode& child) const {
    const NodeResult& res = art_.nodes[child.id];
    assert(!res.is_l);
    return res.rlist;
  }

  [[nodiscard]] const LListSet& lset_of(const BinaryNode& child) const {
    const NodeResult& res = art_.nodes[child.id];
    assert(res.is_l);
    return res.lset;
  }

  /// Store a rectangular block's list; apply R_Selection when it exceeds K1.
  void store_rect(NodeResult& res, RCombineResult&& combined) {
    budget_.add_stored(combined.list.size());  // the full non-redundant list is stored first
    stats_.max_rlist_len = std::max(stats_.max_rlist_len, combined.list.size());
    const SelectionConfig& sel = opts_.selection;
    if (sel.k1 != 0 && combined.list.size() > sel.k1) {
      const SelectionResult picked = r_selection(combined.list, sel.k1, sel.dp, pool_);
      ++stats_.cspp_calls;
      if (sel.dp != SelectionDp::Generic) ++stats_.cspp_monge_calls;
      const std::size_t removed = combined.list.size() - picked.kept.size();
      std::vector<Prov> prov;
      prov.reserve(picked.kept.size());
      for (std::size_t idx : picked.kept) prov.push_back(combined.prov[idx]);
      combined.list = combined.list.subset(picked.kept);
      combined.prov = std::move(prov);
      budget_.sub_stored(removed);
      ++stats_.r_selection_calls;
      stats_.r_selected_away += removed;
      stats_.r_selection_error += picked.error;
    }
    res.is_l = false;
    res.rlist = std::move(combined.list);
    res.rprov = std::move(combined.prov);
#if defined(FPOPT_VALIDATE)
    CheckResult post = check_r_list(res.rlist, "stored node list");
    if (res.rprov.size() != res.rlist.size()) {
      post.add("optimizer/provenance", "stored node list",
               "provenance size does not match the implementation list");
    }
    enforce(post, "NodeEvaluator::store_rect");
#endif
  }

  /// Store an L block's set: remove cross-chain redundancy (that is what
  /// [9] keeps: only non-redundant implementations), then apply the
  /// Section 5 L_Selection policy when the set exceeds K2.
  void store_l(NodeResult& res, LCombineResult&& combined) {
    if (opts_.l_pruning != LPruning::PerChain) {
      budget_.sub_stored(combined.set.canonicalize());
    }
    stats_.max_llist_len = std::max(stats_.max_llist_len, combined.set.total_size());
    const SelectionConfig& sel = opts_.selection;
    if (sel.k2 != 0) {
      const LSelectionOptions lopts{sel.metric, sel.dp, sel.heuristic_cap,
                                    LHeuristic::UniformSubsample};
      const LReductionReport report =
          reduce_l_set(combined.set, sel.k2, sel.theta, lopts, pool_);
      if (report.triggered) {
        budget_.sub_stored(report.before - report.after);
        ++stats_.l_selection_calls;
        stats_.l_selected_away += report.before - report.after;
        stats_.l_selection_error += report.total_error;
        stats_.cspp_calls += report.cspp_calls;
        stats_.cspp_monge_calls += report.cspp_monge_calls;
        stats_.l_heuristic_prereductions += report.heuristic_prereductions;
      }
    }
    res.is_l = true;
    res.lset = std::move(combined.set);
    res.lprov = std::move(combined.prov);
#if defined(FPOPT_VALIDATE)
    // Cross-chain redundancy is legitimate under PerChain pruning.
    CheckResult post =
        check_l_list_set(res.lset, opts_.l_pruning != LPruning::PerChain, "stored node set");
    for (const LList& list : res.lset.lists()) {
      for (const LEntry& e : list) {
        if (e.id >= res.lprov.size() && post.room_for_more()) {
          post.add("optimizer/provenance", "stored node set",
                   "L entry id " + std::to_string(e.id) + " has no provenance record");
        }
      }
    }
    enforce(post, "NodeEvaluator::store_l");
#endif
  }

  const FloorplanTree& tree_;
  const OptimizerOptions& opts_;
  OptimizeArtifacts& art_;
  BudgetTracker& budget_;
  OptimizerStats& stats_;
  ThreadPool* pool_;
};

/// Fold `from`'s additive counters (and the order-independent max-folds)
/// into `into`. The peak fields are *not* additive; the settle pass
/// rebuilds them at each node's serial position.
void accumulate_counters(OptimizerStats& into, const OptimizerStats& from) {
  into.total_generated += from.total_generated;
  into.nodes_evaluated += from.nodes_evaluated;
  into.r_selection_calls += from.r_selection_calls;
  into.l_selection_calls += from.l_selection_calls;
  into.r_selected_away += from.r_selected_away;
  into.l_selected_away += from.l_selected_away;
  into.cspp_calls += from.cspp_calls;
  into.cspp_monge_calls += from.cspp_monge_calls;
  into.l_heuristic_prereductions += from.l_heuristic_prereductions;
  into.max_rlist_len = std::max(into.max_rlist_len, from.max_rlist_len);
  into.max_llist_len = std::max(into.max_llist_len, from.max_llist_len);
  into.r_selection_error += from.r_selection_error;
  into.l_selection_error += from.l_selection_error;
}

/// One node's memory profile and counters (the fields of the cache's
/// record), plus where they came from. A node's combine/selection work is
/// a pure function of its children, so the profile is the same whichever
/// thread computed it, and the same when the memo cache serves it.
struct NodeProfile : NodeProfileRecord {
  bool done = false;    ///< the profile is complete
  bool served = false;  ///< loaded from the memo cache, not computed
};

/// The optimizer engine, for every thread count and cache state. run()
/// does, in order:
///  1. serve (incremental only): every cached internal node's result and
///     profile are loaded up front;
///  2. prefetch (only when a pool exists): the remaining nodes are
///     evaluated on the pool in dependency order, each against a
///     task-local BudgetTracker, recording its profile;
///  3. settle: one serial postorder pass that accounts each profile at its
///     serial position and evaluates, on the serial tracker, every node
///     whose profile is missing or would not fit. With no pool and no
///     cache it evaluates every node: it *is* the serial algorithm;
///  4. publish (incremental only): the freshly computed nodes of a
///     completed run go into the cache.
/// The budget decision, the stats and (on abort) the trip point therefore
/// come from the settle pass alone, and are the serial schedule's whatever
/// the thread count or cache content (docs/ALGORITHMS.md §7, §8).
class Engine {
 public:
  Engine(const FloorplanTree& tree, const OptimizerOptions& opts, OptimizeArtifacts& art,
         OptimizerStats& stats)
      : tree_(tree),
        opts_(opts),
        art_(art),
        stats_(stats),
        cache_(opts.incremental ? opts.cache : nullptr),
        profiles_(art.btree.node_count) {
    postorder_.reserve(art.btree.node_count);
    collect_postorder(*art.btree.root);
    if (cache_ != nullptr) keys_ = derive_node_keys(art.btree, tree, opts);
    // A run-owned pool dies with the engine (its counters are kept for the
    // report); an externally shared pool (opts.pool, the daemon's) outlives
    // the run and keeps its own process-lifetime counters.
    if (opts.threads != 0) {
      pool_ = opts.pool;
      if (pool_ == nullptr) pool_ = &owned_pool_.emplace(static_cast<unsigned>(opts.threads));
    }
  }
  Engine(const Engine&) = delete;  // pool tasks hold `this`
  Engine& operator=(const Engine&) = delete;

  /// Returns false when the run exceeded the budget; stats_ then holds the
  /// serial schedule's stats at its trip point.
  bool run() {
    if (cache_ != nullptr) serve();
    if (pool_ != nullptr) prefetch();
    if (!settle()) return false;  // aborted runs publish nothing
    if (cache_ != nullptr) publish();
    return true;
  }

  /// Scheduling counters of a run-owned pool; empty otherwise.
  [[nodiscard]] telemetry::PoolStats owned_pool_stats() const {
    return owned_pool_ ? owned_pool_->stats() : telemetry::PoolStats{};
  }

 private:
  void collect_postorder(const BinaryNode& node) {
    if (node.left) collect_postorder(*node.left);
    if (node.right) collect_postorder(*node.right);
    postorder_.push_back(&node);
  }

  [[nodiscard]] bool over_budget(std::size_t live) const {
    return opts_.impl_budget != 0 && live > opts_.impl_budget;
  }

  [[nodiscard]] std::size_t children_subtree_net(const BinaryNode& node) const {
    std::size_t net = 0;
    if (node.left) net += profiles_[node.left->id].subtree_net;
    if (node.right) net += profiles_[node.right->id].subtree_net;
    return net;
  }

  /// Fill `prof` from the tracker that evaluated the node; `entry_stored`
  /// is what the tracker held when the node started.
  void record(NodeProfile& prof, const BudgetTracker& tracker, std::size_t entry_stored,
              std::size_t desc_net) const {
    prof.net_stored = tracker.stored() - entry_stored;
    prof.peak_stored = tracker.peak_stored() - entry_stored;
    prof.peak_transient = tracker.peak_transient();
    prof.peak_total = tracker.peak_total() - entry_stored;
    prof.subtree_net = prof.net_stored + desc_net;
    prof.done = true;
  }

  /// Probe every internal node in postorder; copy hits into the artifacts
  /// and load their recorded profiles (leaves are always evaluated — they
  /// are a plain copy of the module library anyway). Serve and publish run
  /// on the coordinating thread only, in postorder, so LRU touches,
  /// insertions and evictions are identical for every thread count.
  void serve() {
    telemetry::TraceSpan span(telemetry::TraceCat::kCache, "serve_pass");
    std::uint64_t hits = 0;
    for (const BinaryNode* node : postorder_) {
      if (node->is_leaf()) continue;
      const CacheEntry* entry = cache_->find(keys_[node->id]);
      if (entry == nullptr) continue;
      telemetry::trace_instant(telemetry::TraceCat::kCache, "memo_serve", node->id,
                               entry->profile.net_stored);
      ++hits;
      art_.nodes[node->id] = entry->result;
      NodeProfile& prof = profiles_[node->id];
      static_cast<NodeProfileRecord&>(prof) = entry->profile;
      prof.done = prof.served = true;
    }
    span.set_arg(hits);
  }

  /// Publish the freshly computed nodes of a completed run.
  void publish() {
    telemetry::TraceSpan span(telemetry::TraceCat::kCache, "publish_pass");
    std::uint64_t published = 0;
    for (const BinaryNode* node : postorder_) {
      if (node->is_leaf() || profiles_[node->id].served) continue;
      telemetry::trace_instant(telemetry::TraceCat::kCache, "memo_publish", node->id);
      ++published;
      cache_->insert(keys_[node->id], art_.nodes[node->id], profiles_[node->id]);
    }
    span.set_arg(published);
  }

  /// A dependency-counting bottom-up schedule over T': every node the
  /// cache did not serve is a task that fires when its unserved children
  /// are done, and records its profile from a task-local tracker.
  ///
  /// Two sound early stops skip work on runs the settle pass will abort:
  ///  * committed counter: net stored deltas are non-negative, so as soon
  ///    as the completed (and served) nodes' nets alone exceed the budget,
  ///    the serial run's final stored count exceeds it too;
  ///  * per-task local cap: when node v runs, the serial schedule holds at
  ///    least the net stored of v's children's subtrees, so a task-local
  ///    budget of (budget - those nets) only trips when the serial run
  ///    trips at or before the same point in v.
  /// Neither fires on a run the serial schedule completes. After either
  /// fires, the remaining tasks only drain, and the settle pass evaluates
  /// whatever is missing up to the serial trip point.
  void prefetch() {
    const std::size_t n = postorder_.size();
    parent_.assign(n, nullptr);
    pending_ = std::vector<std::atomic<int>>(n);
    std::vector<const BinaryNode*> ready;  // taken before any task runs
    std::size_t served_net = 0;
    for (const BinaryNode* node : postorder_) {
      int waits = 0;
      for (const BinaryNode* child : {node->left.get(), node->right.get()}) {
        if (child == nullptr) continue;
        parent_[child->id] = node;
        if (!profiles_[child->id].done) ++waits;
      }
      const NodeProfile& prof = profiles_[node->id];
      if (prof.done) served_net += prof.net_stored;
      if (!prof.done && waits == 0) ready.push_back(node);
      // relaxed: single-threaded setup; TaskGroup's submission edges
      // publish this state before any worker reads it. A served node's
      // count is 0, so no child's decrement can ever submit it.
      pending_[node->id].store(prof.done ? 0 : waits, std::memory_order_relaxed);
    }
    // relaxed (both): still single-threaded, published the same way.
    committed_.store(served_net, std::memory_order_relaxed);
    aborted_.store(over_budget(served_net), std::memory_order_relaxed);

    TaskGroup group(pool_);
    group_ = &group;
    for (const BinaryNode* node : ready) group.run([this, node] { exec(*node); });
    group.wait();  // rethrows unexpected task exceptions
    group_ = nullptr;
  }

  void exec(const BinaryNode& node) {
    // acquire: pairs with the release stores below so a task that skips
    // work also observes the state the aborting task published.
    if (!aborted_.load(std::memory_order_acquire)) {
      const std::size_t desc_net = children_subtree_net(node);
      std::size_t local_budget = 0;  // 0 = unlimited
      if (opts_.impl_budget != 0) {
        // Sound early cap (see prefetch); when the children already fill
        // the budget, any add of >= 1 implementation must abort.
        local_budget = opts_.impl_budget > desc_net ? opts_.impl_budget - desc_net : 1;
      }
      BudgetTracker local(local_budget);
      NodeProfile& prof = profiles_[node.id];
      try {
        NodeEvaluator(tree_, opts_, art_, local, prof.counters, pool_).eval_node(node);
        record(prof, local, 0, desc_net);
        // acq_rel: the running total must observe every earlier add and
        // publish this node's profile writes with its contribution.
        const std::size_t committed =
            committed_.fetch_add(prof.net_stored, std::memory_order_acq_rel) + prof.net_stored;
        if (over_budget(committed)) {
          // release: publishes the profile state that justified aborting.
          aborted_.store(true, std::memory_order_release);
        }
      } catch (const MemoryLimitExceeded&) {
        prof = NodeProfile{};  // an unfinished profile stays pristine
        // release: publishes the state of the aborting node.
        aborted_.store(true, std::memory_order_release);
      }
    }
    // Cascade even when aborted so every queued dependency drains and
    // TaskGroup::wait returns promptly.
    const BinaryNode* parent = parent_[node.id];
    if (parent != nullptr && pending_[parent->id].fetch_sub(1, std::memory_order_acq_rel) == 1) {
      group_->run([this, parent] { exec(*parent); });
    }
  }

  /// The serial postorder pass. The serial schedule holds `prefix` (the
  /// nets of all earlier nodes) when it enters a node, and no transient
  /// (TransientScope is node-local), so a complete profile that fits
  /// under the budget at that position is accounted as is. Any other node
  /// is evaluated afresh on a tracker pre-charged with `prefix`, the
  /// serial schedule's exact state there (its old result, if any, is
  /// simply overwritten); the pre-charge cannot throw, because every
  /// accounted node fit. A node the prefetch finished but that does
  /// not fit trips again here, at the serial trip point, so an aborted run
  /// reports exactly the serial stats. Returns false on abort.
  bool settle() {
    std::size_t prefix = 0;
    for (const BinaryNode* node : postorder_) {
      NodeProfile& prof = profiles_[node->id];
      bool tripped = false;
      if (!prof.done || over_budget(prefix + prof.peak_total)) {
        if (prof.done) prof = NodeProfile{};  // too big here: count it afresh
        BudgetTracker serial(opts_.impl_budget);
        serial.add_stored(prefix);
        try {
          NodeEvaluator(tree_, opts_, art_, serial, prof.counters, pool_).eval_node(*node);
        } catch (const MemoryLimitExceeded&) {
          tripped = true;  // the partial node counts, as in the serial schedule
        }
        record(prof, serial, prefix, children_subtree_net(*node));
      }
      stats_.peak_stored = std::max(stats_.peak_stored, prefix + prof.peak_stored);
      stats_.peak_transient = std::max(stats_.peak_transient, prof.peak_transient);
      stats_.peak_live = std::max(stats_.peak_live, prefix + prof.peak_total);
      prefix += prof.net_stored;
      stats_.final_stored = prefix;
      accumulate_counters(stats_, prof.counters);
      if (tripped) return false;
    }
    return true;
  }

  const FloorplanTree& tree_;
  const OptimizerOptions& opts_;
  OptimizeArtifacts& art_;
  OptimizerStats& stats_;
  CacheView* cache_;
  std::optional<ThreadPool> owned_pool_;
  ThreadPool* pool_ = nullptr;

  std::vector<const BinaryNode*> postorder_;  ///< the serial evaluation order
  std::vector<NodeProfile> profiles_;         ///< by node id
  std::vector<CacheKey> keys_;                ///< by node id (incremental only)

  // Prefetch state, by node id where indexed.
  std::vector<const BinaryNode*> parent_;
  std::vector<std::atomic<int>> pending_;  ///< unserved children left
  TaskGroup* group_ = nullptr;
  std::atomic<std::size_t> committed_{0};  ///< nets of completed and served nodes
  std::atomic<bool> aborted_{false};
};

}  // namespace

OptimizeOutcome optimize_floorplan(const FloorplanTree& tree, const OptimizerOptions& opts) {
  assert(tree.validate().empty() && "optimize_floorplan requires a well-formed tree");
  const auto start = std::chrono::steady_clock::now();  // FPOPT-LINT-OK(wall-clock): stats.seconds is reported wall time, excluded from determinism comparisons
  telemetry::PhaseProfile phases;

  auto artifacts = std::make_shared<OptimizeArtifacts>();
  {
    const auto scope = phases.scope("restructure");
    const telemetry::TraceSpan span(telemetry::TraceCat::kPhase, "restructure");
    artifacts->btree = restructure(tree, opts.restructure);
    artifacts->nodes.resize(artifacts->btree.node_count);
  }
  assert(!artifacts->btree.root->is_l_block() && "T' roots are rectangular blocks");

  OptimizeOutcome outcome;
  {
    const auto scope = phases.scope("evaluate");
    const telemetry::TraceSpan span(telemetry::TraceCat::kPhase, "evaluate");
    Engine engine(tree, opts, *artifacts, outcome.stats);
    outcome.out_of_memory = !engine.run();
    outcome.pool_stats = engine.owned_pool_stats();
    if (!outcome.out_of_memory) {
      const NodeResult& root = artifacts->nodes[artifacts->btree.root->id];
      outcome.root = root.rlist;
      outcome.best_area = root.rlist[root.rlist.min_area_index()].area();
      outcome.artifacts = std::move(artifacts);
    }
  }

  outcome.phases = phases.samples();
  outcome.stats.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();  // FPOPT-LINT-OK(wall-clock): reported wall time, excluded from determinism comparisons
  return outcome;
}

}  // namespace fpopt
