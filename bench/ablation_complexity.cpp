// Ablation A4: microbenchmarks confirming the complexity bounds —
// Constrained_Shortest_Path O(k(|V|+|E|)) (Theorem 1), R_Selection
// O(k n^2) literal vs O(k n log n) Monge (Theorem 2), Compute_L_Error /
// L_Selection O(n^3) vs the L1 fast path (Theorem 3), and the linear
// slice merge vs the naive cross product.
#include <benchmark/benchmark.h>

#include "core/cspp.h"
#include "core/l_selection.h"
#include "core/r_selection.h"
#include "optimize/combine.h"
#include "reference/reference.h"
#include "workload/module_gen.h"
#include "workload/rng.h"

namespace {

using namespace fpopt;

RList make_list(std::size_t n, std::uint64_t seed) {
  Pcg32 rng(seed);
  ModuleGenConfig cfg;
  cfg.impl_count = n;
  cfg.min_dim = 4;
  cfg.max_dim = static_cast<Dim>(8 * n);
  cfg.min_area = static_cast<Area>(n) * 40;
  cfg.max_area = static_cast<Area>(n) * 400;
  return generate_module("m", cfg, rng).impls;
}

LList make_chain(std::size_t n, std::uint64_t seed) {
  Pcg32 rng(seed);
  std::vector<LEntry> entries(n);
  Dim w1 = static_cast<Dim>(4 * n + 10);
  Dim h1 = 6, h2 = 5;
  for (std::size_t i = 0; i < n; ++i) {
    entries[i] = {{w1, 8, h1, h2}, static_cast<std::uint32_t>(i)};
    w1 -= 1 + static_cast<Dim>(rng.below(3));
    h2 += static_cast<Dim>(rng.below(3));
    h1 = std::max(h1 + static_cast<Dim>(rng.below(3)), h2) + 1;
  }
  return LList::from_chain_unchecked(std::move(entries));
}

void BM_CsppLayeredDag(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Pcg32 rng(n);
  CsppGraph g(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < std::min(n, i + 9); ++j) {
      g.add_edge(i, j, 1 + rng.below(50));
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(constrained_shortest_path(g, 0, n - 1, n / 4));
  }
  state.SetComplexityN(static_cast<benchmark::IterationCount>(n));
}
BENCHMARK(BM_CsppLayeredDag)->RangeMultiplier(2)->Range(64, 1024)->Complexity();

void BM_RSelectionGeneric(benchmark::State& state) {
  const RList list = make_list(static_cast<std::size_t>(state.range(0)), 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(r_selection(list, 32, SelectionDp::Generic));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_RSelectionGeneric)->RangeMultiplier(2)->Range(64, 1024)->Complexity();

void BM_RSelectionMonge(benchmark::State& state) {
  const RList list = make_list(static_cast<std::size_t>(state.range(0)), 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(r_selection(list, 32, SelectionDp::Monge));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_RSelectionMonge)->RangeMultiplier(2)->Range(64, 4096)->Complexity();

void BM_LSelectionTableL2(benchmark::State& state) {
  const LList chain = make_chain(static_cast<std::size_t>(state.range(0)), 11);
  LSelectionOptions opts;
  opts.metric = LpMetric::L2;  // forces the paper's O(n^3) table path
  for (auto _ : state) {
    benchmark::DoNotOptimize(l_selection(chain, 16, opts));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_LSelectionTableL2)->RangeMultiplier(2)->Range(32, 256)->Complexity();

void BM_LSelectionL1FastPath(benchmark::State& state) {
  const LList chain = make_chain(static_cast<std::size_t>(state.range(0)), 11);
  LSelectionOptions opts;  // L1 + Monge
  for (auto _ : state) {
    benchmark::DoNotOptimize(l_selection(chain, 16, opts));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_LSelectionL1FastPath)->RangeMultiplier(2)->Range(32, 4096)->Complexity();

void BM_SliceMergeLinear(benchmark::State& state) {
  const RList a = make_list(static_cast<std::size_t>(state.range(0)), 3);
  const RList b = make_list(static_cast<std::size_t>(state.range(0)), 4);
  OptimizerStats stats;
  BudgetTracker budget(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(combine_slice(a, b, false, budget, stats));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SliceMergeLinear)->RangeMultiplier(2)->Range(64, 2048)->Complexity();

void BM_SliceMergeNaive(benchmark::State& state) {
  const RList a = make_list(static_cast<std::size_t>(state.range(0)), 3);
  const RList b = make_list(static_cast<std::size_t>(state.range(0)), 4);
  OptimizerStats stats;
  BudgetTracker budget(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(reference::combine_slice_naive(a, b, false, budget, stats));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SliceMergeNaive)->RangeMultiplier(2)->Range(64, 1024)->Complexity();

}  // namespace

BENCHMARK_MAIN();
