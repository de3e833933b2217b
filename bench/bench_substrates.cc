// Microbenchmarks (google-benchmark) for the substrates the planners stand
// on: the simplex LP solver, the min-cost-flow solver, Shmoys-Tardos
// rounding, conflict-graph construction, and tour-cost evaluation.

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "core/feasibility.h"
#include "data/generator.h"
#include "flow/min_cost_flow.h"
#include "gap/gap_lp.h"
#include "gap/shmoys_tardos.h"
#include "lp/simplex.h"
#include "temporal/conflict_graph.h"

namespace gepc {
namespace {

GapInstance RandomGap(int machines, int jobs, uint64_t seed) {
  Rng rng(seed);
  GapInstance gap(machines, jobs);
  for (int i = 0; i < machines; ++i) {
    gap.set_capacity(i, rng.UniformDouble(20.0, 40.0));
  }
  for (int j = 0; j < jobs; ++j) {
    for (int i = 0; i < machines; ++i) {
      gap.SetPair(i, j, rng.UniformDouble(1.0, 8.0),
                  rng.UniformDouble(0.0, 1.0));
    }
  }
  return gap;
}

void BM_SimplexGapLp(benchmark::State& state) {
  const GapInstance gap = RandomGap(static_cast<int>(state.range(0)),
                                    static_cast<int>(state.range(1)), 7);
  for (auto _ : state) {
    auto frac = SolveGapLpSimplex(gap);
    benchmark::DoNotOptimize(frac);
  }
}
BENCHMARK(BM_SimplexGapLp)->Args({5, 20})->Args({10, 40})->Args({20, 80});

void BM_MwuGapLp(benchmark::State& state) {
  const GapInstance gap = RandomGap(static_cast<int>(state.range(0)),
                                    static_cast<int>(state.range(1)), 7);
  for (auto _ : state) {
    auto frac = SolveGapLpMwu(gap);
    benchmark::DoNotOptimize(frac);
  }
}
BENCHMARK(BM_MwuGapLp)->Args({20, 80})->Args({50, 200})->Args({100, 400});

void BM_ShmoysTardosRounding(benchmark::State& state) {
  const GapInstance gap = RandomGap(20, static_cast<int>(state.range(0)), 9);
  auto frac = SolveGapLpMwu(gap);
  for (auto _ : state) {
    auto rounded = RoundFractional(gap, *frac);
    benchmark::DoNotOptimize(rounded);
  }
}
BENCHMARK(BM_ShmoysTardosRounding)->Arg(50)->Arg(200)->Arg(800);

void BM_MinCostFlowAssignment(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(11);
  for (auto _ : state) {
    state.PauseTiming();
    MinCostFlow flow(2 * n + 2);
    for (int w = 0; w < n; ++w) flow.AddEdge(0, 1 + w, 1, 0.0);
    for (int w = 0; w < n; ++w) {
      for (int t = 0; t < n; ++t) {
        flow.AddEdge(1 + w, 1 + n + t, 1, rng.UniformDouble(0.0, 1.0));
      }
    }
    for (int t = 0; t < n; ++t) flow.AddEdge(1 + n + t, 2 * n + 1, 1, 0.0);
    state.ResumeTiming();
    auto result = flow.Solve(0, 2 * n + 1);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_MinCostFlowAssignment)->Arg(20)->Arg(50)->Arg(100);

void BM_ConflictGraphBuild(benchmark::State& state) {
  Rng rng(13);
  std::vector<Interval> intervals;
  const int m = static_cast<int>(state.range(0));
  for (int j = 0; j < m; ++j) {
    const Minutes start = static_cast<Minutes>(rng.UniformInt(0, 10000));
    intervals.push_back({start, start + static_cast<Minutes>(
                                            rng.UniformInt(30, 180))});
  }
  for (auto _ : state) {
    ConflictGraph graph(intervals);
    benchmark::DoNotOptimize(graph.conflict_pair_count());
  }
}
BENCHMARK(BM_ConflictGraphBuild)->Arg(100)->Arg(500)->Arg(2000);

void BM_TourCost(benchmark::State& state) {
  GeneratorConfig config;
  config.num_users = 10;
  config.num_events = 20;
  config.mean_eta = 5.0;
  config.mean_xi = 1.0;
  config.seed = 3;
  auto instance = GenerateInstance(config);
  std::vector<EventId> events;
  for (int j = 0; j < static_cast<int>(state.range(0)); ++j) {
    events.push_back(j);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(TourCost(*instance, 0, events));
  }
}
BENCHMARK(BM_TourCost)->Arg(2)->Arg(5)->Arg(10);

}  // namespace
}  // namespace gepc

BENCHMARK_MAIN();
