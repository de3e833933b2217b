// Reproduces Figure 5 (a, b): memory cost of the three IEP algorithms on
// the "cut out" datasets — (a) |E| = 50 varying |U|, (b) |U| = 5000 varying
// |E|. Peak heap growth during the incremental repair, via gepc_memhooks.
//
// Paper's shape: memory rises with |U| and |E|; the three operations are
// nearly equal with eta-De slightly smallest. The repairs edit the plan in
// place, so what is measured here is each repair's own working memory.

#include <cstdio>
#include <vector>

#include "bench/iep_bench_common.h"
#include "data/generator.h"

namespace gepc {

int RunSeries(const char* title, const Instance& base,
              const std::vector<std::pair<int, int>>& points,
              const bench::BenchFlags& flags) {
  std::printf("-- %s --\n", title);
  // KiB, not the other figures' MB: most points are well under 0.1 MB.
  TextTable table({"|U|", "|E|", "Mem eta-De (KiB)", "Mem xi-In (KiB)",
                   "Mem ts-tt (KiB)"});
  auto kib = [](const bench::IepRunStats& stats) {
    return stats.ok ? std::to_string(stats.iep_peak_bytes / 1024) : "-";
  };
  Rng rng(17);
  for (const auto& [num_users, num_events] : points) {
    const Instance cut = CutOut(base, num_users, num_events, &rng);
    auto initial = SolveGepc(cut, bench::GreedyPreset());
    if (!initial.ok()) return 1;
    const auto eta = bench::RunIepTrials(cut, initial->plan,
                                         bench::MakeEtaDecrease, flags.trials,
                                         201, /*run_regap=*/false);
    const auto xi = bench::RunIepTrials(cut, initial->plan,
                                        bench::MakeXiIncrease, flags.trials,
                                        202, /*run_regap=*/false);
    const auto ts = bench::RunIepTrials(cut, initial->plan,
                                        bench::MakeTimeChange, flags.trials,
                                        203, /*run_regap=*/false);
    table.AddRow({std::to_string(cut.num_users()),
                  std::to_string(cut.num_events()),
                  kib(eta), kib(xi), kib(ts)});
  }
  table.Print();
  std::printf("\n");
  return 0;
}

int Run(const bench::BenchFlags& flags) {
  std::printf("== Figure 5: IEP memory cost (scale %.2f, %d trials) ==\n\n",
              flags.scale, flags.trials);
  auto base = GenerateCutOutBase(/*seed=*/42);
  if (!base.ok()) return 1;
  auto scaled = [&](int v) {
    return std::max(1, static_cast<int>(v * flags.scale));
  };

  std::vector<std::pair<int, int>> vary_users;
  for (int u : {200, 500, 1000, 5000}) {
    vary_users.emplace_back(scaled(u), scaled(50));
  }
  if (RunSeries("Fig 5(a): |E| = 50, varying |U|", *base, vary_users,
                flags)) {
    return 1;
  }

  std::vector<std::pair<int, int>> vary_events;
  for (int e : {20, 50, 100, 200, 500}) {
    vary_events.emplace_back(scaled(5000), scaled(e));
  }
  if (RunSeries("Fig 5(b): |U| = 5000, varying |E|", *base, vary_events,
                flags)) {
    return 1;
  }
  std::printf("Paper's Fig. 5: memory rises with size; the three ops "
              "nearly equal, eta-De smallest.\n");
  return 0;
}

}  // namespace gepc

int main(int argc, char** argv) {
  return gepc::Run(gepc::bench::BenchFlags::Parse(argc, argv));
}
