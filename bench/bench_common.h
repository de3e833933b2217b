#ifndef GEPC_BENCH_BENCH_COMMON_H_
#define GEPC_BENCH_BENCH_COMMON_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/flags.h"
#include "gap/shmoys_tardos.h"
#include "gepc/solver.h"

namespace gepc {
namespace bench {

/// Shared command-line knobs for the paper-reproduction harness binaries.
///   --scale=<0..1>   shrink city presets (users/events) proportionally
///   --trials=<n>     random atomic operations per IEP measurement
///   --quick          preset: scale 0.25, trials 3 (CI-friendly); an
///                    explicit --scale or --trials wins in any order
///   --csv=PREFIX     also write machine-readable CSV series to
///                    PREFIX_<series>.csv (supported by the figure benches)
///   --json=FILE      write a flat JSON object of headline numbers to FILE
///                    (CI perf-trajectory artifact; see JsonResults)
/// Values may also follow as the next argument (`--scale 0.5`).
struct BenchFlags {
  double scale = 1.0;
  int trials = 5;
  std::string csv_prefix;
  std::string json_path;

  /// Strict: an unknown flag or bad value prints the error and the flag
  /// list above, then exits 64.
  static BenchFlags Parse(int argc, char** argv) {
    BenchFlags flags;
    bool quick = false;
    FlagTable table = {
        Flag::Double("scale", &flags.scale, 0.0, 1.0, /*min_exclusive=*/true),
        Flag::Int("trials", &flags.trials, 1, 1'000'000),
        Flag::Bool("quick", &quick),
        Flag::String("csv", &flags.csv_prefix),
        Flag::String("json", &flags.json_path),
    };
    const Status parsed = table.Parse(argc, argv);
    if (!parsed.ok()) {
      std::fprintf(stderr,
                   "error: %s\n\nflags: [--quick] [--scale=S] [--trials=N] "
                   "[--csv=PREFIX] [--json=FILE]\n",
                   parsed.message().c_str());
      std::exit(64);
    }
    if (quick && !table.IsSet("scale")) flags.scale = 0.25;
    if (quick && !table.IsSet("trials")) flags.trials = 3;
    return flags;
  }
};

/// Flat {"bench":"...","results":{"key":number,...}} sink for --json=FILE.
/// Keys are bench-chosen snake_case identifiers (no escaping is applied);
/// one file per binary per run, uploaded as a CI artifact so headline
/// numbers accumulate a machine-readable trajectory across commits.
class JsonResults {
 public:
  explicit JsonResults(std::string bench) : bench_(std::move(bench)) {}

  void Add(const std::string& key, double value) {
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    if (!body_.empty()) body_ += ",";
    body_ += "\"" + key + "\":" + buffer;
  }

  /// No-op when `path` is empty (flag not given). Returns false on IO error.
  bool WriteTo(const std::string& path) const {
    if (path.empty()) return true;
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
      return false;
    }
    std::fprintf(out, "{\"bench\":\"%s\",\"results\":{%s}}\n", bench_.c_str(),
                 body_.c_str());
    std::fclose(out);
    return true;
  }

 private:
  std::string bench_;
  std::string body_;
};

/// Solver preset used across all benches: the GAP-based algorithm keeps its
/// exact simplex LP for small reductions and switches to the MWU engine
/// (the scalable Plotkin-Shmoys-Tardos-style path) above 8000 candidate
/// pairs — mirroring the paper's observation that the GAP algorithm's LP is
/// the scalability bottleneck while keeping full-size cities runnable.
inline GepcOptions GapPreset(uint64_t greedy_seed = 1) {
  GepcOptions options;
  options.algorithm = GepcAlgorithm::kGapBased;
  options.gap_based.gap.engine = GapLpEngine::kAuto;
  options.gap_based.gap.auto_simplex_limit = 8000;
  options.gap_based.gap.lp.max_candidates_per_job = 20;
  options.greedy.seed = greedy_seed;  // greedy fallback
  return options;
}

inline GepcOptions GreedyPreset(uint64_t seed = 1) {
  GepcOptions options;
  options.algorithm = GepcAlgorithm::kGreedy;
  options.greedy.seed = seed;
  return options;
}

}  // namespace bench
}  // namespace gepc

#endif  // GEPC_BENCH_BENCH_COMMON_H_
