// perfbench: the repository benchmark. See perfbench/README.md.
//
//   perfbench --workload NAME --seed N --seconds N --trace 0|1
//             [--git-sha SHA] [--workdir DIR]
//
// Prints progress notes, one metadata line, and as its last line one JSON
// object {"correct","attempted","failed","metrics"}. Exits 0 when every
// correctness gate passed, 1 when one failed, 64 on a bad flag.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "bench/bench_common.h"
#include "common/logging.h"
#include "data/cities.h"
#include "offline.h"
#include "serving.h"
#include "util.h"

namespace perfbench {
namespace {

constexpr int kUsageExit = 64;

const char* const kWorkloads[] = {"serve_big", "serve_small", "offline_paper"};

int Usage(const std::string& error) {
  std::fprintf(stderr,
               "error: %s\n"
               "usage: perfbench --workload serve_big|serve_small|offline_paper\n"
               "                 --seed N --seconds N --trace 0|1\n"
               "                 [--git-sha SHA] [--workdir DIR]\n",
               error.c_str());
  return kUsageExit;
}

/// Parses a whole decimal number in [lo, hi]; false on anything else.
bool ParseWhole(const std::string& text, long long lo, long long hi,
                long long* out) {
  if (text.empty() || text.size() > 19) return false;
  for (char c : text) {
    if (c < '0' || c > '9') return false;
  }
  const long long value = std::strtoll(text.c_str(), nullptr, 10);
  if (value < lo || value > hi) return false;
  *out = value;
  return true;
}

struct Flags {
  RunOptions run;
  std::string git_sha = "unknown";
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
};

/// Strict flag parsing: every flag takes exactly one value, each may appear
/// once, and the four run flags are required.
bool ParseFlags(int argc, char** argv, Flags* flags, std::string* error) {
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      *error = "flag " + flag + " needs a value";
      return false;
    }
    const std::string value = argv[i + 1];
    long long number = 0;
    auto once = [&](bool* seen) {
      if (*seen) *error = "flag " + flag + " given twice";
      *seen = true;
      return error->empty();
    };
    if (flag == "--workload") {
      if (!once(&flags->have_workload)) return false;
      bool known = false;
      for (const char* name : kWorkloads) known = known || value == name;
      if (!known) {
        *error = "unknown workload '" + value + "'";
        return false;
      }
      flags->run.workload = value;
    } else if (flag == "--seed") {
      if (!once(&flags->have_seed)) return false;
      if (!ParseWhole(value, 0, 1LL << 62, &number)) {
        *error = "--seed must be a whole number, got '" + value + "'";
        return false;
      }
      flags->run.seed = static_cast<uint64_t>(number);
    } else if (flag == "--seconds") {
      if (!once(&flags->have_seconds)) return false;
      if (!ParseWhole(value, 1, 600, &number)) {
        *error = "--seconds must be a whole number in [1, 600], got '" + value + "'";
        return false;
      }
      flags->run.seconds = static_cast<int>(number);
    } else if (flag == "--trace") {
      if (!once(&flags->have_trace)) return false;
      if (value != "0" && value != "1") {
        *error = "--trace must be 0 or 1, got '" + value + "'";
        return false;
      }
      flags->run.trace = value == "1";
    } else if (flag == "--git-sha") {
      flags->git_sha = value;
    } else if (flag == "--workdir") {
      flags->run.workdir = value;
    } else {
      *error = "unknown flag '" + flag + "'";
      return false;
    }
  }
  if (!flags->have_workload || !flags->have_seed || !flags->have_seconds ||
      !flags->have_trace) {
    *error = "--workload, --seed, --seconds and --trace are required";
    return false;
  }
  return true;
}

gepc::Result<InitialState> SolveInitial(gepc::Result<gepc::Instance> instance) {
  GEPC_RETURN_IF_ERROR(instance.status());
  const gepc::GepcOptions preset = gepc::bench::GreedyPreset(kDatasetSeed);
  const Clock::time_point start = Clock::now();
  GEPC_ASSIGN_OR_RETURN(gepc::GepcResult solved, gepc::SolveGepc(*instance, preset));
  InitialState state;
  state.solved_with = preset;
  state.solve_s = MsBetween(start, Clock::now()) / 1000.0;
  state.utility = solved.total_utility;
  state.instance = *std::move(instance);
  state.plan = std::move(solved.plan);
  return state;
}

/// The open-loop phase offers writes at kOpenLoad of the workload's
/// closed-loop write capacity, taken as the median `sat_ops_s` of five seeds
/// on the reference machine (a shared 4-vCPU VM). A quarter of capacity
/// queues some writes behind others, so queue wait shows in the tail, and
/// leaves the cores the follower, the readers and the client need. The
/// rate is fixed rather than re-measured in each run so that every run and
/// every version of the code is offered the same traffic; each traced run
/// reports the load it put on this run's capacity as `gen.write_util`.
/// Reads split evenly between query_user and query_event, the read
/// commands of the two sides (participants and organisers); there is no
/// recorded GFRM traffic to take a split from.
constexpr double kOpenLoad = 0.25;
constexpr double kServeBigCapacity = 212.0;    // writes/s
constexpr double kServeSmallCapacity = 2450.0;  // writes/s

ServingConfig ServeBig() {
  ServingConfig config;
  config.make_state = [] {
    return SolveInitial(gepc::GenerateCutOutBase(kDatasetSeed));
  };
  config.write_fraction = 0.3;
  config.open_rate = kOpenLoad * kServeBigCapacity / config.write_fraction;
  config.mix = {OpKind::kMu,   OpKind::kBudget,  OpKind::kEtaDown,
                OpKind::kXiUp, OpKind::kXiDown, OpKind::kTime};
  config.rebalance_shards = 4;
  config.setups = 5;
  return config;
}

ServingConfig ServeSmall() {
  ServingConfig config;
  config.make_state = []() -> gepc::Result<InitialState> {
    GEPC_ASSIGN_OR_RETURN(gepc::CityPreset auckland, gepc::FindCity("Auckland"));
    return SolveInitial(gepc::GenerateCity(auckland, kDatasetSeed));
  };
  config.write_fraction = 0.5;
  config.open_rate = kOpenLoad * kServeSmallCapacity / config.write_fraction;
  config.mix = {OpKind::kMu,   OpKind::kBudget,  OpKind::kEtaUp, OpKind::kEtaDown,
                OpKind::kXiUp, OpKind::kXiDown, OpKind::kTime};
  config.checkpoint_every = 500;
  config.setups = 60;
  return config;
}

void PrintResult(const RunReport& report, bool trace) {
  const MetricSet& metrics = trace ? report.per_layer : report.end_to_end;
  std::string out = "{\"correct\": ";
  out += report.gate_failures.empty() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(report.attempted);
  out += ", \"failed\": " + std::to_string(report.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const Metric& metric : metrics.metrics()) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + metric.name + "\": {\"value\": " + JsonDouble(metric.value) +
           ", \"unit\": \"" + metric.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

int Main(int argc, char** argv) {
  Flags flags;
  std::string error;
  if (!ParseFlags(argc, argv, &flags, &error)) return Usage(error);
  RunOptions& run = flags.run;
  if (run.workdir.empty()) {
    run.workdir = ".bench_build/work-" + std::to_string(getpid());
  }
  gepc::SetLogLevel(gepc::LogLevel::kError);
  std::printf(
      "{\"meta\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %d, "
      "\"trace\": %d, \"git_sha\": \"%s\", \"build_type\": \"%s\", "
      "\"nproc\": %u}}\n",
      run.workload.c_str(), static_cast<unsigned long long>(run.seed),
      run.seconds, run.trace ? 1 : 0, flags.git_sha.c_str(),
      PERFBENCH_BUILD_TYPE, std::thread::hardware_concurrency());
  std::fflush(stdout);

  RemoveTree(run.workdir);
  std::error_code ec;
  std::filesystem::create_directories(run.workdir, ec);
  if (ec) {
    std::fprintf(stderr, "error: cannot create %s: %s\n", run.workdir.c_str(),
                 ec.message().c_str());
    return 1;
  }
  RunReport report;
  if (run.workload == "serve_big") {
    RunServing(ServeBig(), run, &report);
  } else if (run.workload == "serve_small") {
    RunServing(ServeSmall(), run, &report);
  } else {
    RunOffline(run, &report);
  }
  RemoveTree(run.workdir);

  for (const std::string& note : report.notes) std::printf("# %s\n", note.c_str());
  for (const std::string& failure : report.gate_failures) {
    std::printf("# GATE FAILED: %s\n", failure.c_str());
    std::fprintf(stderr, "gate failed: %s\n", failure.c_str());
  }
  PrintResult(report, run.trace);
  std::fflush(stdout);
  return report.gate_failures.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
