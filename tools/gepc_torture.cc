// gepc_torture — crash-recovery torture harness for the planning service.
//
//   gepc_torture [--users N] [--events M] [--ops K] [--seed S]
//                [--byte-level] [--no-service-recover]
//                [--checkpoint-every N] [--workdir DIR]
//                [--failover] [--offset-stride N]
//
// Generates a seeded city and op stream, records a reference run through
// the GOPS1 journal, then simulates a crash at every chosen journal offset
// (every byte with --byte-level, otherwise every record boundary +/- 1),
// recovers via ReplayJournal / PlanningService::Recover, and verifies the
// recovered (instance, plan, snapshot version) is byte-identical to the
// reference. With --checkpoint-every N the checkpoint variant also runs:
// GCKP1 checkpoints are published every N ops, the newest checkpoint and
// the compacted journal are each truncated at every chosen offset, and
// recovery must still reconstruct the reference state with zero loss of
// committed operations.
//
// --failover switches to the replication torture (docs/replication.md):
// for every chosen journal offset k (every committed op with the default
// stride 1), a fresh primary + replication source is booted, a follower
// bootstraps from a shipped checkpoint and tails k rows, the primary is
// killed, the follower promotes, and the promoted state must serialize
// byte-identically to the reference state after k ops — then accept one
// more write at sequence k + 1. --offset-stride thins the sweep for CI.
//
// Exit 0 when every recovery matches, 1 on divergence, 64 on usage
// errors. See docs/fault-injection.md.

#include <cstdio>
#include <filesystem>
#include <string>

#include "common/flags.h"
#include "common/logging.h"
#include "repl/failover.h"
#include "service/torture.h"

namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage: gepc_torture [--users N] [--events M] [--ops K] [--seed S]\n"
      "                    [--byte-level] [--no-service-recover]\n"
      "                    [--checkpoint-every N] [--workdir DIR]\n"
      "                    [--failover] [--offset-stride N]\n"
      "Simulates a crash at every journal truncation point and verifies\n"
      "recovery reproduces the reference state byte-for-byte. With\n"
      "--checkpoint-every N, also tortures the GCKP1 checkpoint file and\n"
      "the compacted journal at every offset. With --failover, kills a\n"
      "replicating primary at every journal offset instead and verifies\n"
      "the promoted follower matches the reference byte-for-byte.\n");
  return 64;
}

}  // namespace

int main(int argc, char** argv) {
  // Thousands of recoveries: the per-recovery Info lines are pure noise.
  gepc::SetLogLevel(gepc::LogLevel::kWarning);
  gepc::TortureOptions options;
  bool failover = false;
  bool no_service_recover = false;
  int offset_stride = 1;
  std::string workdir;
  constexpr int kMax = 1'000'000;
  gepc::FlagTable flags = {
      gepc::Flag::Int("users", &options.users, 1, kMax),
      gepc::Flag::Int("events", &options.events, 1, kMax),
      gepc::Flag::Int("ops", &options.ops, 1, kMax),
      gepc::Flag::Uint64("seed", &options.seed),
      gepc::Flag::Bool("byte-level", &options.byte_level),
      gepc::Flag::Bool("no-service-recover", &no_service_recover),
      gepc::Flag::Int("checkpoint-every", &options.checkpoint_every, 1, kMax),
      gepc::Flag::String("workdir", &workdir),
      gepc::Flag::Bool("failover", &failover),
      gepc::Flag::Int("offset-stride", &offset_stride, 1, kMax),
  };
  const gepc::Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "error: %s\n", parsed.message().c_str());
    return Usage();
  }
  options.service_recover = !no_service_recover;

  std::error_code ec;
  if (workdir.empty()) {
    workdir = (std::filesystem::temp_directory_path(ec) /
               ("gepc_torture." + std::to_string(options.seed)))
                  .string();
    std::filesystem::create_directories(workdir, ec);
    if (ec) {
      std::fprintf(stderr, "cannot create workdir %s: %s\n", workdir.c_str(),
                   ec.message().c_str());
      return 1;
    }
  }
  options.workdir = workdir;

  if (failover) {
    // Killing the primary at every offset provokes the follower's normal
    // disconnect/reconnect warnings by design; only real errors matter.
    gepc::SetLogLevel(gepc::LogLevel::kError);
    gepc::repl::FailoverTortureOptions failover_options;
    failover_options.users = options.users;
    failover_options.events = options.events;
    failover_options.ops = options.ops;
    failover_options.seed = options.seed;
    if (options.checkpoint_every > 0) {
      failover_options.checkpoint_every = options.checkpoint_every;
    }
    failover_options.offset_stride = offset_stride;
    failover_options.workdir = workdir;
    auto report = gepc::repl::RunFailoverTorture(failover_options);
    if (!report.ok()) {
      std::fprintf(stderr, "failover torture harness error: %s\n",
                   report.status().ToString().c_str());
      return 1;
    }
    std::printf("ops in stream        %llu\n",
                static_cast<unsigned long long>(report->ops_total));
    std::printf("offsets exercised    %d\n", report->offsets_exercised);
    std::printf("promotions           %d\n", report->promotions);
    std::printf("ckpt bootstraps      %d\n", report->checkpoint_bootstraps);
    std::printf("state mismatches     %d\n", report->state_mismatches);
    std::printf("resumed write fails  %d\n", report->resumed_write_failures);
    if (!report->passed) {
      std::printf("FAILED: %s\n", report->failure.c_str());
      return 1;
    }
    std::printf(
        "PASSED: every promoted follower matched the reference "
        "byte-identically\n");
    return 0;
  }

  // The checkpoint variant deliberately provokes a "checkpoint unusable"
  // warning at every truncation offset; only real errors are worth seeing.
  if (options.checkpoint_every > 0) {
    gepc::SetLogLevel(gepc::LogLevel::kError);
  }
  auto report = gepc::RunCrashRecoveryTorture(options);
  if (!report.ok()) {
    std::fprintf(stderr, "torture harness error: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }
  std::printf("ops journaled      %llu\n",
              static_cast<unsigned long long>(report->ops_journaled));
  std::printf("journal bytes      %lld\n",
              static_cast<long long>(report->journal_bytes));
  std::printf("truncation points  %d\n", report->truncation_points);
  std::printf("torn recoveries    %d\n", report->torn_recoveries);
  std::printf("service recoveries %d\n", report->service_recoveries);
  if (options.checkpoint_every > 0) {
    std::printf("checkpoints        %llu\n",
                static_cast<unsigned long long>(report->checkpoints_published));
    std::printf("ckpt truncations   %d\n",
                report->checkpoint_truncation_points);
    std::printf("rotated truncations %d\n",
                report->rotated_truncation_points);
    std::printf("ckpt fallbacks     %d\n", report->checkpoint_fallbacks);
  }
  if (!report->passed) {
    std::printf("FAILED: %s\n", report->failure.c_str());
    return 1;
  }
  std::printf("PASSED: every crash point recovered byte-identically\n");
  return 0;
}
