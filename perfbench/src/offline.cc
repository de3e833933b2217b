#include "offline.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "bench/bench_common.h"
#include "core/feasibility.h"
#include "core/itinerary.h"
#include "data/cities.h"
#include "layers.h"
#include "repl/wire.h"
#include "service/torture.h"

namespace perfbench {

using gepc::AtomicOp;
using gepc::Instance;
using gepc::Plan;
using gepc::Status;

namespace {

constexpr int kSetups = 5;
/// The per-layer metrics of the serving stack, with their units.
const std::pair<const char*, const char*> kServingLayers[] = {
    {"net.decode_us", "us"},          {"net.encode_us", "us"},
    {"net.req_bytes", "bytes"},       {"net.resp_bytes", "bytes"},
    {"net.glz1_decode_us", "us"},     {"net.glz1_encode_us", "us"},
    {"net.glz1_resp_bytes", "bytes"}, {"dispatch.read_ms", "ms"},
    {"dispatch.write_ms", "ms"},      {"service.queue_wait_ms", "ms"},
    {"journal.append_us", "us"},      {"shard.track_us", "us"},
    {"snapshot.publish_ms", "ms"},    {"snapshot.publishes_per_write", "ratio"},
    {"repl.lag_rows", "rows"},        {"repl.follower_apply_ms", "ms"},
    {"ckpt.write_ms", "ms"},          {"ckpt.count", "count"},
    {"layers.coverage", "ratio"},     {"gen.write_util", "ratio"},
    {"gen.late_ms", "ms"},            {"gen.late_p99_ms", "ms"},
    {"trace.overhead_ms", "ms"}};
/// Slices the op rounds are cut into for the windowed medians.
constexpr int kWindows = 7;
/// Rounds of all eight op kinds per city, per second of --seconds.
constexpr int kRoundsPerSecond = 2;
/// Itinerary reads timed after every applied op.
constexpr int kReadsPerOp = 16;

struct SolveTotals {
  double solve_s = 0.0;
  double utility = 0.0;
  double copies_ms = 0.0;
  double xi_gap_ms = 0.0;
  double xi_greedy_ms = 0.0;
  double topup_ms = 0.0;
  double refine_ms = 0.0;
};

/// Solves `city` with one preset, checks the plan, and checks that the
/// phase-by-phase replay reproduces it byte for byte. Returns the plan.
Plan SolveCity(const std::string& name, const Instance& city,
               const gepc::GepcOptions& preset, bool gap, bool refine,
               SolveTotals* totals, RunReport* report) {
  const Clock::time_point start = Clock::now();
  auto solved = gepc::SolveGepc(city, preset);
  totals->solve_s += MsBetween(start, Clock::now()) / 1000.0;
  const std::string label = name + (gap ? " GAP" : " greedy");
  if (!solved.ok()) {
    report->Gate(false, label + " solve: " + solved.status().ToString());
    return Plan(city.num_users(), city.num_events());
  }
  totals->utility += solved->total_utility;
  gepc::ValidationOptions validation;
  validation.check_lower_bounds = false;
  const Status feasible = gepc::ValidatePlan(city, solved->plan, validation);
  report->Gate(feasible.ok(), label + " plan infeasible: " + feasible.ToString());

  auto replay = ReplaySolvePhases(city, preset, refine);
  report->Gate(replay.ok() && PlanBytes(replay->plan) == PlanBytes(solved->plan),
               label + ": phase-by-phase replay differs from SolveGepc");
  if (replay.ok()) {
    totals->copies_ms += replay->copies_ms;
    (gap ? totals->xi_gap_ms : totals->xi_greedy_ms) += replay->xi_ms;
    totals->topup_ms += replay->topup_ms;
    totals->refine_ms += replay->refine_ms;
  }
  return std::move(solved->plan);
}

std::string StateBytes(const gepc::IncrementalPlanner& planner, uint64_t version) {
  auto bytes = gepc::SerializeServiceState(planner.instance(), planner.plan(), version);
  return bytes.ok() ? *bytes : "unserializable: " + bytes.status().ToString();
}

}  // namespace

void RunOffline(const RunOptions& options, RunReport* report) {
  std::vector<double> setup_s;
  std::vector<std::pair<std::string, Instance>> cities;
  for (int k = 0; k < kSetups; ++k) {
    cities.clear();
    const Clock::time_point start = Clock::now();
    for (const gepc::CityPreset& preset : gepc::PaperCities()) {
      auto city = gepc::GenerateCity(preset, kDatasetSeed);
      if (!city.ok()) {
        report->Gate(false, preset.name + ": " + city.status().ToString());
        return;
      }
      cities.emplace_back(preset.name, *std::move(city));
    }
    setup_s.push_back(MsBetween(start, Clock::now()) / 1000.0);
  }

  // A fixed count, so that the op sequence and its dif repeat for a seed.
  // About two rounds a second on the reference VM.
  const int rounds = kRoundsPerSecond * std::max(1, options.seconds);
  gepc::Rng rng(options.seed * 0x9E3779B97F4A7C15ULL + 0x0FF);
  SolveTotals totals;
  IepRecorder recorder;
  std::vector<double> read_ms;
  std::vector<double> visible_ms;
  uint64_t ops_ok = 0;
  uint64_t ops_sent = 0;

  // Solve every city first, then run the op rounds over all cities in
  // turn, so that each slice of the op phase holds every city and kind and
  // a slow spell of the host hits them alike.
  struct CityOps {
    std::string name;
    std::unique_ptr<gepc::IncrementalPlanner> primary;
    std::unique_ptr<gepc::IncrementalPlanner> replica;
    uint64_t sequence = 0;
  };
  std::vector<CityOps> runs;
  for (const auto& [name, city] : cities) {
    Plan gap = SolveCity(name, city, gepc::bench::GapPreset(kDatasetSeed), true,
                         options.trace, &totals, report);
    SolveCity(name, city, gepc::bench::GreedyPreset(kDatasetSeed), false,
              options.trace, &totals, report);
    // The op sequence repairs the GAP plan. A replica fed each op as its
    // GOPS1 row must stay byte-identical, so Apply is deterministic.
    auto primary = gepc::IncrementalPlanner::Create(city, gap);
    auto replica = gepc::IncrementalPlanner::Create(city, gap);
    if (!primary.ok() || !replica.ok()) {
      report->Gate(false, name + ": planner: " + primary.status().ToString());
      continue;
    }
    runs.push_back(CityOps{
        name, std::make_unique<gepc::IncrementalPlanner>(*std::move(primary)),
        std::make_unique<gepc::IncrementalPlanner>(*std::move(replica)), 0});
  }

  Windowed repair_ms(kWindows, rounds);
  // Per window: Apply calls and their summed time, for sat_ops_s.
  std::vector<double> window_ops(kWindows, 0.0);
  std::vector<double> window_ms(kWindows, 0.0);
  const double cpu_start = ProcessCpuMs();
  for (int round = 0; round < rounds; ++round) {
    const size_t window = static_cast<size_t>(round) * kWindows / static_cast<size_t>(rounds);
    for (CityOps& run : runs) {
      gepc::IncrementalPlanner& primary = *run.primary;
      std::vector<OpKind> kinds(kAllKinds.begin(), kAllKinds.end());
      for (size_t i = kinds.size(); i > 1; --i) {
        std::swap(kinds[i - 1], kinds[rng.UniformUint64(i)]);
      }
      for (OpKind kind : kinds) {
        const AtomicOp op = MakeOfflineOp(kind, primary.instance(), primary.plan(), &rng);
        ++ops_sent;
        const Clock::time_point start = Clock::now();
        const Status applied = TimedApply(&primary, op, &recorder, nullptr, nullptr);
        if (!applied.ok()) {
          report->Gate(false, run.name + " op " + KindName(kind) + ": " + applied.ToString());
          continue;
        }
        const double ms = recorder.all_ms().back();
        repair_ms.Add(round, ms);
        window_ops[window] += 1.0;
        window_ms[window] += ms;
        const uint64_t sequence = ++run.sequence;
        auto row = gepc::repl::EncodeRow(sequence, op);
        auto parsed = row.ok() ? gepc::repl::ParseRow(*row)
                               : gepc::Result<gepc::repl::ReplRow>(row.status());
        const bool replicated = parsed.ok() && run.replica->Apply(parsed->op).ok();
        const Clock::time_point visible = Clock::now();
        report->Gate(replicated, run.name + ": replica could not apply op " +
                                     std::to_string(sequence));
        if (!replicated) continue;
        ++ops_ok;
        visible_ms.push_back(MsBetween(start, visible));
        for (int r = 0; r < kReadsPerOp; ++r) {
          const gepc::UserId user = static_cast<gepc::UserId>(
              rng.UniformUint64(static_cast<uint64_t>(primary.instance().num_users())));
          const Clock::time_point read = Clock::now();
          const gepc::Itinerary itinerary =
              gepc::BuildItinerary(primary.instance(), primary.plan(), user);
          read_ms.push_back(MsBetween(read, Clock::now()));
          if (itinerary.user != user) report->Gate(false, "itinerary for the wrong user");
        }
      }
    }
  }
  const double ops_cpu_ms = ProcessCpuMs() - cpu_start;
  for (const CityOps& run : runs) {
    report->Gate(StateBytes(*run.primary, run.sequence) ==
                     StateBytes(*run.replica, run.sequence),
                 run.name + ": replica diverged from the primary");
    gepc::ValidationOptions validation;
    validation.check_lower_bounds = false;
    const Status feasible =
        gepc::ValidatePlan(run.primary->instance(), run.primary->plan(), validation);
    report->Gate(feasible.ok(), run.name + " repaired plan infeasible: " + feasible.ToString());
  }
  std::vector<double> window_rate;
  for (size_t w = 0; w < window_ops.size(); ++w) {
    if (window_ms[w] > 0) window_rate.push_back(1000.0 * window_ops[w] / window_ms[w]);
  }
  report->attempted = ops_sent + 2 * cities.size();
  report->failed = ops_sent - ops_ok;

  const std::vector<double>& apply_ms = recorder.all_ms();
  report->notes.push_back("ops applied=" + std::to_string(ops_ok) + " of " +
                          std::to_string(ops_sent) + " reads=" +
                          std::to_string(read_ms.size()));

  if (!options.trace) {
    MetricSet& m = report->end_to_end;
    m.Add("setup_s", Median(setup_s), "s");
    // No service here: saturation is the closed loop of Apply calls, and a
    // write's CPU cost covers the primary and the replica planner (plus the
    // reads after it). Rates and repair times are medians over kWindows
    // slices of the rounds, as the serving workloads' figures are.
    m.Add("sat_ops_s", Median(window_rate), "1/s");
    m.Add("write_cpu_ms", ops_ok == 0 ? 0.0 : ops_cpu_ms / static_cast<double>(ops_ok), "ms");
    m.Add("ok_frac", ops_sent == 0 ? 0.0 : static_cast<double>(ops_ok) / static_cast<double>(ops_sent), "ratio");
    m.Add("solve_s", totals.solve_s, "s");
    m.Add("solve_utility", totals.utility, "utility");
    m.Add("repair_p50_ms", repair_ms.Quantile(0.50), "ms");
    m.Add("repair_p99_ms", repair_ms.Quantile(0.99), "ms");
    m.Add("repair_dif", recorder.MeanDif(), "count");
    m.Add("peak_rss_mb", PeakRssMb(), "MiB");
    return;
  }

  // Traced run. No service runs here: a write is the bare Apply, a read one
  // itinerary built from the live plan, and "replica visible" the time
  // until a second planner fed the op's GOPS1 row has applied it too.
  MetricSet& m = report->per_layer;
  m.Add("op_p50_ms", Quantile(apply_ms, 0.50), "ms");
  m.Add("op_p99_ms", Quantile(apply_ms, 0.99), "ms");
  m.Add("read_p50_ms", Quantile(read_ms, 0.50), "ms");
  m.Add("read_p99_ms", Quantile(read_ms, 0.99), "ms");
  m.Add("repl_visible_p50_ms", Quantile(visible_ms, 0.50), "ms");
  m.Add("repl_visible_p99_ms", Quantile(visible_ms, 0.99), "ms");
  m.Add("gepc.copies_ms", totals.copies_ms, "ms");
  m.Add("gepc.xi_gap_ms", totals.xi_gap_ms, "ms");
  m.Add("gepc.xi_greedy_ms", totals.xi_greedy_ms, "ms");
  m.Add("gepc.topup_ms", totals.topup_ms, "ms");
  m.Add("gepc.refine_ms", totals.refine_ms, "ms");
  recorder.AddLayers(&m);
  // The serving layers do no work in this workload, so they read 0.
  for (const auto& [name, unit] : kServingLayers) m.Add(name, 0.0, unit);
}

}  // namespace perfbench
