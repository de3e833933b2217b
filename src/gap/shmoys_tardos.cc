#include "gap/shmoys_tardos.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "flow/min_cost_flow.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace gepc {

namespace {

constexpr double kFracEps = 1e-9;

/// kAuto also switches to MWU when the estimated dense tableau (one row per
/// job and per touched machine) exceeds this many cells: it keeps the dense
/// simplex off instances where a single pivot would already be prohibitive.
constexpr int64_t kAutoMaxTableauCells = 20'000'000;

}  // namespace

Result<GapAssignment> RoundFractional(const GapInstance& gap,
                                      const FractionalAssignment& fractional) {
  const int n = gap.num_machines();
  const int m = gap.num_jobs();
  if (static_cast<int>(fractional.job_shares.size()) != m) {
    return Status::InvalidArgument("fractional solution has wrong job count");
  }

  // Gather each machine's fractional jobs.
  struct JobShare {
    int job;
    double fraction;
  };
  std::vector<std::vector<JobShare>> machine_jobs(static_cast<size_t>(n));
  for (int j = 0; j < m; ++j) {
    for (const auto& share : fractional.job_shares[static_cast<size_t>(j)]) {
      if (share.fraction <= kFracEps) continue;
      if (share.machine < 0 || share.machine >= n) {
        return Status::InvalidArgument("fractional share names a bad machine");
      }
      machine_jobs[static_cast<size_t>(share.machine)].push_back(
          JobShare{j, share.fraction});
    }
  }

  // Slot construction: per machine, jobs sorted by processing time
  // descending are packed into unit-capacity slots. Because each slot k+1
  // only holds jobs no larger than everything in slot k, matching each slot
  // to at most one of its jobs keeps the load within T_i + max p_ij.
  struct SlotEdge {
    int job;
    int slot;  // global slot id
    double cost;
  };
  std::vector<SlotEdge> edges;
  std::vector<int> slot_machine;  // global slot id -> machine
  for (int i = 0; i < n; ++i) {
    auto& jobs = machine_jobs[static_cast<size_t>(i)];
    if (jobs.empty()) continue;
    std::sort(jobs.begin(), jobs.end(), [&](const JobShare& a,
                                            const JobShare& b) {
      const double pa = gap.processing(i, a.job);
      const double pb = gap.processing(i, b.job);
      if (pa != pb) return pa > pb;
      return a.job < b.job;
    });
    int current_slot = static_cast<int>(slot_machine.size());
    slot_machine.push_back(i);
    double fill = 0.0;
    for (const JobShare& js : jobs) {
      double remaining = js.fraction;
      while (remaining > kFracEps) {
        const double room = 1.0 - fill;
        const double used = std::min(room, remaining);
        if (used > kFracEps) {
          edges.push_back(SlotEdge{js.job, current_slot,
                                   gap.cost(i, js.job)});
        }
        fill += used;
        remaining -= used;
        if (fill >= 1.0 - kFracEps && remaining > kFracEps) {
          current_slot = static_cast<int>(slot_machine.size());
          slot_machine.push_back(i);
          fill = 0.0;
        }
      }
    }
  }

  // Min-cost flow: source -> job (1) -> slot (1) -> sink (1).
  const int num_slots = static_cast<int>(slot_machine.size());
  const int source = 0;
  const int job_base = 1;
  const int slot_base = job_base + m;
  const int sink = slot_base + num_slots;
  MinCostFlow flow(sink + 1);
  for (int j = 0; j < m; ++j) flow.AddEdge(source, job_base + j, 1, 0.0);
  std::vector<int> edge_ids;
  edge_ids.reserve(edges.size());
  for (const SlotEdge& e : edges) {
    edge_ids.push_back(
        flow.AddEdge(job_base + e.job, slot_base + e.slot, 1, e.cost));
  }
  for (int s = 0; s < num_slots; ++s) {
    flow.AddEdge(slot_base + s, sink, 1, 0.0);
  }
  GEPC_ASSIGN_OR_RETURN(MinCostFlow::FlowStats stats, flow.Solve(source, sink));
  (void)stats;

  GapAssignment assignment;
  assignment.machine_of_job.assign(static_cast<size_t>(m), -1);
  for (size_t k = 0; k < edges.size(); ++k) {
    if (flow.FlowOn(edge_ids[k]) > 0) {
      assignment.machine_of_job[static_cast<size_t>(edges[k].job)] =
          slot_machine[static_cast<size_t>(edges[k].slot)];
    }
  }
  return assignment;
}

Result<GapAssignment> SolveGapShmoysTardos(const GapInstance& gap,
                                           const GapSolveOptions& options) {
  GEPC_RETURN_IF_ERROR(gap.Validate());

  GapLpEngine engine = options.engine;
  if (engine == GapLpEngine::kAuto) {
    int64_t pairs = 0;
    for (int j = 0; j < gap.num_jobs(); ++j) {
      int eligible = 0;
      for (int i = 0; i < gap.num_machines(); ++i) {
        if (gap.Eligible(i, j)) ++eligible;
      }
      if (options.lp.max_candidates_per_job > 0) {
        eligible = std::min(eligible, options.lp.max_candidates_per_job);
      }
      pairs += eligible;
    }
    // Rows: one per job plus one per machine the candidates can touch;
    // columns: variables plus slacks/artificials (~ rows). A dense pivot
    // costs rows * cols, so cap the whole tableau.
    const int64_t rows =
        gap.num_jobs() +
        std::min(static_cast<int64_t>(gap.num_machines()), pairs);
    const int64_t cols = pairs + rows;
    const bool simplex_fits = pairs <= options.auto_simplex_limit &&
                              rows * cols <= kAutoMaxTableauCells;
    engine = simplex_fits ? GapLpEngine::kSimplex : GapLpEngine::kMwu;
  }

  static const auto lp_ms = obs::Registry::Global().GetHistogram(
      "gepc_gap_lp_ms", "GAP LP relaxation latency (simplex or MWU)");
  static const auto round_ms = obs::Registry::Global().GetHistogram(
      "gepc_gap_round_ms", "Shmoys-Tardos rounding latency");

  FractionalAssignment fractional;
  {
    obs::ScopedTimerMs timer(lp_ms.get());
    GEPC_TRACE_SPAN("gap.lp");
    if (engine == GapLpEngine::kSimplex) {
      GEPC_ASSIGN_OR_RETURN(fractional, SolveGapLpSimplex(gap, options.lp));
    } else {
      GEPC_ASSIGN_OR_RETURN(fractional, SolveGapLpMwu(gap, options.mwu));
    }
  }
  obs::ScopedTimerMs timer(round_ms.get());
  GEPC_TRACE_SPAN("gap.round");
  return RoundFractional(gap, fractional);
}

GapAssignment SolveGapGreedy(const GapInstance& gap) {
  GapAssignment assignment;
  assignment.machine_of_job.assign(static_cast<size_t>(gap.num_jobs()), -1);
  std::vector<double> load(static_cast<size_t>(gap.num_machines()), 0.0);
  for (int j = 0; j < gap.num_jobs(); ++j) {
    int best = -1;
    double best_cost = GapInstance::kIneligible;
    for (int i = 0; i < gap.num_machines(); ++i) {
      if (!gap.Eligible(i, j)) continue;
      if (load[static_cast<size_t>(i)] + gap.processing(i, j) >
          gap.capacity(i)) {
        continue;
      }
      if (gap.cost(i, j) < best_cost) {
        best_cost = gap.cost(i, j);
        best = i;
      }
    }
    if (best >= 0) {
      assignment.machine_of_job[static_cast<size_t>(j)] = best;
      load[static_cast<size_t>(best)] += gap.processing(best, j);
    }
  }
  return assignment;
}

}  // namespace gepc
