#ifndef GEPC_SCHED_SCHEDULE_H_
#define GEPC_SCHED_SCHEDULE_H_

#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "core/instance.h"
#include "core/plan.h"
#include "core/user.h"
#include "gepc/affinity.h"
#include "gepc/solver.h"
#include "geom/point.h"
#include "temporal/interval.h"

namespace gepc {

/// Organizer-side event scheduling (Social Event Scheduling, Bikakis et
/// al.): the solver side of the repo answers "who attends which events";
/// this subsystem answers "when and where should the events run". Each
/// draft event comes with candidate (time-slot, venue) pairs; a schedule
/// picks one candidate per draft, and its value is whatever the GEPC solver
/// — used as an attendance oracle — can realize on the materialized
/// instance, optionally plus the social-affinity term of affinity.h.

/// One (time-slot, venue) option for a draft event. The venue carries the
/// capacity (eta) and location the materialized Event will use.
struct ScheduleCandidate {
  Interval slot;
  Point venue;
  int capacity = 0;
  double fee = 0.0;
};

/// An event the organizer wants to run but has not yet placed.
struct DraftEvent {
  /// Per-user interest mu(u, draft); size must equal the problem's user
  /// count. Interest is a property of the event, not of the venue — every
  /// candidate shares it.
  std::vector<double> interest;
  std::vector<ScheduleCandidate> candidates;
  /// Minimum attendance xi for the materialized event (clamped to the
  /// chosen candidate's capacity).
  int lower_bound = 0;
};

/// The scheduling input: a fixed user population and the drafts to place.
struct ScheduleProblem {
  std::vector<User> users;
  std::vector<DraftEvent> drafts;

  Status Validate() const;
};

/// What one schedule configuration is worth. Deliberately
/// lambda-INDEPENDENT: the cache stores total attendance utility and the
/// raw affinity pair count, and the lambda-weighted score is derived at
/// lookup time — so one ScheduleCache serves searches at any lambda (the
/// bench sweeps lambda sharing a single cache).
struct ScheduleEval {
  double total_utility = 0.0;  ///< oracle plan utility, plain mu
  int64_t affinity_pairs = 0;  ///< AffinityPairs of the oracle plan (0 if no graph)
  int attendance = 0;          ///< total attendances across scheduled drafts
  bool degraded = false;       ///< greedy estimate, not an oracle solve
};

/// Memoization table keyed by the canonical schedule fingerprint. Thread-
/// compatible with the search's parallel oracle waves (internal mutex) and
/// shareable across searches — including searches at different lambdas,
/// since evals are lambda-independent. Degraded evals are never inserted.
///
/// Sharing contract: a cache is valid for one (problem, oracle options,
/// friendship graph) triple. Lambda may vary freely between sharers, but
/// the GRAPH may not — pair counts are recorded at evaluation time, so a
/// lambda sweep must arm the same graph in every search (including the
/// lambda = 0 leg, where the recorded pairs simply weigh nothing).
class ScheduleCache {
 public:
  bool Lookup(uint64_t fingerprint, ScheduleEval* eval) const;
  void Insert(uint64_t fingerprint, const ScheduleEval& eval);
  int64_t size() const;

 private:
  mutable std::mutex mu_;
  std::unordered_map<uint64_t, ScheduleEval> evals_;
};

/// Canonical fingerprint of a schedule configuration (FNV-1a over the
/// choice vector; choice[d] is the candidate index of draft d, -1 for an
/// unscheduled draft). Identical configurations always collide — that is
/// the memoization key — and the oracle's greedy seed is derived from it,
/// so an evaluation never depends on when the search reached it.
uint64_t ScheduleFingerprint(const std::vector<int>& choice);

/// Builds the Instance a configuration describes: the full user population
/// plus one Event per scheduled draft (venue location/capacity, slot,
/// lower bound clamped to capacity, utilities from the draft's interest).
/// Drafts with choice[d] < 0 are omitted.
Instance MaterializeSchedule(const ScheduleProblem& problem,
                             const std::vector<int>& choice);

/// Oracle-free greedy estimate used when the `sched.oracle` fault (or a
/// real oracle error) degrades a candidate: per scheduled draft, interested
/// users within round-trip budget of the venue, best-interest-first, up to
/// capacity — ignoring conflicts and tour interactions. Always an upper
/// bound on nothing in particular; just a deterministic, cheap stand-in.
ScheduleEval EstimateSchedule(const ScheduleProblem& problem,
                              const std::vector<int>& choice);

/// Search configuration.
struct ScheduleOptions {
  /// Master seed: restart shuffles and per-configuration oracle seeds
  /// derive from it. Same seed => same result at any thread count.
  uint64_t seed = 1;
  /// Worker threads for the parallel oracle waves (clamped to >= 1).
  int threads = 1;
  /// Greedy constructions from independently shuffled draft orders; the
  /// best restart wins (ties: lexicographically smallest choice vector).
  int restarts = 2;
  /// Hill-climbing pass cap per restart.
  int max_passes = 4;
  /// Memoize evaluations by fingerprint. Off = the naive re-solve-per-
  /// candidate baseline bench_schedule compares against.
  bool memoize = true;
  /// Inner-oracle configuration. The oracle always solves plain-mu GEPC —
  /// any affinity armed inside gepc.local_search is stripped so cached
  /// evals stay lambda-independent.
  GepcOptions gepc;
  /// Schedule scoring: score = total_utility + lambda * affinity_pairs.
  AffinityParams affinity;
};

/// What a search did, for tests/benches/metrics.
struct ScheduleStats {
  int64_t oracle_calls = 0;        ///< real SolveGepc runs
  int64_t cache_hits = 0;          ///< evaluations served by the cache
  int64_t degraded_candidates = 0; ///< sched.oracle fired / oracle errored
  int64_t skipped_candidates = 0;  ///< sched.candidate fired; not evaluated
  int64_t swap_moves = 0;          ///< accepted hill-climbing moves
  int passes = 0;                  ///< hill-climbing passes, all restarts
  int restarts = 0;
};

/// The chosen schedule.
struct ScheduleResult {
  /// Candidate index per draft; -1 only when every candidate of a draft
  /// was fault-skipped.
  std::vector<int> choice;
  /// total_utility + lambda * affinity_pairs of the winning configuration.
  double score = 0.0;
  double total_utility = 0.0;
  /// == score (the affinity-aware utility); == total_utility when no
  /// affinity is armed.
  double affinity_utility = 0.0;
  int attendance = 0;
  /// The winning configuration, materialized, with the oracle's plan — so
  /// callers (CLI, serve) can inspect who attends what without re-solving.
  Instance instance;
  Plan plan;
  ScheduleStats stats;
};

/// Searches schedule configurations for `problem`: greedy one-draft-at-a-
/// time construction (multi-restart, shuffled draft orders) followed by
/// swap-based hill climbing (per pass, each draft may move to its best
/// alternative candidate). Every configuration is scored by the GEPC
/// oracle on the materialized instance; oracle calls within a wave run in
/// parallel on `threads` workers and are memoized by fingerprint in
/// `cache` (a caller-provided cache is reused across calls — pass the same
/// one to amortize across lambda sweeps; nullptr uses a private per-search
/// cache when options.memoize).
///
/// Deterministic per (problem, options.seed, restarts/passes knobs): the
/// oracle seed of a configuration depends only on its fingerprint, fault
/// decisions are taken sequentially at wave-build time, and ties break on
/// candidate index / lexicographic choice order.
Result<ScheduleResult> SolveSchedule(const ScheduleProblem& problem,
                                     const ScheduleOptions& options = {},
                                     ScheduleCache* cache = nullptr);

/// Exhaustively scores every full configuration (product of candidate
/// counts; errors above `max_configs`) and returns the best — the ground
/// truth the differential test holds SolveSchedule against. Shares the
/// evaluation path (oracle seeds, cache, faults) with the search.
Result<ScheduleResult> EnumerateSchedule(const ScheduleProblem& problem,
                                         const ScheduleOptions& options = {},
                                         ScheduleCache* cache = nullptr,
                                         int64_t max_configs = 1 << 20);

/// Seeded synthetic scheduling workloads (paper-style): uniform users,
/// Bernoulli draft interest with uniform mu, candidate venues scattered
/// over the city with capacities around a fixed mean and slots drawn from a
/// day grid (the distribution is fixed in schedule.cc).
struct ScheduleGenConfig {
  int num_users = 200;
  int num_drafts = 4;
  int candidates_per_draft = 3;
  double city_width = 100.0;
  double city_height = 100.0;
  uint64_t seed = 42;
};

ScheduleProblem GenerateScheduleProblem(const ScheduleGenConfig& config);

/// Same drafts/candidates model over an existing user population (the
/// serve `schedule` command evaluates against the live snapshot's users).
/// City bounds are taken from the users' bounding box.
ScheduleProblem GenerateScheduleProblemForUsers(std::vector<User> users,
                                                const ScheduleGenConfig& config);

}  // namespace gepc

#endif  // GEPC_SCHED_SCHEDULE_H_
