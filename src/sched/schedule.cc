#include "sched/schedule.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <utility>

#include "common/rng.h"
#include "core/feasibility.h"
#include "exec/task_rng.h"
#include "exec/thread_pool.h"
#include "fault/fault.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace gepc {

namespace {

/// Minimum score gain for a hill-climbing swap to be accepted (guards
/// float noise).
constexpr double kMinGain = 1e-9;

// Synthetic workload shape (GenerateScheduleProblem*).
/// User budgets ~ U[kBudgetLoFrac, kBudgetHiFrac] of the city diagonal.
constexpr double kBudgetLoFrac = 0.35;
constexpr double kBudgetHiFrac = 1.1;
/// A user is interested in a draft with probability kInterestP, with mu
/// ~ U[kMuLo, kMuHi).
constexpr double kInterestP = 0.4;
constexpr double kMuLo = 0.1;
constexpr double kMuHi = 1.0;
/// Candidate capacities ~ U[0.5, 1.5] * kMeanCapacity; xi is
/// kLowerBoundFrac of the mean capacity.
constexpr double kMeanCapacity = 40.0;
constexpr double kLowerBoundFrac = 0.1;

/// Cached registry handles for the scheduler metrics (docs/observability.md).
struct SchedMetrics {
  std::shared_ptr<obs::Counter> searches;
  std::shared_ptr<obs::Counter> oracle_calls;
  std::shared_ptr<obs::Counter> cache_hits;
  std::shared_ptr<obs::Counter> degraded;
  std::shared_ptr<obs::Counter> skipped;
  std::shared_ptr<obs::Histogram> search_ms;
  std::shared_ptr<obs::Histogram> oracle_ms;

  static const SchedMetrics& Get() {
    static const SchedMetrics metrics = [] {
      obs::Registry& registry = obs::Registry::Global();
      SchedMetrics m;
      m.searches = registry.GetCounter("gepc_sched_searches_total",
                                       "SolveSchedule invocations");
      m.oracle_calls =
          registry.GetCounter("gepc_sched_oracle_calls_total",
                              "candidate schedules solved by the GEPC oracle");
      m.cache_hits = registry.GetCounter(
          "gepc_sched_cache_hits_total",
          "candidate evaluations served by the fingerprint cache");
      m.degraded = registry.GetCounter(
          "gepc_sched_degraded_total",
          "candidates degraded to the greedy estimate (fault or oracle error)");
      m.skipped =
          registry.GetCounter("gepc_sched_candidates_skipped_total",
                              "candidates skipped by the sched.candidate fault");
      m.search_ms = registry.GetHistogram("gepc_sched_search_ms",
                                          "schedule search end-to-end latency");
      m.oracle_ms = registry.GetHistogram("gepc_sched_oracle_ms",
                                          "single oracle evaluation latency");
      return m;
    }();
    return metrics;
  }
};

/// The oracle always solves plain-mu GEPC with a seed derived from the
/// configuration fingerprint: evaluations depend only on (problem, options,
/// configuration) — never on when or on which thread the search reached
/// them — and cached evals stay lambda-independent.
GepcOptions OracleOptions(const ScheduleOptions& options, uint64_t fingerprint) {
  GepcOptions gepc = options.gepc;
  gepc.greedy.seed = DeriveTaskSeed(options.seed, fingerprint);
  gepc.local_search.affinity = AffinityParams{};
  return gepc;
}

/// score(lambda) derived at lookup time from the lambda-independent eval.
double Score(const ScheduleOptions& options, const ScheduleEval& eval) {
  if (options.affinity.graph == nullptr) return eval.total_utility;
  return eval.total_utility +
         options.affinity.lambda * static_cast<double>(eval.affinity_pairs);
}

/// One candidate evaluation inside a wave.
struct EvalRequest {
  std::vector<int> choice;
  uint64_t fingerprint = 0;
  int tag = -1;  ///< candidate index (search) or batch slot (enumeration)
  bool skipped = false;      ///< sched.candidate fired; never evaluated
  bool needs_oracle = false;
  bool oracle_ok = false;
  bool degraded = false;
  ScheduleEval eval;
};

struct SearchContext {
  const ScheduleProblem& problem;
  const ScheduleOptions& options;
  ThreadPool* pool;
  ScheduleCache* memo;  ///< nullptr when memoization is off
  ScheduleStats* stats;
};

ScheduleEval SolveOracle(const ScheduleProblem& problem,
                         const ScheduleOptions& options,
                         const std::vector<int>& choice, uint64_t fingerprint,
                         bool* oracle_ok) {
  GEPC_TRACE_SPAN("sched.oracle");
  obs::ScopedTimerMs oracle_timer(SchedMetrics::Get().oracle_ms.get());
  const Instance instance = MaterializeSchedule(problem, choice);
  const GepcOptions gepc = OracleOptions(options, fingerprint);
  const Result<GepcResult> solved = SolveGepc(instance, gepc);
  if (!solved.ok()) {
    *oracle_ok = false;
    return EstimateSchedule(problem, choice);
  }
  *oracle_ok = true;
  ScheduleEval eval;
  eval.total_utility = solved->total_utility;
  for (int j = 0; j < instance.num_events(); ++j) {
    eval.attendance += solved->plan.attendance(j);
  }
  if (options.affinity.graph != nullptr) {
    eval.affinity_pairs = AffinityPairs(options.affinity.graph, solved->plan);
  }
  return eval;
}

/// Evaluates a wave of candidate configurations. Fault and cache decisions
/// are taken SEQUENTIALLY in request order before any parallel work — so a
/// run fires the same faults at the same candidates at any thread count,
/// and cache hits never consume a fault injection. Only the oracle solves
/// of the remaining misses run on the pool, each writing its own slot.
void EvaluateWave(const SearchContext& ctx, std::vector<EvalRequest>* requests) {
  const SchedMetrics& om = SchedMetrics::Get();
  std::vector<int> misses;
  for (size_t i = 0; i < requests->size(); ++i) {
    EvalRequest& req = (*requests)[i];
    req.fingerprint = ScheduleFingerprint(req.choice);
    if (!fault::Inject("sched.candidate").ok()) {
      req.skipped = true;
      ++ctx.stats->skipped_candidates;
      om.skipped->Increment();
      continue;
    }
    if (ctx.memo != nullptr && ctx.memo->Lookup(req.fingerprint, &req.eval)) {
      ++ctx.stats->cache_hits;
      om.cache_hits->Increment();
      continue;
    }
    if (!fault::Inject("sched.oracle").ok()) {
      req.eval = EstimateSchedule(ctx.problem, req.choice);
      req.degraded = true;
      ++ctx.stats->degraded_candidates;
      om.degraded->Increment();
      continue;
    }
    req.needs_oracle = true;
    misses.push_back(static_cast<int>(i));
  }
  if (!misses.empty()) {
    ctx.pool->ParallelFor(0, static_cast<int>(misses.size()), [&](int k) {
      EvalRequest& req = (*requests)[static_cast<size_t>(misses[static_cast<size_t>(k)])];
      req.eval = SolveOracle(ctx.problem, ctx.options, req.choice,
                             req.fingerprint, &req.oracle_ok);
    });
  }
  for (const int i : misses) {
    EvalRequest& req = (*requests)[static_cast<size_t>(i)];
    if (req.oracle_ok) {
      ++ctx.stats->oracle_calls;
      om.oracle_calls->Increment();
      // Degraded evals are never cached: a later visit re-solves properly.
      if (ctx.memo != nullptr) ctx.memo->Insert(req.fingerprint, req.eval);
    } else {
      req.degraded = true;
      req.eval.degraded = true;
      ++ctx.stats->degraded_candidates;
      om.degraded->Increment();
    }
  }
}

struct BestCandidate {
  bool found = false;
  int candidate = -1;
  double score = 0.0;
};

/// Evaluates every candidate of draft `d` (except `exclude`) against the
/// rest of `choice` and returns the best by score (ties: lowest candidate
/// index — the sequential evaluation order).
BestCandidate BestCandidateFor(const SearchContext& ctx,
                               const std::vector<int>& choice, int d,
                               int exclude) {
  const DraftEvent& draft = ctx.problem.drafts[static_cast<size_t>(d)];
  std::vector<EvalRequest> wave;
  for (int c = 0; c < static_cast<int>(draft.candidates.size()); ++c) {
    if (c == exclude) continue;
    EvalRequest req;
    req.choice = choice;
    req.choice[static_cast<size_t>(d)] = c;
    req.tag = c;
    wave.push_back(std::move(req));
  }
  EvaluateWave(ctx, &wave);
  BestCandidate best;
  for (const EvalRequest& req : wave) {
    if (req.skipped) continue;
    const double score = Score(ctx.options, req.eval);
    if (!best.found || score > best.score) {
      best.found = true;
      best.candidate = req.tag;
      best.score = score;
    }
  }
  return best;
}

/// Fills result.instance/plan/score for the winning configuration with one
/// final (uninjected) oracle solve — so callers can inspect the attendance
/// plan without re-solving.
Status FinalizeResult(const ScheduleProblem& problem,
                      const ScheduleOptions& options,
                      const std::vector<int>& choice, ScheduleResult* result) {
  result->choice = choice;
  result->instance = MaterializeSchedule(problem, choice);
  const GepcOptions gepc = OracleOptions(options, ScheduleFingerprint(choice));
  Result<GepcResult> solved = SolveGepc(result->instance, gepc);
  GEPC_RETURN_IF_ERROR(solved.status());
  result->plan = std::move(solved->plan);
  result->total_utility = solved->total_utility;
  result->attendance = 0;
  for (int j = 0; j < result->instance.num_events(); ++j) {
    result->attendance += result->plan.attendance(j);
  }
  ScheduleEval eval;
  eval.total_utility = result->total_utility;
  if (options.affinity.graph != nullptr) {
    eval.affinity_pairs = AffinityPairs(options.affinity.graph, result->plan);
  }
  result->score = Score(options, eval);
  result->affinity_utility = result->score;
  return Status::OK();
}

Status ValidateOptions(const ScheduleProblem& problem,
                       const ScheduleOptions& options) {
  if (options.restarts < 1) {
    return Status::InvalidArgument("restarts must be >= 1");
  }
  if (options.max_passes < 1) {
    return Status::InvalidArgument("max_passes must be >= 1");
  }
  if (options.affinity.graph != nullptr &&
      options.affinity.graph->num_users() !=
          static_cast<int>(problem.users.size())) {
    return Status::InvalidArgument(
        "friendship graph does not cover the problem's users");
  }
  return Status::OK();
}

}  // namespace

Status ScheduleProblem::Validate() const {
  for (size_t d = 0; d < drafts.size(); ++d) {
    const DraftEvent& draft = drafts[d];
    if (draft.interest.size() != users.size()) {
      return Status::InvalidArgument(
          "draft interest vector does not match the user count");
    }
    for (const double mu : draft.interest) {
      if (mu < 0.0 || !std::isfinite(mu)) {
        return Status::InvalidArgument("draft interest must be finite and >= 0");
      }
    }
    if (draft.candidates.empty()) {
      return Status::InvalidArgument("every draft needs at least one candidate");
    }
    if (draft.lower_bound < 0) {
      return Status::InvalidArgument("draft lower_bound must be >= 0");
    }
    for (const ScheduleCandidate& cand : draft.candidates) {
      if (cand.capacity < 0) {
        return Status::InvalidArgument("candidate capacity must be >= 0");
      }
      if (cand.fee < 0.0) {
        return Status::InvalidArgument("candidate fee must be >= 0");
      }
      if (!cand.slot.IsValid()) {
        return Status::InvalidArgument("candidate slot must be a valid interval");
      }
    }
  }
  return Status::OK();
}

bool ScheduleCache::Lookup(uint64_t fingerprint, ScheduleEval* eval) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = evals_.find(fingerprint);
  if (it == evals_.end()) return false;
  *eval = it->second;
  return true;
}

void ScheduleCache::Insert(uint64_t fingerprint, const ScheduleEval& eval) {
  std::lock_guard<std::mutex> lock(mu_);
  evals_.emplace(fingerprint, eval);
}

int64_t ScheduleCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(evals_.size());
}

uint64_t ScheduleFingerprint(const std::vector<int>& choice) {
  uint64_t h = 14695981039346656037ULL;  // FNV-1a offset basis
  for (const int c : choice) {
    uint64_t v = static_cast<uint64_t>(static_cast<int64_t>(c));
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (8 * byte)) & 0xFFULL;
      h *= 1099511628211ULL;  // FNV prime
    }
  }
  return h;
}

Instance MaterializeSchedule(const ScheduleProblem& problem,
                             const std::vector<int>& choice) {
  std::vector<Event> events;
  std::vector<int> scheduled_drafts;
  for (size_t d = 0; d < problem.drafts.size(); ++d) {
    const int c = d < choice.size() ? choice[d] : -1;
    if (c < 0) continue;
    const DraftEvent& draft = problem.drafts[d];
    const ScheduleCandidate& cand = draft.candidates[static_cast<size_t>(c)];
    Event event;
    event.location = cand.venue;
    event.upper_bound = cand.capacity;
    event.lower_bound = std::min(draft.lower_bound, cand.capacity);
    event.time = cand.slot;
    event.fee = cand.fee;
    events.push_back(event);
    scheduled_drafts.push_back(static_cast<int>(d));
  }
  Instance instance(problem.users, std::move(events));
  for (size_t lj = 0; lj < scheduled_drafts.size(); ++lj) {
    const DraftEvent& draft =
        problem.drafts[static_cast<size_t>(scheduled_drafts[lj])];
    for (size_t u = 0; u < problem.users.size(); ++u) {
      if (draft.interest[u] != 0.0) {
        instance.set_utility(static_cast<UserId>(u), static_cast<EventId>(lj),
                             draft.interest[u]);
      }
    }
  }
  return instance;
}

ScheduleEval EstimateSchedule(const ScheduleProblem& problem,
                              const std::vector<int>& choice) {
  ScheduleEval est;
  est.degraded = true;
  std::vector<std::pair<double, int>> takers;
  for (size_t d = 0; d < problem.drafts.size(); ++d) {
    const int c = d < choice.size() ? choice[d] : -1;
    if (c < 0) continue;
    const DraftEvent& draft = problem.drafts[d];
    const ScheduleCandidate& cand = draft.candidates[static_cast<size_t>(c)];
    takers.clear();
    for (size_t u = 0; u < problem.users.size(); ++u) {
      const double mu = draft.interest[u];
      if (mu <= 0.0) continue;
      const User& user = problem.users[u];
      if (2.0 * Distance(user.location, cand.venue) + cand.fee >
          user.budget + kBudgetEpsilon) {
        continue;
      }
      takers.emplace_back(mu, static_cast<int>(u));
    }
    std::sort(takers.begin(), takers.end(),
              [](const std::pair<double, int>& a,
                 const std::pair<double, int>& b) {
                if (a.first != b.first) return a.first > b.first;
                return a.second < b.second;
              });
    const size_t take =
        std::min(takers.size(), static_cast<size_t>(cand.capacity));
    for (size_t k = 0; k < take; ++k) {
      est.total_utility += takers[k].first;
      ++est.attendance;
    }
  }
  return est;
}

Result<ScheduleResult> SolveSchedule(const ScheduleProblem& problem,
                                     const ScheduleOptions& options,
                                     ScheduleCache* cache) {
  GEPC_RETURN_IF_ERROR(problem.Validate());
  GEPC_RETURN_IF_ERROR(ValidateOptions(problem, options));
  const SchedMetrics& om = SchedMetrics::Get();
  om.searches->Increment();
  obs::ScopedTimerMs search_timer(om.search_ms.get());
  GEPC_TRACE_SPAN("sched.search");

  ScheduleResult result;
  const int num_drafts = static_cast<int>(problem.drafts.size());
  ScheduleCache local_cache;
  ScheduleCache* memo =
      options.memoize ? (cache != nullptr ? cache : &local_cache) : nullptr;
  ThreadPool pool(std::max(1, options.threads));
  const SearchContext ctx{problem, options, &pool, memo, &result.stats};

  bool have_best = false;
  std::vector<int> best_choice(static_cast<size_t>(num_drafts), -1);
  double best_score = -std::numeric_limits<double>::infinity();

  for (int r = 0; r < options.restarts; ++r) {
    ++result.stats.restarts;
    std::vector<int> order(static_cast<size_t>(num_drafts));
    std::iota(order.begin(), order.end(), 0);
    if (r > 0) {
      // Restart 0 keeps the natural draft order; later restarts shuffle it
      // from a stream disjoint from the fingerprint-derived oracle seeds.
      Rng rng(DeriveTaskSeed(options.seed ^ 0xC0FFEEULL, static_cast<uint64_t>(r)));
      rng.Shuffle(&order);
    }

    // Greedy construction: place one draft at a time, best candidate given
    // everything placed so far.
    std::vector<int> choice(static_cast<size_t>(num_drafts), -1);
    double current = 0.0;
    for (const int d : order) {
      const BestCandidate best = BestCandidateFor(ctx, choice, d, /*exclude=*/-1);
      if (best.found) {
        choice[static_cast<size_t>(d)] = best.candidate;
        current = best.score;
      }
    }

    // Swap-based hill climbing: per pass, each draft may move to its best
    // alternative candidate if that strictly improves the schedule score.
    bool moved = true;
    int pass = 0;
    while (moved && pass < options.max_passes) {
      moved = false;
      ++pass;
      ++result.stats.passes;
      for (int d = 0; d < num_drafts; ++d) {
        const BestCandidate best = BestCandidateFor(
            ctx, choice, d, choice[static_cast<size_t>(d)]);
        if (best.found && best.score > current + kMinGain) {
          choice[static_cast<size_t>(d)] = best.candidate;
          current = best.score;
          ++result.stats.swap_moves;
          moved = true;
        }
      }
    }

    if (!have_best || current > best_score ||
        (current == best_score && choice < best_choice)) {
      have_best = true;
      best_score = current;
      best_choice = choice;
    }
  }

  GEPC_RETURN_IF_ERROR(FinalizeResult(problem, options, best_choice, &result));
  return result;
}

Result<ScheduleResult> EnumerateSchedule(const ScheduleProblem& problem,
                                         const ScheduleOptions& options,
                                         ScheduleCache* cache,
                                         int64_t max_configs) {
  GEPC_RETURN_IF_ERROR(problem.Validate());
  GEPC_RETURN_IF_ERROR(ValidateOptions(problem, options));
  const int num_drafts = static_cast<int>(problem.drafts.size());
  int64_t total = 1;
  for (const DraftEvent& draft : problem.drafts) {
    total *= static_cast<int64_t>(draft.candidates.size());
    if (total > max_configs) {
      return Status::InvalidArgument(
          "configuration space exceeds max_configs; use SolveSchedule");
    }
  }

  ScheduleResult result;
  ScheduleCache local_cache;
  ScheduleCache* memo =
      options.memoize ? (cache != nullptr ? cache : &local_cache) : nullptr;
  ThreadPool pool(std::max(1, options.threads));
  const SearchContext ctx{problem, options, &pool, memo, &result.stats};

  bool have_best = false;
  std::vector<int> best_choice(static_cast<size_t>(num_drafts), -1);
  double best_score = -std::numeric_limits<double>::infinity();

  std::vector<int> odometer(static_cast<size_t>(num_drafts), 0);
  const int batch = std::max(16, 4 * std::max(1, options.threads));
  int64_t emitted = 0;
  bool done = false;
  while (!done || emitted == 0) {
    std::vector<EvalRequest> wave;
    while (!done && static_cast<int>(wave.size()) < batch) {
      EvalRequest req;
      req.choice = odometer;
      wave.push_back(std::move(req));
      ++emitted;
      // Advance the odometer (lexicographic order, so the first occurrence
      // of the best score is also the lexicographically smallest).
      int d = num_drafts - 1;
      for (; d >= 0; --d) {
        const int limit = static_cast<int>(
            problem.drafts[static_cast<size_t>(d)].candidates.size());
        if (++odometer[static_cast<size_t>(d)] < limit) break;
        odometer[static_cast<size_t>(d)] = 0;
      }
      if (d < 0) done = true;
    }
    if (wave.empty()) break;
    EvaluateWave(ctx, &wave);
    for (const EvalRequest& req : wave) {
      if (req.skipped) continue;
      const double score = Score(options, req.eval);
      if (!have_best || score > best_score) {
        have_best = true;
        best_score = score;
        best_choice = req.choice;
      }
    }
    if (done) break;
  }

  GEPC_RETURN_IF_ERROR(FinalizeResult(problem, options, best_choice, &result));
  return result;
}

ScheduleProblem GenerateScheduleProblem(const ScheduleGenConfig& config) {
  Rng rng(config.seed * 0x9E3779B97F4A7C15ULL + 0x5C4EDULL);
  const double diagonal = std::sqrt(config.city_width * config.city_width +
                                    config.city_height * config.city_height);
  std::vector<User> users;
  users.reserve(static_cast<size_t>(std::max(0, config.num_users)));
  for (int i = 0; i < config.num_users; ++i) {
    User user;
    user.location = Point{rng.UniformDouble(0.0, config.city_width),
                          rng.UniformDouble(0.0, config.city_height)};
    user.budget = rng.UniformDouble(kBudgetLoFrac, kBudgetHiFrac) * diagonal;
    users.push_back(user);
  }
  return GenerateScheduleProblemForUsers(std::move(users), config);
}

ScheduleProblem GenerateScheduleProblemForUsers(
    std::vector<User> users, const ScheduleGenConfig& config) {
  ScheduleProblem problem;
  problem.users = std::move(users);
  const int n = static_cast<int>(problem.users.size());

  // Venue candidates scatter over the users' bounding box (the configured
  // city when there are no users to bound).
  double x0 = 0.0, y0 = 0.0;
  double width = config.city_width, height = config.city_height;
  if (n > 0) {
    double x1 = problem.users[0].location.x, y1 = problem.users[0].location.y;
    x0 = x1;
    y0 = y1;
    for (const User& user : problem.users) {
      x0 = std::min(x0, user.location.x);
      y0 = std::min(y0, user.location.y);
      x1 = std::max(x1, user.location.x);
      y1 = std::max(y1, user.location.y);
    }
    width = std::max(1.0, x1 - x0);
    height = std::max(1.0, y1 - y0);
  }

  Rng rng(config.seed * 0xD1B54A32D192ED03ULL + 0xD2AF7ULL);
  for (int d = 0; d < config.num_drafts; ++d) {
    DraftEvent draft;
    draft.interest.resize(static_cast<size_t>(n), 0.0);
    for (int u = 0; u < n; ++u) {
      if (rng.Bernoulli(kInterestP)) {
        draft.interest[static_cast<size_t>(u)] = rng.UniformDouble(kMuLo, kMuHi);
      }
    }
    draft.lower_bound = static_cast<int>(kLowerBoundFrac * kMeanCapacity);
    for (int c = 0; c < config.candidates_per_draft; ++c) {
      ScheduleCandidate cand;
      cand.venue = Point{x0 + rng.UniformDouble(0.0, width),
                         y0 + rng.UniformDouble(0.0, height)};
      cand.capacity = static_cast<int>(
          std::llround(rng.UniformDouble(0.5, 1.5) * kMeanCapacity));
      // Day grid: starts on the half hour between 08:00 and 18:00, running
      // 60-180 minutes.
      const Minutes start =
          static_cast<Minutes>(480 + 30 * rng.UniformInt(0, 20));
      const Minutes duration =
          static_cast<Minutes>(60 + 30 * rng.UniformInt(0, 4));
      cand.slot = Interval{start, start + duration};
      cand.fee = 0.0;
      draft.candidates.push_back(cand);
    }
    problem.drafts.push_back(std::move(draft));
  }
  return problem;
}

}  // namespace gepc
