#ifndef GEPC_DATA_GENERATOR_H_
#define GEPC_DATA_GENERATOR_H_

#include <cstdint>

#include "common/result.h"
#include "common/rng.h"
#include "core/instance.h"
#include "data/utility_model.h"

namespace gepc {

/// Configuration of the synthetic Meetup-like EBSN generator.
///
/// The paper evaluates on a Meetup crawl [1]: users carry interest tags and
/// a location; events are created by groups that carry tags and a venue;
/// mu(u_i, e_j) is derived from the tag documents ([1][2]) and B_i, ts, tt,
/// eta are generated as in [4] with xi drawn from [0, eta]. This generator
/// reproduces those shape statistics synthetically (see DESIGN.md for the
/// substitution rationale): clustered locations in a city rectangle, Zipf
/// tag popularity, cosine tag-overlap utilities, a controlled fraction of
/// time-conflicting events, and participation bounds with chosen means.
struct GeneratorConfig {
  int num_users = 100;
  int num_events = 20;

  /// Events are created by groups; utility depends on the group's tags.
  /// 0 = derive as max(4, num_events / 4).
  int num_groups = 0;

  /// City rectangle [0, width] x [0, height]; locations cluster around a
  /// few Gaussian hotspots (downtown, campus, ...).
  double city_width = 100.0;
  double city_height = 100.0;

  /// Travel budget B_i ~ U[budget_min_fraction, budget_max_fraction] of the
  /// city diagonal.
  double budget_min_fraction = 0.35;
  double budget_max_fraction = 1.1;

  /// Fraction of events placed into mutually conflicting clusters — the
  /// "conflict ratio" of the paper's Table IV (0.25 for all four cities).
  double conflict_ratio = 0.25;

  /// Participation bounds: eta_j ~ U[(1-spread), (1+spread)] * mean_eta,
  /// xi_j ~ U[0, 2 * mean_xi] clamped to [0, eta_j], then capped at half
  /// the users who could attend e_j alone (positive utility and a round
  /// trip within budget), so lower bounds are satisfiable with high
  /// probability.
  double mean_eta = 50.0;
  double eta_spread = 0.5;
  double mean_xi = 10.0;

  /// Mean admission fee (Sec. VII extension); fees are drawn uniformly in
  /// [0, 2 * mean_fee] and charged against travel budgets. 0 (default)
  /// keeps the paper's pure-travel cost model.
  double mean_fee = 0.0;

  /// How utilities are derived from tag documents (+ optional distance
  /// decay); the default is the paper-style cosine kernel.
  UtilityModel utility_model;

  uint64_t seed = 42;
};

/// Generates a full EBSN instance. Returns kInvalidArgument on nonsensical
/// configuration (e.g. negative sizes, conflict_ratio outside [0, 1]).
Result<Instance> GenerateInstance(const GeneratorConfig& config);

/// The paper's "cut out" datasets (Table V): keeps a random subset of
/// `num_users` users and `num_events` events of `base` (clamped to the base
/// sizes). Lower bounds are re-capped against reachability within the
/// subset so the cut-out stays satisfiable.
Instance CutOut(const Instance& base, int num_users, int num_events, Rng* rng);

}  // namespace gepc

#endif  // GEPC_DATA_GENERATOR_H_
