#include "data/generator.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "data/tags.h"
#include "geom/bounding_box.h"

namespace gepc {

namespace {

// Shape of the synthetic Meetup crawl (DESIGN.md). These are fixed by the
// reproduction, not run-time inputs.

/// Tag vocabulary and tags per user / per group; utility depends on the
/// overlap of a user's tags with the tags of the group hosting the event.
constexpr int kVocabularySize = 120;
constexpr int kMinTagsPerUser = 3;
constexpr int kMaxTagsPerUser = 8;
constexpr int kMinTagsPerGroup = 3;
constexpr int kMaxTagsPerGroup = 8;

/// Locations cluster around this many Gaussian hotspots (downtown,
/// campus, ...) of this standard deviation.
constexpr int kNumHotspots = 5;
constexpr double kHotspotStddev = 8.0;

/// Largest cluster of mutually conflicting events.
constexpr int kMaxConflictCluster = 3;

/// Each xi_j is capped at this fraction of the users who could attend e_j
/// alone (positive utility and a round trip within budget), so generated
/// instances have satisfiable lower bounds with high probability.
constexpr double kReachabilityCapFraction = 0.5;

/// Samples a location around one of `hotspots`, clamped into `box`.
Point SampleLocation(const std::vector<Point>& hotspots, double stddev,
                     const BoundingBox& box, Rng* rng) {
  const Point& center =
      hotspots[static_cast<size_t>(rng->UniformUint64(hotspots.size()))];
  Point p{center.x + rng->Gaussian(0.0, stddev),
          center.y + rng->Gaussian(0.0, stddev)};
  return box.Clamp(p);
}

/// Assigns holding times so that exactly the events inside clusters of size
/// >= 2 conflict (pairwise, within their cluster) and nothing else does.
/// Clusters of size 1 are the conflict-free events. Time is in abstract
/// units; the horizon stretches so every window is at least 20 units wide.
void AssignTimes(const std::vector<std::vector<int>>& clusters,
                 std::vector<Event>* events, Rng* rng) {
  const int num_windows = static_cast<int>(clusters.size());
  if (num_windows == 0) return;
  const int window_width =
      std::max(20, static_cast<int>((22 - 8) * 60 / num_windows));
  for (int w = 0; w < num_windows; ++w) {
    const Minutes ws = static_cast<Minutes>(w) * window_width;
    const Minutes we = ws + window_width;
    const auto& cluster = clusters[static_cast<size_t>(w)];
    if (cluster.size() == 1) {
      // Single event strictly inside the window (1-unit margins keep it
      // strictly separated from neighboring windows' events).
      const Minutes lo = ws + 1;
      const Minutes hi = we - 2;
      const Minutes start =
          static_cast<Minutes>(rng->UniformInt(lo, hi - 1));
      const Minutes end = static_cast<Minutes>(rng->UniformInt(start + 1, hi));
      (*events)[static_cast<size_t>(cluster[0])].time = Interval{start, end};
    } else {
      // All members straddle the window midpoint => pairwise conflicts.
      const Minutes mid = ws + window_width / 2;
      for (int id : cluster) {
        const Minutes start =
            static_cast<Minutes>(rng->UniformInt(ws + 1, mid - 1));
        const Minutes end =
            static_cast<Minutes>(rng->UniformInt(mid, we - 2));
        (*events)[static_cast<size_t>(id)].time = Interval{start, end};
      }
    }
  }
}

/// Number of users who could attend event j on its own: positive utility
/// and round trip within budget.
int ReachableUsers(const Instance& instance, EventId j) {
  int count = 0;
  for (int i = 0; i < instance.num_users(); ++i) {
    if (instance.utility(i, j) <= 0.0) continue;
    if (2.0 * instance.UserEventDistance(i, j) + instance.event(j).fee <=
        instance.user(i).budget) {
      ++count;
    }
  }
  return count;
}

}  // namespace

Result<Instance> GenerateInstance(const GeneratorConfig& config) {
  if (config.num_users <= 0 || config.num_events <= 0) {
    return Status::InvalidArgument("need at least one user and one event");
  }
  if (config.conflict_ratio < 0.0 || config.conflict_ratio > 1.0) {
    return Status::InvalidArgument("conflict_ratio must be in [0, 1]");
  }
  if (config.mean_eta < 1.0 || config.mean_xi < 0.0 ||
      config.mean_xi > config.mean_eta) {
    return Status::InvalidArgument(
        "participation bound means need 1 <= mean_eta and 0 <= mean_xi <= mean_eta");
  }
  if (config.budget_min_fraction < 0.0 ||
      config.budget_min_fraction > config.budget_max_fraction) {
    return Status::InvalidArgument("bad budget fractions");
  }
  if (config.mean_fee < 0.0) {
    return Status::InvalidArgument("mean_fee must be non-negative");
  }

  Rng rng(config.seed);
  const BoundingBox box =
      BoundingBox::FromExtent(config.city_width, config.city_height);

  std::vector<Point> hotspots;
  for (int h = 0; h < kNumHotspots; ++h) {
    hotspots.push_back(Point{rng.UniformDouble(0.15, 0.85) * box.Width(),
                             rng.UniformDouble(0.15, 0.85) * box.Height()});
  }

  // ---- Users: location, budget, tags ---------------------------------
  const double diagonal = box.Diagonal();
  std::vector<User> users;
  std::vector<TagVector> user_tags;
  users.reserve(static_cast<size_t>(config.num_users));
  for (int i = 0; i < config.num_users; ++i) {
    User u;
    u.location = SampleLocation(hotspots, kHotspotStddev, box, &rng);
    u.budget = rng.UniformDouble(config.budget_min_fraction,
                                 config.budget_max_fraction) *
               diagonal;
    users.push_back(u);
    user_tags.push_back(TagVector::Sample(
        kVocabularySize,
        static_cast<int>(rng.UniformInt(kMinTagsPerUser, kMaxTagsPerUser)),
        &rng));
  }

  // ---- Groups and events ----------------------------------------------
  const int num_groups = config.num_groups > 0
                             ? config.num_groups
                             : std::max(4, config.num_events / 4);
  std::vector<TagVector> group_tags;
  group_tags.reserve(static_cast<size_t>(num_groups));
  for (int g = 0; g < num_groups; ++g) {
    group_tags.push_back(TagVector::Sample(
        kVocabularySize,
        static_cast<int>(rng.UniformInt(kMinTagsPerGroup, kMaxTagsPerGroup)),
        &rng));
  }

  std::vector<Event> events(static_cast<size_t>(config.num_events));
  std::vector<int> group_of_event(static_cast<size_t>(config.num_events));
  for (int j = 0; j < config.num_events; ++j) {
    Event& e = events[static_cast<size_t>(j)];
    e.location = SampleLocation(hotspots, kHotspotStddev, box, &rng);
    const double eta_lo = config.mean_eta * (1.0 - config.eta_spread);
    const double eta_hi = config.mean_eta * (1.0 + config.eta_spread);
    e.upper_bound = std::clamp(
        static_cast<int>(std::lround(rng.UniformDouble(eta_lo, eta_hi))), 1,
        config.num_users);
    const int xi_raw =
        static_cast<int>(std::lround(rng.UniformDouble(0.0, 2.0 * config.mean_xi)));
    e.lower_bound = std::clamp(xi_raw, 0, e.upper_bound);
    if (config.mean_fee > 0.0) {
      e.fee = rng.UniformDouble(0.0, 2.0 * config.mean_fee);
    }
    group_of_event[static_cast<size_t>(j)] =
        static_cast<int>(rng.UniformUint64(static_cast<uint64_t>(num_groups)));
  }

  // ---- Holding times with the target conflict ratio --------------------
  std::vector<int> order(static_cast<size_t>(config.num_events));
  for (int j = 0; j < config.num_events; ++j) order[static_cast<size_t>(j)] = j;
  rng.Shuffle(&order);
  int num_conflicting =
      static_cast<int>(std::lround(config.conflict_ratio * config.num_events));
  if (num_conflicting == 1) num_conflicting = config.num_events >= 2 ? 2 : 0;
  num_conflicting = std::min(num_conflicting, config.num_events);

  std::vector<std::vector<int>> clusters;
  size_t cursor = 0;
  while (static_cast<int>(cursor) < num_conflicting) {
    const int remaining = num_conflicting - static_cast<int>(cursor);
    int size = static_cast<int>(rng.UniformInt(2, kMaxConflictCluster));
    size = std::min(size, remaining);
    if (size == 1) size = 2;  // merge a trailing singleton into a pair
    size = std::min(size, config.num_events - static_cast<int>(cursor));
    std::vector<int> cluster;
    for (int k = 0; k < size; ++k) cluster.push_back(order[cursor++]);
    clusters.push_back(std::move(cluster));
  }
  while (cursor < order.size()) clusters.push_back({order[cursor++]});
  rng.Shuffle(&clusters);
  AssignTimes(clusters, &events, &rng);

  // ---- Utilities from tag overlap ---------------------------------------
  Instance instance(std::move(users), std::move(events));
  for (int i = 0; i < instance.num_users(); ++i) {
    for (int j = 0; j < instance.num_events(); ++j) {
      const TagVector& gt =
          group_tags[static_cast<size_t>(group_of_event[static_cast<size_t>(j)])];
      const double mu = config.utility_model.Score(
          user_tags[static_cast<size_t>(i)], gt, instance.user(i).location,
          instance.event(j).location);
      if (mu > 0.0) instance.set_utility(i, j, mu);
    }
  }

  // ---- Feasibility cap on lower bounds ----------------------------------
  for (int j = 0; j < instance.num_events(); ++j) {
    const int reachable = ReachableUsers(instance, j);
    const int cap = static_cast<int>(kReachabilityCapFraction *
                                     static_cast<double>(reachable));
    const Event& e = instance.event(j);
    if (e.lower_bound > cap) {
      GEPC_RETURN_IF_ERROR(instance.set_event_bounds(j, cap, e.upper_bound));
    }
  }

  GEPC_RETURN_IF_ERROR(instance.Validate());
  return instance;
}

Instance CutOut(const Instance& base, int num_users, int num_events,
                Rng* rng) {
  num_users = std::clamp(num_users, 1, base.num_users());
  num_events = std::clamp(num_events, 1, base.num_events());

  std::vector<int> user_ids(static_cast<size_t>(base.num_users()));
  std::vector<int> event_ids(static_cast<size_t>(base.num_events()));
  for (int i = 0; i < base.num_users(); ++i) user_ids[static_cast<size_t>(i)] = i;
  for (int j = 0; j < base.num_events(); ++j) {
    event_ids[static_cast<size_t>(j)] = j;
  }
  rng->Shuffle(&user_ids);
  rng->Shuffle(&event_ids);
  user_ids.resize(static_cast<size_t>(num_users));
  event_ids.resize(static_cast<size_t>(num_events));
  std::sort(user_ids.begin(), user_ids.end());
  std::sort(event_ids.begin(), event_ids.end());

  std::vector<User> users;
  users.reserve(user_ids.size());
  for (int id : user_ids) users.push_back(base.user(id));
  std::vector<Event> events;
  events.reserve(event_ids.size());
  for (int id : event_ids) events.push_back(base.event(id));

  Instance cut(std::move(users), std::move(events));
  for (int i = 0; i < num_users; ++i) {
    for (int j = 0; j < num_events; ++j) {
      cut.set_utility(i, j,
                      base.utility(user_ids[static_cast<size_t>(i)],
                                   event_ids[static_cast<size_t>(j)]));
    }
  }

  // Re-cap lower bounds: the subset has fewer reachable users per event.
  for (int j = 0; j < num_events; ++j) {
    const int reachable = ReachableUsers(cut, j);
    const Event& e = cut.event(j);
    const int cap = std::min(e.lower_bound, reachable / 2);
    if (cap < e.lower_bound) {
      (void)cut.set_event_bounds(j, cap, e.upper_bound);
    }
  }
  return cut;
}

}  // namespace gepc
