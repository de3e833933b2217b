#include "data/friendship.h"

#include <algorithm>
#include <cmath>

#include "geom/point.h"

namespace gepc {

namespace {

/// Fraction of edges drawn with the distance-biased kernel; the rest are
/// uniform long-range ties.
constexpr double kLocalityBias = 0.7;
/// Gaussian radius r of the distance kernel exp(-d^2 / (2 r^2)).
constexpr double kLocalityRadius = 15.0;

}  // namespace

bool FriendshipGraph::AddEdge(UserId a, UserId b) {
  if (a == b) return false;
  std::vector<UserId>& fa = adjacency_[static_cast<size_t>(a)];
  const auto pos = std::lower_bound(fa.begin(), fa.end(), b);
  if (pos != fa.end() && *pos == b) return false;
  fa.insert(pos, b);
  std::vector<UserId>& fb = adjacency_[static_cast<size_t>(b)];
  fb.insert(std::lower_bound(fb.begin(), fb.end(), a), a);
  ++edges_;
  return true;
}

bool FriendshipGraph::AreFriends(UserId a, UserId b) const {
  if (a < 0 || b < 0 || a >= num_users() || b >= num_users()) return false;
  const std::vector<UserId>& fa = adjacency_[static_cast<size_t>(a)];
  return std::binary_search(fa.begin(), fa.end(), b);
}

FriendshipGraph FriendshipGraph::Relabeled(
    const std::vector<UserId>& new_of_old) const {
  FriendshipGraph out(num_users());
  for (UserId old_a = 0; old_a < num_users(); ++old_a) {
    for (const UserId old_b : friends_of(old_a)) {
      if (old_b < old_a) continue;  // each undirected edge once
      out.AddEdge(new_of_old[static_cast<size_t>(old_a)],
                  new_of_old[static_cast<size_t>(old_b)]);
    }
  }
  return out;
}

FriendshipGraph GenerateFriendshipGraph(const std::vector<User>& users,
                                        const FriendshipConfig& config) {
  const int n = static_cast<int>(users.size());
  FriendshipGraph graph(n);
  if (n < 2 || config.mean_degree <= 0.0) return graph;

  Rng rng(config.seed * 0x9E3779B97F4A7C15ULL + 0x5EEDULL);
  const int64_t target_edges = std::max<int64_t>(
      1, static_cast<int64_t>(config.mean_degree * n / 2.0));
  constexpr double two_r2 = 2.0 * kLocalityRadius * kLocalityRadius;

  // Draw edges until the target is met. Local ties use rejection sampling
  // against the Gaussian distance kernel; a bounded attempt budget keeps
  // generation O(target) even on pathological geometries.
  int64_t attempts_left = 64 * target_edges;
  while (graph.num_edges() < target_edges && attempts_left-- > 0) {
    const UserId a = static_cast<UserId>(
        rng.UniformUint64(static_cast<uint64_t>(n)));
    UserId b = static_cast<UserId>(
        rng.UniformUint64(static_cast<uint64_t>(n)));
    if (a == b) continue;
    if (rng.Bernoulli(kLocalityBias)) {
      const double d2 = SquaredDistance(users[static_cast<size_t>(a)].location,
                                        users[static_cast<size_t>(b)].location);
      if (rng.UniformDouble() > std::exp(-d2 / two_r2)) continue;
    }
    graph.AddEdge(a, b);
  }
  return graph;
}

}  // namespace gepc
