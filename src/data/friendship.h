#ifndef GEPC_DATA_FRIENDSHIP_H_
#define GEPC_DATA_FRIENDSHIP_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "core/types.h"
#include "core/user.h"

namespace gepc {

/// An undirected user-user friendship graph — the social ties of the
/// Scale-Adaptive Group Optimization line of related work. The affinity
/// utility extension (src/gepc/affinity.h) scores a plan with
/// mu'(u, e) = mu(u, e) + lambda * |friends of u attending e|, which makes
/// utility assignment-dependent.
///
/// Adjacency lists are kept sorted so membership tests are O(log degree)
/// and iteration order is deterministic.
class FriendshipGraph {
 public:
  FriendshipGraph() = default;
  explicit FriendshipGraph(int num_users)
      : adjacency_(static_cast<size_t>(num_users)) {}

  int num_users() const { return static_cast<int>(adjacency_.size()); }
  int64_t num_edges() const { return edges_; }

  /// Inserts the undirected edge {a, b}. Self-loops and duplicates are
  /// ignored. Returns true iff the edge was new.
  bool AddEdge(UserId a, UserId b);

  bool AreFriends(UserId a, UserId b) const;

  /// u's friends in increasing id order.
  const std::vector<UserId>& friends_of(UserId u) const {
    return adjacency_[static_cast<size_t>(u)];
  }

  int degree(UserId u) const {
    return static_cast<int>(adjacency_[static_cast<size_t>(u)].size());
  }

  /// The graph under the user relabelling old id -> new_of_old[old id]
  /// (a permutation). Used by the metamorphic tests: permuting users and
  /// relabelling the graph consistently must not change plan scores.
  FriendshipGraph Relabeled(const std::vector<UserId>& new_of_old) const;

 private:
  std::vector<std::vector<UserId>> adjacency_;
  int64_t edges_ = 0;
};

/// Seeded friendship generation. Edges are drawn with a locality bias:
/// most friendships form between users who live near each other (the same
/// hotspot clustering the instance generator uses), with a uniform
/// long-range remainder. Deterministic per (users, config).
struct FriendshipConfig {
  /// Target mean degree (edges ~= num_users * mean_degree / 2).
  double mean_degree = 4.0;
  uint64_t seed = 7;
};

/// Generates a friendship graph over `users`. Only reads user locations,
/// so any population (an Instance's users() or a ScheduleProblem's) works.
FriendshipGraph GenerateFriendshipGraph(const std::vector<User>& users,
                                        const FriendshipConfig& config);

}  // namespace gepc

#endif  // GEPC_DATA_FRIENDSHIP_H_
