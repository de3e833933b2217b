#ifndef GEPC_SERVICE_DISPATCH_H_
#define GEPC_SERVICE_DISPATCH_H_

#include <atomic>
#include <string>

#include "gepc/solver.h"
#include "service/planning_service.h"

namespace gepc {

/// Whether a protocol command mutates service state (rides the writer
/// queue) or is served entirely from immutable snapshots. Front ends use
/// this to route work: the socket server runs reads on a dedicated worker
/// pool so a saturated op queue never delays snapshot queries.
enum class CommandKind {
  kRead,     ///< served from snapshots (query_*, stats, metrics, ...)
  kWrite,    ///< rides the writer queue or acts on the service
  kUnknown,  ///< not a protocol command; Dispatch will answer with an error
};

CommandKind ClassifyCommand(const std::string& cmd);

/// Cheap routing hint: scans one JSONL request line for its "cmd" string
/// value without a full JSON parse (the worker that executes the request
/// re-parses and validates properly). Returns "" when no cmd is found —
/// callers should then route to the write pool, whose Dispatch will emit
/// the real parse error.
std::string ExtractCmdHint(const std::string& line);

/// What executing one request produced.
struct DispatchOutcome {
  /// One flat JSON object (no trailing newline). For shutdown it is the
  /// acknowledgement — the socket server sends it to the requesting client
  /// before stopping, while the stdio loop discards it in favour of its
  /// post-drain bye line (which reports the final version).
  std::string response;
  /// True when the request asked the hosting front end to stop serving.
  bool shutdown = false;
};

/// Defaults a front end passes through to the `rebuild` command (its
/// per-request JSON fields override them).
struct DispatchDefaults {
  int threads = 1;
  int shards = 1;
  GepcAlgorithm algorithm = GepcAlgorithm::kGreedy;
};

/// Maps a (pre-validated) algorithm name to the enum; unknown names fall
/// back to greedy.
GepcAlgorithm AlgorithmFromName(const std::string& name);

/// Which role this process serves (docs/replication.md), shared between the
/// front end, the dispatcher and a repl::Follower. Promotion flips
/// `follower` to false at runtime, so the dispatcher reads it per request:
/// on a follower, state-mutating commands (`apply`, `rebuild`) answer
/// {"ok":false,"code":"redirect","primary":...} instead of executing.
/// Snapshot reads, `stats`, `metrics`, local `checkpoint`/`save_plan`,
/// `drain` and `shutdown` always run locally.
struct ServeRole {
  std::atomic<bool> follower{false};
  /// "host:port" of the primary this process follows (fixed at startup);
  /// named in write-redirect responses.
  std::string primary;
  /// Whether the socket front end compresses its payloads (--net-compress);
  /// surfaced through `stats` so harnesses stop inferring mode from flags.
  bool net_compress = false;
};

/// Full Prometheus text exposition: the process-global registry (solver
/// phases, journal, net) followed by this service's gepc_service_* block —
/// the payload of the `metrics` command and of gepc_serve's --metrics file.
std::string RenderAllMetricsText(const PlanningService& service);

/// The JSONL command-dispatch layer shared by every gepc_serve front end
/// (stdio and socket speak byte-identical requests and responses; see
/// docs/cli.md for the command set). Thread-safe: Dispatch may be called
/// concurrently from any number of threads — PlanningService serializes
/// writes through its queue and serves reads from immutable snapshots.
///
/// Every response echoes the request's optional "id" field (string or
/// number) as its first member, so clients may pipeline requests over one
/// connection and correlate out-of-order responses.
class CommandDispatcher {
 public:
  /// `role` (optional, not owned, must outlive the dispatcher) makes the
  /// responses role-aware: `stats` reports it and, while it says follower,
  /// write commands redirect to the primary. Null behaves as a primary.
  CommandDispatcher(PlanningService* service, DispatchDefaults defaults,
                    const ServeRole* role = nullptr)
      : service_(service), defaults_(defaults), role_(role) {}

  /// Parses and executes one request line. Protocol errors (bad JSON,
  /// unknown cmd, missing fields) become {"ok":false,"error":...}
  /// responses — they never throw and never kill the session.
  DispatchOutcome Dispatch(const std::string& line) const;

 private:
  PlanningService* service_;
  const DispatchDefaults defaults_;
  const ServeRole* role_;
};

}  // namespace gepc

#endif  // GEPC_SERVICE_DISPATCH_H_
