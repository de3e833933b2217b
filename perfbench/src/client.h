#ifndef PERFBENCH_CLIENT_H_
#define PERFBENCH_CLIENT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "net/frame.h"
#include "util.h"

namespace perfbench {

/// One request of a phase: a JSONL command without its "id" (the client
/// adds it), due `due_ms` after the phase starts.
struct Arrival {
  double due_ms = 0.0;
  bool write = false;
  std::string line;
};

enum class Outcome {
  kPending,
  kOk,
  kAppError,   ///< answered, but ok:false or (for a write) applied:false
  kRejected,   ///< admission control answered with a Status frame
  kTransport,  ///< the connection failed before the answer arrived
  kMissing,    ///< no answer within the phase's grace period
};

struct RequestRecord {
  bool write = false;
  /// Whether the request asked the server to record its dispatch span.
  bool traced = false;
  int conn = 0;
  bool sent = false;
  /// Offsets from the phase start, in ms. For a closed loop the request is
  /// due when it is sent.
  double due_ms = 0.0;
  double sent_ms = 0.0;
  double done_ms = 0.0;
  Outcome outcome = Outcome::kPending;
  /// Writes: the commit sequence the server echoed back.
  uint64_t seq = 0;
  /// The request line as sent, without its id.
  std::string line;
};

struct PhaseCounts {
  uint64_t sent = 0;
  uint64_t ok = 0;
  uint64_t app_error = 0;
  uint64_t rejected = 0;
  uint64_t transport = 0;
  uint64_t missing = 0;

  uint64_t failed() const { return app_error + rejected + transport + missing; }
  std::string ToString() const;
};

struct PhaseResult {
  Clock::time_point start;
  double window_ms = 0.0;
  std::vector<RequestRecord> requests;
  PhaseCounts counts;
  /// Raw response payloads of the first answered requests, kept for the
  /// traced run's frame-codec replay.
  std::vector<std::string> sample_responses;
};

/// The benchmark's own load generator: one thread driving up to a few
/// GFRM connections with non-blocking sockets. Open-loop requests are
/// timed from when they were due, not from when they went out, so a stall
/// is charged to every request it delays. Responses are matched to
/// requests by the numeric value of their echoed "id", whatever textual
/// form the server renders it in.
class LoadClient {
 public:
  static gepc::Result<std::unique_ptr<LoadClient>> Connect(int port,
                                                           int connections);
  ~LoadClient();
  LoadClient(const LoadClient&) = delete;
  LoadClient& operator=(const LoadClient&) = delete;

  /// Sends `arrivals` (sorted by due time) round-robin over the
  /// connections, each at its due time, and collects answers until all are
  /// in or `grace_ms` after the last one was due. Requests whose index is
  /// even carry the trace marker when `mark_traced` is set.
  PhaseResult RunOpenLoop(const std::vector<Arrival>& arrivals, double grace_ms,
                          bool mark_traced);

  /// Closed loop: every connection keeps `depth` writes in flight, each
  /// sent the moment an earlier one is answered, for `window_ms`; then waits
  /// up to `grace_ms` for the stragglers.
  PhaseResult RunClosedLoop(const std::function<std::string()>& next_write,
                            double window_ms, int depth, double grace_ms);

 private:
  struct Conn;
  explicit LoadClient(std::vector<std::unique_ptr<Conn>> conns);

  void Send(PhaseResult* phase, size_t index, bool traced);
  /// Waits up to `wait_ms` for socket events and handles every frame that
  /// arrived; returns the indices of writes answered (closed loop refill).
  std::vector<size_t> Poll(PhaseResult* phase, double wait_ms);
  void HandleFrame(PhaseResult* phase, Conn* conn, const gepc::net::Frame& frame);
  void FailConn(PhaseResult* phase, Conn* conn);
  /// Settles pending requests at the end of a phase and fills the counts.
  void Finish(PhaseResult* phase);
  uint64_t Outstanding() const;

  std::vector<std::unique_ptr<Conn>> conns_;
  uint64_t next_id_ = 1;
};

}  // namespace perfbench

#endif  // PERFBENCH_CLIENT_H_
