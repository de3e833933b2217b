// In-process tests of the epoll front end (src/net/server.h) against stub
// handlers: handshake + session ids, request/response correlation,
// pipelining, admission control under a saturated op pool (Status
// rejection while the accept loop stays live), read/op pool isolation,
// shutdown-from-handler, and the net.* fault-injection points. Every test
// talks through the blocking client (src/net/client.h); FrameClientTest
// covers its timeout, interrupt and corrupt-stream paths.

#include "net/server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "fault/fault.h"
#include "net/client.h"
#include "service/dispatch.h"
#include "service/planning_service.h"
#include "tests/paper_example.h"

namespace gepc {
namespace net {
namespace {

constexpr char kHost[] = "127.0.0.1";
/// Per-frame wait; a healthy local server answers in well under a second.
constexpr int kWaitMs = 10000;

/// Connects `client` to the test server and completes the handshake.
::testing::AssertionResult Join(FrameClient* client, int port) {
  Status status = client->Connect(kHost, port);
  if (status.ok()) status = client->Handshake(kWaitMs).status();
  if (status.ok()) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure() << status;
}

/// True when the server closes the connection before sending another frame.
bool ClosedByServer(FrameClient* client) {
  Frame frame;
  return client->Recv(&frame, kWaitMs).code() == StatusCode::kNotFound;
}

NetServerOptions SmallOptions() {
  NetServerOptions options;
  options.port = 0;
  options.read_workers = 1;
  options.op_workers = 1;
  return options;
}

HandlerResult Echo(const std::string& request) {
  return {"echo:" + request, false};
}

TEST(NetServerTest, HandshakeGrantsDistinctSessions) {
  NetServer server(SmallOptions(), Echo);
  ASSERT_TRUE(server.Start().ok());

  FrameClient a;
  FrameClient b;
  ASSERT_TRUE(a.Connect(kHost, server.port()).ok());
  ASSERT_TRUE(b.Connect(kHost, server.port()).ok());
  const auto welcome_a = a.Handshake(kWaitMs);
  const auto welcome_b = b.Handshake(kWaitMs);
  ASSERT_TRUE(welcome_a.ok()) << welcome_a.status();
  ASSERT_TRUE(welcome_b.ok()) << welcome_b.status();
  EXPECT_NE(welcome_a->find("\"session\":"), std::string::npos);
  EXPECT_NE(welcome_a->find("\"frame_version\":1"), std::string::npos);
  EXPECT_NE(*welcome_a, *welcome_b);  // distinct session ids
  server.Stop();
}

TEST(NetServerTest, WelcomeCarriesExtraFields) {
  NetServer server(SmallOptions(), Echo, nullptr,
                   "\"users\":500,\"events\":40");
  ASSERT_TRUE(server.Start().ok());
  FrameClient client;
  ASSERT_TRUE(client.Connect(kHost, server.port()).ok());
  const auto welcome = client.Handshake(kWaitMs);
  ASSERT_TRUE(welcome.ok()) << welcome.status();
  EXPECT_NE(welcome->find("\"users\":500"), std::string::npos) << *welcome;
  EXPECT_NE(welcome->find("\"events\":40"), std::string::npos) << *welcome;
  server.Stop();
}

TEST(NetServerTest, RequestBeforeHelloIsAProtocolError) {
  NetServer server(SmallOptions(), Echo);
  ASSERT_TRUE(server.Start().ok());
  FrameClient client;
  ASSERT_TRUE(client.Connect(kHost, server.port()).ok());
  ASSERT_TRUE(client.Send(FrameType::kRequest, "{\"cmd\":\"stats\"}").ok());
  Frame frame;
  ASSERT_TRUE(client.Recv(&frame, kWaitMs).ok());
  EXPECT_EQ(frame.type, FrameType::kStatus);
  EXPECT_NE(frame.payload.find("hello required"), std::string::npos);
  // The server closes the connection afterwards.
  EXPECT_TRUE(ClosedByServer(&client));
  EXPECT_GE(server.Counters().protocol_errors, 1u);
  server.Stop();
}

TEST(NetServerTest, EchoesResponsesAndCountsFrames) {
  NetServer server(SmallOptions(), Echo);
  ASSERT_TRUE(server.Start().ok());
  FrameClient client;
  ASSERT_TRUE(Join(&client, server.port()));
  for (int i = 0; i < 10; ++i) {
    const std::string request = "req-" + std::to_string(i);
    ASSERT_TRUE(client.Send(FrameType::kRequest, request).ok());
    Frame frame;
    ASSERT_TRUE(client.Recv(&frame, kWaitMs).ok());
    EXPECT_EQ(frame.type, FrameType::kResponse);
    EXPECT_EQ(frame.payload, "echo:" + request);
  }
  const NetServerCounters counters = server.Counters();
  EXPECT_GE(counters.frames_in, 11u);   // hello + 10 requests
  EXPECT_GE(counters.frames_out, 11u);  // welcome + 10 responses
  EXPECT_EQ(counters.connections_accepted, 1u);
  server.Stop();
}

TEST(NetServerTest, PipelinedRequestsAllComplete) {
  NetServer server(SmallOptions(), Echo);
  ASSERT_TRUE(server.Start().ok());
  FrameClient client;
  ASSERT_TRUE(Join(&client, server.port()));
  constexpr int kBurst = 50;
  for (int i = 0; i < kBurst; ++i) {
    ASSERT_TRUE(client.Send(FrameType::kRequest, std::to_string(i)).ok());
  }
  int got = 0;
  Frame frame;
  while (got < kBurst && client.Recv(&frame, kWaitMs).ok()) {
    if (frame.type == FrameType::kResponse) ++got;
  }
  EXPECT_EQ(got, kBurst);
  server.Stop();
}

TEST(NetServerTest, CompressedRequestsAndResponsesRoundTrip) {
  NetServerOptions options = SmallOptions();
  options.compress = true;
  NetServer server(options, Echo);
  ASSERT_TRUE(server.Start().ok());
  FrameClient client;
  ASSERT_TRUE(Join(&client, server.port()));
  // Big repetitive payload: client compresses the request, server (with
  // compress on) compresses the response; both sides must inflate.
  std::string request;
  for (int i = 0; i < 500; ++i) request += "{\"cmd\":\"stats\"}";
  ASSERT_TRUE(
      client.Send(FrameType::kRequest, request, /*compress=*/true).ok());
  Frame frame;
  ASSERT_TRUE(client.Recv(&frame, kWaitMs).ok());
  EXPECT_EQ(frame.type, FrameType::kResponse);
  EXPECT_EQ(frame.payload, "echo:" + request);
  EXPECT_TRUE(frame.compressed);
  server.Stop();
}

TEST(NetServerTest, GarbageBytesGetStatusThenClose) {
  NetServer server(SmallOptions(), Echo);
  ASSERT_TRUE(server.Start().ok());
  FrameClient client;
  ASSERT_TRUE(client.Connect(kHost, server.port()).ok());
  ASSERT_TRUE(client.SendBytes("GET / HTTP/1.1\r\n\r\n").ok());
  Frame frame;
  ASSERT_TRUE(client.Recv(&frame, kWaitMs).ok());
  EXPECT_EQ(frame.type, FrameType::kStatus);
  EXPECT_TRUE(ClosedByServer(&client));  // closed
  server.Stop();
}

TEST(NetServerTest, SaturatedOpPoolRejectsWithoutStallingAccepts) {
  // One op worker parked on a latch + a 1-slot op queue: the first request
  // occupies the worker, the second fills the queue, the third must be
  // rejected with a Status frame — while a brand-new client can still
  // connect and handshake (the accept loop never blocked).
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;

  NetServerOptions options = SmallOptions();
  options.op_queue_capacity = 1;
  auto blocking_handler = [&](const std::string& request) -> HandlerResult {
    if (request == "block") {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return release; });
    }
    return {"done:" + request, false};
  };
  NetServer server(options, blocking_handler);
  ASSERT_TRUE(server.Start().ok());

  FrameClient writer;
  ASSERT_TRUE(Join(&writer, server.port()));
  ASSERT_TRUE(writer.Send(FrameType::kRequest, "block").ok());   // parks worker
  // Wait until the worker actually picked the job up, then fill the queue.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ASSERT_TRUE(writer.Send(FrameType::kRequest, "queued").ok());  // fills queue

  // Saturation: this one must bounce with a Status frame, quickly.
  std::string rejection;
  for (int attempt = 0; attempt < 100 && rejection.empty(); ++attempt) {
    ASSERT_TRUE(writer.Send(FrameType::kRequest, "bounce").ok());
    Frame frame;
    ASSERT_TRUE(writer.Recv(&frame, kWaitMs).ok());
    if (frame.type == FrameType::kStatus) rejection = frame.payload;
    // A Response here would mean the queue drained (it cannot: the worker
    // is parked), so anything else is a test failure.
    ASSERT_EQ(frame.type, FrameType::kStatus);
  }
  EXPECT_NE(rejection.find("saturated"), std::string::npos) << rejection;
  EXPECT_GE(server.Counters().rejected_ops, 1u);

  // The accept loop is alive: a fresh client handshakes while the op pool
  // is still wedged.
  FrameClient fresh;
  EXPECT_TRUE(Join(&fresh, server.port()));

  // Unblock; the parked and queued requests complete in order.
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  Frame frame;
  ASSERT_TRUE(writer.Recv(&frame, kWaitMs).ok());
  EXPECT_EQ(frame.payload, "done:block");
  ASSERT_TRUE(writer.Recv(&frame, kWaitMs).ok());
  EXPECT_EQ(frame.payload, "done:queued");
  server.Stop();
}

TEST(NetServerTest, ReadsFlowWhileOpPoolIsSaturated) {
  // Router sends "op*" to the op pool (wedged) and everything else to the
  // read pool — reads must keep completing.
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;

  NetServerOptions options = SmallOptions();
  options.op_queue_capacity = 1;
  auto handler = [&](const std::string& request) -> HandlerResult {
    if (request == "op-block") {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return release; });
    }
    return {"done:" + request, false};
  };
  auto router = [](const std::string& request) {
    return request.rfind("op", 0) == 0;
  };
  NetServer server(options, handler, router);
  ASSERT_TRUE(server.Start().ok());

  FrameClient client;
  ASSERT_TRUE(Join(&client, server.port()));
  ASSERT_TRUE(client.Send(FrameType::kRequest, "op-block").ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ASSERT_TRUE(client.Send(FrameType::kRequest, "op-queued").ok());

  // Reads complete while the op pool is parked.
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(
        client.Send(FrameType::kRequest, "read-" + std::to_string(i)).ok());
    Frame frame;
    ASSERT_TRUE(client.Recv(&frame, kWaitMs).ok());
    EXPECT_EQ(frame.type, FrameType::kResponse);
    EXPECT_EQ(frame.payload, "done:read-" + std::to_string(i));
  }

  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  Frame frame;
  ASSERT_TRUE(client.Recv(&frame, kWaitMs).ok());
  EXPECT_EQ(frame.payload, "done:op-block");
  ASSERT_TRUE(client.Recv(&frame, kWaitMs).ok());
  EXPECT_EQ(frame.payload, "done:op-queued");
  server.Stop();
}

TEST(NetServerTest, MaxConnectionsRefusesTheOverflowClient) {
  NetServerOptions options = SmallOptions();
  options.max_connections = 2;
  NetServer server(options, Echo);
  ASSERT_TRUE(server.Start().ok());
  FrameClient a;
  FrameClient b;
  ASSERT_TRUE(a.Connect(kHost, server.port()).ok());
  ASSERT_TRUE(b.Connect(kHost, server.port()).ok());
  ASSERT_TRUE(a.Handshake(kWaitMs).ok());
  ASSERT_TRUE(b.Handshake(kWaitMs).ok());
  FrameClient overflow;
  ASSERT_TRUE(overflow.Connect(kHost, server.port()).ok());
  Frame frame;
  ASSERT_TRUE(overflow.Recv(&frame, kWaitMs).ok());
  EXPECT_EQ(frame.type, FrameType::kStatus);
  EXPECT_NE(frame.payload.find("server full"), std::string::npos);
  EXPECT_TRUE(ClosedByServer(&overflow));  // closed
  EXPECT_GE(server.Counters().connections_refused, 1u);
  // Existing sessions are unaffected.
  ASSERT_TRUE(a.Send(FrameType::kRequest, "still-alive").ok());
  ASSERT_TRUE(a.Recv(&frame, kWaitMs).ok());
  EXPECT_EQ(frame.payload, "echo:still-alive");
  server.Stop();
}

TEST(NetServerTest, ShutdownRequestAcksThenStopsTheServer) {
  auto handler = [](const std::string& request) -> HandlerResult {
    if (request == "shutdown") return {"{\"ok\":true,\"shutdown\":true}", true};
    return {"echo:" + request, false};
  };
  NetServer server(SmallOptions(), handler);
  ASSERT_TRUE(server.Start().ok());
  FrameClient client;
  ASSERT_TRUE(Join(&client, server.port()));
  ASSERT_TRUE(client.Send(FrameType::kRequest, "shutdown").ok());
  Frame frame;
  // The ack arrives before the stop.
  ASSERT_TRUE(client.Recv(&frame, kWaitMs).ok());
  EXPECT_EQ(frame.type, FrameType::kResponse);
  EXPECT_NE(frame.payload.find("\"shutdown\":true"), std::string::npos);
  server.WaitForStop();
  EXPECT_TRUE(server.stopped());
  server.Stop();
}

TEST(NetServerTest, AcceptFaultDropsTheConnection) {
  fault::Registry::Global().Reset();
  fault::FaultSpec spec;
  spec.code = StatusCode::kUnavailable;
  spec.count = 1;  // only the first accept
  fault::Registry::Global().Arm("net.accept", spec);
  NetServer server(SmallOptions(), Echo);
  ASSERT_TRUE(server.Start().ok());

  FrameClient victim;
  ASSERT_TRUE(victim.Connect(kHost, server.port()).ok());
  EXPECT_TRUE(ClosedByServer(&victim));  // dropped before any frame

  // The next connection (fault exhausted) works.
  FrameClient survivor;
  EXPECT_TRUE(Join(&survivor, server.port()));
  EXPECT_GE(fault::Registry::Global().FireCount("net.accept"), 1u);
  server.Stop();
  fault::Registry::Global().Reset();
}

TEST(NetServerTest, ReadFaultResetsTheConnection) {
  fault::Registry::Global().Reset();
  NetServer server(SmallOptions(), Echo);
  ASSERT_TRUE(server.Start().ok());
  FrameClient client;
  ASSERT_TRUE(Join(&client, server.port()));

  fault::FaultSpec spec;
  spec.code = StatusCode::kUnavailable;
  fault::Registry::Global().Arm("net.read", spec);
  ASSERT_TRUE(client.Send(FrameType::kRequest, "doomed").ok());
  EXPECT_TRUE(ClosedByServer(&client));  // connection torn down by the fault
  fault::Registry::Global().Reset();

  // Later connections are healthy again.
  FrameClient after;
  EXPECT_TRUE(Join(&after, server.port()));
  server.Stop();
}

TEST(NetServerTest, WriteFaultResetsTheConnection) {
  fault::Registry::Global().Reset();
  NetServer server(SmallOptions(), Echo);
  ASSERT_TRUE(server.Start().ok());
  FrameClient client;
  ASSERT_TRUE(Join(&client, server.port()));

  fault::FaultSpec spec;
  spec.code = StatusCode::kUnavailable;
  fault::Registry::Global().Arm("net.write", spec);
  ASSERT_TRUE(client.Send(FrameType::kRequest, "doomed").ok());
  EXPECT_TRUE(ClosedByServer(&client));  // response write was faulted
  fault::Registry::Global().Reset();
  server.Stop();
}

TEST(NetServerTest, StopClosesClientsAndIsIdempotent) {
  NetServer server(SmallOptions(), Echo);
  ASSERT_TRUE(server.Start().ok());
  FrameClient client;
  ASSERT_TRUE(Join(&client, server.port()));
  server.Stop();
  server.Stop();
  EXPECT_TRUE(server.stopped());
  EXPECT_TRUE(ClosedByServer(&client));  // EOF after stop
  // The port is closed: a new connect fails with a Status.
  EXPECT_EQ(client.Connect(kHost, server.port()).code(),
            StatusCode::kUnavailable);
  EXPECT_FALSE(client.is_open());
}

TEST(NetServerTest, ServesTheRealDispatchProtocol) {
  // End-to-end with the production wiring (the same glue gepc_serve uses):
  // CommandDispatcher over a real PlanningService, routed by command kind.
  auto service = PlanningService::Create(
      testing_support::MakePaperInstance(), testing_support::MakePaperPlan());
  ASSERT_TRUE(service.ok()) << service.status();
  const CommandDispatcher dispatcher(service->get(), DispatchDefaults{});
  NetServer server(
      SmallOptions(),
      [&dispatcher](const std::string& request) {
        const DispatchOutcome outcome = dispatcher.Dispatch(request);
        return HandlerResult{outcome.response, outcome.shutdown};
      },
      [](const std::string& request) {
        return ClassifyCommand(ExtractCmdHint(request)) != CommandKind::kRead;
      });
  ASSERT_TRUE(server.Start().ok());

  FrameClient client;
  ASSERT_TRUE(Join(&client, server.port()));
  Frame frame;
  ASSERT_TRUE(client
                  .Send(FrameType::kRequest,
                        R"({"id":1,"cmd":"apply","op":"budget:0:75.5"})")
                  .ok());
  ASSERT_TRUE(client.Recv(&frame, kWaitMs).ok());
  EXPECT_NE(frame.payload.find("\"id\":1"), std::string::npos);
  EXPECT_NE(frame.payload.find("\"applied\":true"), std::string::npos);
  ASSERT_TRUE(
      client.Send(FrameType::kRequest, R"({"id":2,"cmd":"stats"})").ok());
  ASSERT_TRUE(client.Recv(&frame, kWaitMs).ok());
  EXPECT_NE(frame.payload.find("\"id\":2"), std::string::npos);
  EXPECT_NE(frame.payload.find("\"ops_applied\":1"), std::string::npos);
  // Shutdown over the wire stops the server after acking.
  ASSERT_TRUE(
      client.Send(FrameType::kRequest, R"({"id":3,"cmd":"shutdown"})").ok());
  ASSERT_TRUE(client.Recv(&frame, kWaitMs).ok());
  EXPECT_NE(frame.payload.find("\"shutdown\":true"), std::string::npos);
  server.WaitForStop();
  EXPECT_TRUE(server.stopped());
}

TEST(FrameClientTest, RecvTimesOutThenInterruptWakesItForGood) {
  NetServer server(SmallOptions(), Echo);
  ASSERT_TRUE(server.Start().ok());
  FrameClient client;
  ASSERT_TRUE(Join(&client, server.port()));
  Frame frame;
  EXPECT_EQ(client.Recv(&frame, 50).code(), StatusCode::kUnavailable);
  // The timeout kept the connection.
  ASSERT_TRUE(client.Send(FrameType::kRequest, "still-here").ok());
  ASSERT_TRUE(client.Recv(&frame, kWaitMs).ok());
  EXPECT_EQ(frame.payload, "echo:still-here");

  std::thread interrupter([&client] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    client.Interrupt();
  });
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(client.Recv(&frame, kWaitMs).code(), StatusCode::kUnavailable);
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(2));
  interrupter.join();
  // An interrupted client stays interrupted: it cannot reconnect.
  EXPECT_FALSE(client.Connect(kHost, server.port()).ok());
  server.Stop();
}

TEST(FrameClientTest, CorruptServerBytesSurfaceTheDecoderError) {
  NetServer server(SmallOptions(), Echo);
  // The hook answers an extension frame with bytes that are not a frame.
  server.SetFrameHook([&server](uint64_t conn_id, Frame) {
    server.Push(conn_id, "HTTP/1.1 200 OK\r\n\r\n");
    return true;
  });
  ASSERT_TRUE(server.Start().ok());
  FrameClient client;
  ASSERT_TRUE(Join(&client, server.port()));
  ASSERT_TRUE(client.Send(FrameType::kReplSync, "{}").ok());
  Frame frame;
  const Status status = client.Recv(&frame, kWaitMs);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status;
  EXPECT_NE(status.message().find("bad magic"), std::string::npos) << status;
  server.Stop();
}

}  // namespace
}  // namespace net
}  // namespace gepc
