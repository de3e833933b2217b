#include "layers.h"

#include <atomic>
#include <filesystem>
#include <sstream>

#include "ckpt/checkpoint.h"
#include "data/io.h"
#include "gepc/event_copies.h"
#include "gepc/gap_based.h"
#include "gepc/greedy.h"
#include "gepc/local_search.h"
#include "gepc/regret_greedy.h"
#include "gepc/topup.h"
#include "net/frame.h"
#include "service/journal.h"
#include "service/snapshot.h"

namespace perfbench {

using gepc::AtomicOp;
using gepc::Instance;
using gepc::Plan;
using gepc::Status;

void IepRecorder::Add(OpKind kind, double ms, int64_t dif) {
  ms_[static_cast<size_t>(kind)].push_back(ms);
  dif_[static_cast<size_t>(kind)].push_back(static_cast<double>(dif));
  all_ms_.push_back(ms);
  all_dif_.push_back(static_cast<double>(dif));
}

double IepRecorder::MeanDif() const { return Mean(all_dif_); }

void IepRecorder::AddLayers(MetricSet* out) const {
  for (OpKind kind : kAllKinds) {
    const std::string name = std::string("iep.") + KindName(kind);
    out->Add(name + "_ms", Median(ms_[static_cast<size_t>(kind)]), "ms");
    out->Add(name + "_dif", Mean(dif_[static_cast<size_t>(kind)]), "count");
  }
}

Status TimedApply(gepc::IncrementalPlanner* planner, const AtomicOp& op,
                  IepRecorder* recorder, gepc::ShardTracker* tracker,
                  std::vector<double>* track_us) {
  const OpKind kind = ClassifyOp(planner->instance(), op);
  const Clock::time_point start = Clock::now();
  auto result = planner->Apply(op);
  const double ms = MsBetween(start, Clock::now());
  if (!result.ok()) return result.status();
  recorder->Add(kind, ms, result->negative_impact);
  if (tracker != nullptr) {
    const Clock::time_point routed = Clock::now();
    tracker->RouteOp(planner->instance(), op);
    const Status migrated = tracker->ApplyMigration(planner->instance(), op);
    track_us->push_back(MsBetween(routed, Clock::now()) * 1e3);
    GEPC_RETURN_IF_ERROR(migrated);
  }
  return Status::OK();
}

gepc::Result<PhaseReplay> ReplaySolvePhases(const Instance& instance,
                                            const gepc::GepcOptions& options,
                                            bool refine) {
  PhaseReplay replay;
  Clock::time_point start = Clock::now();
  const gepc::CopyMap copies(instance);
  replay.copies_ms = MsBetween(start, Clock::now());

  start = Clock::now();
  gepc::Result<gepc::XiGepcResult> xi = Status::Internal("unset");
  if (options.algorithm == gepc::GepcAlgorithm::kGapBased) {
    xi = gepc::SolveXiGepcGapBased(instance, copies, options.gap_based);
    if (!xi.ok() && xi.status().code() == gepc::StatusCode::kInfeasible &&
        options.fallback_to_greedy) {
      xi = gepc::SolveXiGepcGreedy(instance, copies, options.greedy);
    }
  } else if (options.algorithm == gepc::GepcAlgorithm::kRegret) {
    xi = gepc::SolveXiGepcRegret(instance, copies);
  } else {
    xi = gepc::SolveXiGepcGreedy(instance, copies, options.greedy);
  }
  GEPC_RETURN_IF_ERROR(xi.status());
  replay.plan = gepc::CollapseToPlan(instance, copies, xi->copy_plan);
  replay.xi_ms = MsBetween(start, Clock::now());

  start = Clock::now();
  if (options.run_topup) gepc::TopUpPlan(instance, &replay.plan);
  replay.topup_ms = MsBetween(start, Clock::now());

  if (!refine) return replay;
  Plan refined = replay.plan;
  start = Clock::now();
  GEPC_RETURN_IF_ERROR(
      gepc::RefinePlan(instance, &refined, options.local_search).status());
  replay.refine_ms = MsBetween(start, Clock::now());
  return replay;
}

std::string PlanBytes(const Plan& plan) {
  std::ostringstream out;
  const Status saved = gepc::SavePlan(plan, out);
  return saved.ok() ? out.str() : "unsaveable plan: " + saved.ToString();
}

namespace {

/// Keeps the codec replay's results observable so it is not optimized away.
std::atomic<size_t> g_sink{0};

/// Mean microseconds per call of `body` over `count` items, repeated until
/// at least 20 ms have been measured.
template <typename Body>
double MeanMicros(size_t count, Body body) {
  if (count == 0) return 0.0;
  size_t calls = 0;
  const Clock::time_point start = Clock::now();
  double elapsed_ms = 0.0;
  do {
    for (size_t i = 0; i < count; ++i) body(i);
    calls += count;
    elapsed_ms = MsBetween(start, Clock::now());
  } while (elapsed_ms < 20.0);
  return elapsed_ms * 1e3 / static_cast<double>(calls);
}

double MeanBytes(const std::vector<std::string>& frames) {
  std::vector<double> sizes;
  for (const std::string& frame : frames) {
    sizes.push_back(static_cast<double>(frame.size()));
  }
  return Mean(sizes);
}

}  // namespace

void AddNetLayers(const std::vector<std::string>& requests,
                  const std::vector<std::string>& responses, MetricSet* out) {
  using gepc::net::EncodeFrame;
  using gepc::net::FrameType;
  std::vector<std::string> payloads = requests;
  std::vector<FrameType> types(requests.size(), FrameType::kRequest);
  payloads.insert(payloads.end(), responses.begin(), responses.end());
  types.insert(types.end(), responses.size(), FrameType::kResponse);

  std::vector<std::string> raw;
  std::vector<std::string> packed;
  for (size_t i = 0; i < payloads.size(); ++i) {
    raw.push_back(EncodeFrame(types[i], payloads[i], false));
    packed.push_back(EncodeFrame(types[i], payloads[i], true));
  }
  auto decode = [](const std::string& bytes) {
    gepc::net::FrameDecoder decoder;
    decoder.Feed(bytes);
    gepc::net::Frame frame;
    Status error;
    return decoder.Pop(&frame, &error) == gepc::net::FrameDecoder::Next::kFrame;
  };
  size_t sink = 0;
  const double encode_us = MeanMicros(payloads.size(), [&](size_t i) {
    sink += EncodeFrame(types[i], payloads[i], false).size();
  });
  const double decode_us =
      MeanMicros(raw.size(), [&](size_t i) { sink += decode(raw[i]); });
  const double glz1_encode_us = MeanMicros(payloads.size(), [&](size_t i) {
    sink += EncodeFrame(types[i], payloads[i], true).size();
  });
  const double glz1_decode_us =
      MeanMicros(packed.size(), [&](size_t i) { sink += decode(packed[i]); });
  std::vector<std::string> raw_responses(raw.begin() + static_cast<long>(requests.size()),
                                         raw.end());
  std::vector<std::string> packed_responses(
      packed.begin() + static_cast<long>(requests.size()), packed.end());
  std::vector<std::string> raw_requests(raw.begin(),
                                        raw.begin() + static_cast<long>(requests.size()));
  out->Add("net.decode_us", decode_us, "us");
  out->Add("net.encode_us", encode_us, "us");
  out->Add("net.req_bytes", MeanBytes(raw_requests), "bytes");
  out->Add("net.resp_bytes", MeanBytes(raw_responses), "bytes");
  out->Add("net.glz1_decode_us", glz1_decode_us, "us");
  out->Add("net.glz1_encode_us", glz1_encode_us, "us");
  out->Add("net.glz1_resp_bytes", MeanBytes(packed_responses), "bytes");
  g_sink.store(sink, std::memory_order_relaxed);
}

Status AddJournalLayer(const std::vector<AtomicOp>& ops, const std::string& dir,
                       MetricSet* out) {
  const std::string path = dir + "/scratch-journal.gops";
  RemoveTree(path);
  GEPC_ASSIGN_OR_RETURN(gepc::Journal journal, gepc::Journal::Open(path));
  std::vector<double> us;
  for (const AtomicOp& op : ops) {
    const Clock::time_point start = Clock::now();
    GEPC_RETURN_IF_ERROR(journal.Append(op));
    us.push_back(MsBetween(start, Clock::now()) * 1e3);
  }
  out->Add("journal.append_us", Median(us), "us");
  RemoveTree(path);
  return Status::OK();
}

Status AddStateLayers(const Instance& instance, const Plan& plan,
                      uint64_t version, const std::string& dir,
                      MetricSet* out) {
  std::vector<double> publish_ms;
  for (int i = 0; i < 5; ++i) {
    const Clock::time_point start = Clock::now();
    auto snapshot = gepc::MakeServiceSnapshot(instance, plan, version);
    publish_ms.push_back(MsBetween(start, Clock::now()));
  }
  const std::string ckpt_dir = dir + "/scratch-ckpt";
  std::vector<double> write_ms;
  for (int i = 0; i < 3; ++i) {
    RemoveTree(ckpt_dir);
    std::filesystem::create_directories(ckpt_dir);
    const Clock::time_point start = Clock::now();
    GEPC_RETURN_IF_ERROR(
        gepc::WriteCheckpoint(ckpt_dir, instance, plan, version).status());
    write_ms.push_back(MsBetween(start, Clock::now()));
  }
  RemoveTree(ckpt_dir);
  out->Add("snapshot.publish_ms", Median(publish_ms), "ms");
  out->Add("ckpt.write_ms", Median(write_ms), "ms");
  return Status::OK();
}

}  // namespace perfbench
