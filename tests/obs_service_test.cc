// Service-level observability acceptance: replaying the 1k-op determinism
// workload through a journaled PlanningService must yield *exact* latency
// quantiles (the reservoir holds every observation), queue-wait samples for
// queued submissions, and a Prometheus-parseable text exposition combining
// the global registry with the per-service stats block.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "data/generator.h"
#include "gepc/solver.h"
#include "obs/metrics.h"
#include "service/metrics.h"
#include "service/planning_service.h"

namespace gepc {
namespace {

AtomicOp RandomOp(const Instance& instance, Rng* rng) {
  const int num_users = instance.num_users();
  const int num_events = instance.num_events();
  const int user = static_cast<int>(rng->UniformUint64(num_users));
  const int event = static_cast<int>(rng->UniformUint64(num_events));
  switch (rng->UniformUint64(6)) {
    case 0: {
      const int eta = static_cast<int>(rng->UniformUint64(12));
      const int target =
          rng->Bernoulli(0.05) ? num_events + 3 : event;  // 5% invalid id
      return AtomicOp::UpperBoundChange(target, eta);
    }
    case 1:
      return AtomicOp::LowerBoundChange(event,
                                        static_cast<int>(rng->UniformUint64(6)));
    case 2: {
      const int start = static_cast<int>(rng->UniformUint64(20)) * 60;
      const int duration = 30 + static_cast<int>(rng->UniformUint64(4)) * 30;
      return AtomicOp::TimeChange(event, {start, start + duration});
    }
    case 3:
      return AtomicOp::LocationChange(
          event, {rng->UniformDouble(0.0, 100.0),
                  rng->UniformDouble(0.0, 100.0)});
    case 4:
      return AtomicOp::BudgetChange(user, rng->UniformDouble(10.0, 160.0));
    default:
      return AtomicOp::UtilityChange(user, event,
                                     rng->Bernoulli(0.2)
                                         ? 0.0
                                         : rng->UniformDouble(0.0, 1.0));
  }
}

/// Manual nearest-rank quantile over a sorted sample vector — the oracle
/// the HistogramSnapshot must agree with when `exact`.
double NearestRank(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[rank == 0 ? 0 : rank - 1];
}

/// Minimal Prometheus text-format validator: every line is a # HELP/# TYPE
/// comment or `name[{labels}] value`. Returns the first bad line.
std::string FirstBadPrometheusLine(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  const std::string name_start =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_:";
  const std::string name_rest = name_start + "0123456789";
  while (std::getline(in, line)) {
    if (line.empty()) return line + " (blank line)";
    if (line[0] == '#') {
      if (line.rfind("# HELP ", 0) != 0 && line.rfind("# TYPE ", 0) != 0) {
        return line;
      }
      continue;
    }
    size_t pos = 0;
    if (name_start.find(line[0]) == std::string::npos) return line;
    while (pos < line.size() && name_rest.find(line[pos]) != std::string::npos) {
      ++pos;
    }
    if (pos < line.size() && line[pos] == '{') {
      const size_t close = line.find('}', pos);
      if (close == std::string::npos) return line;
      pos = close + 1;
    }
    if (pos >= line.size() || line[pos] != ' ') return line;
    const std::string value = line.substr(pos + 1);
    if (value.empty()) return line;
    if (value != "+Inf" && value != "-Inf" && value != "NaN") {
      char* end = nullptr;
      std::strtod(value.c_str(), &end);
      if (end == nullptr || *end != '\0') return line;
    }
  }
  return "";
}

TEST(ObsServiceTest, ThousandOpWorkloadHasExactQuantiles) {
  GeneratorConfig config;
  config.num_users = 60;
  config.num_events = 12;
  config.mean_xi = 2;
  config.mean_eta = 8;
  config.seed = 20260806;
  auto instance = GenerateInstance(config);
  ASSERT_TRUE(instance.ok()) << instance.status();
  auto solved = SolveGepc(*instance, GepcOptions{});
  ASSERT_TRUE(solved.ok()) << solved.status();
  const Instance base_instance = *instance;

  const std::string journal_path = ::testing::TempDir() + "/obs_service.gops";
  std::remove(journal_path.c_str());
  ServiceOptions options;
  options.journal_path = journal_path;
  auto service = PlanningService::Create(*std::move(instance),
                                         std::move(solved->plan), options);
  ASSERT_TRUE(service.ok()) << service.status();

  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    (*service)->Apply(RandomOp(base_instance, &rng));
  }
  (*service)->Drain();
  const ServiceStats stats = (*service)->Stats();
  (*service)->Shutdown();
  std::remove(journal_path.c_str());

  // 1000 ops fit the 8192-slot reservoir, so the histogram holds every
  // observation and the quantiles are exact — not bucket interpolations.
  ASSERT_EQ(stats.apply_ms.count, 1000u);
  ASSERT_TRUE(stats.apply_ms.exact);
  ASSERT_EQ(stats.apply_ms.samples.size(), 1000u);
  ASSERT_TRUE(std::is_sorted(stats.apply_ms.samples.begin(),
                             stats.apply_ms.samples.end()));

  EXPECT_DOUBLE_EQ(stats.apply_ms.Quantile(0.5),
                   NearestRank(stats.apply_ms.samples, 0.5));
  EXPECT_DOUBLE_EQ(stats.apply_ms.Quantile(0.9),
                   NearestRank(stats.apply_ms.samples, 0.9));
  EXPECT_DOUBLE_EQ(stats.apply_ms.Quantile(0.99),
                   NearestRank(stats.apply_ms.samples, 0.99));
  EXPECT_DOUBLE_EQ(stats.apply_ms.max, stats.apply_ms.samples.back());

  // Every applied/rejected op passed through the queue exactly once.
  EXPECT_EQ(stats.ops_submitted, 1000u);
  EXPECT_EQ(stats.ops_applied + stats.ops_rejected, 1000u);
  EXPECT_EQ(stats.queue_wait_ms.count, 1000u);
  EXPECT_TRUE(stats.queue_wait_ms.exact);
  EXPECT_GE(stats.queue_wait_ms.max, 0.0);

  // The journal instrumentation in the global registry saw this workload.
  const auto append_ms =
      obs::Registry::Global().GetHistogram("gepc_journal_append_ms");
  EXPECT_GE(append_ms->count(), 1000u);
}

TEST(ObsServiceTest, ExpositionTextParsesAsPrometheus) {
  GeneratorConfig config;
  config.num_users = 30;
  config.num_events = 8;
  config.seed = 99;
  auto instance = GenerateInstance(config);
  ASSERT_TRUE(instance.ok()) << instance.status();
  auto solved = SolveGepc(*instance, GepcOptions{});
  ASSERT_TRUE(solved.ok()) << solved.status();
  const Instance base_instance = *instance;

  auto service = PlanningService::Create(*std::move(instance),
                                         std::move(solved->plan), {});
  ASSERT_TRUE(service.ok()) << service.status();
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    (*service)->Apply(RandomOp(base_instance, &rng));
  }
  (*service)->Drain();
  const ServiceStats stats = (*service)->Stats();
  (*service)->Shutdown();

  const std::string service_text = RenderServiceStatsText(stats);
  EXPECT_EQ(FirstBadPrometheusLine(service_text), "");
  EXPECT_NE(service_text.find("gepc_service_ops_submitted_total 50"),
            std::string::npos);
  EXPECT_NE(service_text.find("# TYPE gepc_service_apply_ms histogram"),
            std::string::npos);
  EXPECT_NE(service_text.find("gepc_service_apply_ms_count 50"),
            std::string::npos);
  EXPECT_NE(service_text.find("# TYPE gepc_service_queue_wait_ms histogram"),
            std::string::npos);

  const std::string registry_text =
      obs::Registry::Global().RenderPrometheusText();
  EXPECT_EQ(FirstBadPrometheusLine(registry_text), "");
  // The solver ran at least once in this process, so its phase metrics are
  // registered under the documented names.
  EXPECT_NE(registry_text.find("# TYPE gepc_solver_solves_total counter"),
            std::string::npos);
  EXPECT_NE(registry_text.find("# TYPE gepc_solver_total_ms histogram"),
            std::string::npos);
}

}  // namespace
}  // namespace gepc
