#ifndef PERFBENCH_UTIL_H_
#define PERFBENCH_UTIL_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// Nearest-rank quantile (q in [0, 1]) of `samples`; 0 when empty.
double Quantile(std::vector<double> samples, double q);
double Median(std::vector<double> samples);
double Mean(const std::vector<double>& samples);

/// Samples spread over equal slices ("windows") of a run. Figures are
/// taken per window and the median across windows is reported, so a
/// burst of outside interference (CPU steal on a shared host) that covers
/// a minority of the windows does not move them; anything the program does
/// in every window still does.
class Windowed {
 public:
  Windowed(int windows, double span) : windows_(windows), span_(span) {
    samples_.resize(static_cast<size_t>(windows));
  }
  /// Records `value` observed at offset `at` in [0, span).
  void Add(double at, double value);
  /// Median over windows of each window's q-quantile.
  double Quantile(double q) const;
  /// Median over windows of each window's sample count per unit of span.
  double Rate() const;
  size_t count() const;

 private:
  int windows_;
  double span_;
  std::vector<std::vector<double>> samples_;
};

/// User + system CPU time this process has used, in ms.
double ProcessCpuMs();

/// Peak resident set size of this process, in MiB.
double PeakRssMb();

/// One reported number with its unit, printed in insertion order.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class MetricSet {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  const std::vector<Metric>& metrics() const { return metrics_; }
  /// Value of `name`; 0 when absent.
  double Get(const std::string& name) const;

 private:
  std::vector<Metric> metrics_;
};

/// Durations recorded around calls into one named layer, from any thread.
class Spans {
 public:
  void Record(const std::string& layer, double ms);
  std::vector<double> Samples(const std::string& layer) const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::vector<double>> samples_;
};

/// What one workload run reports: end-to-end metrics (untraced runs),
/// per-layer metrics (traced runs), request accounting and the verdicts of
/// the correctness gates.
struct RunReport {
  MetricSet end_to_end;
  MetricSet per_layer;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Failed correctness gates; empty means every gate passed.
  std::vector<std::string> gate_failures;
  /// Free-form lines printed before the result object.
  std::vector<std::string> notes;

  void Gate(bool ok, const std::string& what) {
    if (!ok) gate_failures.push_back(what);
  }
};

/// Renders a double with full round-trip precision for the JSON output.
std::string JsonDouble(double value);

/// Removes `path` recursively; silent when it does not exist.
void RemoveTree(const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_UTIL_H_
