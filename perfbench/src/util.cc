#include "util.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <numeric>

namespace perfbench {

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(q * static_cast<double>(samples.size()));
  const size_t index =
      static_cast<size_t>(std::clamp(rank, 1.0, static_cast<double>(samples.size()))) - 1;
  return samples[index];
}

double Median(std::vector<double> samples) {
  return Quantile(std::move(samples), 0.5);
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

void Windowed::Add(double at, double value) {
  const double slot = std::floor(at / span_ * windows_);
  const int index = static_cast<int>(std::clamp(slot, 0.0, windows_ - 1.0));
  samples_[static_cast<size_t>(index)].push_back(value);
}

double Windowed::Quantile(double q) const {
  std::vector<double> per_window;
  for (const std::vector<double>& window : samples_) {
    if (!window.empty()) per_window.push_back(perfbench::Quantile(window, q));
  }
  return Median(per_window);
}

double Windowed::Rate() const {
  std::vector<double> rates;
  for (const std::vector<double>& window : samples_) {
    rates.push_back(static_cast<double>(window.size()) * windows_ / span_);
  }
  return Median(rates);
}

size_t Windowed::count() const {
  size_t total = 0;
  for (const std::vector<double>& window : samples_) total += window.size();
  return total;
}

double ProcessCpuMs() {
  timespec now{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) * 1e3 + static_cast<double>(now.tv_nsec) / 1e6;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void MetricSet::Add(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back(Metric{name, value, unit});
}

double MetricSet::Get(const std::string& name) const {
  for (const Metric& metric : metrics_) {
    if (metric.name == name) return metric.value;
  }
  return 0.0;
}

void Spans::Record(const std::string& layer, double ms) {
  std::lock_guard<std::mutex> lock(mu_);
  samples_[layer].push_back(ms);
}

std::vector<double> Spans::Samples(const std::string& layer) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = samples_.find(layer);
  return it == samples_.end() ? std::vector<double>{} : it->second;
}

std::string JsonDouble(double value) {
  if (!std::isfinite(value)) return "0";
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

void RemoveTree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

}  // namespace perfbench
