#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  if (frac == 0.0 || std::isinf(samples[lo])) return samples[lo];
  if (std::isinf(samples[hi])) return kFailedLatency;
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double Median(std::vector<double> samples) {
  return Quantile(std::move(samples), 0.5);
}

bool TailSupported(size_t n, double q) {
  const auto rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  return n >= rank + 10;
}

size_t SamplesForTail(double q) {
  size_t n = 10;
  while (!TailSupported(n, q)) ++n;
  return n;
}

void OpenLoopTimes(const std::vector<OpenLoopRequest>& connection,
                   std::vector<double>* latency_ms,
                   std::vector<double>* late_ms) {
  double previous_done = -std::numeric_limits<double>::infinity();
  for (const OpenLoopRequest& r : connection) {
    latency_ms->push_back(r.ok ? r.done - r.due : kFailedLatency);
    late_ms->push_back(std::max(0.0, r.send - std::max(r.due, previous_done)));
    previous_done = r.done;
  }
}

}  // namespace perfbench
