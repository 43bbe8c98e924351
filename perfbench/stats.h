#ifndef RODB_PERFBENCH_STATS_H_
#define RODB_PERFBENCH_STATS_H_

// The benchmark's arithmetic: quantiles under the tail rule, and the
// open-loop latency and generator-lateness bookkeeping. main.cc
// self-checks all of it before every run.

#include <cstddef>
#include <limits>
#include <vector>

namespace perfbench {

/// A failed or refused operation's latency: slower than any limit.
inline constexpr double kFailedLatency =
    std::numeric_limits<double>::infinity();

/// Linearly interpolated q-quantile (q in [0, 1]); +inf samples sort last
/// and any interpolation touching one yields +inf. 0 for no samples.
double Quantile(std::vector<double> samples, double q);
double Median(std::vector<double> samples);

/// The tail rule: a q-quantile of n samples may be reported only when at
/// least ten samples rank beyond it.
bool TailSupported(size_t n, double q);

/// Samples needed before the q-quantile passes the tail rule.
size_t SamplesForTail(double q);

/// One request of one open-loop connection, in send order. Times are in
/// milliseconds on one clock.
struct OpenLoopRequest {
  double due = 0;   ///< when the schedule wanted it sent
  double send = 0;  ///< when it was sent
  double done = 0;  ///< when its reply (or error) arrived
  bool ok = true;
};

/// Latency from the due time (a stalled reply charges every later request
/// of the connection with its wait) -- +inf for failed requests -- and
/// the generator's own lateness: how long after both its due time and
/// the previous reply each request went out.
void OpenLoopTimes(const std::vector<OpenLoopRequest>& connection,
                   std::vector<double>* latency_ms,
                   std::vector<double>* late_ms);

}  // namespace perfbench

#endif  // RODB_PERFBENCH_STATS_H_
