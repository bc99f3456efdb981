// Host-speed reference: a fixed computation compiled into the benchmark
// (never into the library), timed before and after every pass of a run.
//
// On a shared host the speed of a core changes from one fraction of a
// second to the next: on the 4-vCPU Xeon host the benchmark was defined
// on, the reference took either 12-13 ms or 18-21 ms, in about equal
// shares, with thread CPU time equal to wall time (the core runs slower;
// the thread is not descheduled).  The mix of fast and slow periods
// drifts over minutes.  The end-to-end timings marked
// Metric::host_scaled are therefore reported at a fixed reference speed:
// each is scaled by kReferenceNominalS over the mean reference time
// measured in the same run.  The mean, not the median, because the
// times are bimodal and the workload runs through both kinds of period.
// A change to the program does not touch the reference, so it still shows
// in full; the raw timings stay in the report.
#pragma once

#include <chrono>
#include <cmath>
#include <vector>

namespace leafbench {

/// The reference time the metrics are scaled to (seconds).  It only fixes
/// their scale.
inline constexpr double kReferenceNominalS = 0.010;

/// Receives the reference's result so its loops cannot be optimised away.
inline volatile double reference_sink = 0.0;

/// One reference timing: scalar transcendental math written to a float
/// array and read back, the mix the dataset generator and the models'
/// scalar paths run.
inline double reference_once() {
  static std::vector<float> buf(1 << 17);
  const auto t0 = std::chrono::steady_clock::now();
  double acc = 0.0;
  for (int rep = 0; rep < 4; ++rep) {
    for (std::size_t i = 0; i < buf.size(); ++i) {
      const double x = static_cast<double>(i + rep) * 1e-4;
      buf[i] = static_cast<float>(std::sin(x) * std::exp(-x * 0.01) +
                                  std::log1p(x));
    }
    for (std::size_t i = 0; i < buf.size(); i += 7) acc += buf[i];
  }
  const auto t1 = std::chrono::steady_clock::now();
  reference_sink = acc;
  return std::chrono::duration<double>(t1 - t0).count();
}

/// Appends five reference timings to `into`.
inline void take_reference(std::vector<double>& into) {
  for (int i = 0; i < 5; ++i) into.push_back(reference_once());
}

}  // namespace leafbench
