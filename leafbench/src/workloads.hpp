// The three benchmark workloads and what they hand back to main.cpp.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "stats.hpp"

namespace leafbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_out";  ///< span files, snapshots
};

/// One reported number.  `n` is its sample count (0 for counts and
/// ratios), `note` says how it was formed (percentile chosen, base of a
/// ratio, ...).
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t n = 0;
  std::string note;
  /// End-to-end only: reported at the reference host speed (hostref.hpp).
  /// Set on table4's and fleet's (README.md, Host-speed reference);
  /// rpc's stay raw.
  bool host_scaled = false;
};

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  ///< verification failures
  /// The workload's own named end-to-end metrics (human report).
  std::vector<Metric> named;
  /// The BENCHMARK.json end-to-end metrics: setup_s, work_per_s, p50_ms,
  /// p95_ms (filled with --trace 0).
  std::vector<Metric> end_to_end;
  /// Per-layer metrics this workload exercises (filled with --trace 1).
  std::vector<Metric> per_layer;
  /// Host-speed reference timings taken through the run (hostref.hpp).
  std::vector<double> reference_s;

  void fail(const std::string& why) { errors.push_back(why); }
  bool correct() const { return errors.empty() && failed == 0; }
};

Outcome run_table4(const Options& opt);
Outcome run_fleet(const Options& opt);
Outcome run_rpc(const Options& opt);

/// Milliseconds summary helpers shared by the workloads.
Metric ms_metric(const std::string& name, double seconds, std::size_t n,
                 const std::string& note = "");

/// Latency samples are thinned to at most this many (every k-th), so a
/// sample that spans a whole run keeps the percentile rule on p99.
inline constexpr std::size_t kMaxLatencySamples = 9000;

/// Median and tail of a latency sample in seconds, after thinning.
/// Records a verification failure when the percentile rule would not
/// pick p99 for the thinned size.
TailSummary latency_summary(const std::vector<double>& lat_s, Outcome& out,
                            const std::string& what);

/// Appends the p50_ms / p95_ms end-to-end pair, from the same thinned
/// sample as latency_summary, which callers run for their named p99 (and
/// its sample-size check).  p95, not the rule's p99, is gated: on fleet,
/// p99 is set by the few longest stalls of a run (README.md, Steadiness).
void add_latency_pair(Outcome& out, const std::vector<double>& lat_s,
                      const std::string& what);

}  // namespace leafbench
