// Statistics the benchmark reports, kept free of any leaf dependency so
// the self-test can check them in isolation.
//
//   * tail_summary   — median plus the highest percentile of a fixed
//                      ladder (90, 99, 99.9, 99.99) that still has at
//                      least ten samples beyond it, with the sample count.
//                      Failed, shed and retried operations enter as +inf,
//                      so they count as beyond any latency limit.
//   * self_times     — exclusive time per span: its duration minus the
//                      part of its interval covered by its child spans.
//   * poisson_schedule — open-loop arrival times, a pure function of
//                      (seed, rate, duration).
//   * due_latency    — latency timed from when a request was due, not
//                      from when it was sent, so a stalled generator
//                      cannot hide the wait it imposed.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace leafbench {

inline constexpr double kInf = std::numeric_limits<double>::infinity();

/// Nearest-rank quantile of an ascending-sorted sample (0 when empty).
inline double quantile_sorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  // The epsilon keeps p*n that should be whole (0.999 * 10000) from
  // rounding up to the next rank.
  const double rank = std::ceil(p * static_cast<double>(sorted.size()) - 1e-9);
  const std::size_t idx =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return sorted[std::min(idx, sorted.size() - 1)];
}

/// Nearest-rank quantile of an unsorted sample (per-layer figures, which
/// name their percentile; end-to-end tails use tail_summary).
inline double percentile(std::vector<double> v, double p) {
  std::sort(v.begin(), v.end());
  return quantile_sorted(v, p);
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

inline double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

struct TailSummary {
  std::size_t n = 0;        ///< samples (failures included)
  double median = 0.0;
  double tail_pct = 0.0;    ///< chosen percentile, 0 when n < 20
  double tail = 0.0;        ///< value at tail_pct
  std::size_t beyond = 0;   ///< samples strictly above the tail rank
};

/// The percentile rule: the highest of 90, 99, 99.9, 99.99 whose rank
/// leaves at least ten samples beyond it.  With fewer than 100 samples
/// only the median is meaningful and tail_pct stays 0.
inline TailSummary tail_summary(std::vector<double> samples) {
  TailSummary s;
  s.n = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.median = quantile_sorted(samples, 0.5);
  for (const double pct : {90.0, 99.0, 99.9, 99.99}) {
    const double beyond = static_cast<double>(s.n) * (1.0 - pct / 100.0);
    if (beyond + 1e-9 < 10.0) break;
    s.tail_pct = pct;
    s.tail = quantile_sorted(samples, pct / 100.0);
    s.beyond = static_cast<std::size_t>(std::floor(beyond + 1e-9));
  }
  return s;
}

/// Every k-th sample, with k the smallest stride that leaves at most
/// `cap` of them: keeps a sample that spans a whole run below the size
/// at which the percentile rule would move to the next percentile.
inline std::vector<double> thin(const std::vector<double>& v, std::size_t cap) {
  const std::size_t k = (v.size() + cap - 1) / cap;
  if (k <= 1) return v;
  std::vector<double> out;
  for (std::size_t i = 0; i < v.size(); i += k) out.push_back(v[i]);
  return out;
}

/// One timed interval.  `parent` indexes the enclosing span in the same
/// vector (-1 for a root); children may overlap each other (parallel
/// work), in which case their union is what is subtracted.
struct Span {
  std::string name;
  double start = 0.0;  ///< seconds, any common origin
  double end = 0.0;
  int parent = -1;
};

/// Exclusive time of every span, in the order given.
inline std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
  for (const Span& s : spans)
    if (s.parent >= 0 && static_cast<std::size_t>(s.parent) < spans.size())
      kids[static_cast<std::size_t>(s.parent)].push_back({s.start, s.end});
  std::vector<double> out(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double lo = spans[i].start, hi = spans[i].end;
    std::vector<std::pair<double, double>>& k = kids[i];
    std::sort(k.begin(), k.end());
    double covered = 0.0, cur_a = 0.0, cur_b = 0.0;
    bool open = false;
    for (auto [a, b] : k) {
      a = std::max(a, lo);
      b = std::min(b, hi);
      if (b <= a) continue;
      if (open && a <= cur_b) {
        cur_b = std::max(cur_b, b);
      } else {
        if (open) covered += cur_b - cur_a;
        cur_a = a;
        cur_b = b;
        open = true;
      }
    }
    if (open) covered += cur_b - cur_a;
    out[i] = std::max(0.0, (hi - lo) - covered);
  }
  return out;
}

/// Self time summed per span name.
inline std::map<std::string, double> self_time_by_name(
    const std::vector<Span>& spans) {
  const std::vector<double> self = self_times(spans);
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) out[spans[i].name] += self[i];
  return out;
}

/// splitmix64: the benchmark's own generator, so its schedules do not
/// depend on any library RNG a later change might touch.
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform in (0, 1].
  double unit() {
    return (static_cast<double>(next() >> 11) + 1.0) * 0x1.0p-53;
  }
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t s_;
};

/// Seed of pass `pass` of a run: every pass of a run draws fresh inputs,
/// so one run averages over many independent inputs instead of timing
/// one input many times.
inline std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t pass) {
  return SplitMix(seed ^ (0xD1B54A32D192ED03ULL * (pass + 1))).next();
}

/// Arrival offsets (seconds from the start) of a Poisson process of
/// `rate` per second over [0, duration).
inline std::vector<double> poisson_schedule(std::uint64_t seed, double rate,
                                            double duration) {
  std::vector<double> t;
  if (rate <= 0.0 || duration <= 0.0) return t;
  SplitMix rng(seed);
  double now = 0.0;
  while (true) {
    now += -std::log(rng.unit()) / rate;
    if (now >= duration) break;
    t.push_back(now);
  }
  return t;
}

/// Latency of a request due at `due` and answered at `done` (same clock).
/// A request that never completed successfully is beyond any limit.
inline double due_latency(double due, double done, bool ok) {
  return ok ? std::max(0.0, done - due) : kInf;
}

}  // namespace leafbench
