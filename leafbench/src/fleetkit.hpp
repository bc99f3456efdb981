// Pieces shared by the fleet and rpc workloads: the 12-shard fleet, the
// per-KPI pools of real feature rows that requests carry; and the
// bit-exact EvalResult comparison every workload verifies with.
#pragma once

#include <cstring>
#include <map>
#include <memory>
#include <sys/resource.h>

#include "common/calendar.hpp"
#include "common/rng.hpp"
#include "core/evaluation.hpp"
#include "core/experiment.hpp"
#include "data/generator.hpp"
#include "loadgen.hpp"
#include "serve/runtime.hpp"
#include "stats.hpp"

namespace leafbench {

/// `leafctl serve`'s small scale, trimmed so one catch-up takes a second
/// or two and a run can average over many fleets.
inline leaf::Scale fleet_scale() {
  leaf::Scale s = leaf::Scale::for_level(leaf::Scale::Level::kSmall);
  s.fixed_enbs = 16;
  s.num_kpis = 32;
  s.gbdt_trees = 25;
  s.forest_trees = 20;
  return s;
}

/// 12 shards: every KPI twice, GBDT / RandomForest / Ridge four times
/// each, Triggered and LEAF alternating.
inline std::vector<leaf::serve::ShardSpec> fleet_specs() {
  using leaf::models::ModelFamily;
  const ModelFamily fams[] = {ModelFamily::kGbdt, ModelFamily::kRandomForest,
                              ModelFamily::kRidge};
  std::vector<leaf::serve::ShardSpec> specs;
  for (std::size_t i = 0; i < 12; ++i)
    specs.push_back({leaf::data::kAllTargets[i % 6], fams[(i / 6 + i) % 3],
                     (i / 6 + i) % 2 == 0 ? "Triggered" : "LEAF", 0});
  return specs;
}

/// Dataset and fleet seeds derived from the workload seed.
struct FleetSeeds {
  std::uint64_t data = 0;
  std::uint64_t fleet = 0;
  explicit FleetSeeds(std::uint64_t seed) {
    SplitMix sm(seed ^ 0xF1EE7ULL);
    data = sm.next();
    fleet = sm.next() | 1;
  }
};

inline constexpr std::uint32_t kPoolRows = 256;

/// Real feature rows per KPI (test slices of days after the anchor), so
/// predicts exercise the models on in-distribution inputs.
class RowPools {
 public:
  RowPools(const leaf::data::CellularDataset& ds,
           const std::vector<leaf::serve::ShardSpec>& specs) {
    for (const auto& spec : specs) {
      if (by_kpi_.count(spec.kpi)) continue;
      const leaf::data::Featurizer f(ds, spec.kpi);
      leaf::Matrix m;
      for (int day = leaf::cal::anchor_2018_07_01() + 180;
           m.rows() < kPoolRows && day < ds.num_days(); ++day) {
        const leaf::data::SupervisedSet s = f.at_target_day(day);
        for (std::size_t r = 0; r < s.size() && m.rows() < kPoolRows; ++r)
          m.append_row(s.X.row(r));
      }
      by_kpi_[spec.kpi] = std::move(m);
    }
    for (const auto& spec : specs) shard_kpi_.push_back(spec.kpi);
  }

  leaf::Matrix rows(std::uint32_t shard, std::uint32_t offset,
                    std::uint32_t n) const {
    const leaf::Matrix& pool = by_kpi_.at(shard_kpi_.at(shard));
    leaf::Matrix out(n, pool.cols());
    for (std::uint32_t i = 0; i < n; ++i) {
      const auto src = pool.row((offset + i) % pool.rows());
      std::copy(src.begin(), src.end(), out.row(i).begin());
    }
    return out;
  }

  RowSource source() const {
    return [this](std::uint32_t s, std::uint32_t o, std::uint32_t n) {
      return rows(s, o, n);
    };
  }

 private:
  std::map<leaf::data::TargetKpi, leaf::Matrix> by_kpi_;
  std::vector<leaf::data::TargetKpi> shard_kpi_;
};

inline bool same_bits(const std::vector<double>& a,
                      const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

inline bool same_eval(const leaf::core::EvalResult& a,
                      const leaf::core::EvalResult& b) {
  return a.days == b.days && same_bits(a.nrmse, b.nrmse) &&
         same_bits(a.mean_ne, b.mean_ne) && a.retrain_days == b.retrain_days &&
         a.drift_days == b.drift_days;
}

inline bool same_evals(const std::vector<leaf::core::EvalResult>& a,
                       const std::vector<leaf::core::EvalResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (!same_eval(a[i], b[i])) return false;
  return true;
}

/// core::run_scheme over the same spec and the seed the fleet derives
/// for shard `i` — what that shard must reproduce bit for bit.
inline leaf::core::EvalResult reference_run(
    const leaf::data::CellularDataset& ds, const leaf::Scale& scale,
    const leaf::serve::ShardSpec& spec, std::uint64_t fleet_seed,
    std::size_t i) {
  const std::uint64_t seed = leaf::Rng(fleet_seed).substream(i)();
  const leaf::data::Featurizer f(ds, spec.kpi);
  const double disp = leaf::core::kpi_dispersion(ds, spec.kpi);
  const auto proto = leaf::models::make_model(spec.model, scale, seed);
  const auto scheme = leaf::core::make_scheme(spec.scheme, disp, seed ^ 0x99);
  return leaf::core::run_scheme(f, *proto, *scheme,
                                leaf::core::make_eval_config(scale, seed));
}

/// CPU seconds (user + system) of the process or the calling thread.
inline double cpu_seconds(int who) {
  rusage ru{};
  ::getrusage(who, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

}  // namespace leafbench
