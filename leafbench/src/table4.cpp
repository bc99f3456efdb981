// table4 — the offline paper pipeline, single-threaded.
//
// One pass runs core::run_scheme on DVol for GBDT, KNN and LSTM under
// Static, Triggered and LEAF (nine runs) over a dataset generated from the
// seed.  Passes repeat for the measured time, each on fresh inputs drawn
// from the seed (sub_seed(seed, p)).  With --trace 1, pass 0's inputs run
// once more traced, and those EvalResults must be bit-identical to the
// untraced pass 0's.  Model fit/predict, LEAF's
// explain step and the SIMD kernels do nearly all the work; serve, io,
// net, tsdb and par do none.
#include <cmath>
#include <cstring>
#include <map>
#include <memory>

#include "core/eval_cache.hpp"
#include "fleetkit.hpp"
#include "hostref.hpp"
#include "obs/metrics.hpp"
#include "par/pool.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace leafbench {
namespace {

using namespace leaf;

constexpr models::ModelFamily kFamilies[] = {
    models::ModelFamily::kGbdt, models::ModelFamily::kKnn,
    models::ModelFamily::kLstm};
constexpr const char* kFamilyKeys[] = {"gbdt", "knn", "lstm"};
constexpr const char* kSchemes[] = {"Static", "Triggered", "LEAF"};
constexpr const char* kKernels[] = {"axpy", "dot", "hist_accumulate",
                                    "l2_distance2", "l2_distances_cols",
                                    "squared_error", "sum"};

/// The shrunk scale: the bench_serve knobs plus a shorter LSTM, sized so
/// LSTM stays 70-80% of the pass, KNN 15-25% and the trees the rest
/// (roughly the ROADMAP Table-4 profile).
Scale table4_scale() {
  Scale s = Scale::for_level(Scale::Level::kSmall);
  s.fixed_enbs = 12;
  s.num_kpis = 24;
  s.gbdt_trees = 15;
  s.lstm_epochs = 8;
  s.eval_stride_days = 4;
  return s;
}

struct Inputs {
  Scale scale;
  std::unique_ptr<data::CellularDataset> ds;
  std::unique_ptr<data::Featurizer> featurizer;
  double dispersion = 0.0;
  std::uint64_t model_seed = 0;
  double generate_s = 0.0;
  double featurizer_s = 0.0;
};

Inputs make_inputs(std::uint64_t seed) {
  Inputs in;
  in.scale = table4_scale();
  SplitMix sm(seed);
  const std::uint64_t data_seed = sm.next();
  in.model_seed = sm.next() | 1;
  double t0 = now_s();
  in.ds = std::make_unique<data::CellularDataset>(
      data::generate_fixed_dataset(in.scale, data_seed));
  double t1 = now_s();
  in.featurizer =
      std::make_unique<data::Featurizer>(*in.ds, data::TargetKpi::kDVol);
  in.dispersion = core::kpi_dispersion(*in.ds, data::TargetKpi::kDVol);
  in.generate_s = t1 - t0;
  in.featurizer_s = now_s() - t1;
  return in;
}

struct PassResult {
  double wall_s = 0.0;
  std::vector<core::EvalResult> runs;  ///< family-major, scheme-minor
};

/// Runs the nine (family, scheme) evaluations.  With `log` null the
/// library is called directly; otherwise through the span decorators.
/// When `days` is given, the time each evaluation day took summed over
/// the nine runs (seconds) is appended to it, one sample per day.
PassResult run_pass(const Inputs& in, SpanLog* log, ModelTally* tallies,
                    std::vector<double>* days) {
  PassResult pr;
  std::map<int, double> day_cost;
  const double t0 = now_s();
  core::EvalCache cache(*in.featurizer);
  for (std::size_t f = 0; f < std::size(kFamilies); ++f) {
    std::unique_ptr<models::Regressor> proto =
        models::make_model(kFamilies[f], in.scale, in.model_seed);
    if (log != nullptr)
      proto = std::make_unique<TimedRegressor>(std::move(proto),
                                               kFamilyKeys[f], log, &tallies[f]);
    core::EvalConfig cfg = core::make_eval_config(in.scale, in.model_seed);
    cfg.cache = &cache;
    for (const char* spec : kSchemes) {
      std::unique_ptr<core::MitigationScheme> scheme = core::make_scheme(
          spec, in.dispersion, in.model_seed ^ 0x99);
      if (log != nullptr && std::strcmp(spec, "LEAF") == 0)
        scheme = std::make_unique<TimedScheme>(std::move(scheme), log);
      double mark = now_s();
      const core::StepObserver observer = [&](int day, double, bool, bool) {
        const double t = now_s();
        day_cost[day] += t - mark;
        mark = t;
      };
      Scoped run_span(log, std::string("run.") + spec);
      pr.runs.push_back(
          core::run_scheme(*in.featurizer, *proto, *scheme, cfg, observer));
    }
  }
  pr.wall_s = now_s() - t0;
  if (days != nullptr)
    for (const auto& [day, cost] : day_cost) days->push_back(cost);
  return pr;
}

bool same_result(const core::EvalResult& a, const core::EvalResult& b) {
  return same_eval(a, b) &&
         std::memcmp(&a.ne_p95, &b.ne_p95, sizeof(double)) == 0;
}

/// Every run must score every evaluation day with a finite NRMSE.
void check_pass(const Inputs& in, const PassResult& pr, Outcome& out) {
  const core::EvalConfig cfg = core::make_eval_config(in.scale, 1);
  const int first = cal::anchor_2018_07_01() + cfg.horizon;
  const int last = in.ds->num_days();
  const int expected = first < last ? (last - first + cfg.stride - 1) / cfg.stride : 0;
  for (const core::EvalResult& r : pr.runs) {
    out.attempted += 1;
    bool ok = static_cast<int>(r.days.size()) == expected &&
              r.nrmse.size() == r.days.size();
    for (double v : r.nrmse) ok = ok && std::isfinite(v);
    if (!ok) {
      out.failed += 1;
      out.fail(r.model + "/" + r.scheme + ": scored " +
               std::to_string(r.nrmse.size()) + " of " +
               std::to_string(expected) + " days, or a non-finite NRMSE");
    }
  }
}

void check_same(const PassResult& ref, const PassResult& pr, Outcome& out,
                const char* what) {
  for (std::size_t i = 0; i < ref.runs.size(); ++i)
    if (i >= pr.runs.size() || !same_result(ref.runs[i], pr.runs[i]))
      out.fail(std::string(what) + ": run " + std::to_string(i) +
               " differs from the untraced pass on the same inputs");
}

std::uint64_t simd_calls(const char* kernel) {
  return obs::MetricsRegistry::global()
      .counter("leaf_simd_calls_total", obs::label("kernel", kernel))
      .value();
}

}  // namespace

Outcome run_table4(const Options& opt) {
  Outcome out;
  par::set_threads(1);

  // Passes for the measured time (at least five), each on fresh inputs
  // drawn from the run seed: its own set-up (dataset generation +
  // featurizer), then the nine timed evaluations.
  std::vector<double> setups, gens, feats, pass_walls, day_lat;
  double all_days = 0.0, all_wall = 0.0;  // over every pass
  PassResult first;
  const double t_end = now_s() + opt.seconds;
  for (int p = 0; p < 5 || now_s() < t_end; ++p) {
    const double t0 = now_s();
    const Inputs in = make_inputs(sub_seed(opt.seed, static_cast<std::uint64_t>(p)));
    setups.push_back(now_s() - t0);
    gens.push_back(in.generate_s);
    feats.push_back(in.featurizer_s);
    take_reference(out.reference_s);
    PassResult pr = run_pass(in, nullptr, nullptr, &day_lat);
    take_reference(out.reference_s);
    check_pass(in, pr, out);
    std::size_t days = 0;
    for (const core::EvalResult& r : pr.runs) days += r.days.size();
    pass_walls.push_back(pr.wall_s);
    all_days += static_cast<double>(days);
    all_wall += pr.wall_s;
    if (p == 0) first = std::move(pr);
    if (p >= 200) break;
  }

  std::size_t eval_days = 0;
  for (const core::EvalResult& r : first.runs) eval_days += r.days.size();
  double dnrmse = 0.0;
  for (std::size_t f = 0; f < std::size(kFamilies); ++f)
    dnrmse += core::delta_vs_static(first.runs[f * 3 + 2], first.runs[f * 3]);
  dnrmse /= static_cast<double>(std::size(kFamilies));

  const double setup = median(setups);
  const double eval_s = median(pass_walls);
  out.named = {
      {"setup_s", setup, "s", setups.size(), "median over passes"},
      {"eval_s", eval_s, "s", pass_walls.size(),
       "median over passes of the wall (= CPU, one thread) of 9 runs"},
      {"leaf_dnrmse_pct", dnrmse, "%", std::size(kFamilies),
       "pass 0: mean dNRMSE of LEAF vs same-seed Static, GBDT/KNN/LSTM"},
  };
  const TailSummary day =
      latency_summary(day_lat, out, "evaluation-day latency (one day, nine runs)");
  out.named.push_back(ms_metric("day_p99_ms", day.tail, day.n,
                                "evaluation-day latency, p" +
                                    std::to_string(day.tail_pct)));
  if (!opt.trace) {
    out.end_to_end = {
        {"setup_s", setup, "s", setups.size(), "median over passes"},
        {"work_per_s", all_days / all_wall, "1/s", pass_walls.size(),
         "evaluation days / evaluation wall, summed over passes (" +
             std::to_string(eval_days) + " days in pass 0)"},
    };
    add_latency_pair(out, day_lat, "evaluation-day latency (one day, nine runs)");
    for (Metric& m : out.end_to_end) m.host_scaled = true;  // one thread
    return out;
  }

  // Pass 0's inputs again, untraced and then traced with the decorators
  // recording spans: the traced results must be bit-identical, and the
  // difference in wall time is the tracing overhead.
  const Inputs in = make_inputs(sub_seed(opt.seed, 0));
  const double untraced_wall = run_pass(in, nullptr, nullptr, nullptr).wall_s;
  SpanLog log;
  ModelTally tallies[std::size(kFamilies)];
  std::map<std::string, std::uint64_t> simd0;
  for (const char* k : kKernels) simd0[k] = simd_calls(k);
  const double traced_t0 = now_s();
  PassResult traced = run_pass(in, &log, tallies, nullptr);
  const double traced_wall = now_s() - traced_t0;
  check_pass(in, traced, out);
  check_same(first, traced, out, "traced pass");

  const std::vector<double> self = self_times(log.spans());
  std::map<std::string, double> by_name;
  for (std::size_t i = 0; i < self.size(); ++i)
    by_name[log.spans()[i].name] += self[i];
  double core_self = 0.0, layer_sum = 0.0;
  for (const char* s : kSchemes) core_self += by_name[std::string("run.") + s];

  std::vector<Metric>& L = out.per_layer;
  for (std::size_t f = 0; f < std::size(kFamilies); ++f) {
    const std::string k = kFamilyKeys[f];
    L.push_back({"models.fit_s." + k, by_name["fit." + k], "s", 0, ""});
    L.push_back({"models.fit_calls." + k,
                 static_cast<double>(tallies[f].fit_calls), "count", 0, ""});
    L.push_back({"models.predict_s." + k, by_name["predict." + k], "s", 0, ""});
    L.push_back({"models.predict_rows." + k,
                 static_cast<double>(tallies[f].predict_rows), "count", 0, ""});
    layer_sum += by_name["fit." + k] + by_name["predict." + k];
  }
  layer_sum += by_name["explain"] + core_self;

  // LEAF fits per accepted retrain: every fit in a LEAF run beyond the
  // initial one, over the retrains it produced.
  std::uint64_t leaf_fits = 0, leaf_retrains = 0;
  {
    // Count fit spans whose run ancestor is run.LEAF.
    const std::vector<Span>& sp = log.spans();
    for (std::size_t i = 0; i < sp.size(); ++i) {
      if (sp[i].name.rfind("fit.", 0) != 0) continue;
      int a = sp[i].parent;
      while (a >= 0 && sp[static_cast<std::size_t>(a)].name.rfind("run.", 0) != 0)
        a = sp[static_cast<std::size_t>(a)].parent;
      if (a >= 0 && sp[static_cast<std::size_t>(a)].name == "run.LEAF") ++leaf_fits;
    }
  }
  std::map<std::string, double> retrains;
  for (std::size_t i = 0; i < traced.runs.size(); ++i) {
    retrains[kSchemes[i % 3]] += traced.runs[i].retrain_count();
    if (i % 3 == 2) leaf_retrains += static_cast<std::uint64_t>(traced.runs[i].retrain_count());
  }
  const std::uint64_t leaf_runs = std::size(kFamilies);
  L.push_back({"core.fits_per_retrain.LEAF",
               leaf_retrains > 0 ? static_cast<double>(leaf_fits - leaf_runs) /
                                       static_cast<double>(leaf_retrains)
                                 : 0.0,
               "ratio", 0,
               "base: " + std::to_string(leaf_fits - leaf_runs) +
                   " retrain-side fits / " + std::to_string(leaf_retrains) +
                   " LEAF retrains"});
  L.push_back({"core.self_s", core_self, "s", 0,
               "featurize + NRMSE + detector + bookkeeping"});
  for (const char* s : kSchemes)
    L.push_back({std::string("core.retrains.") + s, retrains[s], "count", 0, ""});
  L.push_back({"core.eval_days", static_cast<double>(eval_days), "count", 0, ""});
  L.push_back({"core.leaf_dnrmse_pct", dnrmse, "%", 0,
               "deterministic for a seed"});
  L.push_back({"explain.self_s", by_name["explain"], "s", 0,
               "LEAF on_step minus nested model calls"});
  for (const char* k : kKernels)
    L.push_back({std::string("simd.calls.") + k,
                 static_cast<double>(simd_calls(k) - simd0[k]), "count", 0,
                 "one traced pass"});
  L.push_back({"data.generate_s", median(gens), "s", gens.size(), ""});
  L.push_back({"data.featurizer_s", median(feats), "s", feats.size(), ""});
  L.push_back({"bench.layer_sum_s", layer_sum, "s", 0,
               "sum of layer self times; traced eval_s = " +
                   std::to_string(traced_wall)});
  L.push_back({"obs.trace_overhead_pct",
               100.0 * (traced_wall - untraced_wall) / untraced_wall, "%", 0,
               "traced minus untraced eval_s of pass 0 (base " +
                   std::to_string(untraced_wall) + " s)"});
  if (!write_spans(opt.out_dir + "/table4-" + std::to_string(opt.seed) +
                       ".spans.json",
                   log.spans()))
    out.fail("cannot write the span file");
  // The layer self times must account for the traced pass's wall time
  // (only the pass's own loop and cache construction sit outside spans).
  if (std::abs(layer_sum - traced_wall) > 0.02 * traced_wall)
    out.fail("table4 layer self times (" + std::to_string(layer_sum) +
             " s) do not add up to the traced eval_s (" +
             std::to_string(traced_wall) + " s)");
  return out;
}

}  // namespace leafbench
