#include "serve/runtime.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <map>
#include <optional>
#include <thread>
#include <utility>

#include "common/calendar.hpp"
#include "common/metrics.hpp"
#include "common/stats.hpp"
#include "core/scheme.hpp"
#include "io/serializer.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "par/parallel.hpp"
#include "simd/simd.hpp"

namespace leaf::serve {

namespace {

constexpr const char* kLegacyFleetFile = "fleet.leafsnap";

void write_ints(io::Serializer& out, const std::vector<int>& v) {
  out.put_ints(v);
}

std::string fmt6(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

/// Path of snapshot generation `gen` (gen 0 = the legacy single-file name
/// from format v2 deployments, kept discoverable so resuming from one
/// fails with "unsupported format version" instead of "no snapshot").
std::string gen_path(const std::string& dir, std::uint64_t gen) {
  if (gen == 0) return (std::filesystem::path(dir) / kLegacyFleetFile).string();
  char name[40];
  std::snprintf(name, sizeof name, "fleet-%06llu.leafsnap",
                static_cast<unsigned long long>(gen));
  return (std::filesystem::path(dir) / name).string();
}

std::uint32_t read_le32(std::span<const std::uint8_t> b, std::size_t pos) {
  return static_cast<std::uint32_t>(b[pos]) |
         static_cast<std::uint32_t>(b[pos + 1]) << 8 |
         static_cast<std::uint32_t>(b[pos + 2]) << 16 |
         static_cast<std::uint32_t>(b[pos + 3]) << 24;
}

std::uint64_t read_le64(std::span<const std::uint8_t> b, std::size_t pos) {
  return static_cast<std::uint64_t>(read_le32(b, pos)) |
         static_cast<std::uint64_t>(read_le32(b, pos + 4)) << 32;
}

/// Walks an encoded LEAFSNAP container and returns the payload range of
/// the named section (chaos snapshot corruption flips a bit inside it).
std::optional<std::pair<std::size_t, std::size_t>> find_section_payload(
    std::span<const std::uint8_t> bytes, const std::string& name) {
  std::size_t pos = sizeof(io::kMagic) + 4;  // magic + version
  if (pos + 4 > bytes.size()) return std::nullopt;
  const std::uint32_t count = read_le32(bytes, pos);
  pos += 4;
  for (std::uint32_t i = 0; i < count; ++i) {
    if (pos + 4 > bytes.size()) return std::nullopt;
    const std::uint32_t name_len = read_le32(bytes, pos);
    pos += 4;
    if (pos + name_len + 8 + 4 > bytes.size()) return std::nullopt;
    const std::string section_name(
        reinterpret_cast<const char*>(bytes.data() + pos), name_len);
    pos += name_len;
    const std::uint64_t payload_len = read_le64(bytes, pos);
    pos += 8 + 4;  // payload_len + crc
    if (pos + payload_len > bytes.size()) return std::nullopt;
    if (section_name == name && payload_len > 0)
      return std::make_pair(pos, static_cast<std::size_t>(payload_len));
    pos += payload_len;
  }
  return std::nullopt;
}

/// Thrown when a snapshot's meta section parses cleanly but describes a
/// different fleet than this runtime — a configuration error, never
/// something generation fallback should paper over.
class FleetMismatch : public io::SnapshotError {
 public:
  using io::SnapshotError::SnapshotError;
};

}  // namespace

const char* to_string(ShardHealth h) {
  switch (h) {
    case ShardHealth::kHealthy: return "healthy";
    case ShardHealth::kFaulted: return "faulted";
    case ShardHealth::kQuarantined: return "quarantined";
  }
  return "?";
}

/// One shard = one (KPI, model family, scheme) pipeline.  `step()` is the
/// loop body of core::run_scheme verbatim (uncached path, no ingest
/// guards), so a shard's EvalResult matches run_scheme exactly.
struct FleetRuntime::Shard {
  ShardSpec spec;
  int index = -1;  ///< position in the fleet; stamped on emitted events
  const data::Featurizer* featurizer = nullptr;
  double dispersion = 0.0;
  core::EvalConfig cfg;
  std::unique_ptr<models::Regressor> prototype;
  std::unique_ptr<core::MitigationScheme> scheme;

  // --- mutable per-step state (everything below is snapshotted) ---------
  models::FitCaches fit_caches;
  obs::EventLog events;  ///< single-writer: only this shard's step() emits
  std::unique_ptr<models::Regressor> model;
  drift::Kswin detector;
  Rng rng;
  data::SupervisedSet train;
  core::EvalResult result;
  std::vector<double> abs_ne_samples;
  int next_day = 0;
  int num_days = 0;
  double norm_range = 0.0;
  bool done = false;
  std::uint64_t steps = 0;
  // --- supervision state (also snapshotted) -----------------------------
  bool initialized = false;
  ShardHealth health = ShardHealth::kHealthy;
  int consecutive_failures = 0;
  int total_faults = 0;
  std::uint64_t backoff_until = 0;  ///< fleet step of the next retry
  std::string last_error;
  core::RetrainBreaker breaker;
  obs::EventLog supervision;  ///< single-writer, like `events`
  // Reusable aligned arena for the per-step prediction buffer (NOT
  // snapshotted: scratch only, sized by the high-water test-slice size).
  // Replaces a std::vector allocation per step per shard.
  simd::AlignedBuffer predict_scratch;

  Shard(ShardSpec s, const data::Featurizer& f, double disp,
        const core::EvalConfig& c, const Scale& scale,
        const core::BreakerConfig& bcfg)
      : spec(s),
        featurizer(&f),
        dispersion(disp),
        cfg(c),
        prototype(models::make_model(spec.model, scale, cfg.seed)),
        scheme(core::make_scheme(spec.scheme, disp, cfg.seed ^ 0x99)),
        detector(cfg.detector),
        rng(cfg.seed),
        breaker(bcfg) {}

  void emit_supervision(obs::EventKind kind, int day, std::string detail) {
    supervision.emit({kind, day, index, data::to_string(spec.kpi),
                      prototype->name(), scheme->name(), std::move(detail),
                      0.0});
  }

  /// Initial training, mirroring the run_scheme preamble.
  void init() {
    result = core::EvalResult{};
    result.scheme = scheme->name();
    result.model = prototype->name();

    const int anchor =
        cfg.anchor_day >= 0 ? cfg.anchor_day : cal::anchor_2018_07_01();
    norm_range = cfg.norm_range_override > 0.0 ? cfg.norm_range_override
                                               : featurizer->norm_range();
    num_days = featurizer->dataset().num_days();

    train = featurizer->window(anchor - cfg.train_window + 1, anchor);
    if (train.empty())
      throw std::runtime_error(
          "serve: shard training window produced no supervised pairs");
    model = prototype->clone_untrained();
    model->attach_caches(&fit_caches);
    {
      LEAF_SPAN("serve.init_fit");
      model->fit(train.X, train.y);
    }

    scheme->reset();
    detector.reset();
    rng = Rng(cfg.seed);
    abs_ne_samples.clear();
    events.clear();
    next_day = anchor + cfg.horizon;
    done = next_day >= num_days;
    steps = 0;
    health = ShardHealth::kHealthy;
    consecutive_failures = 0;
    total_faults = 0;
    backoff_until = 0;
    last_error.clear();
    breaker.reset();
    supervision.clear();
    initialized = true;
  }

  /// One evaluation step (the run_scheme loop body for day = next_day).
  /// `storm_retrain` is the chaos retrain-storm fault point: force a
  /// Triggered-style retrain request this step (gated by the breaker like
  /// any other request).
  void step(bool storm_retrain) {
    if (done) return;
    LEAF_SPAN("serve.step");
    static obs::Counter& steps_ctr =
        obs::MetricsRegistry::global().counter("leaf_eval_steps_total");
    static obs::Counter& scored_ctr =
        obs::MetricsRegistry::global().counter("leaf_eval_days_scored_total");
    static obs::Counter& skipped_ctr =
        obs::MetricsRegistry::global().counter("leaf_eval_days_skipped_total");
    static obs::Counter& nonfinite_ctr =
        obs::MetricsRegistry::global().counter("leaf_eval_nonfinite_total");
    static obs::Counter& drift_ctr =
        obs::MetricsRegistry::global().counter("leaf_drift_events_total");
    static obs::Counter& retrain_ctr =
        obs::MetricsRegistry::global().counter("leaf_retrains_total");
    static obs::Counter& suppressed_ctr = obs::MetricsRegistry::global().counter(
        "leaf_breaker_suppressed_retrains_total");
    static obs::Histogram& retrain_latency =
        obs::MetricsRegistry::global().histogram("leaf_retrain_latency_seconds",
                                                 obs::latency_buckets());
    ++steps;
    steps_ctr.inc();
    const int day = next_day;
    next_day += cfg.stride;
    if (next_day >= num_days) done = true;

    const auto emit = [&](obs::EventKind kind, std::string detail,
                          double seconds = 0.0) {
      events.emit({kind, day, index, data::to_string(spec.kpi), result.model,
                   result.scheme, std::move(detail), seconds});
    };

    const data::SupervisedSet test = featurizer->at_target_day(day);
    if (static_cast<int>(test.size()) < cfg.min_samples_per_day) {
      ++result.degraded.days_skipped;
      skipped_ctr.inc();
      return;
    }

    static obs::Counter& scratch_grows_ctr =
        obs::MetricsRegistry::global().counter(
            "leaf_shard_scratch_grows_total");
    static obs::Counter& scratch_reuses_ctr =
        obs::MetricsRegistry::global().counter(
            "leaf_shard_scratch_reuses_total");
    const bool scratch_grew = predict_scratch.reserve(test.size());
    (scratch_grew ? scratch_grows_ctr : scratch_reuses_ctr).inc();
    const std::span<double> pred = predict_scratch.acquire(test.size());
    model->predict_into(test.X, pred);
    const double err = metrics::nrmse(pred, test.y, norm_range);
    if (cfg.guard_nonfinite && !std::isfinite(err)) {
      ++result.degraded.nonfinite_errors;
      nonfinite_ctr.inc();
      emit(obs::EventKind::kNonFinite, "rows=" + std::to_string(test.size()));
      return;
    }
    scored_ctr.inc();

    double ne_acc = 0.0;
    std::size_t ne_count = 0;
    for (std::size_t i = 0; i < test.size(); ++i) {
      const double ne =
          metrics::normalized_error(pred[i], test.y[i], norm_range);
      if (cfg.guard_nonfinite && !std::isfinite(ne)) continue;
      ne_acc += ne;
      ++ne_count;
      abs_ne_samples.push_back(std::abs(ne));
    }

    result.days.push_back(day);
    result.nrmse.push_back(err);
    result.mean_ne.push_back(
        ne_count > 0 ? ne_acc / static_cast<double>(ne_count) : 0.0);

    const bool drift = detector.update(err);
    if (drift) {
      result.drift_days.push_back(day);
      drift_ctr.inc();
      emit(obs::EventKind::kDrift,
           "detector=KSWIN,p=" + fmt6(detector.last_p_value()) +
               ",nrmse=" + fmt6(err));
    }

    core::SchemeContext ctx{.featurizer = *featurizer,
                            .model = *model,
                            .current_train = train,
                            .eval_day = day,
                            .nrmse = err,
                            .drift = drift,
                            .train_window = cfg.train_window,
                            .rng = &rng,
                            .prototype = prototype.get(),
                            .fit_caches = &fit_caches,
                            .cache = nullptr,
                            .events = &events,
                            .shard = index};
    const double retrain_t0 = obs::enabled() ? obs::monotonic_seconds() : 0.0;
    std::optional<data::SupervisedSet> new_train = scheme->on_step(ctx);
    std::unique_ptr<models::Regressor> replacement =
        scheme->take_replacement_model();
    if (storm_retrain && replacement == nullptr &&
        (!new_train.has_value() || new_train->empty())) {
      data::SupervisedSet forced =
          core::latest_labeled_window(ctx, cfg.train_window);
      if (!forced.empty()) new_train = std::move(forced);
    }

    const bool wants_retrain =
        replacement != nullptr || (new_train.has_value() && !new_train->empty());
    if (!wants_retrain) return;

    // Retrain circuit breaker: a storm of requests inside the sliding
    // window trips it OPEN and the shard keeps serving its frozen model
    // (counted like the ingest OUTAGE freeze).  Disabled by default.
    using BState = core::RetrainBreaker::State;
    const BState before = breaker.state();
    const bool allowed = breaker.allow(day);
    const BState after = breaker.state();
    if (before == BState::kOpen && after != BState::kOpen)
      emit_supervision(obs::EventKind::kBreakerHalfOpen, day,
                       "cooldown over, probe retrain");
    if (after == BState::kOpen && before != BState::kOpen)
      emit_supervision(obs::EventKind::kBreakerOpen, day,
                       "max_retrains=" +
                           std::to_string(breaker.config().max_retrains) +
                           ",window_days=" +
                           std::to_string(breaker.config().window_days) +
                           ",open_until_day=" +
                           std::to_string(breaker.open_until()));
    if (after == BState::kClosed && before == BState::kOpen)
      emit_supervision(obs::EventKind::kBreakerClose, day,
                       "probe retrain allowed");
    if (!allowed) {
      // A suppressed LEAF candidate is dropped here, but its fit already
      // committed to `fit_caches`: later fits see its bin edges.
      ++result.degraded.suppressed_retrains;
      suppressed_ctr.inc();
      return;
    }

    bool retrained = false;
    if (replacement != nullptr) {
      model = std::move(replacement);
      if (new_train.has_value()) train = std::move(*new_train);
      result.retrain_days.push_back(day);
      retrained = true;
    } else {
      train = std::move(*new_train);
      model = prototype->clone_untrained();
      model->attach_caches(&fit_caches);
      {
        LEAF_SPAN("serve.retrain_fit");
        model->fit(train.X, train.y);
      }
      result.retrain_days.push_back(day);
      retrained = true;
    }
    if (retrained) {
      const double secs =
          obs::enabled() ? obs::monotonic_seconds() - retrain_t0 : 0.0;
      retrain_ctr.inc();
      retrain_latency.observe(secs);
      obs::MetricsRegistry::global()
          .latency("leaf_shard_retrain_seconds",
                   obs::label("shard", std::to_string(index)))
          .observe(secs);
      emit(obs::EventKind::kRetrain,
           "train_rows=" + std::to_string(train.size()), secs);
    }
  }

  core::EvalResult finalized_result() const {
    core::EvalResult out = result;
    out.ne_p95 = abs_ne_samples.empty()
                     ? 0.0
                     : stats::quantile(abs_ne_samples, 0.95);
    return out;
  }

  void save(io::Serializer& out) const {
    // Format v3: supervision state leads, so even a shard that never
    // initialized (init threw, quarantined) snapshots cleanly.
    out.put_bool(initialized);
    out.put_u8(static_cast<std::uint8_t>(health));
    out.put_i32(consecutive_failures);
    out.put_i32(total_faults);
    out.put_u64(backoff_until);
    out.put_string(last_error);
    breaker.save_state(out);
    supervision.save(out);
    if (!initialized) return;

    io::write(out, rng);
    detector.save_state(out);
    scheme->save_state(out);
    models::save_regressor(out, *model);
    fit_caches.bin_edges.save(out);
    io::write(out, train);
    out.put_i32(next_day);
    out.put_i32(num_days);
    out.put_f64(norm_range);
    out.put_bool(done);
    out.put_u64(steps);
    write_ints(out, result.days);
    out.put_doubles(result.nrmse);
    out.put_doubles(result.mean_ne);
    write_ints(out, result.retrain_days);
    write_ints(out, result.drift_days);
    out.put_i32(result.degraded.days_skipped);
    out.put_i32(result.degraded.nonfinite_errors);
    out.put_i32(result.degraded.frozen_detector_days);
    out.put_i32(result.degraded.suppressed_retrains);
    out.put_i64(result.degraded.values_imputed);
    out.put_i64(result.degraded.quarantined_records);
    out.put_doubles(abs_ne_samples);
    // Format v2: the shard's event log rides along, so a resumed run's
    // merged event stream is identical to an uninterrupted one.
    events.save(out);
  }

  /// Fully parsed shard state, applied only after the whole snapshot
  /// parses cleanly (no partial restore).
  struct Restored {
    bool initialized = false;
    ShardHealth health = ShardHealth::kHealthy;
    int consecutive_failures = 0;
    int total_faults = 0;
    std::uint64_t backoff_until = 0;
    std::string last_error;
    core::RetrainBreaker breaker;
    obs::EventLog supervision;
    Rng::State rng;
    std::unique_ptr<drift::Kswin> detector;
    std::unique_ptr<core::MitigationScheme> scheme;
    std::unique_ptr<models::Regressor> model;
    models::BinEdgeCache bin_edges;
    data::SupervisedSet train;
    int next_day = 0;
    int num_days = 0;
    double norm_range = 0.0;
    bool done = false;
    std::uint64_t steps = 0;
    core::EvalResult result;
    std::vector<double> abs_ne_samples;
    obs::EventLog events;
  };

  Restored parse(io::Deserializer& in) const {
    Restored r;
    r.initialized = in.get_bool();
    const std::uint8_t health = in.get_u8();
    if (health > static_cast<std::uint8_t>(ShardHealth::kQuarantined))
      throw io::SnapshotError("shard: unknown health state " +
                              std::to_string(static_cast<int>(health)));
    r.health = static_cast<ShardHealth>(health);
    r.consecutive_failures = in.get_i32();
    r.total_faults = in.get_i32();
    r.backoff_until = in.get_u64();
    r.last_error = in.get_string();
    r.breaker = core::RetrainBreaker(breaker.config());
    r.breaker.load_state(in);
    r.supervision.load(in);
    if (!r.initialized) {
      if (r.health != ShardHealth::kQuarantined)
        throw io::SnapshotError(
            "shard snapshotted uninitialized but not quarantined");
      if (!in.exhausted())
        throw io::SnapshotError("trailing bytes after shard state");
      return r;
    }

    Rng tmp_rng(cfg.seed);
    io::read_rng(in, tmp_rng);
    r.rng = tmp_rng.capture();
    r.detector = std::make_unique<drift::Kswin>(cfg.detector);
    r.detector->load_state(in);
    r.scheme = core::make_scheme(spec.scheme, dispersion, cfg.seed ^ 0x99);
    r.scheme->reset();
    r.scheme->load_state(in);
    r.model = models::load_regressor(in);
    if (r.model->name() != prototype->name())
      throw io::SnapshotError("shard model family mismatch: snapshot has '" +
                              r.model->name() + "', runtime expects '" +
                              prototype->name() + "'");
    r.bin_edges.load(in);
    r.train = io::read_supervised_set(in);
    r.next_day = in.get_i32();
    r.num_days = in.get_i32();
    r.norm_range = in.get_f64();
    r.done = in.get_bool();
    r.steps = in.get_u64();
    r.result.scheme = r.scheme->name();
    r.result.model = prototype->name();
    r.result.days = in.get_ints();
    r.result.nrmse = in.get_doubles();
    r.result.mean_ne = in.get_doubles();
    r.result.retrain_days = in.get_ints();
    r.result.drift_days = in.get_ints();
    r.result.degraded.days_skipped = in.get_i32();
    r.result.degraded.nonfinite_errors = in.get_i32();
    r.result.degraded.frozen_detector_days = in.get_i32();
    r.result.degraded.suppressed_retrains = in.get_i32();
    r.result.degraded.values_imputed = in.get_i64();
    r.result.degraded.quarantined_records = in.get_i64();
    r.abs_ne_samples = in.get_doubles();
    r.events.load(in);
    if (!in.exhausted())
      throw io::SnapshotError("trailing bytes after shard state");
    if (r.result.nrmse.size() != r.result.days.size() ||
        r.result.mean_ne.size() != r.result.days.size())
      throw io::SnapshotError("shard result series have inconsistent sizes");
    return r;
  }

  void apply(Restored&& r) {
    initialized = r.initialized;
    health = r.health;
    consecutive_failures = r.consecutive_failures;
    total_faults = r.total_faults;
    backoff_until = r.backoff_until;
    last_error = std::move(r.last_error);
    breaker = std::move(r.breaker);
    supervision = std::move(r.supervision);
    if (!initialized) return;
    rng.restore(r.rng);
    detector = std::move(*r.detector);
    scheme = std::move(r.scheme);
    model = std::move(r.model);
    fit_caches.bin_edges = std::move(r.bin_edges);
    model->attach_caches(&fit_caches);
    train = std::move(r.train);
    next_day = r.next_day;
    num_days = r.num_days;
    norm_range = r.norm_range;
    done = r.done;
    steps = r.steps;
    result = std::move(r.result);
    abs_ne_samples = std::move(r.abs_ne_samples);
    events = std::move(r.events);
  }
};

FleetRuntime::FleetRuntime(const data::CellularDataset& ds, const Scale& scale,
                           std::vector<ShardSpec> specs,
                           std::uint64_t fleet_seed,
                           SupervisorConfig supervisor)
    : ds_(&ds), scale_(scale), specs_(std::move(specs)),
      fleet_seed_(fleet_seed), supervisor_(std::move(supervisor)),
      chaos_(supervisor_.chaos) {
  if (specs_.empty())
    throw std::invalid_argument("FleetRuntime: at least one shard required");
  if (supervisor_.snapshot_keep < 1)
    throw std::invalid_argument("FleetRuntime: snapshot_keep must be >= 1");

  // One featurizer (and dispersion) per distinct KPI, shared read-only by
  // the shards forecasting it.
  std::map<data::TargetKpi, std::pair<const data::Featurizer*, double>> by_kpi;
  for (const ShardSpec& spec : specs_) {
    if (by_kpi.count(spec.kpi)) continue;
    featurizers_.push_back(std::make_unique<data::Featurizer>(ds, spec.kpi));
    by_kpi[spec.kpi] = {featurizers_.back().get(),
                        core::kpi_dispersion(ds, spec.kpi)};
  }

  // Per-shard seeds: explicit when given, otherwise a counter-based
  // substream of the fleet seed — order-independent, so the derivation is
  // identical no matter how shards are scheduled.
  const Rng fleet_rng(fleet_seed_);
  shards_.reserve(specs_.size());
  for (std::size_t i = 0; i < specs_.size(); ++i) {
    const ShardSpec& spec = specs_[i];
    std::uint64_t seed = spec.seed;
    if (seed == 0) seed = fleet_rng.substream(i)();
    const auto [featurizer, dispersion] = by_kpi[spec.kpi];
    core::EvalConfig cfg = core::make_eval_config(scale_, seed);
    shards_.push_back(std::make_unique<Shard>(spec, *featurizer, dispersion,
                                              cfg, scale_,
                                              supervisor_.breaker));
    shards_.back()->index = static_cast<int>(i);
  }
}

FleetRuntime::~FleetRuntime() = default;

bool FleetRuntime::done() const {
  for (const auto& s : shards_)
    if (!s->done && s->health != ShardHealth::kQuarantined) return false;
  return true;
}

void FleetRuntime::handle_shard_failure(Shard& shard,
                                        std::uint64_t fleet_step,
                                        const char* what) {
  static obs::Counter& faults_ctr =
      obs::MetricsRegistry::global().counter("leaf_shard_faults_total");
  static obs::Counter& quarantine_ctr =
      obs::MetricsRegistry::global().counter("leaf_shard_quarantines_total");
  ++shard.consecutive_failures;
  ++shard.total_faults;
  shard.last_error = what;
  faults_ctr.inc();
  const std::string context =
      "fleet_step=" + std::to_string(fleet_step) +
      ",failures=" + std::to_string(shard.consecutive_failures) +
      ",error=" + shard.last_error;
  if (!shard.initialized ||
      shard.consecutive_failures > supervisor_.recovery.max_retries) {
    // Init failures are configuration/data problems a retry cannot fix;
    // step failures escalate once the retry budget is spent.
    shard.health = ShardHealth::kQuarantined;
    quarantine_ctr.inc();
    shard.emit_supervision(obs::EventKind::kShardQuarantined, shard.next_day,
                           context);
    LEAF_LOG_ERROR("serve: shard %d quarantined (%s)", shard.index,
                   context.c_str());
  } else {
    shard.health = ShardHealth::kFaulted;
    const std::uint64_t backoff =
        static_cast<std::uint64_t>(supervisor_.recovery.backoff_base_steps)
        << (shard.consecutive_failures - 1);
    shard.backoff_until = fleet_step + 1 + backoff;
    shard.emit_supervision(
        obs::EventKind::kShardFaulted, shard.next_day,
        context + ",retry_at_step=" + std::to_string(shard.backoff_until));
    LEAF_LOG_WARN("serve: shard %d faulted, retry at fleet step %llu (%s)",
                  shard.index,
                  static_cast<unsigned long long>(shard.backoff_until),
                  context.c_str());
  }
}

void FleetRuntime::start() {
  if (started_) return;
  started_ = true;
  par::parallel_for(shards_.size(), [&](std::size_t i) {
    try {
      shards_[i]->init();
    } catch (const std::exception& e) {
      handle_shard_failure(*shards_[i], 0, e.what());
    }
  });
}

void FleetRuntime::step_shard(Shard& shard, std::uint64_t fleet_step) {
  static obs::Counter& recovered_ctr =
      obs::MetricsRegistry::global().counter("leaf_shard_recoveries_total");
  if (shard.done || !shard.initialized ||
      shard.health == ShardHealth::kQuarantined)
    return;
  if (shard.health == ShardHealth::kFaulted &&
      fleet_step < shard.backoff_until)
    return;  // waiting out the backoff
  try {
    bool storm = false;
    if (chaos_.enabled()) {
      if (chaos_.slow_step(shard.index, fleet_step))
        std::this_thread::sleep_for(
            std::chrono::milliseconds(chaos_.config().slow_ms));
      if (chaos_.throw_step(shard.index, fleet_step))
        throw chaos::Fault("injected step fault (shard " +
                           std::to_string(shard.index) + ", fleet step " +
                           std::to_string(fleet_step) + ")");
      storm = chaos_.retrain_storm(shard.index, fleet_step);
    }
    {
      const obs::Stopwatch sw;
      shard.step(storm);
      obs::MetricsRegistry::global()
          .latency("leaf_shard_step_seconds",
                   obs::label("shard", std::to_string(shard.index)))
          .observe(sw.seconds());
    }
    if (shard.health == ShardHealth::kFaulted) {
      shard.health = ShardHealth::kHealthy;
      shard.consecutive_failures = 0;
      recovered_ctr.inc();
      shard.emit_supervision(
          obs::EventKind::kShardRecovered, shard.next_day,
          "fleet_step=" + std::to_string(fleet_step) +
              ",after_failures=" + std::to_string(shard.total_faults));
      LEAF_LOG_INFO("serve: shard %d recovered at fleet step %llu",
                    shard.index, static_cast<unsigned long long>(fleet_step));
    }
  } catch (const std::exception& e) {
    handle_shard_failure(shard, fleet_step, e.what());
  }
}

bool FleetRuntime::step() {
  start();
  if (done()) return false;
  const std::uint64_t fleet_step = steps_run_;
  par::parallel_for(shards_.size(),
                    [&](std::size_t i) { step_shard(*shards_[i], fleet_step); });
  ++steps_run_;
  // Serial epilogue: sample fleet telemetry into the embedded store.  The
  // parallel phase is over, so the sample is a pure function of the
  // post-step fleet state — bit-identical at any LEAF_THREADS.
  sample_telemetry();
  return !done();
}

void FleetRuntime::record_net_deltas(std::uint64_t tick) {
  // Net-plane counters are process-lifetime registry state, so their
  // per-tick deltas depend on process history (a resumed process restarts
  // the baselines): stored for operators, excluded from fingerprint().
  static constexpr const char* kNetCounters[] = {
      "leaf_net_requests_total",  "leaf_net_responses_total",
      "leaf_net_sheds_total",     "leaf_net_retries_total",
      "leaf_net_errors_total",    "leaf_net_malformed_frames_total",
  };
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  if (net_baselines_.empty()) {
    for (const char* name : kNetCounters)
      net_baselines_.push_back(
          {name, static_cast<double>(reg.counter(name).value())});
  }
  double requests = 0.0;
  double sheds = 0.0;
  double retries = 0.0;
  for (NetBaseline& b : net_baselines_) {
    const double now = static_cast<double>(reg.counter(b.metric).value());
    const double delta = now - b.last;
    b.last = now;
    tsdb_.record(b.metric + "_per_tick", "", tick, delta,
                 /*deterministic=*/false);
    if (b.metric == "leaf_net_requests_total") requests = delta;
    else if (b.metric == "leaf_net_sheds_total") sheds = delta;
    else if (b.metric == "leaf_net_retries_total") retries = delta;
  }
  // Recording rules: deadline-miss and shed rates per tick.  Sheds fire
  // exactly when a request's deadline lapsed in queue, so the shed delta
  // *is* the deadline-miss count; the shed rate also folds in RETRYs.
  const double denom = requests > 0.0 ? requests : 1.0;
  const double miss_rate = sheds / denom;
  const double shed_rate = (sheds + retries) / denom;
  tsdb_.record("leaf_rule_deadline_miss_rate", "", tick, miss_rate,
               /*deterministic=*/false);
  tsdb_.record("leaf_rule_shed_rate", "", tick, shed_rate,
               /*deterministic=*/false);
  meta_drift_.observe("deadline_miss_rate", -1, tick, miss_rate);
  meta_drift_.observe("shed_rate", -1, tick, shed_rate);
}

void FleetRuntime::sample_telemetry() {
  if constexpr (!obs::kCompiledIn) return;
  const std::uint64_t tick = sample_tick_++;
  // A chaos tsdb-gap skips the sample but the tick still advanced, so the
  // gap is visible (and deterministic) in every stored series.
  if (chaos_.enabled() && chaos_.tsdb_gap(tick)) return;

  // Deterministic series: pure functions of shard state, resume-safe.
  double quarantined = 0.0;
  double faults = 0.0;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const Shard& s = *shards_[i];
    const std::string labels = obs::label("shard", std::to_string(i));
    if (!s.result.nrmse.empty()) {
      const double nrmse = s.result.nrmse.back();
      tsdb_.record("leaf_fleet_shard_nrmse", labels, tick, nrmse);
      meta_drift_.observe("shard" + std::to_string(i) + "_nrmse",
                          static_cast<int>(i), tick, nrmse);
    }
    tsdb_.record("leaf_fleet_shard_health", labels, tick,
                 static_cast<double>(s.health));
    tsdb_.record("leaf_fleet_shard_retrains", labels, tick,
                 static_cast<double>(s.result.retrain_count()));
    tsdb_.record("leaf_fleet_shard_drift_events", labels, tick,
                 static_cast<double>(s.result.drift_days.size()));
    tsdb_.record("leaf_fleet_shard_days_evaluated", labels, tick,
                 static_cast<double>(s.result.days.size()));
    if (s.health == ShardHealth::kQuarantined) quarantined += 1.0;
    faults += static_cast<double>(s.total_faults);
  }
  tsdb_.record("leaf_fleet_steps", "", tick,
               static_cast<double>(steps_run_));
  tsdb_.record("leaf_fleet_avg_nrmse", "", tick, current_avg_nrmse());
  tsdb_.record("leaf_fleet_shards_quarantined", "", tick, quarantined);
  tsdb_.record("leaf_fleet_faults", "", tick, faults);
  const double qrate =
      shards_.empty() ? 0.0
                      : quarantined / static_cast<double>(shards_.size());
  tsdb_.record("leaf_rule_quarantine_rate", "", tick, qrate);
  meta_drift_.observe("quarantine_rate", -1, tick, qrate);

  // Volatile net-plane deltas + their recording rules.
  record_net_deltas(tick);

  obs::MetricsRegistry::global()
      .gauge("leaf_telemetry_drift_state")
      .set(static_cast<double>(meta_drift_.state(sample_tick_)));
}

std::uint64_t FleetRuntime::run_to_end() {
  std::uint64_t n = 0;
  start();
  while (!done()) {
    step();
    ++n;
  }
  return n;
}

std::uint64_t FleetRuntime::run_steps(std::uint64_t n) {
  std::uint64_t ran = 0;
  start();
  for (; ran < n && !done(); ++ran) step();
  return ran;
}

std::vector<std::uint64_t> FleetRuntime::snapshot_generations(
    const std::string& dir) {
  std::vector<std::uint64_t> gens;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name == kLegacyFleetFile) {
      gens.push_back(0);
      continue;
    }
    unsigned long long gen = 0;
    int consumed = 0;
    if (std::sscanf(name.c_str(), "fleet-%llu.leafsnap%n", &gen,
                    &consumed) == 1 &&
        consumed == static_cast<int>(name.size()) && gen > 0)
      gens.push_back(gen);
  }
  std::sort(gens.begin(), gens.end());
  return gens;
}

bool FleetRuntime::has_snapshot(const std::string& dir) {
  return !snapshot_generations(dir).empty();
}

std::uint64_t FleetRuntime::snapshot(const std::string& dir) {
  if (!started_)
    throw io::SnapshotError("cannot snapshot before the fleet has started");
  static obs::Counter& failures_ctr =
      obs::MetricsRegistry::global().counter("leaf_snapshot_failures_total");
  // An unwritable directory is a write failure like any other: logged and
  // counted below, never fatal to the fleet.
  std::error_code dir_ec;
  std::filesystem::create_directories(dir, dir_ec);
  if (dir_ec) {
    failures_ctr.inc();
    LEAF_LOG_ERROR("serve: cannot create snapshot dir '%s': %s", dir.c_str(),
                   dir_ec.message().c_str());
    return 0;
  }
  io::SnapshotWriter writer;

  io::Serializer& meta = writer.section("meta");
  meta.put_u64(fleet_seed_);
  meta.put_u64(steps_run_);
  meta.put_u64(shards_.size());
  for (const auto& shard : shards_) {
    meta.put_string(data::to_string(shard->spec.kpi));
    meta.put_string(models::to_string(shard->spec.model));
    meta.put_string(shard->spec.scheme);
    meta.put_u64(shard->cfg.seed);
  }

  for (std::size_t i = 0; i < shards_.size(); ++i)
    shards_[i]->save(writer.section("shard" + std::to_string(i)));

  // v4: the telemetry store + meta-drift detector state ride along, so a
  // resumed run's stored series and detection trajectory continue
  // byte-identically.
  io::Serializer& ts = writer.section("tsdb");
  ts.put_u64(sample_tick_);
  tsdb_.save(ts);
  meta_drift_.save(ts);

  // Generation counter advances even when the write fails: the failed
  // generation number is burned, like a crashed deployment's would be.
  const std::uint64_t gen = ++snapshot_gen_;
  const std::string path = gen_path(dir, gen);

  std::vector<std::uint8_t> bytes = writer.encode();
  if (chaos_.enabled() && chaos_.corrupt_snapshot(gen)) {
    const int target =
        chaos_.corrupt_target(shards_.size(), gen);
    const auto payload = find_section_payload(
        bytes, "shard" + std::to_string(target));
    if (payload.has_value()) {
      bytes[payload->first + payload->second / 2] ^= 0x01;
      LEAF_LOG_WARN("serve: chaos corrupted shard %d in snapshot gen %llu",
                    target, static_cast<unsigned long long>(gen));
    }
  }

  const obs::Stopwatch sw;
  std::uint64_t written = 0;
  try {
    std::optional<io::ScopedWriteFault> fault;
    if (chaos_.enabled() && chaos_.partial_write(gen))
      fault.emplace(bytes.size() / 2);
    written = io::SnapshotWriter::write_bytes(path, bytes);
  } catch (const io::SnapshotError& e) {
    // A failed snapshot must not take the fleet down: serving continues on
    // the previous generations.
    failures_ctr.inc();
    LEAF_LOG_ERROR("serve: snapshot gen %llu failed: %s",
                   static_cast<unsigned long long>(gen), e.what());
    return 0;
  }
  const double secs = sw.seconds();

  // Retention: keep the newest snapshot_keep generations.
  const std::vector<std::uint64_t> gens = snapshot_generations(dir);
  if (gens.size() > static_cast<std::size_t>(supervisor_.snapshot_keep)) {
    const std::size_t drop =
        gens.size() - static_cast<std::size_t>(supervisor_.snapshot_keep);
    for (std::size_t i = 0; i < drop; ++i) {
      std::error_code ec;
      std::filesystem::remove(gen_path(dir, gens[i]), ec);
    }
  }

  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  reg.counter("leaf_snapshots_total").inc();
  reg.histogram("leaf_snapshot_write_seconds", obs::latency_buckets())
      .observe(secs);
  reg.latency("leaf_snapshot_seconds").observe(secs);
  reg.gauge("leaf_snapshot_bytes").set(static_cast<double>(written));
  // Operational message: deliberately NOT an event-log entry, or a resumed
  // run's event stream could never match an uninterrupted one.
  LEAF_LOG_INFO("serve: snapshot gen %llu at step %llu -> %s (%llu bytes)",
                static_cast<unsigned long long>(gen),
                static_cast<unsigned long long>(steps_run_), dir.c_str(),
                static_cast<unsigned long long>(written));
  return written;
}

void FleetRuntime::restore(const std::string& dir) {
  const std::vector<std::uint64_t> gens_asc = snapshot_generations(dir);
  if (gens_asc.empty())
    throw io::SnapshotError("no snapshot generations in '" + dir + "'");

  // Walk generations newest-first.  The newest generation with a valid,
  // matching meta section anchors steps_run; each shard restores from the
  // newest generation whose section parses, falling back per shard.
  std::vector<std::optional<Shard::Restored>> restored(shards_.size());
  std::vector<std::uint64_t> restored_gen(shards_.size(), 0);
  bool meta_ok = false;
  std::uint64_t anchor_gen = 0;
  std::uint64_t steps_run = 0;
  bool tsdb_ok = false;
  tsdb::Store restored_store(tsdb_.config());
  tsdb::MetaDrift restored_md(meta_drift_.config());
  std::uint64_t restored_tick = 0;
  std::string first_error;
  std::size_t remaining = shards_.size();
  const auto note_error = [&first_error](const std::string& what) {
    if (first_error.empty()) first_error = what;
  };

  for (auto it = gens_asc.rbegin(); it != gens_asc.rend() && remaining > 0;
       ++it) {
    const std::uint64_t gen = *it;
    std::optional<io::SnapshotReader> reader;
    try {
      reader.emplace(io::SnapshotReader::from_file(
          gen_path(dir, gen), io::SnapshotReader::ReadMode::kLenient));
    } catch (const io::SnapshotError& e) {
      note_error(e.what());  // unreadable container (magic/version/short)
      continue;
    }
    std::uint64_t gen_steps = 0;
    try {
      io::Deserializer meta = reader->section("meta");
      if (meta.get_u64() != fleet_seed_)
        throw FleetMismatch(
            "fleet seed mismatch between snapshot and runtime");
      gen_steps = meta.get_u64();
      if (meta.get_u64() != shards_.size())
        throw FleetMismatch(
            "shard count mismatch between snapshot and runtime");
      for (const auto& shard : shards_) {
        const std::string kpi = meta.get_string();
        const std::string model = meta.get_string();
        const std::string scheme = meta.get_string();
        const std::uint64_t seed = meta.get_u64();
        if (kpi != data::to_string(shard->spec.kpi) ||
            model != models::to_string(shard->spec.model) ||
            scheme != shard->spec.scheme || seed != shard->cfg.seed)
          throw FleetMismatch(
              "shard configuration mismatch between snapshot and runtime "
              "(snapshot: " + kpi + "/" + model + "/" + scheme + ")");
      }
    } catch (const FleetMismatch&) {
      throw;  // a *different* fleet is never something fallback repairs
    } catch (const io::SnapshotError& e) {
      note_error(e.what());  // damaged meta: this generation is unusable
      continue;
    }
    if (!meta_ok) {
      meta_ok = true;
      anchor_gen = gen;
      steps_run = gen_steps;
      // Telemetry rides with the anchor generation only (mixing store
      // history across generations would fabricate a timeline no run
      // produced).  A v3 file has no "tsdb" section and a damaged one is
      // demoted by the lenient reader: both restore as an empty store —
      // telemetry loss is never fatal to the fleet.
      if (reader->has("tsdb")) {
        try {
          io::Deserializer ts = reader->section("tsdb");
          restored_tick = ts.get_u64();
          restored_store.load(ts);
          restored_md.load(ts);
          tsdb_ok = true;
        } catch (const io::SnapshotError& e) {
          note_error(std::string("tsdb section: ") + e.what());
        }
      }
    }
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      if (restored[i].has_value()) continue;
      try {
        io::Deserializer in = reader->section("shard" + std::to_string(i));
        restored[i] = shards_[i]->parse(in);
        restored_gen[i] = gen;
        --remaining;
      } catch (const io::SnapshotError& e) {
        note_error("shard " + std::to_string(i) + " gen " +
                   std::to_string(gen) + ": " + e.what());
      }
    }
  }

  if (!meta_ok)
    throw io::SnapshotError("no readable snapshot generation in '" + dir +
                            "' (" + first_error + ")");
  if (remaining > 0) {
    std::string missing;
    for (std::size_t i = 0; i < shards_.size(); ++i)
      if (!restored[i].has_value())
        missing += (missing.empty() ? "" : ",") + std::to_string(i);
    throw io::SnapshotError("shard(s) " + missing +
                            " unreadable in every retained generation (" +
                            first_error + ")");
  }

  // Only a fully restorable fleet mutates the runtime.
  for (std::size_t i = 0; i < shards_.size(); ++i)
    shards_[i]->apply(std::move(*restored[i]));
  steps_run_ = steps_run;
  started_ = true;
  snapshot_gen_ = gens_asc.back();
  if (tsdb_ok) {
    tsdb_ = std::move(restored_store);
    meta_drift_ = std::move(restored_md);
    sample_tick_ = restored_tick;
  } else {
    tsdb_.clear();
    meta_drift_.clear();
    sample_tick_ = steps_run_;  // ticks re-anchor to the step boundary
  }
  // Net-delta baselines are process state, never snapshot state: a
  // resumed process restarts them at the current counter values.
  net_baselines_.clear();

  int fallbacks = 0;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if (restored_gen[i] == anchor_gen) continue;
    ++fallbacks;
    shards_[i]->emit_supervision(
        obs::EventKind::kSnapshotFallback, -1,
        "gen=" + std::to_string(restored_gen[i]) +
            ",newest=" + std::to_string(anchor_gen));
    LEAF_LOG_WARN("serve: shard %zu fell back to snapshot gen %llu "
                  "(newest %llu damaged)",
                  i, static_cast<unsigned long long>(restored_gen[i]),
                  static_cast<unsigned long long>(anchor_gen));
  }
  snapshot_fallbacks_ = fallbacks;
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  if (fallbacks > 0)
    reg.counter("leaf_snapshot_fallbacks_total")
        .inc(static_cast<std::uint64_t>(fallbacks));
  reg.counter("leaf_restores_total").inc();
  LEAF_LOG_INFO("serve: restored %zu shards at step %llu from %s (gen %llu)",
                shards_.size(), static_cast<unsigned long long>(steps_run_),
                dir.c_str(), static_cast<unsigned long long>(anchor_gen));
}

std::vector<core::EvalResult> FleetRuntime::results() const {
  std::vector<core::EvalResult> out;
  out.reserve(shards_.size());
  for (const auto& shard : shards_) out.push_back(shard->finalized_result());
  return out;
}

ServeStats FleetRuntime::stats() const {
  ServeStats stats;
  stats.total_steps = steps_run_;
  stats.snapshot_fallbacks = snapshot_fallbacks_;
  for (const auto& shard : shards_) {
    ShardStats s;
    s.kpi = data::to_string(shard->spec.kpi);
    s.model = shard->prototype->name();
    s.scheme = shard->scheme->name();
    s.steps = shard->steps;
    s.days_evaluated = static_cast<int>(shard->result.days.size());
    s.retrains = shard->result.retrain_count();
    s.drift_events = static_cast<int>(shard->result.drift_days.size());
    s.days_skipped = shard->result.degraded.days_skipped;
    s.nonfinite_errors = shard->result.degraded.nonfinite_errors;
    s.next_day = shard->next_day;
    s.done = shard->done;
    s.health = shard->health;
    s.faults = shard->total_faults;
    s.consecutive_failures = shard->consecutive_failures;
    s.backoff_until = shard->backoff_until;
    s.last_error = shard->last_error;
    s.breaker_state = shard->breaker.state_name();
    s.breaker_trips = shard->breaker.trips();
    s.suppressed_retrains = shard->result.degraded.suppressed_retrains;
    stats.total_retrains += s.retrains;
    stats.total_drift_events += s.drift_events;
    stats.total_faults += s.faults;
    stats.total_breaker_trips += s.breaker_trips;
    stats.total_suppressed_retrains += s.suppressed_retrains;
    if (s.done) ++stats.shards_done;
    if (s.health == ShardHealth::kQuarantined) ++stats.shards_quarantined;
    stats.shards.push_back(std::move(s));
  }
  return stats;
}

bool FleetRuntime::shard_ready(std::size_t i) const {
  const Shard& shard = *shards_.at(i);
  return shard.initialized && shard.health != ShardHealth::kQuarantined &&
         shard.model != nullptr && shard.model->trained();
}

int FleetRuntime::shard_num_features(std::size_t i) const {
  return shards_.at(i)->featurizer->num_features();
}

void FleetRuntime::predict_shard(std::size_t i, const Matrix& X,
                                 std::span<double> out) const {
  const Shard& shard = *shards_.at(i);
  if (!shard_ready(i))
    throw std::runtime_error("serve: shard " + std::to_string(i) +
                             " is not ready to serve predictions (" +
                             to_string(shard.health) + ")");
  if (static_cast<int>(X.cols()) != shard.featurizer->num_features())
    throw std::invalid_argument(
        "serve: predict expects " +
        std::to_string(shard.featurizer->num_features()) +
        " features, got " + std::to_string(X.cols()));
  if (out.size() != X.rows())
    throw std::invalid_argument("serve: predict output size mismatch");
  shard.model->predict_into(X, out);
}

void FleetRuntime::predict_shard(std::size_t i, const Matrix& X,
                                 std::span<double> out,
                                 obs::SpanCollector* spans) const {
  std::size_t span = 0;
  if (spans != nullptr) {
    span = spans->begin("shard-predict", static_cast<int>(i) + 1);
    spans->annotate(span, "\"shard\": " + std::to_string(i) +
                              ", \"rows\": " + std::to_string(X.rows()));
  }
  const obs::Stopwatch sw;
  predict_shard(i, X, out);
  obs::MetricsRegistry::global()
      .latency("leaf_shard_predict_seconds",
               obs::label("shard", std::to_string(i)))
      .observe(sw.seconds());
  if (spans != nullptr) spans->end(span);
}

double FleetRuntime::current_avg_nrmse() const {
  double acc = 0.0;
  std::size_t n = 0;
  for (const auto& shard : shards_) {
    if (shard->result.nrmse.empty()) continue;
    const double err = shard->result.nrmse.back();
    if (!std::isfinite(err)) continue;
    acc += err;
    ++n;
  }
  if (n == 0) return std::numeric_limits<double>::quiet_NaN();
  return acc / static_cast<double>(n);
}

std::vector<obs::Event> FleetRuntime::merged_events() const {
  std::vector<const obs::EventLog*> logs;
  logs.reserve(shards_.size());
  for (const auto& shard : shards_) logs.push_back(&shard->events);
  return obs::EventLog::merge(logs);
}

std::string FleetRuntime::events_jsonl(bool with_timing) const {
  return obs::EventLog::to_jsonl(merged_events(), with_timing);
}

std::vector<obs::Event> FleetRuntime::supervision_events() const {
  std::vector<const obs::EventLog*> logs;
  logs.reserve(shards_.size() + extra_supervision_.size() + 1);
  for (const auto& shard : shards_) logs.push_back(&shard->supervision);
  logs.push_back(&meta_drift_.events());
  for (const obs::EventLog* log : extra_supervision_) logs.push_back(log);
  return obs::EventLog::merge(logs);
}

std::string FleetRuntime::supervision_jsonl(bool with_timing) const {
  return obs::EventLog::to_jsonl(supervision_events(), with_timing);
}

std::string FleetRuntime::scrape(bool include_process) const {
  // Fleet-state-derived series: recomputed from shard state on every call,
  // so they are deterministic across LEAF_THREADS *and* across a
  // SIGKILL + restore cycle (unlike process-global registry counters,
  // which are process-lifetime).
  std::string out;
  char buf[160];
  const auto line = [&](const char* name, const std::string& labels,
                        long long v) {
    std::snprintf(buf, sizeof buf, "%s{%s} %lld\n", name, labels.c_str(), v);
    out += buf;
  };
  const ServeStats st = stats();
  struct ShardSeries {
    const char* name;
    long long (*get)(const ShardStats&);
  };
  static constexpr ShardSeries kShardSeries[] = {
      {"leaf_fleet_shard_steps",
       [](const ShardStats& s) { return static_cast<long long>(s.steps); }},
      {"leaf_fleet_shard_days_evaluated",
       [](const ShardStats& s) { return static_cast<long long>(s.days_evaluated); }},
      {"leaf_fleet_shard_retrains",
       [](const ShardStats& s) { return static_cast<long long>(s.retrains); }},
      {"leaf_fleet_shard_drift_events",
       [](const ShardStats& s) { return static_cast<long long>(s.drift_events); }},
      {"leaf_fleet_shard_days_skipped",
       [](const ShardStats& s) { return static_cast<long long>(s.days_skipped); }},
      {"leaf_fleet_shard_done",
       [](const ShardStats& s) { return static_cast<long long>(s.done ? 1 : 0); }},
      {"leaf_fleet_shard_health",
       [](const ShardStats& s) { return static_cast<long long>(s.health); }},
      {"leaf_fleet_shard_faults",
       [](const ShardStats& s) { return static_cast<long long>(s.faults); }},
      {"leaf_fleet_shard_suppressed_retrains",
       [](const ShardStats& s) {
         return static_cast<long long>(s.suppressed_retrains);
       }},
      {"leaf_fleet_shard_breaker_open",
       [](const ShardStats& s) {
         return static_cast<long long>(s.breaker_state == "open" ? 1 : 0);
       }},
  };
  for (const ShardSeries& series : kShardSeries) {
    out += "# TYPE ";
    out += series.name;
    out += " gauge\n";
    for (std::size_t i = 0; i < st.shards.size(); ++i) {
      const ShardStats& s = st.shards[i];
      const std::string labels =
          obs::label("shard", std::to_string(i)) + "," +
          obs::label("kpi", s.kpi) + "," + obs::label("model", s.model) +
          "," + obs::label("scheme", s.scheme);
      line(series.name, labels, series.get(s));
    }
  }
  const auto total = [&out](const char* name, long long v) {
    out += "# TYPE ";
    out += name;
    out += " gauge\n";
    out += name;
    out += " " + std::to_string(v) + "\n";
  };
  total("leaf_fleet_steps", static_cast<long long>(st.total_steps));
  total("leaf_fleet_shards", static_cast<long long>(st.shards.size()));
  total("leaf_fleet_shards_done", static_cast<long long>(st.shards_done));
  total("leaf_fleet_shards_quarantined",
        static_cast<long long>(st.shards_quarantined));
  total("leaf_fleet_retrains", st.total_retrains);
  total("leaf_fleet_drift_events", st.total_drift_events);
  total("leaf_fleet_faults", st.total_faults);
  total("leaf_fleet_breaker_trips", st.total_breaker_trips);
  total("leaf_fleet_suppressed_retrains", st.total_suppressed_retrains);
  total("leaf_fleet_snapshot_fallbacks", st.snapshot_fallbacks);
  if (include_process) out += obs::MetricsRegistry::global().scrape();
  return out;
}

}  // namespace leaf::serve
