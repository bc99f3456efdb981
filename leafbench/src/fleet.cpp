// fleet — a catch-up run shaped like `leafctl serve`.
//
// One pass: build the 12-shard FleetRuntime (LEAF_THREADS=2), bind a
// TcpServer, then step the fleet to the end with the server polled
// between steps, a snapshot every kSnapshotEvery steps and one mid-run
// kill-and-resume (a fresh runtime plus restore()).  A client thread
// sends a light open-loop Poisson predict stream the whole time (the
// loadgen.hpp predict mix: 30% 32-row batches, the rest single rows), so
// retrain steps hold up queued requests exactly as they do in leafctl.
#include <sys/resource.h>

#include <filesystem>
#include <thread>

#include "fleetkit.hpp"
#include "net/tcp.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "hostref.hpp"
#include "par/pool.hpp"
#include "spans.hpp"
#include "tracefile.hpp"
#include "workloads.hpp"

namespace leafbench {
namespace {

using namespace leaf;

constexpr std::uint64_t kSnapshotEvery = 50;
constexpr double kRate = 200.0;  ///< predict requests per second, open loop
constexpr int kIdleTicks = 200;

struct PassOut {
  double setup_s = 0.0;
  double stepping_s = 0.0;
  double cpu_s = 0.0;  ///< process CPU over the stepping, client excluded
  double shard_days = 0.0;
  std::uint64_t steps = 0;
  std::uint64_t retrains = 0;
  std::vector<double> step_s;
  std::vector<bool> step_retrained;
  std::vector<double> poll_s;
  std::vector<double> snapshot_s;
  std::uint64_t snapshot_bytes = 0;
  double restore_s = 0.0;
  std::vector<core::EvalResult> results;
  OpenResult client;
  double client_cpu_s = 0.0;
  std::vector<double> sample_s;  ///< idle-tick sample_telemetry() (traced)
  std::size_t series = 0;        ///< telemetry series after the pass
};

/// One catch-up pass.  `tracer` non-null attaches server-side tracing.
PassOut run_pass(const Options& opt, int pass, obs::Tracer* tracer,
                 SpanLog* log, Outcome& out) {
  PassOut po;
  const Scale scale = fleet_scale();
  const std::uint64_t pass_seed = sub_seed(opt.seed, static_cast<std::uint64_t>(pass));
  const FleetSeeds seeds(pass_seed);
  const std::string snap_dir =
      opt.out_dir + "/fleet-snap-" + std::to_string(opt.seed);
  std::filesystem::remove_all(snap_dir);

  // --- set-up: dataset, featurizers + runtime, initial fits, bind.
  const double t_setup = now_s();
  const data::CellularDataset ds = data::generate_fixed_dataset(scale, seeds.data);
  auto fleet = std::make_unique<serve::FleetRuntime>(ds, scale, fleet_specs(),
                                                     seeds.fleet);
  auto server = std::make_unique<net::TcpServer>(*fleet, "127.0.0.1", 0);
  if (tracer != nullptr) server->core().set_tracer(tracer);
  const int port = server->port();
  fleet->step();  // lazily performs the initial fits
  po.setup_s = now_s() - t_setup;

  const RowPools pools(ds, fleet_specs());
  const RowSource rows = pools.source();
  const std::vector<Req> sched =
      open_schedule(pass_seed, kRate, 120.0, 12, kPoolRows, 0.0);

  Control ctl;
  ctl.port = port;
  const double t0 = now_s();
  std::thread client([&] {
    const double c0 = cpu_seconds(RUSAGE_THREAD);
    po.client = run_open(sched, rows, ctl, 2, t0, false);
    po.client_cpu_s = cpu_seconds(RUSAGE_THREAD) - c0;
  });
  const auto stop_client = [&] {
    ctl.stop = true;
    while (!ctl.finished.load() && server != nullptr) server->poll_once(1);
    client.join();
  };

  try {
    const double cpu0 = cpu_seconds(RUSAGE_SELF);
    bool resumed = false;
    int prev_retrains = fleet->stats().total_retrains;
    while (true) {
      const double a = now_s();
      bool more;
      {
        Scoped s(log, "step");
        more = fleet->step();
      }
      const double b = now_s();
      if (!more) break;
      const int r = fleet->stats().total_retrains;
      po.step_s.push_back(b - a);
      po.step_retrained.push_back(r > prev_retrains);
      prev_retrains = r;
      ++po.steps;

      if (fleet->steps_run() % kSnapshotEvery == 0) {
        Scoped s(log, "snapshot");
        const double c = now_s();
        po.snapshot_bytes = fleet->snapshot(snap_dir);
        po.snapshot_s.push_back(now_s() - c);
        if (po.snapshot_bytes == 0) out.fail("fleet snapshot write failed");

        // Mid-run kill-and-resume from the snapshot just written.
        if (!resumed && fleet->steps_run() >= 2 * kSnapshotEvery &&
            !fleet->done()) {
          resumed = true;
          const std::vector<core::EvalResult> at_snap = fleet->results();
          ctl.want_pause = true;
          while (!ctl.paused.load() && !ctl.finished.load())
            server->poll_once(1);
          Scoped rs(log, "restore");
          const double c2 = now_s();
          server.reset();
          fleet.reset();
          fleet = std::make_unique<serve::FleetRuntime>(ds, scale, fleet_specs(),
                                                        seeds.fleet);
          fleet->restore(snap_dir);
          server = std::make_unique<net::TcpServer>(*fleet, "127.0.0.1",
                                                    static_cast<std::uint16_t>(port));
          if (tracer != nullptr) server->core().set_tracer(tracer);
          po.restore_s = now_s() - c2;
          out.attempted += 1;
          if (!same_evals(fleet->results(), at_snap)) {
            out.failed += 1;
            out.fail("resumed fleet differs from the run at the snapshot step");
          }
          ctl.want_pause = false;
        }
      }
      {
        Scoped s(log, "poll");
        const double c = now_s();
        server->poll_once(0);
        po.poll_s.push_back(now_s() - c);
      }
    }
    po.stepping_s = now_s() - t0;
    po.cpu_s = cpu_seconds(RUSAGE_SELF) - cpu0;
    // Traced pass only: idle ticks as `leafctl serve` runs them once the
    // fleet is done (poll, then sample telemetry), to time the tsdb layer.
    for (int i = 0; log != nullptr && i < kIdleTicks; ++i) {
      server->poll_once(0);
      const double c = now_s();
      fleet->sample_telemetry();
      po.sample_s.push_back(now_s() - c);
    }
    // Stop the stream: answer what is in flight, send nothing new.
    stop_client();
    po.cpu_s -= po.client_cpu_s;
  } catch (...) {
    stop_client();
    throw;
  }

  const serve::ServeStats st = fleet->stats();
  po.retrains = static_cast<std::uint64_t>(st.total_retrains);
  for (const serve::ShardStats& s : st.shards)
    po.shard_days += static_cast<double>(s.days_evaluated) * scale.eval_stride_days;
  po.results = fleet->results();
  po.series = fleet->telemetry().num_series();
  if (!fleet->done()) out.fail("fleet did not finish its catch-up");
  std::filesystem::remove_all(snap_dir);
  return po;
}

/// Predict latencies of one pass, timed from the due time.
void collect_latency(const PassOut& po, std::vector<double>& lat,
                     std::vector<double>& late, Outcome& out) {
  for (const Rec& r : po.client.recs) {
    if (r.sent < 0.0) continue;  // never sent before the stream stopped
    out.attempted += 1;
    if (!r.ok) out.failed += 1;
    lat.push_back(due_latency(r.due, r.done, r.ok));
    late.push_back(r.sent - r.due);
  }
}

}  // namespace

Outcome run_fleet(const Options& opt) {
  Outcome out;
  par::set_threads(2);

  std::vector<double> setups, lat, late;
  double all_days = 0.0, all_wall = 0.0;  // over every pass
  PassOut first;
  const double t_end = now_s() + opt.seconds;
  for (int p = 0; p < 5 || now_s() < t_end; ++p) {
    take_reference(out.reference_s);
    PassOut po = run_pass(opt, p, nullptr, nullptr, out);
    take_reference(out.reference_s);
    if (!po.client.error.empty()) out.fail("client: " + po.client.error);
    setups.push_back(po.setup_s);
    all_days += po.shard_days;
    all_wall += po.stepping_s;
    collect_latency(po, lat, late, out);
    if (p == 0) first = std::move(po);
    if (p >= 200) break;
  }

  // At least one shard per model family must equal core::run_scheme for
  // the same spec and derived seed.
  {
    const Scale scale = fleet_scale();
    const FleetSeeds seeds(sub_seed(opt.seed, 0));
    const data::CellularDataset ds =
        data::generate_fixed_dataset(scale, seeds.data);
    const std::vector<serve::ShardSpec> specs = fleet_specs();
    for (std::size_t i = 0; i < 3; ++i) {
      out.attempted += 1;
      if (!same_eval(reference_run(ds, scale, specs[i], seeds.fleet, i),
                     first.results[i])) {
        out.failed += 1;
        out.fail("shard " + std::to_string(i) + " (" +
                 models::to_string(specs[i].model) +
                 ") differs from core::run_scheme");
      }
    }
  }

  const TailSummary busy =
      latency_summary(lat, out, "busy predict latency (due time)");
  const double setup = median(setups);
  out.named = {
      {"setup_s", setup, "s", setups.size(),
       "median over passes: dataset + runtime + initial fits + bind"},
      {"shard_days_per_s", all_days / all_wall, "1/s", setups.size(),
       "summed over passes; " + std::to_string(first.shard_days) +
           " shard-days per pass"},
      ms_metric("busy_p99_ms", busy.tail, busy.n,
                "predict latency from due time while stepping, p" +
                    std::to_string(busy.tail_pct)),
  };
  if (!opt.trace) {
    out.end_to_end = {
        {"setup_s", setup, "s", setups.size(), "median of per-pass set-ups"},
        {"work_per_s", all_days / all_wall, "1/s", setups.size(),
         "shard-days per second of stepping wall, summed over passes"},
    };
    add_latency_pair(out, lat, "busy predict latency (due time)");
    // Same-seed runs in a fast and a slow host period differ by up to a
    // third raw, and by a few percent scaled (README.md, Host-speed
    // reference).
    for (Metric& m : out.end_to_end) m.host_scaled = true;
    return out;
  }

  // Pass 0 again untraced, then traced: the tracer on the server and
  // spans around steps, polls, snapshots and the restore.
  const PassOut again = run_pass(opt, 0, nullptr, nullptr, out);
  if (!again.client.error.empty()) out.fail("client: " + again.client.error);
  const double untraced_wall = again.stepping_s;
  obs::MetricsRegistry::global().reset_values();
  SpanLog log;
  const std::string trace_path =
      opt.out_dir + "/fleet-" + std::to_string(opt.seed) + ".trace.json";
  obs::Tracer tracer(trace_path, 1);
  PassOut tp = run_pass(opt, 0, &tracer, &log, out);
  if (!tp.client.error.empty()) out.fail("client: " + tp.client.error);
  tracer.close();
  if (!tracer.ok()) out.fail("trace sink: " + tracer.error());
  out.attempted += 1;
  if (!same_evals(tp.results, first.results)) {
    out.failed += 1;
    out.fail("traced pass results differ from the untraced pass");
  }

  double retrain_wall = 0.0, step_wall = 0.0, step_max = 0.0;
  for (std::size_t i = 0; i < tp.step_s.size(); ++i) {
    step_wall += tp.step_s[i];
    step_max = std::max(step_max, tp.step_s[i]);
    if (tp.step_retrained[i]) retrain_wall += tp.step_s[i];
  }
  const TailSummary steps = tail_summary(tp.step_s);
  std::vector<double> r50, r99;
  for (std::size_t i = 0; i < 12; ++i) {
    obs::LatencyHistogram& h = obs::MetricsRegistry::global().latency(
        "leaf_shard_retrain_seconds", obs::label("shard", std::to_string(i)));
    if (h.count() == 0) continue;
    r50.push_back(h.quantile(0.5));
    r99.push_back(h.quantile(0.99));
  }
  double r99max = 0.0;
  for (double v : r99) r99max = std::max(r99max, v);
  const TailSummary polls = tail_summary(tp.poll_s);
  const TailSummary gen = tail_summary(late);

  std::vector<Metric>& L = out.per_layer;
  L.push_back(ms_metric("serve.step_ms.p50", steps.median, steps.n));
  L.push_back(ms_metric("serve.step_ms.p99", percentile(tp.step_s, 0.99), steps.n));
  L.push_back(ms_metric("serve.step_ms.max", step_max, steps.n));
  L.push_back({"serve.retrain_step_share", retrain_wall / tp.stepping_s,
               "ratio", 0,
               "base: " + std::to_string(tp.stepping_s) +
                   " s stepping wall (steps alone " +
                   std::to_string(step_wall) + " s)"});
  L.push_back(ms_metric("serve.retrain_ms.p50", median(r50), r50.size(),
                        "median over shards of leaf_shard_retrain_seconds p50"));
  L.push_back(ms_metric("serve.retrain_ms.p99", r99max, r99.size(),
                        "max over shards of leaf_shard_retrain_seconds p99"));
  L.push_back({"serve.steps", static_cast<double>(tp.steps), "count", 0, ""});
  L.push_back({"serve.retrains", static_cast<double>(tp.retrains), "count", 0, ""});
  L.push_back({"serve.stepping_s", tp.stepping_s, "s", 0, "traced pass"});
  L.push_back({"par.cpu_per_wall", tp.cpu_s / tp.stepping_s, "ratio", 0,
               "base: " + std::to_string(tp.cpu_s) + " CPU-s (client thread "
               "excluded) / " + std::to_string(tp.stepping_s) + " s wall"});
  L.push_back(ms_metric("io.snapshot_ms", median(tp.snapshot_s),
                        tp.snapshot_s.size(), "median"));
  L.push_back({"io.snapshot_bytes", static_cast<double>(tp.snapshot_bytes),
               "bytes", 0, "last snapshot"});
  L.push_back(ms_metric("io.restore_ms", tp.restore_s, 1,
                        "fresh runtime + restore + rebind"));
  L.push_back(ms_metric("net.poll_ms.p50", polls.median, polls.n));
  L.push_back(ms_metric("net.poll_ms.p99", percentile(tp.poll_s, 0.99), polls.n));
  add_net_self_times(trace_path, L);
  const obs::Histogram& rows_h = obs::MetricsRegistry::global().histogram(
      "leaf_net_batch_rows", {1, 2, 4, 8, 16, 32, 64, 128});
  L.push_back({"net.rows_per_pass",
               rows_h.count() ? rows_h.sum() / static_cast<double>(rows_h.count()) : 0.0,
               "rows", 0, "base: net.passes"});
  L.push_back({"net.passes", static_cast<double>(rows_h.count()), "count", 0,
               "traced pass"});
  std::size_t sent = 0, bad = 0;
  for (const Rec& r : tp.client.recs) {
    if (r.sent < 0.0) continue;
    ++sent;
    bad += r.ok ? 0 : 1;
  }
  out.attempted += sent;
  out.failed += bad;
  L.push_back({"net.fail_frac", sent ? static_cast<double>(bad) / static_cast<double>(sent) : 0.0,
               "ratio", 0, "base: net.requests"});
  L.push_back({"net.requests", static_cast<double>(sent), "count", 0, "traced pass"});
  L.push_back({"tsdb.sample_us", median(tp.sample_s) * 1e6, "us",
               tp.sample_s.size(), "median idle-tick sample_telemetry()"});
  L.push_back({"tsdb.series", static_cast<double>(tp.series), "count", 0, ""});
  L.push_back({"obs.trace_overhead_pct",
               100.0 * (tp.stepping_s - untraced_wall) / untraced_wall, "%", 0,
               "traced minus untraced stepping wall of pass 0 (base " +
                   std::to_string(untraced_wall) + " s)"});
  L.push_back(ms_metric("bench.gen_late_ms.p99", gen.tail, gen.n,
                        "untraced passes, p" + std::to_string(gen.tail_pct)));
  if (!write_spans(opt.out_dir + "/fleet-" + std::to_string(opt.seed) +
                       ".spans.json",
                   log.spans()))
    out.fail("cannot write the span file");
  return out;
}

}  // namespace leafbench
