// rpc — quiet serving of the finished fleet (LEAF_THREADS=2).
//
// Preparation (untimed): step the 12-shard fleet to the end once and
// snapshot it.  Set-up (timed, three times): generate the dataset, build
// a fresh runtime, restore the snapshot and bind a TcpServer — a serving
// process starting from its last snapshot.  Then kWindows rounds of two
// phases against that server, whose loop polls the socket and calls
// fleet.sample_telemetry() on every tick, as `leafctl serve` does once
// stepping is over:
//
//   fixed rate  open-loop Poisson at kRate/s over four connections from
//               one client thread: single-row and 32-row predicts across
//               all shards plus a small share of status / scrape /
//               query-series reads.  Latency is timed from the due time.
//   capacity    closed loop, four connections, one request in flight on
//               each, the same request mix; requests per second per
//               block of kBlock answers.
//
// After each window every predict answer is checked bit for bit against
// fleet.predict_shard on the same rows.
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

/// Offered rate of the fixed-rate phase, about half the closed-loop
/// capacity measured when the benchmark was defined (see README.md).
constexpr double kRate = 2000.0;
/// The fixed-rate phase runs as kWindows windows spread over the run, each
/// on its own schedule.  A window holds about kRate x kWindowSeconds =
/// 2000 requests, so the percentile rule picks p99 in each; the metrics
/// (p50, the gated p95 and the reported p99) are medians over windows.
constexpr double kWindowSeconds = 1.0;
constexpr int kWindows = 10;
constexpr std::uint64_t kBlock = 1000;
constexpr int kConns = 4;

/// Share of status / scrape / query-series reads in the request mix.
constexpr double kReadShare = 0.02;

/// The server side of one phase: poll + telemetry sample per tick until
/// the client thread is done.
struct ServerLoop {
  std::vector<double> poll_s;
  std::vector<double> sample_s;

  void run(net::TcpServer& server, serve::FleetRuntime& fleet,
           const std::atomic<bool>& done) {
    while (!done.load()) {
      double a = now_s();
      server.poll_once(1);
      double b = now_s();
      fleet.sample_telemetry();
      poll_s.push_back(b - a);
      sample_s.push_back(now_s() - b);
    }
  }
};

struct Served {
  std::unique_ptr<data::CellularDataset> ds;
  std::unique_ptr<serve::FleetRuntime> fleet;
  std::unique_ptr<net::TcpServer> server;
};

/// Set-up: dataset + runtime + restore of the finished fleet + bind.
Served bring_up(const FleetSeeds& seeds, const std::string& snap_dir) {
  Served s;
  const Scale scale = fleet_scale();
  s.ds = std::make_unique<data::CellularDataset>(
      data::generate_fixed_dataset(scale, seeds.data));
  s.fleet = std::make_unique<serve::FleetRuntime>(*s.ds, scale, fleet_specs(),
                                                  seeds.fleet);
  s.fleet->restore(snap_dir);
  s.server = std::make_unique<net::TcpServer>(*s.fleet, "127.0.0.1", 0);
  return s;
}

struct FixedOut {
  OpenResult client;
  ServerLoop loop;
};

FixedOut fixed_phase(Served& sv, const std::vector<Req>& sched,
                     const RowSource& rows) {
  FixedOut fo;
  Control ctl;
  ctl.port = sv.server->port();
  const double t0 = now_s() + 0.01;
  std::thread client(
      [&] { fo.client = run_open(sched, rows, ctl, kConns, t0, true); });
  fo.loop.run(*sv.server, *sv.fleet, ctl.finished);
  client.join();
  return fo;
}

/// Predict latencies (due time) and failure count of a fixed-rate phase.
std::vector<double> predict_latency(const std::vector<Req>& sched,
                                    const OpenResult& r, Outcome& out,
                                    std::vector<double>* late) {
  std::vector<double> lat;
  for (std::size_t i = 0; i < sched.size(); ++i) {
    const Rec& rec = r.recs[i];
    out.attempted += 1;
    if (!rec.ok) out.failed += 1;
    if (late != nullptr && rec.sent >= 0.0) late->push_back(rec.sent - rec.due);
    if (sched[i].type == net::MsgType::kPredict ||
        sched[i].type == net::MsgType::kBatchPredict)
      lat.push_back(due_latency(rec.due, rec.done, rec.ok));
  }
  return lat;
}

/// Every predict answer must equal fleet.predict_shard on the same rows.
void verify_answers(const Served& sv, const std::vector<Req>& sched,
                    const OpenResult& r, const RowPools& pools, Outcome& out) {
  std::size_t bad = 0;
  for (std::size_t i = 0; i < sched.size(); ++i) {
    const Req& q = sched[i];
    if (q.rows == 0 || !r.recs[i].ok) continue;
    const Matrix X = pools.rows(q.shard, q.row_offset, q.rows);
    std::vector<double> want(X.rows());
    sv.fleet->predict_shard(q.shard, X, want);
    if (!same_bits(want, r.recs[i].values)) ++bad;
  }
  if (bad > 0)
    out.fail(std::to_string(bad) +
             " predict answers differ from fleet.predict_shard");
}

}  // namespace

Outcome run_rpc(const Options& opt) {
  Outcome out;
  par::set_threads(2);
  const FleetSeeds seeds(opt.seed);
  const std::string snap_dir =
      opt.out_dir + "/rpc-snap-" + std::to_string(opt.seed);

  // Preparation: the finished fleet, snapshotted once.
  std::filesystem::remove_all(snap_dir);
  {
    const Scale scale = fleet_scale();
    const data::CellularDataset ds =
        data::generate_fixed_dataset(scale, seeds.data);
    serve::FleetRuntime fleet(ds, scale, fleet_specs(), seeds.fleet);
    fleet.run_to_end();
    if (fleet.snapshot(snap_dir) == 0) {
      out.fail("cannot snapshot the finished fleet");
      return out;
    }
  }

  std::vector<double> setups;
  Served sv;
  for (int i = 0; i < 3; ++i) {
    sv.server.reset();  // tear down in reverse order of construction
    sv.fleet.reset();
    sv.ds.reset();
    const double t0 = now_s();
    sv = bring_up(seeds, snap_dir);
    setups.push_back(now_s() - t0);
  }
  const RowPools pools(*sv.ds, fleet_specs());
  const RowSource rows = pools.source();
  // kWindows fixed-rate windows, each followed by a closed-loop capacity
  // chunk, so both phases sample the whole run rather than one stretch.
  const double cap_chunk =
      std::max(0.5, (opt.seconds - kWindows * kWindowSeconds) / kWindows);
  std::vector<std::vector<Req>> scheds;
  std::vector<double> late, w50, w95, w99, poll_s, sample_s, cap_rates;
  std::size_t n_lat = 0, n_req = 0, n_fail = 0;
  for (int w = 0; w < kWindows; ++w) {
    take_reference(out.reference_s);
    scheds.push_back(open_schedule(sub_seed(opt.seed, static_cast<std::uint64_t>(w)),
                                   kRate, kWindowSeconds, 12, kPoolRows, kReadShare));
    const FixedOut fo = fixed_phase(sv, scheds.back(), rows);
    if (!fo.client.error.empty()) out.fail("client: " + fo.client.error);
    const std::vector<double> wlat =
        predict_latency(scheds.back(), fo.client, out, &late);
    const TailSummary t = tail_summary(wlat);
    if (t.tail_pct != 99.0)
      out.fail("fixed-rate window: " + std::to_string(t.n) +
               " predicts; the percentile rule needs 1000..9999 to pick p99");
    w50.push_back(t.median);
    w95.push_back(percentile(wlat, 0.95));
    w99.push_back(t.tail);
    n_lat += t.n;
    n_req += scheds.back().size();
    for (const Rec& r : fo.client.recs) n_fail += r.ok ? 0 : 1;
    verify_answers(sv, scheds.back(), fo.client, pools, out);
    poll_s.insert(poll_s.end(), fo.loop.poll_s.begin(), fo.loop.poll_s.end());
    sample_s.insert(sample_s.end(), fo.loop.sample_s.begin(), fo.loop.sample_s.end());

    ClosedResult cap;
    std::atomic<bool> done{false};
    std::thread client([&] {
      cap = run_closed(scheds.back(), rows, sv.server->port(), kConns,
                       cap_chunk, kBlock);
      done = true;
    });
    ServerLoop loop;
    loop.run(*sv.server, *sv.fleet, done);
    client.join();
    if (!cap.error.empty()) out.fail("capacity client: " + cap.error);
    out.attempted += cap.answered + cap.failed;
    out.failed += cap.failed;
    for (double b : cap.block_s) cap_rates.push_back(static_cast<double>(kBlock) / b);
  }
  const std::vector<Req>& sched = scheds.front();
  if (cap_rates.size() < 10) out.fail("capacity phase completed fewer than 10 blocks");

  const double setup = median(setups);
  const double p50 = median(w50);
  out.named = {
      {"setup_s", setup, "s", setups.size(),
       "median of 3: dataset + runtime + restore + bind"},
      ms_metric("p50_ms", p50, n_lat,
                "median over " + std::to_string(kWindows) +
                    " windows of the predict latency from due time at " +
                    std::to_string(kRate) + " req/s"),
      ms_metric("p99_ms", median(w99), n_lat,
                "median over windows of each window's p99"),
      {"capacity_rps", median(cap_rates), "1/s", cap_rates.size(),
       "closed loop, 4 connections, median over blocks of " +
           std::to_string(kBlock)},
  };
  if (!opt.trace) {
    out.end_to_end = {
        {"setup_s", setup, "s", setups.size(), "median of 3 set-ups"},
        {"work_per_s", median(cap_rates), "1/s", cap_rates.size(),
         "closed-loop requests per second (capacity_rps)"},
    };
    out.end_to_end.push_back(out.named[1]);
    out.end_to_end.push_back(ms_metric("p95_ms", median(w95), n_lat,
                                       "median over windows of each window's p95"));
    std::filesystem::remove_all(snap_dir);
    return out;
  }

  // Window 0 again with the library tracer on every request.
  obs::MetricsRegistry::global().reset_values();
  const std::string trace_path =
      opt.out_dir + "/rpc-" + std::to_string(opt.seed) + ".trace.json";
  FixedOut traced;
  {
    obs::Tracer tracer(trace_path, 1);
    sv.server->core().set_tracer(&tracer);
    traced = fixed_phase(sv, sched, rows);
    sv.server->core().set_tracer(nullptr);
    tracer.close();
    if (!tracer.ok()) out.fail("trace sink: " + tracer.error());
  }
  Outcome scratch;
  const std::vector<double> tlat = predict_latency(sched, traced.client, scratch, nullptr);
  out.attempted += scratch.attempted;
  out.failed += scratch.failed;
  verify_answers(sv, sched, traced.client, pools, out);
  const TailSummary tt = tail_summary(tlat);

  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  const obs::Histogram& rows_h =
      reg.histogram("leaf_net_batch_rows", {1, 2, 4, 8, 16, 32, 64, 128});
  const TailSummary polls = tail_summary(poll_s);
  const TailSummary gen = tail_summary(late);

  std::vector<Metric>& L = out.per_layer;
  L.push_back(ms_metric("net.poll_ms.p50", polls.median, polls.n, "untraced"));
  L.push_back(ms_metric("net.poll_ms.p99", percentile(poll_s, 0.99), polls.n));
  add_net_self_times(trace_path, L);
  L.push_back({"net.rows_per_pass",
               rows_h.count() ? rows_h.sum() / static_cast<double>(rows_h.count()) : 0.0,
               "rows", 0, "base: net.passes"});
  L.push_back({"net.passes", static_cast<double>(rows_h.count()), "count", 0,
               "traced phase"});
  L.push_back({"net.fail_frac",
               static_cast<double>(n_fail) / static_cast<double>(n_req),
               "ratio", 0, "base: net.requests"});
  L.push_back({"net.requests", static_cast<double>(n_req), "count", 0,
               "untraced fixed-rate windows"});
  L.push_back({"tsdb.sample_us", median(sample_s) * 1e6, "us",
               sample_s.size(), "median sample_telemetry() per tick"});
  L.push_back({"tsdb.series", static_cast<double>(sv.fleet->telemetry().num_series()),
               "count", 0, ""});
  L.push_back({"obs.trace_overhead_pct", 100.0 * (tt.median - p50) / p50,
               "%", 0,
               "traced window 0 p50 minus the untraced p50_ms (base " +
                   std::to_string(p50 * 1e3) + " ms)"});
  L.push_back(ms_metric("bench.gen_late_ms.p99", gen.tail, gen.n,
                        "p" + std::to_string(gen.tail_pct)));
  std::filesystem::remove_all(snap_dir);
  return out;
}

}  // namespace leafbench
