// leafbench — the repository benchmark program.
//
//   leafbench --workload table4|fleet|rpc --seed N --seconds S --trace 0|1
//
// Prints a human-readable report (every metric with its unit, sample
// count and how it was formed), then, as the last line, one JSON object:
// {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
// metrics are the end-to-end set, with --trace 1 the per-layer set (every
// per-layer name is printed on every workload; a layer a workload does
// not exercise reads 0).  With --trace 0 the line before it is a JSON
// object with the raw (unscaled) end-to-end values and the host reference
// time.  Any verification failure exits 1 without the JSON lines.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "hostref.hpp"
#include "obs/log.hpp"
#include "workloads.hpp"

namespace leafbench {

Metric ms_metric(const std::string& name, double seconds, std::size_t n,
                 const std::string& note) {
  return {name, seconds * 1e3, "ms", n, note};
}

TailSummary latency_summary(const std::vector<double>& lat_s, Outcome& out,
                            const std::string& what) {
  const TailSummary t = tail_summary(thin(lat_s, kMaxLatencySamples));
  if (t.tail_pct != 99.0)
    out.fail(what + ": " + std::to_string(t.n) +
             " samples; the percentile rule needs 1000..9999 to pick p99");
  return t;
}

void add_latency_pair(Outcome& out, const std::vector<double>& lat_s,
                      const std::string& what) {
  const std::vector<double> kept = thin(lat_s, kMaxLatencySamples);
  const TailSummary t = tail_summary(kept);
  const std::string note = what + ", " + std::to_string(t.n) + " of " +
                           std::to_string(lat_s.size()) + " samples, " +
                           std::to_string(t.n / 20) + " beyond p95";
  out.end_to_end.push_back(ms_metric("p50_ms", t.median, t.n, what));
  out.end_to_end.push_back(ms_metric("p95_ms", percentile(kept, 0.95), t.n, note));
}

namespace {

/// Every per-layer metric and its unit, in report order (BENCHMARK.json
/// lists the same set).  Each traced run prints all of them; a metric the
/// workload does not produce reads 0.
struct LayerMetric {
  const char* name;
  const char* unit;
};
const LayerMetric kPerLayer[] = {
    {"models.fit_s.gbdt", "s"},
    {"models.fit_calls.gbdt", "count"},
    {"models.predict_s.gbdt", "s"},
    {"models.predict_rows.gbdt", "count"},
    {"models.fit_s.knn", "s"},
    {"models.fit_calls.knn", "count"},
    {"models.predict_s.knn", "s"},
    {"models.predict_rows.knn", "count"},
    {"models.fit_s.lstm", "s"},
    {"models.fit_calls.lstm", "count"},
    {"models.predict_s.lstm", "s"},
    {"models.predict_rows.lstm", "count"},
    {"core.fits_per_retrain.LEAF", "ratio"},
    {"core.self_s", "s"},
    {"core.retrains.Static", "count"},
    {"core.retrains.Triggered", "count"},
    {"core.retrains.LEAF", "count"},
    {"core.eval_days", "count"},
    {"core.leaf_dnrmse_pct", "%"},
    {"explain.self_s", "s"},
    {"simd.calls.axpy", "count"},
    {"simd.calls.dot", "count"},
    {"simd.calls.hist_accumulate", "count"},
    {"simd.calls.l2_distance2", "count"},
    {"simd.calls.l2_distances_cols", "count"},
    {"simd.calls.squared_error", "count"},
    {"simd.calls.sum", "count"},
    {"data.generate_s", "s"},
    {"data.featurizer_s", "s"},
    {"serve.step_ms.p50", "ms"},
    {"serve.step_ms.p99", "ms"},
    {"serve.step_ms.max", "ms"},
    {"serve.retrain_step_share", "ratio"},
    {"serve.retrain_ms.p50", "ms"},
    {"serve.retrain_ms.p99", "ms"},
    {"serve.steps", "count"},
    {"serve.retrains", "count"},
    {"serve.stepping_s", "s"},
    {"par.cpu_per_wall", "ratio"},
    {"io.snapshot_ms", "ms"},
    {"io.snapshot_bytes", "bytes"},
    {"io.restore_ms", "ms"},
    {"net.poll_ms.p50", "ms"},
    {"net.poll_ms.p99", "ms"},
    {"net.decode_us", "us"},
    {"net.admission_us", "us"},
    {"net.batch_us", "us"},
    {"net.shard_predict_us", "us"},
    {"net.respond_us", "us"},
    {"net.queue_us", "us"},
    {"net.rows_per_pass", "rows"},
    {"net.passes", "count"},
    {"net.fail_frac", "ratio"},
    {"net.requests", "count"},
    {"tsdb.sample_us", "us"},
    {"tsdb.series", "count"},
    {"obs.trace_overhead_pct", "%"},
    {"bench.gen_late_ms.p99", "ms"},
    {"bench.layer_sum_s", "s"},
};

const char* const kEndToEnd[] = {"setup_s", "work_per_s", "p50_ms",
                                 "p95_ms"};

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_escape(const std::string& s) {
  std::string o;
  for (char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    o += c;
  }
  return o;
}

void print_block(const char* title, const std::vector<Metric>& ms) {
  std::printf("%s\n", title);
  for (const Metric& m : ms)
    std::printf("  %-28s %16.6g %-6s n=%-6zu %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.n, m.note.c_str());
}

int usage() {
  std::fprintf(stderr,
               "usage: leafbench --workload table4|fleet|rpc --seed N "
               "--seconds S --trace 0|1 [--out DIR]\n");
  return 2;
}

}  // namespace
}  // namespace leafbench

int main(int argc, char** argv) {
  using namespace leafbench;
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") opt.workload = v;
    else if (k == "--seed") opt.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") opt.seconds = std::atof(v.c_str());
    else if (k == "--trace") opt.trace = v == "1";
    else if (k == "--out") opt.out_dir = v;
    else return usage();
  }
  if (argc % 2 == 0 || opt.seconds <= 0.0) return usage();
  std::error_code ec;
  std::filesystem::create_directories(opt.out_dir, ec);
  // Snapshot progress lines would only interleave with the report.
  leaf::obs::set_log_level(leaf::obs::LogLevel::kWarn);

  Outcome out;
  try {
    if (opt.workload == "table4") out = run_table4(opt);
    else if (opt.workload == "fleet") out = run_fleet(opt);
    else if (opt.workload == "rpc") out = run_rpc(opt);
    else return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "leafbench: %s failed: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }

  // Host-scaled end-to-end timings are reported at the reference host
  // speed (hostref.hpp): times scale by nominal/measured reference, rates
  // by measured/nominal.  The raw values are kept.
  const double ref = mean(out.reference_s);
  if (!opt.trace && !(ref > 0.0)) out.fail("no host reference timing");
  const std::vector<Metric> raw = out.end_to_end;
  std::string scaled_names;
  for (Metric& m : out.end_to_end) {
    if (!m.host_scaled || !(ref > 0.0)) continue;
    scaled_names += std::string(scaled_names.empty() ? "" : ", ") + "\"" +
                    json_escape(m.name) + "\"";
    const double scale = kReferenceNominalS / ref;
    m.note += "; raw " + num(m.value) + " at host reference " + num(ref * 1e3) + " ms";
    m.value = m.unit == "1/s" ? m.value / scale : m.value * scale;
  }

  std::printf("leafbench %s seed=%llu seconds=%g trace=%d\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0);
  print_block("named end-to-end metrics:", out.named);
  print_block(opt.trace ? "per-layer metrics:" : "BENCHMARK.json end-to-end metrics:",
              opt.trace ? out.per_layer : out.end_to_end);
  std::printf("operations: attempted=%llu failed=%llu\n",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));

  // The BENCHMARK.json metric set: every name exactly once.
  std::vector<Metric> metrics;
  if (opt.trace) {
    for (const LayerMetric& lm : kPerLayer) {
      Metric m{lm.name, 0.0, lm.unit, 0, ""};
      for (const Metric& x : out.per_layer)
        if (x.name == lm.name) m = x;
      if (m.unit != lm.unit)
        out.fail("per-layer metric " + m.name + " reported in " + m.unit);
      metrics.push_back(m);
    }
  } else {
    for (const char* name : kEndToEnd) {
      bool found = false;
      for (const Metric& x : out.end_to_end)
        if (x.name == name) {
          metrics.push_back(x);
          found = true;
        }
      if (!found) out.fail(std::string("missing end-to-end metric ") + name);
    }
  }
  for (const Metric& m : metrics)
    if (!std::isfinite(m.value) ||
        (!opt.trace && m.value <= 0.0))
      out.fail("metric " + m.name + " is " + num(m.value));
  if (out.attempted == 0) out.fail("no operations attempted");

  if (!out.correct()) {
    for (const std::string& e : out.errors)
      std::fprintf(stderr, "leafbench: verification failed: %s\n", e.c_str());
    if (out.failed > 0)
      std::fprintf(stderr, "leafbench: %llu failed operation(s)\n",
                   static_cast<unsigned long long>(out.failed));
    return 1;
  }

  // The raw end-to-end values, on the line before the result.
  if (!opt.trace) {
    std::string r = "{\"raw\": {";
    for (std::size_t i = 0; i < raw.size(); ++i)
      r += std::string(i ? ", " : "") + "\"" + json_escape(raw[i].name) +
           "\": " + num(raw[i].value);
    r += "}, \"host_reference_ms\": " + num(ref * 1e3) +
         ", \"host_scaled\": [" + scaled_names + "]}";
    std::printf("%s\n", r.c_str());
  }

  std::string line = "{\"correct\": true, \"attempted\": " +
                     std::to_string(out.attempted) +
                     ", \"failed\": " + std::to_string(out.failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) line += ", ";
    line += "\"" + json_escape(metrics[i].name) + "\": {\"value\": " +
            num(metrics[i].value) + ", \"unit\": \"" +
            json_escape(metrics[i].unit) + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return 0;
}
