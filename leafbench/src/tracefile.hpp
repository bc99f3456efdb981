// Per-request self times from the library's obs::Tracer output (Chrome
// trace-event JSON, one span per line), shared by the fleet and rpc
// workloads.
#pragma once

#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "stats.hpp"
#include "workloads.hpp"

namespace leafbench {

/// Server-side spans from the obs::Tracer file, one tree per trace.
struct TraceSelf {
  std::map<std::string, double> self_s;  ///< summed self time per name
  std::size_t predict_requests = 0;
};

inline std::string field(const std::string& line, const std::string& key) {
  const std::string pat = "\"" + key + "\": ";
  std::size_t p = line.find(pat);
  if (p == std::string::npos) return "";
  p += pat.size();
  if (line[p] == '"') {
    const std::size_t q = line.find('"', p + 1);
    return line.substr(p + 1, q - p - 1);
  }
  std::size_t q = p;
  while (q < line.size() && line[q] != ',' && line[q] != '}') ++q;
  return line.substr(p, q - p);
}

inline TraceSelf trace_self_times(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::map<std::string, std::vector<std::string>> parents;  // per trace
  std::map<std::string, std::vector<std::string>> ids;
  std::map<std::string, std::vector<Span>> trees;
  std::map<std::string, bool> is_predict;
  while (std::getline(in, line)) {
    if (line.find("\"name\"") == std::string::npos) continue;
    const std::string trace = field(line, "trace_id");
    Span s;
    s.name = field(line, "name");
    s.start = std::stod(field(line, "ts")) * 1e-6;
    s.end = s.start + std::stod(field(line, "dur")) * 1e-6;
    trees[trace].push_back(s);
    ids[trace].push_back(field(line, "span_id"));
    parents[trace].push_back(field(line, "parent_span_id"));
    if (s.name == "request") {
      const std::string type = field(line, "type");
      is_predict[trace] = type == "predict" || type == "batch_predict";
    }
  }
  TraceSelf ts;
  for (auto& [trace, spans] : trees) {
    if (!is_predict[trace]) continue;
    ++ts.predict_requests;
    for (std::size_t i = 0; i < spans.size(); ++i)
      for (std::size_t j = 0; j < spans.size(); ++j)
        if (ids[trace][j] == parents[trace][i]) spans[i].parent = static_cast<int>(j);
    for (const auto& [name, v] : self_time_by_name(spans)) ts.self_s[name] += v;
  }
  return ts;
}

/// The net.*_us metrics: self time per predict request of each server
/// span (request = waiting between the others), from the trace at `path`.
inline void add_net_self_times(const std::string& path, std::vector<Metric>& L) {
  const TraceSelf ts = trace_self_times(path);
  const double per_req =
      ts.predict_requests > 0 ? 1e6 / static_cast<double>(ts.predict_requests)
                              : 0.0;
  const std::string base = "per predict request, base " +
                           std::to_string(ts.predict_requests) +
                           " traced requests";
  const std::pair<const char*, const char*> spans[] = {
      {"net.decode_us", "decode"},     {"net.admission_us", "admission"},
      {"net.batch_us", "batch"},       {"net.shard_predict_us", "shard-predict"},
      {"net.respond_us", "respond"},   {"net.queue_us", "request"}};
  for (const auto& [metric, span] : spans) {
    const auto it = ts.self_s.find(span);
    L.push_back({metric, it == ts.self_s.end() ? 0.0 : it->second * per_req,
                 "us", 0, base});
  }
}

}  // namespace leafbench
