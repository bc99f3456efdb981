// Load generator: one client thread, up to four TCP connections.
//
// Open loop: requests are sent on a precomputed Poisson schedule, whatever
// the server is doing, and each is timed from its due time.  Closed loop:
// every connection keeps exactly one request in flight.  Both speak LNET
// through the library's public frame codec, over non-blocking sockets.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/matrix.hpp"
#include "net/protocol.hpp"

namespace leafbench {

/// One scheduled request.
struct Req {
  double due = 0.0;  ///< seconds after the phase start
  leaf::net::MsgType type = leaf::net::MsgType::kPredict;
  std::uint32_t shard = 0;
  std::uint32_t rows = 1;         ///< predict rows (1 or a batch)
  std::uint32_t row_offset = 0;   ///< first row in the shard's row pool
};

/// The predict mix, batch 1 and 32 as in the ROADMAP's serving numbers:
/// a `kBatchShare` share of requests are batch predicts of `kBatchRows`
/// rows, the rest single-row predicts.  The share is the benchmark's own
/// choice; fleet and rpc use the same one.
inline constexpr double kBatchShare = 0.3;
inline constexpr std::uint32_t kBatchRows = 32;

/// Open-loop schedule: Poisson arrivals at `rate`/s over `duration` s,
/// each request's kind, shard and rows drawn from the same seed.  A
/// `read_share` share are status / scrape / query-series reads, taken
/// from the single-row predicts.
std::vector<Req> open_schedule(std::uint64_t seed, double rate,
                               double duration, std::uint32_t shards,
                               std::uint32_t pool_rows, double read_share);

/// What happened to one request.
struct Rec {
  double due = 0.0;    ///< seconds after the phase start
  double sent = -1.0;  ///< -1: never sent (the stream stopped first)
  double done = -1.0;
  bool ok = false;     ///< a success response arrived
  std::vector<double> values;  ///< predict answers (kept when asked)
};

/// Lets the server side pause the generator around a restart: the
/// server sets `want_pause`; the client stops sending, drains its
/// in-flight requests, closes its connections and sets `paused`.  When
/// `want_pause` clears it reconnects to `port` and catches up on every
/// request that fell due meanwhile (their latency includes the wait).
/// `stop` ends the stream: nothing new is sent, in-flight requests are
/// drained, and `finished` is set once the client has returned.
struct Control {
  std::atomic<bool> want_pause{false};
  std::atomic<bool> paused{false};
  std::atomic<bool> stop{false};
  std::atomic<bool> finished{false};
  std::atomic<int> port{0};
};

/// Builds the request rows for (shard, row_offset, rows).
using RowSource = std::function<leaf::Matrix(std::uint32_t shard,
                                             std::uint32_t offset,
                                             std::uint32_t rows)>;

struct OpenResult {
  std::vector<Rec> recs;
  std::string error;  ///< transport failure, empty when none
};

/// Runs an open-loop phase until every request is answered or the stream
/// is stopped.  `t0` is the phase start on the now_s() clock.  The server
/// side must keep polling until `ctl.finished`.
OpenResult run_open(const std::vector<Req>& sched, const RowSource& rows,
                    Control& ctl, int conns, double t0, bool keep_values);

struct ClosedResult {
  std::vector<double> block_s;  ///< wall seconds per block of requests
  std::uint64_t answered = 0;
  std::uint64_t failed = 0;
  std::string error;
};

/// Closed loop over `conns` connections for `duration` s; requests cycle
/// through `sched` (due times ignored).  Reports the wall time of every
/// completed block of `block` answers.
ClosedResult run_closed(const std::vector<Req>& sched, const RowSource& rows,
                        int port, int conns, double duration,
                        std::uint64_t block);

}  // namespace leafbench
