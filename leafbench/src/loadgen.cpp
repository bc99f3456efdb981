#include "loadgen.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>
#include <ctime>
#include <stdexcept>
#include <thread>

#include "spans.hpp"
#include "stats.hpp"

namespace leafbench {

using namespace leaf;
using net::MsgType;

std::vector<Req> open_schedule(std::uint64_t seed, double rate,
                               double duration, std::uint32_t shards,
                               std::uint32_t pool_rows, double read_share) {
  const std::vector<double> due = poisson_schedule(seed, rate, duration);
  SplitMix rng(seed ^ 0xA5A5A5A5DEADBEEFULL);
  std::vector<Req> out;
  out.reserve(due.size());
  for (double t : due) {
    Req r;
    r.due = t;
    const double u = rng.unit();
    r.shard = static_cast<std::uint32_t>(rng.below(shards));
    if (u <= read_share) {
      const std::uint64_t k = rng.below(3);
      r.type = k == 0   ? MsgType::kFleetStatus
               : k == 1 ? MsgType::kScrapeMetrics
                        : MsgType::kQuerySeries;
      r.rows = 0;
    } else if (u <= read_share + kBatchShare) {
      r.type = MsgType::kBatchPredict;
      r.rows = kBatchRows;
    } else {
      r.type = MsgType::kPredict;
      r.rows = 1;
    }
    r.row_offset =
        r.rows > 0 ? static_cast<std::uint32_t>(rng.below(pool_rows - r.rows + 1))
                   : 0;
    out.push_back(r);
  }
  return out;
}

namespace {

struct Conn {
  int fd = -1;
  net::FrameDecoder decoder;
  std::vector<std::uint8_t> out;
  std::size_t out_pos = 0;
  std::size_t in_flight = 0;
};

int connect_to(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    throw std::runtime_error("connect to 127.0.0.1:" + std::to_string(port) +
                             " failed: " + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

net::Frame build_frame(const Req& r, std::uint64_t id, const RowSource& rows) {
  switch (r.type) {
    case MsgType::kPredict:
    case MsgType::kBatchPredict: {
      net::PredictRequest body;
      body.shard = r.shard;
      body.rows = rows(r.shard, r.row_offset, r.rows);
      return net::make_frame(r.type, id, body);
    }
    case MsgType::kScrapeMetrics:
      return net::make_frame(r.type, id, net::ScrapeRequest{false});
    case MsgType::kQuerySeries: {
      net::SeriesRequest body;
      body.name = "leaf_fleet_*";
      body.max_series = 16;
      return net::make_frame(r.type, id, body);
    }
    default:
      return net::Frame{MsgType::kFleetStatus, id, {}};
  }
}

/// A set of connections driven from one thread.
class Pool {
 public:
  ~Pool() { close_all(); }
  void open(int port, int n) {
    for (int i = 0; i < n; ++i) {
      conns_.emplace_back();
      conns_.back().fd = connect_to(port);
    }
  }
  void close_all() {
    for (Conn& c : conns_)
      if (c.fd >= 0) ::close(c.fd);
    conns_.clear();
  }
  std::size_t size() const { return conns_.size(); }
  std::size_t in_flight() const {
    std::size_t n = 0;
    for (const Conn& c : conns_) n += c.in_flight;
    return n;
  }
  void send(std::size_t ci, const net::Frame& f) {
    Conn& c = conns_[ci];
    const std::vector<std::uint8_t> bytes = net::encode_frame(f);
    c.out.insert(c.out.end(), bytes.begin(), bytes.end());
    ++c.in_flight;
    flush(c);
  }

  /// Waits up to `timeout_s` and delivers every complete response frame
  /// to `on_frame(conn index, frame)`.  Throws on a dead connection.
  template <typename F>
  void poll(double timeout_s, F&& on_frame) {
    std::vector<pollfd> pfd(conns_.size());
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      pfd[i].fd = conns_[i].fd;
      pfd[i].events = static_cast<short>(
          POLLIN | (conns_[i].out_pos < conns_[i].out.size() ? POLLOUT : 0));
    }
    timespec ts{};
    timeout_s = std::max(0.0, timeout_s);
    ts.tv_sec = static_cast<time_t>(timeout_s);
    ts.tv_nsec = static_cast<long>((timeout_s - std::floor(timeout_s)) * 1e9);
    const int rc = ::ppoll(pfd.data(), pfd.size(), &ts, nullptr);
    if (rc < 0 && errno != EINTR) throw std::runtime_error("ppoll failed");
    if (rc <= 0) return;
    std::uint8_t buf[65536];
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      Conn& c = conns_[i];
      if (pfd[i].revents & POLLOUT) flush(c);
      if (!(pfd[i].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      while (true) {
        const ssize_t n = ::recv(c.fd, buf, sizeof buf, 0);
        if (n > 0) {
          c.decoder.feed(std::span<const std::uint8_t>(buf, static_cast<std::size_t>(n)));
          continue;
        }
        if (n == 0) throw std::runtime_error("server closed a connection");
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        if (errno == EINTR) continue;
        throw std::runtime_error(std::string("recv failed: ") + std::strerror(errno));
      }
      while (std::optional<net::Frame> f = c.decoder.next()) {
        if (c.in_flight > 0) --c.in_flight;
        on_frame(i, *f);
      }
    }
  }

 private:
  static void flush(Conn& c) {
    while (c.out_pos < c.out.size()) {
      const ssize_t n = ::send(c.fd, c.out.data() + c.out_pos,
                               c.out.size() - c.out_pos, MSG_NOSIGNAL);
      if (n > 0) {
        c.out_pos += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      if (n < 0 && errno == EINTR) continue;
      throw std::runtime_error(std::string("send failed: ") + std::strerror(errno));
    }
    c.out.clear();
    c.out_pos = 0;
  }

  std::vector<Conn> conns_;
};

bool is_success(MsgType t) {
  return t == MsgType::kPredictOk || t == MsgType::kStatusOk ||
         t == MsgType::kScrapeOk || t == MsgType::kQuerySeriesOk;
}

}  // namespace

OpenResult run_open(const std::vector<Req>& sched, const RowSource& rows,
                    Control& ctl, int conns, double t0, bool keep_values) {
  OpenResult res;
  res.recs.resize(sched.size());
  for (std::size_t i = 0; i < sched.size(); ++i) res.recs[i].due = sched[i].due;
  Pool pool;
  try {
    pool.open(ctl.port.load(), conns);
    std::size_t next = 0, answered = 0, rr = 0;
    const auto on_frame = [&](std::size_t, const net::Frame& f) {
      const std::size_t i = static_cast<std::size_t>(f.request_id) - 1;
      if (i >= res.recs.size() || res.recs[i].done >= 0.0) return;
      Rec& rec = res.recs[i];
      rec.done = now_s() - t0;
      rec.ok = is_success(f.type);
      if (keep_values && f.type == MsgType::kPredictOk)
        rec.values = net::decode_body<net::PredictResponse>(f).values;
      ++answered;
    };
    const auto drain = [&] {
      const double give_up = now_s() + 60.0;
      while (pool.in_flight() > 0) {
        if (now_s() > give_up)
          throw std::runtime_error("in-flight requests never answered");
        pool.poll(0.001, on_frame);
      }
    };
    while (answered < sched.size()) {
      if (ctl.stop.load()) {
        drain();
        break;
      }
      if (ctl.want_pause.load()) {
        // Drain, disconnect, and wait for the server to come back.
        drain();
        pool.close_all();
        ctl.paused.store(true);
        while (ctl.want_pause.load() && !ctl.stop.load())
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        ctl.paused.store(false);
        if (ctl.stop.load()) break;
        pool.open(ctl.port.load(), conns);
        continue;
      }
      const double now = now_s() - t0;
      while (next < sched.size() && sched[next].due <= now &&
             !ctl.want_pause.load() && !ctl.stop.load()) {
        pool.send(rr++ % pool.size(),
                  build_frame(sched[next], next + 1, rows));
        res.recs[next].sent = now_s() - t0;
        ++next;
      }
      const double wait =
          next < sched.size() ? sched[next].due - (now_s() - t0) : 0.002;
      pool.poll(std::min(wait, 0.002), on_frame);
    }
  } catch (const std::exception& e) {
    res.error = e.what();
  }
  ctl.finished.store(true);
  return res;
}

ClosedResult run_closed(const std::vector<Req>& sched, const RowSource& rows,
                        int port, int conns, double duration,
                        std::uint64_t block) {
  ClosedResult res;
  if (sched.empty()) {
    res.error = "empty closed-loop request mix";
    return res;
  }
  Pool pool;
  try {
    pool.open(port, conns);
    std::uint64_t id = 0;
    std::size_t cursor = 0;
    const auto send_next = [&](std::size_t ci) {
      pool.send(ci, build_frame(sched[cursor], ++id, rows));
      cursor = (cursor + 1) % sched.size();
    };
    const double t_start = now_s();
    double block_t0 = t_start;
    std::uint64_t in_block = 0;
    for (std::size_t c = 0; c < pool.size(); ++c) send_next(c);
    bool stopping = false;
    while (pool.in_flight() > 0) {
      if (now_s() - t_start > duration + 60.0)
        throw std::runtime_error("closed loop gave up waiting for responses");
      pool.poll(0.05, [&](std::size_t ci, const net::Frame& f) {
        if (is_success(f.type)) ++res.answered;
        else ++res.failed;
        if (++in_block == block) {
          const double t = now_s();
          res.block_s.push_back(t - block_t0);
          block_t0 = t;
          in_block = 0;
        }
        stopping = stopping || now_s() - t_start >= duration;
        if (!stopping) send_next(ci);
      });
    }
  } catch (const std::exception& e) {
    res.error = e.what();
  }
  return res;
}

}  // namespace leafbench
