// net_open — loopback PPN1 under an open loop. A NetServer at the
// forecast_serve defaults (2 replicas, max_batch 8, max_wait 2 ms, cache
// 1024, replica depth 64, client cap 16) answers heat-map requests from one
// load-generator thread that drives 4 connections with poll(). Phases:
//   light — Poisson arrivals at 150 req/s for 35% of the run;
//   busy  — Poisson arrivals at 300 req/s for 35% of the run;
//   peak  — closed loop, 4 connections x 8 in flight, for the last 30%;
// the two open-loop phases each follow one untimed second at their rate.
// Inputs are a pool of rendered anneal snapshots. A fresh request nudges one
// connectivity pixel by a seeded counter, which makes its content hash unique
// without changing the forward's cost; 25% of arrivals resend one of the
// last 64 requests, so they hit the result cache or coalesce. This is the
// only workload that exercises the frame codec, admission, sharding, batch
// formation, the result cache and GEMMs at batch 2-8. Open-loop requests are
// timed from their due time; a shed or failed request counts as +inf. The op
// is one request. The end-to-end latencies and throughput come from the peak
// phase; the open-loop phases report light_* and busy_* latencies. Those are
// kept out of the end-to-end set because on a shared 4-vCPU host they move
// run to run by more than any bound the benchmark can hold: at 150 req/s
// with how fast idle cores wake, at 300 req/s with how close the host's
// capacity sits to the offered rate. Busy stays at 300 req/s because at
// 450 a stall of the host backs the replica queues up until requests shed.
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <deque>
#include <optional>
#include <random>
#include <unordered_map>
#include <utility>

#include "data/dataset.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "place/sa_placer.h"
#include "trace_fold.h"
#include "workloads.h"

namespace e2e {

namespace {

constexpr int kConnections = 4;
constexpr double kLightRate = 150.0;
constexpr double kBusyRate = 300.0;
constexpr int kPeakDepth = 8;
constexpr double kRepeatShare = 0.25;
constexpr std::size_t kRecentRequests = 64;
constexpr std::uint32_t kNudgeRange = 100000;  // x 1e-6 keeps the pixel in [0, 0.2)
constexpr double kMaxLateMs = 5.0;             // generator lateness that invalidates a run

class Socket {
 public:
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() {
    if (fd_ >= 0) ::close(fd_);
  }
  Socket(Socket&& other) noexcept : fd_(std::exchange(other.fd_, -1)) {}
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  Socket& operator=(Socket&&) = delete;

  int fd() const { return fd_; }

 private:
  int fd_;
};

Socket connect_loopback(std::uint16_t port) {
  Socket sock(::socket(AF_INET, SOCK_STREAM, 0));
  PP_CHECK_MSG(sock.fd() >= 0, "socket() failed: " << std::strerror(errno));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  PP_CHECK_MSG(::connect(sock.fd(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0,
               "connect to port " << port << " failed: " << std::strerror(errno));
  const int one = 1;
  ::setsockopt(sock.fd(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  PP_CHECK(::fcntl(sock.fd(), F_SETFL, ::fcntl(sock.fd(), F_GETFL) | O_NONBLOCK) == 0);
  return sock;
}

/// Rendered snapshots of seeded anneals, every 20 accepted moves.
std::vector<nn::Tensor> input_pool(std::uint64_t seed, std::size_t n) {
  const Design design;
  std::vector<nn::Tensor> pool;
  Rng rng(seed);
  while (pool.size() < n) {
    place::PlacerOptions options;
    options.seed = rng.engine()();
    place::SaPlacer placer(design.arch, design.netlist, options);
    placer.set_snapshot(
        [&](const place::Placement& placement, Index, double) {
          if (pool.size() < n) {
            pool.push_back(data::make_input(placement, design.geom, kWidth, kLambdaConnect));
          }
        },
        20);
    placer.place();
  }
  return pool;
}

std::unique_ptr<net::NetServer> set_up(const nn::Tensor& first_input) {
  auto server =
      std::make_unique<net::NetServer>(net::NetServerConfig{}, [] { return make_model(); });
  // First op: one blocking round trip. A connection that closes before it
  // carried a request can race the server's connection start-up (its reader
  // may join the writer thread before that thread exists), so every
  // connection the benchmark opens carries traffic before it closes.
  net::Client client("127.0.0.1", server->port());
  const net::ForecastResponse first = client.forecast(first_input, /*want_heatmap=*/true);
  PP_CHECK_MSG(first.status == net::Status::kOk, "first request was not answered");
  return server;
}

/// One measured stretch of requests.
struct Phase {
  Latencies latency;  ///< due time (open loop) or send time (closed loop) -> answer read
  Latencies late;     ///< how late the generator sent each open-loop request
  std::uint64_t attempted = 0, failed = 0, shed = 0, ok = 0;
  double seconds = 0.0;

  void append(const Phase& other) {
    latency.append(other.latency);
    late.append(other.late);
    attempted += other.attempted;
    failed += other.failed;
    shed += other.shed;
    ok += other.ok;
    seconds += other.seconds;
  }
};

class LoadGen {
 public:
  LoadGen(const std::vector<Socket>& sockets, const std::vector<nn::Tensor>& pool,
          std::uint64_t seed, CheckSample& checks)
      : pool_(pool), rng_(seed), checks_(checks) {
    for (const Socket& s : sockets) {
      conns_.emplace_back();
      conns_.back().fd = s.fd();
    }
    next_nudge_ = static_cast<std::uint32_t>(rng_.uniform_int(0, kNudgeRange - 1));
  }

  /// Poisson arrivals at `rate` per second for `seconds`, round-robin over
  /// the connections; returns once every request is answered.
  Phase open(double rate, double seconds) {
    Phase ph;
    std::exponential_distribution<double> gap(rate);
    const Clock::time_point start = Clock::now();
    const Clock::time_point end = start + to_duration(seconds);
    Clock::time_point next = start + to_duration(gap(rng_.engine()));
    std::size_t rr = 0;
    for (;;) {
      const Clock::time_point now = Clock::now();
      while (next <= now && next < end) {
        issue(rr++ % conns_.size(), next, ph);
        next += to_duration(gap(rng_.engine()));
      }
      const bool arrivals_left = next < end;
      if (!arrivals_left && pending_.empty()) break;
      pump(arrivals_left ? next : now + std::chrono::milliseconds(10), ph);
    }
    ph.seconds = seconds;
    return ph;
  }

  /// Closed loop: `depth` requests in flight on every connection until
  /// `seconds` have passed, then drains.
  Phase closed(int depth, double seconds) {
    Phase ph;
    const Clock::time_point start = Clock::now();
    refill_depth_ = depth;
    refill_until_ = start + to_duration(seconds);
    for (std::size_t c = 0; c < conns_.size(); ++c) {
      for (int k = 0; k < depth; ++k) issue(c, Clock::now(), ph);
    }
    while (!pending_.empty()) pump(Clock::now() + std::chrono::milliseconds(10), ph);
    refill_depth_ = 0;
    ph.seconds = seconds_between(start, last_answer_);
    return ph;
  }

 private:
  struct Conn {
    int fd = -1;
    std::vector<std::uint8_t> out;
    std::size_t out_at = 0;
    net::FrameReader reader{net::kDefaultMaxPayload};
  };
  struct InputRef {
    std::uint32_t input = 0;
    std::uint32_t nudge = 0;
  };
  struct Pending {
    Clock::time_point due;
    InputRef ref;
    bool fresh = true;
  };

  static Clock::duration to_duration(double seconds) {
    return std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
  }

  nn::Tensor materialize(InputRef ref) const {
    nn::Tensor x = pool_[ref.input];
    x.at(0, 3, 0, 0) += static_cast<float>(ref.nudge) * 1e-6f;
    return x;
  }

  void issue(std::size_t c, Clock::time_point due, Phase& ph) {
    Pending p{due, {}, true};
    if (!recent_.empty() && rng_.chance(kRepeatShare)) {
      p.ref = recent_[static_cast<std::size_t>(
          rng_.uniform_int(0, static_cast<Index>(recent_.size()) - 1))];
      p.fresh = false;
    } else {
      p.ref = {static_cast<std::uint32_t>(rng_.uniform_int(0, static_cast<Index>(pool_.size()) - 1)),
               next_nudge_};
      next_nudge_ = (next_nudge_ + 1) % kNudgeRange;
      recent_.push_back(p.ref);
      if (recent_.size() > kRecentRequests) recent_.pop_front();
    }
    net::ForecastRequest req;
    req.request_id = next_id_++;
    req.want_heatmap = true;
    req.input = materialize(p.ref);
    const std::vector<std::uint8_t> bytes = net::encode_forecast_request(req);
    Conn& conn = conns_[c];
    conn.out.insert(conn.out.end(), bytes.begin(), bytes.end());
    pending_.emplace(req.request_id, p);
    ph.attempted += 1;
    send_some(conn);
    if (refill_depth_ == 0) ph.late.add(ms_since(due));
  }

  /// One poll round: sends what the sockets take, reads every answer that
  /// arrived, and waits at most until `until`.
  void pump(Clock::time_point until, Phase& ph) {
    pollfd fds[kConnections];
    for (std::size_t c = 0; c < conns_.size(); ++c) {
      fds[c] = {conns_[c].fd,
                static_cast<short>(POLLIN | (conns_[c].out_at < conns_[c].out.size() ? POLLOUT : 0)),
                0};
    }
    const auto wait_ns = std::max<std::int64_t>(
        0, std::chrono::duration_cast<std::chrono::nanoseconds>(until - Clock::now()).count());
    const timespec timeout{static_cast<time_t>(wait_ns / 1000000000),
                           static_cast<long>(wait_ns % 1000000000)};
    if (::ppoll(fds, conns_.size(), &timeout, nullptr) < 0) {
      PP_CHECK_MSG(errno == EINTR, "poll failed: " << std::strerror(errno));
      return;
    }
    for (std::size_t c = 0; c < conns_.size(); ++c) {
      if (fds[c].revents & POLLOUT) send_some(conns_[c]);
      if (fds[c].revents & (POLLIN | POLLHUP | POLLERR)) receive(c, ph);
    }
  }

  void send_some(Conn& conn) {
    while (conn.out_at < conn.out.size()) {
      const ssize_t n = ::send(conn.fd, conn.out.data() + conn.out_at,
                               conn.out.size() - conn.out_at, MSG_NOSIGNAL);
      if (n > 0) {
        conn.out_at += static_cast<std::size_t>(n);
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else {
        PP_CHECK_MSG(n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK),
                     "send failed: " << std::strerror(errno));
        return;
      }
    }
    conn.out.clear();
    conn.out_at = 0;
  }

  void receive(std::size_t c, Phase& ph) {
    std::uint8_t buf[64 * 1024];
    for (;;) {
      const ssize_t n = ::recv(conns_[c].fd, buf, sizeof(buf), 0);
      if (n > 0) {
        conns_[c].reader.feed(buf, static_cast<std::size_t>(n));
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      PP_CHECK_MSG(n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK),
                   "server closed connection " << c);
      break;
    }
    while (std::optional<net::Frame> frame = conns_[c].reader.next()) answer(*frame, c, ph);
  }

  void answer(const net::Frame& frame, std::size_t c, Phase& ph) {
    const Clock::time_point now = Clock::now();
    last_answer_ = now;
    const auto it = pending_.find(frame.request_id);
    PP_CHECK_MSG(it != pending_.end(), "answer to unknown request " << frame.request_id);
    const Pending p = it->second;
    pending_.erase(it);
    bool ok = frame.type == net::FrameType::kForecastResponse;
    net::ForecastResponse resp;
    if (ok) {
      try {
        resp = net::decode_forecast_response(frame);
      } catch (const net::WireError&) {
        ok = false;
      }
    }
    ok = ok && resp.status == net::Status::kOk && valid_heatmap(resp.heatmap) &&
         std::isfinite(resp.congestion_score);
    if (ok) {
      ph.latency.add(ms_between(p.due, now));
      ph.ok += 1;
      if (p.fresh) {
        if (CheckedOp* slot = checks_.slot()) {
          *slot = {materialize(p.ref), resp.heatmap, resp.congestion_score};
        }
      }
    } else {
      ph.latency.add_failed();
      ph.failed += 1;
      ph.shed += resp.status == net::Status::kShed ? 1 : 0;
    }
    if (refill_depth_ > 0 && now < refill_until_) issue(c, now, ph);
  }

  std::vector<Conn> conns_;
  const std::vector<nn::Tensor>& pool_;
  Rng rng_;
  CheckSample& checks_;
  std::unordered_map<std::uint64_t, Pending> pending_;
  std::deque<InputRef> recent_;
  std::uint64_t next_id_ = 1;
  std::uint32_t next_nudge_ = 0;
  int refill_depth_ = 0;  ///< closed loop: answers are replaced until refill_until_
  Clock::time_point refill_until_;
  Clock::time_point last_answer_;
};

/// Open loop at `rate` in stretches of at most a second, flushing the trace
/// between them (answers drained, so no request spans a flush).
Phase open_in_chunks(LoadGen& gen, double rate, double seconds, TraceSession* trace) {
  Phase all;
  for (double left = seconds; left > 1e-9; left -= 1.0) {
    all.append(gen.open(rate, std::min(1.0, left)));
    if (trace != nullptr) {
      settle_spans();
      trace->flush();
    }
  }
  return all;
}

/// Latency of one open-loop phase, as `<phase>_p50_ms`, `_p90_ms` and
/// `_tail_ms` (the highest percentile up to p99 with ten samples beyond it).
void report_open_phase(Report& rep, const std::string& phase, const Latencies& latency) {
  rep.metric(phase + "_p50_ms", latency.quantile(0.5), "ms");
  rep.metric(phase + "_p90_ms", latency.quantile(0.9), "ms");
  rep.metric(phase + "_tail_ms", latency.quantile(latency.tail_q(0.99)), "ms");
}

void report_lateness(Report& rep, const Latencies& late) {
  const double late_p99 = late.quantile(0.99);
  rep.metric("loadgen.late_p99_ms", late_p99, "ms");
  if (late_p99 > kMaxLateMs) {
    std::printf("# net_open WARNING: the load generator ran %.2f ms late at p99 (> %.0f ms); "
                "this run's latencies are not valid\n",
                late_p99, kMaxLateMs);
  }
}

}  // namespace

void run_net_open(const Options& opt, Report& rep) {
  const Clock::time_point pool_start = Clock::now();
  const std::vector<nn::Tensor> pool = input_pool(derive_seed(opt.seed, 30), opt.smoke ? 64 : 512);
  std::printf("# net_open: %zu pooled inputs rendered in %.2f s\n", pool.size(),
              seconds_between(pool_start, Clock::now()));
  std::unique_ptr<net::NetServer> server_owner = timed_setup<net::NetServer>(
      rep, opt.setup_repeats(), [&] { return set_up(pool.front()); });
  net::NetServer& server = *server_owner;
  std::vector<Socket> conns;  // declared after the server: closed before it
  for (int c = 0; c < kConnections; ++c) conns.push_back(connect_loopback(server.port()));
  CheckSample checks(derive_seed(opt.seed, 2));
  LoadGen gen(conns, pool, derive_seed(opt.seed, 31), checks);

  // Each rate starts with an untimed stretch: the first second at a new rate
  // runs measurably slower while the server's threads settle into it.
  const double ramp_s = opt.smoke ? 0.2 : 1.0;
  auto ramp = [&](double rate) {
    const Phase ph = gen.open(rate, ramp_s);
    rep.ops(ph.attempted, ph.failed, ph.shed);
  };
  if (!opt.trace) {
    ramp(kLightRate);
    const Phase light = gen.open(kLightRate, 0.35 * opt.seconds);
    ramp(kBusyRate);
    const Phase busy = gen.open(kBusyRate, 0.35 * opt.seconds);
    const Phase peak = gen.closed(kPeakDepth, 0.3 * opt.seconds);
    rep.ops(light.attempted + busy.attempted + peak.attempted,
            light.failed + busy.failed + peak.failed, light.shed + busy.shed + peak.shed);
    report_end_to_end(rep, peak.latency, static_cast<double>(peak.ok) / peak.seconds);
    report_open_phase(rep, "light", light.latency);
    report_open_phase(rep, "busy", busy.latency);
    Latencies late = light.late;
    late.append(busy.late);
    report_lateness(rep, late);
  } else {
    ramp(kBusyRate);
    const Phase untraced = open_in_chunks(gen, kBusyRate, opt.seconds / 3.0, nullptr);
    HistWindow wait(registry_histogram("serve_batch_wait_seconds"));
    HistWindow exec(registry_histogram("serve_batch_exec_seconds"));
    HistWindow server_latency(server.metrics().latency);
    const net::PoolStats pool0 = server.pool().stats();
    const std::uint64_t shed0 = server.metrics().shed_total();
    const std::uint64_t failed0 = server.metrics().requests_failed.load();
    PackWindow pack;
    TraceSession trace(trace_path(opt));
    trace.start();
    const Phase seg = open_in_chunks(gen, kBusyRate, opt.seconds * 2.0 / 3.0, &trace);
    trace.stop();
    const net::PoolStats pool1 = server.pool().stats();
    rep.ops(untraced.attempted + seg.attempted, untraced.failed + seg.failed,
            untraced.shed + seg.shed);

    rep.metric("serve.batch_wait_p50_ms", 1e3 * wait.quantile(0.5), "ms");
    rep.metric("serve.batch_exec_p50_ms", 1e3 * exec.quantile(0.5), "ms");
    rep.metric("serve.mean_batch",
               static_cast<double>(pool1.serve.model_samples - pool0.serve.model_samples) /
                   static_cast<double>(pool1.serve.batches - pool0.serve.batches),
               "1");
    rep.metric("serve.cache_hit_ratio",
               static_cast<double>(pool1.cache_hits - pool0.cache_hits) /
                   static_cast<double>(pool1.cache_requests - pool0.cache_requests),
               "1");
    rep.metric("serve.coalesced",
               static_cast<double>(pool1.serve.coalesced - pool0.serve.coalesced), "count");
    rep.metric("net.server_p50_ms", 1e3 * server_latency.quantile(0.5), "ms");
    rep.metric("net.server_p99_ms", 1e3 * server_latency.quantile(0.99), "ms");
    rep.metric("net.shed", static_cast<double>(server.metrics().shed_total() - shed0), "count");
    rep.metric("net.failed",
               static_cast<double>(server.metrics().requests_failed.load() - failed0), "count");
    report_lateness(rep, seg.late);
    // Tracing shows as latency here, since the offered rate fixes an open
    // loop's throughput. The residual is client-observed time the server did
    // not account for: transport, framing and the generator's own lateness.
    report_layers(rep, trace, pack, seg.latency.size(),
                  seg.latency.quantile(0.5) / untraced.latency.quantile(0.5) - 1.0,
                  1.0 - 1e3 * server_latency.sum() / seg.latency.sum());
  }

  conns.clear();
  server.shutdown();
  check_against_reference(checks.ops(), rep);
}

}  // namespace e2e
