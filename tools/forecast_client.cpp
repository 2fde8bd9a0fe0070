// forecast_client — multi-process swarm client for forecast_serve.
//
// The process-level big sibling of examples/forecast_server_demo's threaded
// clients: forks --procs worker processes, each opening --conns pipelined
// connections that submit random placement tensors (drawn from a shared
// --pool of distinct placements, so repeats exercise the server's result
// cache and shard stickiness) for --duration-ms. Children report their
// counts over a pipe; the parent aggregates and exits non-zero when the
// swarm saw a protocol error or completed nothing — which is exactly the
// CI smoke assertion.
//
// Optionally sends one in-band hot-swap (--swap PATH) halfway through the
// run, from the first worker: a correct server answers every request
// accepted across the swap boundary (the parent's zero-error check covers
// this, and the summary reports how many responses came from each model
// version).
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <deque>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/flags.h"
#include "common/rng.h"
#include "common/timer.h"
#include "net/client.h"
#include "obs/metrics_registry.h"

namespace {

using paintplace::Index;
using paintplace::Rng;
using paintplace::Timer;
namespace net = paintplace::net;
namespace nn = paintplace::nn;
namespace obs = paintplace::obs;

struct Options {
  std::string host = "127.0.0.1";
  std::uint16_t port = 7433;
  int procs = 2;
  int conns = 2;        ///< connections (threads) per process
  Index duration_ms = 3000;
  Index width = 32;
  Index channels = 4;
  Index pool = 32;      ///< distinct placements shared by the whole swarm
  Index pipeline = 4;   ///< in-flight requests per connection
  bool want_heatmap = false;
  std::string swap;     ///< checkpoint to hot-swap mid-run
  bool health = false;  ///< probe the server's health frame and exit
  /// Fail the swarm when the client-observed p99 exceeds this factor times
  /// the server-side p99 (0 disables). Generous by design: the client p99
  /// includes pipeline queueing the server never sees.
  double check_p99_factor = 0.0;
  std::uint64_t seed = 42;
};

/// One worker's counts, accumulated across its connections. Stays a POD —
/// children ship it to the parent as raw bytes over a pipe — so the
/// client-side latency distribution rides along as bucket counts (same
/// bucket layout as obs::Histogram; the parent re-derives quantiles with
/// Histogram::quantile_of).
struct Tally {
  std::uint64_t completed = 0;      ///< kOk responses
  std::uint64_t shed = 0;           ///< kShed responses (not errors)
  std::uint64_t failed = 0;         ///< kFailed responses
  std::uint64_t wire_errors = 0;    ///< protocol violations / dead connections
  std::uint64_t cache_hits = 0;
  std::uint64_t pre_swap = 0;       ///< responses from the initial model version
  std::uint64_t post_swap = 0;      ///< responses from a later version
  std::uint64_t reconnects = 0;     ///< mid-run reconnects that kept the run alive
  std::uint64_t latency_count = 0;  ///< send-to-response samples recorded
  std::uint64_t latency_buckets[paintplace::obs::Histogram::kBuckets] = {};
  bool swap_ok = false;

  void operator+=(const Tally& o) {
    completed += o.completed;
    shed += o.shed;
    failed += o.failed;
    wire_errors += o.wire_errors;
    cache_hits += o.cache_hits;
    pre_swap += o.pre_swap;
    post_swap += o.post_swap;
    reconnects += o.reconnects;
    latency_count += o.latency_count;
    for (int b = 0; b < paintplace::obs::Histogram::kBuckets; ++b) {
      latency_buckets[b] += o.latency_buckets[b];
    }
    swap_ok = swap_ok || o.swap_ok;
  }
};

void parse_args(int argc, char** argv, Options& opt) {
  paintplace::Flags flags("forecast_client", "multi-process swarm client for forecast_serve");
  flags.add("--host A", opt.host, "server address")
      .add("--port N", opt.port, "server port")
      .add("--procs N", opt.procs, "worker processes to fork")
      .add("--conns N", opt.conns, "connections per process")
      .add("--duration-ms N", opt.duration_ms, "how long each connection submits")
      .add("--width N", opt.width, "placement tensor resolution")
      .add("--channels N", opt.channels, "placement tensor channels")
      .add("--pool N", opt.pool, "distinct placements shared by the swarm")
      .add("--pipeline N", opt.pipeline, "in-flight requests per connection")
      .add("--heatmap", opt.want_heatmap, "request full heat maps (default score-only)")
      .add("--swap PATH", opt.swap, "hot-swap this checkpoint mid-run (needs --allow-swap)")
      .add("--health", opt.health,
           "print the server's health frame (build, uptime, SLO,\n"
           "replica depths) and exit; non-zero only when unreachable")
      .add("--check-p99-factor F", opt.check_p99_factor,
           "fail unless client p99 <= F x server p99; 0 = off")
      .add("--seed N", opt.seed, "placement-pool seed");
  flags.parse_or_exit(argc, argv);
}

/// The server's p99 request latency in ms, re-derived from the
/// net_request_latency_seconds_bucket lines of its metrics exposition. Only
/// non-empty buckets are listed, with cumulative counts, so each line's `le`
/// bound names its bucket and the rise over the line before is that
/// bucket's count. 0 when the histogram has no samples.
double server_p99_ms(const std::string& exposition) {
  const std::string prefix = "net_request_latency_seconds_bucket{le=\"";
  std::array<std::uint64_t, obs::Histogram::kBuckets> buckets{};
  std::uint64_t seen = 0;
  std::istringstream lines(exposition);
  for (std::string line; std::getline(lines, line);) {
    std::uint64_t cumulative = 0;
    if (line.rfind(prefix, 0) != 0 ||
        !paintplace::parse_value(std::string_view(line).substr(line.rfind(' ') + 1), cumulative)) {
      continue;
    }
    // bucket_upper(b) is 2^(b+1) millionths; "+Inf" is not a number and
    // names the last bucket.
    const std::size_t quote = line.find('"', prefix.size());
    double upper = 0.0;
    const int b = paintplace::parse_value(line.substr(prefix.size(), quote - prefix.size()), upper)
                      ? std::clamp(static_cast<int>(std::lround(std::log2(upper * 1e6))) - 1, 0,
                                   obs::Histogram::kBuckets - 1)
                      : obs::Histogram::kBuckets - 1;
    buckets[static_cast<std::size_t>(b)] += cumulative - std::min(seen, cumulative);
    seen = std::max(seen, cumulative);
  }
  return obs::Histogram::quantile_of(buckets, 0.99) * 1e3;
}

/// The shared placement pool: every worker regenerates the same tensors from
/// (seed, index), so distinct processes submit overlapping content — cache
/// hits and stable shard assignment without any IPC.
nn::Tensor pool_tensor(const Options& opt, Index index) {
  Rng rng(opt.seed * 1000003 + static_cast<std::uint64_t>(index));
  nn::Tensor t(nn::Shape{1, opt.channels, opt.width, opt.width});
  for (Index i = 0; i < t.numel(); ++i) t[i] = static_cast<float>(rng.uniform());
  return t;
}

/// One pipelined connection: keep `pipeline` requests in flight, read
/// responses as they come, stop submitting at the deadline, drain. Every
/// send-to-response round trip lands in the worker's
/// client_request_latency_seconds histogram; a connection dropped mid-run
/// reconnects (bounded) and keeps going instead of failing the swarm —
/// that is what lets a swarm ride over a server restart.
void run_connection(const Options& opt, std::uint64_t conn_seed, std::uint64_t initial_version,
                    Tally& tally) {
  obs::Histogram& latency = obs::MetricsRegistry::global().histogram(
      "client_request_latency_seconds", "client-observed send to response per request");
  obs::Counter& reconnects = obs::MetricsRegistry::global().counter(
      "client_reconnects_total", "mid-run reconnects after a dropped connection");
  constexpr int kMaxReconnects = 5;
  try {
    net::RetryPolicy retry;
    retry.max_retries = 3;
    net::Client client(opt.host, opt.port, net::kDefaultMaxPayload,
                       retry);
    Rng pick(conn_seed);
    Timer clock;
    std::uint64_t next_id = 1;
    Index in_flight = 0;
    // Responses come back in request order per connection, so a FIFO of
    // send times pairs each response with its request without an id map.
    std::deque<double> sent_at;
    int drops = 0;
    const double deadline_s = static_cast<double>(opt.duration_ms) / 1e3;
    while (true) {
      const bool time_left = clock.seconds() < deadline_s;
      if (!time_left && in_flight == 0) break;
      try {
        if (time_left && in_flight < opt.pipeline) {
          client.send_forecast(next_id++, pool_tensor(opt, pick.uniform_int(0, opt.pool - 1)),
                               opt.want_heatmap);
          sent_at.push_back(clock.seconds());
          in_flight += 1;
          continue;
        }
        const net::ForecastResponse resp = client.read_forecast_response();
        in_flight -= 1;
        if (!sent_at.empty()) {
          latency.record(clock.seconds() - sent_at.front());
          sent_at.pop_front();
        }
        switch (resp.status) {
          case net::Status::kOk:
            tally.completed += 1;
            if (resp.from_cache) tally.cache_hits += 1;
            if (resp.model_version > initial_version) {
              tally.post_swap += 1;
            } else {
              tally.pre_swap += 1;
            }
            break;
          case net::Status::kShed:
            tally.shed += 1;
            break;
          case net::Status::kFailed:
            tally.failed += 1;
            break;
        }
      } catch (const std::exception& e) {
        // The connection died mid-run. In-flight requests are lost (their
        // responses were never read); reconnect and keep submitting unless
        // the drop budget is spent or only the drain remained.
        if (++drops > kMaxReconnects) throw;
        if (!time_left) break;
        std::fprintf(stderr, "[conn %llu] reconnecting after: %s\n",
                     static_cast<unsigned long long>(conn_seed), e.what());
        client.reconnect();
        reconnects.fetch_add(1);
        tally.reconnects += 1;
        in_flight = 0;
        sent_at.clear();
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "[conn %llu] %s\n", static_cast<unsigned long long>(conn_seed),
                 e.what());
    tally.wire_errors += 1;
  }
}

/// Worker process body: `conns` connection threads, plus (worker 0 with
/// --swap) a mid-run hot-swap on a dedicated connection.
Tally run_worker(const Options& opt, int worker_index) {
  // The initial model version is whatever the server reports before we
  // start — responses above it came from a hot-swapped model.
  std::uint64_t initial_version = 0;
  try {
    net::Client probe(opt.host, opt.port);
    initial_version = probe.health().model_version;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "[worker %d] cannot reach server: %s\n", worker_index, e.what());
    Tally t;
    t.wire_errors += 1;
    return t;
  }

  std::vector<Tally> tallies(static_cast<std::size_t>(opt.conns));
  std::vector<std::thread> threads;
  for (int c = 0; c < opt.conns; ++c) {
    const std::uint64_t conn_seed =
        opt.seed + 7919 * static_cast<std::uint64_t>(worker_index * opt.conns + c + 1);
    threads.emplace_back([&opt, conn_seed, initial_version, &tallies, c] {
      run_connection(opt, conn_seed, initial_version, tallies[static_cast<std::size_t>(c)]);
    });
  }

  Tally total;
  if (!opt.swap.empty() && worker_index == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(opt.duration_ms / 2));
    try {
      net::Client admin(opt.host, opt.port);
      const net::SwapResponse resp = admin.swap(opt.swap);
      if (resp.status == net::Status::kOk) {
        total.swap_ok = true;
        std::printf("[worker 0] hot-swapped %s -> v%llu mid-swarm\n", opt.swap.c_str(),
                    static_cast<unsigned long long>(resp.new_version));
      } else {
        std::fprintf(stderr, "[worker 0] hot swap failed: %s\n", resp.error.c_str());
        total.wire_errors += 1;
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "[worker 0] hot swap failed: %s\n", e.what());
      total.wire_errors += 1;
    }
  }

  for (auto& t : threads) t.join();
  for (const Tally& t : tallies) total += t;
  // Every connection thread recorded into this process's registry; ship the
  // bucket counts to the parent, which re-aggregates across workers.
  const obs::Histogram& latency =
      obs::MetricsRegistry::global().histogram("client_request_latency_seconds");
  total.latency_count = latency.count();
  for (int b = 0; b < obs::Histogram::kBuckets; ++b) {
    total.latency_buckets[b] = latency.bucket_count(b);
  }
  return total;
}

/// --health: one probe, human-readable dump of the kHealthResponse frame.
int run_health_probe(const Options& opt) {
  try {
    net::Client client(opt.host, opt.port);
    const net::HealthInfo h = client.health();
    const char* state = h.slo_state == 0 ? "healthy" : h.slo_state == 1 ? "warning" : "breached";
    std::printf("server %s:%u up %.1fs, model v%llu\n", opt.host.c_str(),
                static_cast<unsigned>(opt.port),
                h.uptime_seconds, static_cast<unsigned long long>(h.model_version));
    std::printf("build: sha %s, %s, native kernel %s, backend %s\n", h.git_sha.c_str(),
                h.compiler.c_str(), h.native_kernel ? "yes" : "no", h.backend.c_str());
    std::printf("slo: %s; window p99 %.2f ms (burn %.2f), error rate %.4f (burn %.2f), "
                "%llu requests in window\n",
                state, h.window_p99_s * 1e3, h.latency_burn_rate, h.window_error_rate,
                h.error_burn_rate, static_cast<unsigned long long>(h.window_requests));
    std::printf("watchdog: %llu stalls, oldest in-flight %.1f ms\n",
                static_cast<unsigned long long>(h.watchdog_stalls), h.oldest_request_ms);
    std::printf("replicas:");
    for (std::size_t r = 0; r < h.replica_depths.size(); ++r) {
      std::printf(" [%zu] depth %u", r, h.replica_depths[r]);
    }
    std::printf("\n");
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "health probe failed: %s\n", e.what());
    return 1;
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::setvbuf(stdout, nullptr, _IOLBF, 1 << 16);
  Options opt;
  parse_args(argc, argv, opt);
  if (opt.health) return run_health_probe(opt);
  if (opt.procs < 1 || opt.conns < 1 || opt.pool < 1 || opt.pipeline < 1) {
    std::fprintf(stderr, "procs, conns, pool and pipeline must all be >= 1\n");
    return 2;
  }

  // Fork the swarm. Each child writes one binary Tally over its pipe; the
  // parent aggregates. No shared memory, no partial-line interleaving.
  std::vector<pid_t> children;
  std::vector<int> pipes;
  for (int w = 0; w < opt.procs; ++w) {
    int fds[2];
    if (pipe(fds) != 0) {
      std::perror("pipe");
      return 1;
    }
    const pid_t pid = fork();
    if (pid < 0) {
      std::perror("fork");
      return 1;
    }
    if (pid == 0) {
      close(fds[0]);
      const Tally tally = run_worker(opt, w);
      const ssize_t n = write(fds[1], &tally, sizeof(tally));
      close(fds[1]);
      _exit(n == sizeof(tally) ? 0 : 1);
    }
    close(fds[1]);
    children.push_back(pid);
    pipes.push_back(fds[0]);
  }

  Timer wall;
  Tally total;
  bool child_failure = false;
  for (int w = 0; w < opt.procs; ++w) {
    Tally tally;
    std::size_t got = 0;
    while (got < sizeof(tally)) {
      const ssize_t n = read(pipes[static_cast<std::size_t>(w)],
                             reinterpret_cast<char*>(&tally) + got, sizeof(tally) - got);
      if (n <= 0) break;
      got += static_cast<std::size_t>(n);
    }
    close(pipes[static_cast<std::size_t>(w)]);
    int status = 0;
    waitpid(children[static_cast<std::size_t>(w)], &status, 0);
    if (got != sizeof(tally) || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      std::fprintf(stderr, "worker %d died (status %d)\n", w, status);
      child_failure = true;
      continue;
    }
    total += tally;
  }
  const double elapsed = wall.seconds();

  std::printf("\nswarm: %d procs x %d conns, pipeline %lld, %lldms; %llu answered\n", opt.procs,
              opt.conns, static_cast<long long>(opt.pipeline),
              static_cast<long long>(opt.duration_ms),
              static_cast<unsigned long long>(total.completed + total.shed + total.failed));
  std::printf("completed %llu (%.1f req/s), shed %llu, failed %llu, wire errors %llu\n",
              static_cast<unsigned long long>(total.completed),
              static_cast<double>(total.completed) / std::max(elapsed, 1e-9),
              static_cast<unsigned long long>(total.shed),
              static_cast<unsigned long long>(total.failed),
              static_cast<unsigned long long>(total.wire_errors));
  std::printf("cache hits %llu; versions: %llu initial, %llu post-swap\n",
              static_cast<unsigned long long>(total.cache_hits),
              static_cast<unsigned long long>(total.pre_swap),
              static_cast<unsigned long long>(total.post_swap));

  // Cross-worker client latency: the bucket counts shipped over the pipes
  // form one distribution the parent can take honest quantiles of.
  std::array<std::uint64_t, obs::Histogram::kBuckets> agg{};
  for (int b = 0; b < obs::Histogram::kBuckets; ++b) agg[static_cast<std::size_t>(b)] =
      total.latency_buckets[b];
  const double client_p50_ms = obs::Histogram::quantile_of(agg, 0.50) * 1e3;
  const double client_p99_ms = obs::Histogram::quantile_of(agg, 0.99) * 1e3;
  std::printf("client latency p50 %.2f ms, p99 %.2f ms (%llu samples); reconnects %llu\n",
              client_p50_ms, client_p99_ms,
              static_cast<unsigned long long>(total.latency_count),
              static_cast<unsigned long long>(total.reconnects));

  // The smoke contract: real traffic flowed, nothing broke, and — when a
  // swap was requested — it succeeded and post-swap answers exist.
  bool ok = !child_failure && total.completed > 0 && total.wire_errors == 0 &&
            total.failed == 0;
  if (!opt.swap.empty()) ok = ok && total.swap_ok && total.post_swap > 0;

  // Client-vs-server p99 sanity: the two views of the same traffic must
  // agree within a (generous) factor — pipelined requests queue client-side
  // before the server's accept clock starts, so the client p99 is naturally
  // the larger one.
  if (opt.check_p99_factor > 0.0 && total.latency_count > 0) {
    try {
      net::Client probe(opt.host, opt.port);
      const double server_p99 = server_p99_ms(probe.metrics_text());
      if (server_p99 <= 0.0) {
        std::fprintf(stderr, "p99 check: server reported no latency samples\n");
        ok = false;
      } else if (client_p99_ms > opt.check_p99_factor * server_p99) {
        std::fprintf(stderr,
                     "p99 check FAILED: client %.2f ms > %.1f x server %.2f ms\n",
                     client_p99_ms, opt.check_p99_factor, server_p99);
        ok = false;
      } else {
        std::printf("p99 check: client %.2f ms within %.1fx of server %.2f ms\n",
                    client_p99_ms, opt.check_p99_factor, server_p99);
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "p99 check failed to scrape the server: %s\n", e.what());
      ok = false;
    }
  }
  std::printf("%s\n", ok ? "SWARM OK" : "SWARM FAILED");
  return ok ? 0 : 1;
}
