// Networked-serving benchmark: the PPN1 TCP front-end on loopback.
//
// Three experiments against an in-process NetServer (real sockets, real
// framing, real admission control — only the network distance is fake):
//   1. sustained closed-loop throughput vs connection count, with server-side
//      p50/p99 accept-to-written latency;
//   2. deliberate overload against a tiny replica bound — the acceptance
//      property is shed responses, not hangs or crashes;
//   3. a checkpoint hot-swap in the middle of a live swarm — zero accepted
//      requests may fail and post-swap traffic must flow.
// Results go to stdout and BENCH_net.json; the exit status asserts the
// acceptance properties, so CI can run this directly.
// Override the model/load shape with PAINT_NET_WIDTH / PAINT_NET_BASE /
// PAINT_NET_REQS.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <thread>
#include <vector>

#include "backend/backend.h"
#include "bench/bench_json.h"
#include "common/flags.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/timer.h"
#include "core/forecaster.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/metrics_registry.h"
#include "obs/sampler.h"
#include "obs/trace.h"

using namespace paintplace;

namespace {

nn::Tensor random_input(Index channels, Index width, std::uint64_t seed) {
  Rng rng(seed);
  nn::Tensor t(nn::Shape{1, channels, width, width});
  for (Index i = 0; i < t.numel(); ++i) t[i] = static_cast<float>(rng.uniform());
  return t;
}

/// Closed-loop pipelined worker: keeps `depth` requests in flight on one
/// connection until `total` responses have been read. Returns tallies the
/// caller aggregates.
struct WorkerTally {
  std::uint64_t ok = 0;
  std::uint64_t shed = 0;
  std::uint64_t failed = 0;
  std::uint64_t post_swap = 0;  ///< responses with model_version > 1
};

WorkerTally run_worker(std::uint16_t port, const std::vector<nn::Tensor>& inputs, Index total,
                       Index depth, std::atomic<std::uint64_t>* progress) {
  WorkerTally tally;
  net::Client client("127.0.0.1", port);
  Index sent = 0, received = 0;
  std::uint64_t id = 1;
  while (received < total) {
    while (sent < total && sent - received < depth) {
      client.send_forecast(id++, inputs[static_cast<std::size_t>(sent) % inputs.size()]);
      ++sent;
    }
    const net::ForecastResponse resp = client.read_forecast_response();
    ++received;
    if (progress != nullptr) progress->fetch_add(1, std::memory_order_relaxed);
    switch (resp.status) {
      case net::Status::kOk:
        ++tally.ok;
        if (resp.model_version > 1) ++tally.post_swap;
        break;
      case net::Status::kShed: ++tally.shed; break;
      case net::Status::kFailed: ++tally.failed; break;
    }
  }
  return tally;
}

}  // namespace

int main() {
  std::setvbuf(stdout, nullptr, _IOLBF, 1 << 16);
  const Index width = env_or<Index>("PAINT_NET_WIDTH", 32);
  const Index base = env_or<Index>("PAINT_NET_BASE", 8);
  const Index reps = std::max<Index>(32, env_or<Index>("PAINT_NET_REQS", 96));
  const Index channels = 4;

  std::printf("== paintplace::net loopback throughput ==\n");
  std::printf("model: %lldx%lld inputs, base %lld channels; backend %s; pool workers %d\n\n",
              static_cast<long long>(width), static_cast<long long>(width),
              static_cast<long long>(base), backend::active_backend().name(),
              parallel_workers());

  core::Pix2PixConfig cfg;
  cfg.generator.in_channels = channels;
  cfg.generator.image_size = width;
  cfg.generator.base_channels = base;
  cfg.generator.max_channels = base * 8;
  cfg.disc_base_channels = base;
  net::ModelFactory make_model = [&] { return std::make_shared<core::CongestionForecaster>(cfg); };

  std::vector<nn::Tensor> inputs;
  for (Index i = 0; i < 32; ++i) inputs.push_back(random_input(channels, width, 4000 + i));

  bench::BenchReport report("net");
  report.meta(bench::jint("width", width));
  report.meta(bench::jint("base_channels", base));
  report.meta(bench::jint("requests", reps));
  report.meta(bench::jstr("backend", backend::active_backend().name()));
  report.meta(bench::jint("pool_workers", parallel_workers()));

  bool ok = true;

  // ---- 1. Throughput and latency vs connection count ------------------------
  // Fresh server per point so the latency histogram is per-run. Generous
  // admission bounds: this section measures transport + batching, not sheds.
  std::printf("%-8s %-12s %-10s %-10s %-10s\n", "conns", "req/s", "p50 ms", "p99 ms", "shed");
  for (int conns : {1, 2, 4}) {
    net::NetServerConfig scfg;
    scfg.pool.replicas = 2;
    scfg.pool.max_replica_depth = 0;
    scfg.pool.max_client_inflight = 0;
    scfg.pool.serve.max_batch = 8;
    scfg.pool.serve.max_wait = std::chrono::microseconds(2000);
    scfg.pool.serve.cache_capacity = 0;  // distinct inputs; measure real forwards
    net::NetServer server(scfg, make_model);

    Timer timer;
    std::vector<std::thread> threads;
    std::vector<WorkerTally> tallies(static_cast<std::size_t>(conns));
    for (int c = 0; c < conns; ++c) {
      threads.emplace_back([&, c] {
        // Offset the input cycle per connection so replicas see mixed shards.
        std::vector<nn::Tensor> view(inputs.begin(), inputs.end());
        std::rotate(view.begin(), view.begin() + c * 7 % static_cast<int>(view.size()),
                    view.end());
        tallies[static_cast<std::size_t>(c)] = run_worker(server.port(), view, reps / conns,
                                                          /*depth=*/4, nullptr);
      });
    }
    for (auto& th : threads) th.join();
    const double secs = timer.seconds();
    const double rps = static_cast<double>((reps / conns) * conns) / secs;
    const double p50_ms = 1e3 * server.metrics().latency.quantile(0.5);
    const double p99_ms = 1e3 * server.metrics().latency.quantile(0.99);
    std::uint64_t done = 0, shed = 0, failed = 0;
    for (const WorkerTally& t : tallies) done += t.ok, shed += t.shed, failed += t.failed;
    server.shutdown();
    std::printf("%-8d %-12.2f %-10.2f %-10.2f %-10llu\n", conns, rps, p50_ms, p99_ms,
                static_cast<unsigned long long>(shed));
    report.sample({bench::jstr("section", "throughput"), bench::jint("connections", conns),
                   bench::jnum("req_per_s", rps), bench::jnum("p50_ms", p50_ms),
                   bench::jnum("p99_ms", p99_ms), bench::jint("completed", done),
                   bench::jint("shed", shed)});
    if (done == 0 || failed != 0 || p99_ms <= 0.0) {
      std::printf("FAIL: throughput run completed=%llu failed=%llu\n",
                  static_cast<unsigned long long>(done), static_cast<unsigned long long>(failed));
      ok = false;
    }
  }

  // ---- 2. Deliberate overload: shed, don't hang ------------------------------
  // One replica, a depth bound of 2, no cache, and two aggressive pipelined
  // clients. Most requests must come back as explicit kShed responses and
  // none may fail; the metrics endpoint must stay responsive throughout.
  std::printf("\noverload (1 replica, depth bound 2, pipeline 16):\n");
  {
    net::NetServerConfig scfg;
    scfg.pool.replicas = 1;
    scfg.pool.max_replica_depth = 2;
    scfg.pool.max_client_inflight = 0;
    scfg.pool.serve.max_batch = 4;
    scfg.pool.serve.max_wait = std::chrono::microseconds(500);
    scfg.pool.serve.cache_capacity = 0;
    net::NetServer server(scfg, make_model);

    Timer timer;
    std::vector<std::thread> threads;
    std::vector<WorkerTally> tallies(2);
    for (int c = 0; c < 2; ++c) {
      threads.emplace_back([&, c] {
        tallies[static_cast<std::size_t>(c)] =
            run_worker(server.port(), inputs, 2 * reps, /*depth=*/16, nullptr);
      });
    }
    // A control connection scraping metrics proves the server stays
    // responsive while shedding.
    net::Client control("127.0.0.1", server.port());
    (void)control.metrics_text();
    for (auto& th : threads) th.join();
    const std::string metrics = control.metrics_text();
    const double secs = timer.seconds();
    std::uint64_t done = 0, shed = 0, failed = 0;
    for (const WorkerTally& t : tallies) done += t.ok, shed += t.shed, failed += t.failed;
    server.shutdown();
    std::printf("  %.2f answered/s — %llu ok, %llu shed, %llu failed; metrics endpoint live "
                "(%zu bytes)\n",
                static_cast<double>(done + shed) / secs, static_cast<unsigned long long>(done),
                static_cast<unsigned long long>(shed), static_cast<unsigned long long>(failed),
                metrics.size());
    report.sample({bench::jstr("section", "overload"), bench::jint("completed", done),
                   bench::jint("shed", shed), bench::jint("failed", failed),
                   bench::jnum("answered_per_s", static_cast<double>(done + shed) / secs)});
    if (done == 0 || shed == 0 || failed != 0 || metrics.empty()) {
      std::printf("FAIL: overload must shed (got shed=%llu) without failures (failed=%llu)\n",
                  static_cast<unsigned long long>(shed), static_cast<unsigned long long>(failed));
      ok = false;
    }
  }

  // ---- 3. Hot-swap under a live swarm ----------------------------------------
  // Swap a checkpoint in once half the traffic has completed. Acceptance:
  // zero failures across the swap and post-swap responses carry the new
  // model version.
  std::printf("\nhot-swap mid-swarm (2 replicas, 2 connections):\n");
  {
    const std::filesystem::path ckpt =
        std::filesystem::temp_directory_path() / "paintplace_bench_net_swap.ckpt";
    core::CongestionForecaster(cfg).save(ckpt.string());

    net::NetServerConfig scfg;
    scfg.pool.replicas = 2;
    scfg.pool.max_replica_depth = 0;
    scfg.pool.max_client_inflight = 0;
    scfg.pool.serve.max_batch = 8;
    scfg.pool.serve.max_wait = std::chrono::microseconds(2000);
    scfg.pool.serve.cache_capacity = 64;
    net::NetServer server(scfg, make_model);

    // Workers drive a closed loop until they have both carried real pre-swap
    // load and observed responses from the new model; a generous request cap
    // bounds the run if the swap were never to land (that trips the FAIL
    // below instead of hanging the bench).
    std::atomic<std::uint64_t> progress{0};
    const Index cap = 64 * reps;
    std::vector<std::thread> threads;
    std::vector<WorkerTally> tallies(2);
    for (int c = 0; c < 2; ++c) {
      threads.emplace_back([&, c] {
        WorkerTally tally;
        net::Client client("127.0.0.1", server.port());
        Index sent = 0, received = 0;
        std::uint64_t id = 1;
        auto satisfied = [&] { return tally.post_swap >= 4 && received >= reps; };
        while (received < sent || (!satisfied() && received < cap)) {
          while (!satisfied() && sent < cap && sent - received < 4) {
            client.send_forecast(id++, inputs[static_cast<std::size_t>(sent + c) % inputs.size()]);
            ++sent;
          }
          if (received == sent) break;  // satisfied and drained
          const net::ForecastResponse resp = client.read_forecast_response();
          ++received;
          progress.fetch_add(1, std::memory_order_relaxed);
          if (resp.status == net::Status::kOk) {
            ++tally.ok;
            if (resp.model_version > 1) ++tally.post_swap;
          } else if (resp.status == net::Status::kFailed) {
            ++tally.failed;
          } else {
            ++tally.shed;
          }
        }
        tallies[static_cast<std::size_t>(c)] = tally;
      });
    }
    // Let the swarm establish real load, then swap under it.
    while (progress.load(std::memory_order_relaxed) < static_cast<std::uint64_t>(reps / 2)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const std::uint64_t new_version = server.swap_checkpoint(ckpt.string());
    for (auto& th : threads) th.join();
    std::uint64_t done = 0, failed = 0, post_swap = 0, shed = 0;
    for (const WorkerTally& t : tallies) {
      done += t.ok;
      failed += t.failed;
      post_swap += t.post_swap;
      shed += t.shed;
    }
    server.shutdown();
    std::filesystem::remove(ckpt);
    std::printf("  swapped to v%llu under load: %llu completed, %llu failed, %llu on the new "
                "model\n",
                static_cast<unsigned long long>(new_version),
                static_cast<unsigned long long>(done), static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(post_swap));
    report.sample({bench::jstr("section", "hot_swap"), bench::jint("new_version", new_version),
                   bench::jint("completed", done), bench::jint("failed", failed),
                   bench::jint("post_swap", post_swap)});
    if (failed != 0 || shed != 0 || post_swap == 0 || done == 0) {
      std::printf("FAIL: hot swap dropped or failed accepted requests\n");
      ok = false;
    }
  }

  // ---- 4. Tail-based trace sampling ------------------------------------------
  // The same no-shed swarm twice: once recording every span, once with
  // 1-in-100 head sampling and a slow threshold nothing reaches. The sampled
  // trace must be at least 10x smaller — that is the whole point of tail
  // sampling. Then a deliberately overloaded run with sampling still on:
  // every shed request must be tail-retained (obs_trace_retained_error) and
  // its spans must be present in the dump even though head sampling would
  // have dropped essentially everything.
  std::printf("\ntail-based trace sampling (1-in-100 vs full):\n");
  {
    obs::Tracer& tracer = obs::Tracer::instance();
    obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
    obs::Counter& sampled_ctr = reg.counter("obs_trace_sampled_total");
    obs::Counter& retained_err_ctr = reg.counter("obs_trace_retained_error_total");
    obs::Counter& discarded_ctr = reg.counter("obs_trace_discarded_total");

    // One traced swarm: `conns` pipelined connections, `per_conn` requests
    // each, against a fresh server. Returns (ok, shed) totals.
    auto run_traced = [&](bool overload, Index per_conn,
                          Index depth) -> std::pair<std::uint64_t, std::uint64_t> {
      net::NetServerConfig scfg;
      scfg.pool.replicas = overload ? 1 : 2;
      scfg.pool.max_replica_depth = overload ? 2 : 0;
      scfg.pool.max_client_inflight = 0;
      scfg.pool.serve.max_batch = overload ? 4 : 8;
      scfg.pool.serve.max_wait = std::chrono::microseconds(overload ? 500 : 2000);
      scfg.pool.serve.cache_capacity = 0;
      net::NetServer server(scfg, make_model);
      std::vector<std::thread> threads;
      std::vector<WorkerTally> tallies(2);
      for (int c = 0; c < 2; ++c) {
        threads.emplace_back([&, c] {
          tallies[static_cast<std::size_t>(c)] =
              run_worker(server.port(), inputs, per_conn, depth, nullptr);
        });
      }
      for (auto& th : threads) th.join();
      server.shutdown();
      std::uint64_t done = 0, shed = 0;
      for (const WorkerTally& t : tallies) done += t.ok, shed += t.shed;
      return {done, shed};
    };

    // Full tracing baseline.
    tracer.clear();
    tracer.enable();
    run_traced(false, reps, 4);
    const std::string full_json = tracer.dump_json();
    tracer.clear();

    // Head-sample 1-in-100; the slow threshold is far beyond any loopback
    // request, so only the head decision keeps anything.
    obs::SamplerConfig sc;
    sc.sample_every = 100;
    sc.slow_threshold_s = 30.0;
    tracer.sampler().configure(sc);
    const std::uint64_t sampled0 = sampled_ctr.load();
    const std::uint64_t discarded0 = discarded_ctr.load();
    run_traced(false, reps, 4);
    const std::string sampled_json = tracer.dump_json();
    const std::uint64_t sampled_delta = sampled_ctr.load() - sampled0;
    const std::uint64_t discarded_delta = discarded_ctr.load() - discarded0;
    tracer.clear();

    const double ratio = static_cast<double>(full_json.size()) /
                         static_cast<double>(std::max<std::size_t>(1, sampled_json.size()));
    std::printf("  full trace %zu bytes; sampled %zu bytes (%.1fx smaller); "
                "%llu head-sampled, %llu discarded\n",
                full_json.size(), sampled_json.size(), ratio,
                static_cast<unsigned long long>(sampled_delta),
                static_cast<unsigned long long>(discarded_delta));
    report.sample({bench::jstr("section", "trace_sampling"),
                   bench::jnum("size_reduction", ratio),
                   bench::jint("full_bytes", static_cast<Index>(full_json.size())),
                   bench::jint("sampled_bytes", static_cast<Index>(sampled_json.size()))});
    if (ratio < 10.0 || discarded_delta == 0) {
      std::printf("FAIL: 1-in-100 sampling must shrink the trace >= 10x (got %.1fx)\n", ratio);
      ok = false;
    }

    // Overload with sampling on: sheds must be tail-retained regardless of
    // the head decision. A head-sampled shed commits live instead (counted
    // at begin), so the coverage invariant is retained + head-sampled >=
    // sheds: every shed is in the trace one way or the other.
    const std::uint64_t err0 = retained_err_ctr.load();
    const std::uint64_t head0 = sampled_ctr.load();
    const auto [over_ok, over_shed] = run_traced(true, 2 * reps, 16);
    const std::uint64_t err_delta = retained_err_ctr.load() - err0;
    const std::uint64_t head_delta = sampled_ctr.load() - head0;
    const std::string shed_json = tracer.dump_json();
    const bool shed_spans_present = shed_json.find("net.handle_forecast") != std::string::npos;
    tracer.sampler().disable();
    tracer.disable();
    tracer.clear();
    std::printf("  overload under sampling: %llu ok, %llu shed; %llu tail-retained + "
                "%llu head-sampled, shed spans %s\n",
                static_cast<unsigned long long>(over_ok),
                static_cast<unsigned long long>(over_shed),
                static_cast<unsigned long long>(err_delta),
                static_cast<unsigned long long>(head_delta),
                shed_spans_present ? "present in dump" : "MISSING from dump");
    report.sample({bench::jstr("section", "shed_retention"),
                   bench::jint("shed", static_cast<Index>(over_shed)),
                   bench::jint("tail_retained", static_cast<Index>(err_delta))});
    if (over_shed == 0 || err_delta == 0 || err_delta + head_delta < over_shed ||
        !shed_spans_present) {
      std::printf("FAIL: every shed request must appear in the trace "
                  "(shed=%llu retained=%llu head-sampled=%llu)\n",
                  static_cast<unsigned long long>(over_shed),
                  static_cast<unsigned long long>(err_delta),
                  static_cast<unsigned long long>(head_delta));
      ok = false;
    }
  }

  report.write();
  std::printf("\n%s\n", ok ? "BENCH_NET OK" : "BENCH_NET FAILED");
  return ok ? 0 : 1;
}
