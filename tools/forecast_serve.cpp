// forecast_serve — the networked congestion-forecast server.
//
// Puts a NetServer (TCP, PPN1 wire protocol — see docs/serving.md) in front
// of a replica pool of ForecastServers. Serves either a train_cgan
// checkpoint (--checkpoint) or a seeded stand-in model (--width/--channels)
// whose forecasts are untrained but whose serving mechanics — sharding,
// batching, caching, admission control, hot swap — are fully real; the
// stand-in is what the CI smoke and local protocol experiments use.
//
//   forecast_serve --port 7433 --replicas 2 --checkpoint run1/best.ckpt
//   forecast_serve --port 0 --replicas 2 --snapshot /tmp/serving.ckpt --allow-swap
//
// Prints "LISTENING <port>" once accepting (machine-readable for harnesses)
// and runs until SIGINT/SIGTERM, then drains: accepted requests are
// answered before exit.
#include <semaphore.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <memory>
#include <string>

#include "backend/backend.h"
#include "common/flags.h"
#include "common/parallel.h"
#include "core/forecaster.h"
#include "net/server.h"
#include "obs/flight_recorder.h"
#include "obs/log.h"
#include "obs/metrics_registry.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "serve/forecast_server.h"

namespace {

namespace core = paintplace::core;
namespace net = paintplace::net;
namespace obs = paintplace::obs;

/// What the CLI does around the server; everything else is a library config.
struct Options {
  std::string checkpoint;    ///< serve this train_cgan checkpoint
  std::string snapshot;      ///< save the serving model here at startup
  std::string trace;         ///< chrome-trace dump path (also PAINTPLACE_TRACE)
  std::string profile;       ///< collapsed-stack dump path (enables the profiler)
  std::string metrics_dump;  ///< write final metrics exposition here on drain
  std::string postmortem;    ///< dir for crash-forensics dumps (enables recorder)
};

// Signal handling: a semaphore is one of the few things a handler may
// legally poke; main blocks on it and runs the orderly drain.
sem_t g_stop_sem;

void handle_stop(int) { sem_post(&g_stop_sem); }

}  // namespace

int main(int argc, char** argv) {
  std::setvbuf(stdout, nullptr, _IOLBF, 1 << 16);
  Options opt;
  net::NetServerConfig cfg;
  cfg.port = 7433;
  cfg.metrics_log_period = std::chrono::milliseconds(2000);
  // The stand-in model, replaced by the checkpoint's config under --checkpoint.
  core::Pix2PixConfig mcfg;
  mcfg.generator.image_size = 32;
  mcfg.generator.in_channels = 4;
  mcfg.generator.base_channels = 8;
  obs::LogConfig log_cfg = obs::Log::instance().config();

  paintplace::Flags flags("forecast_serve", "TCP front-end for the congestion forecaster");
  flags.add("--bind A", cfg.bind_address, "address to bind")
      .add("--port N", cfg.port, "TCP port; 0 picks an ephemeral one")
      .add("--replicas N", cfg.pool.replicas, "ForecastServer replicas, content-hash sharded")
      .add("--checkpoint PATH", opt.checkpoint,
           "serve a train_cgan checkpoint (else a stand-in model)")
      .add("--width N", mcfg.generator.image_size, "stand-in model resolution")
      .add("--channels N", mcfg.generator.in_channels, "stand-in model input channels")
      .add("--base-channels N", mcfg.generator.base_channels,
           "stand-in model first encoder width")
      .add("--max-batch N", cfg.pool.serve.max_batch, "micro-batch flush size per replica")
      .add("--max-wait-us N", cfg.pool.serve.max_wait,
           "hold a partial micro-batch open up to N us; 0 dispatches\n"
           "as soon as a replica is idle")
      .add("--cache N", cfg.pool.serve.cache_capacity,
           "result-cache entries per replica; 0 disables")
      .add("--max-depth N", cfg.pool.max_replica_depth,
           "per-replica admitted-request bound; 0 = unbounded")
      .add("--max-inflight N", cfg.pool.max_client_inflight,
           "per-client in-flight fairness cap; 0 = none")
      .add("--allow-swap", cfg.allow_swap, "accept in-band checkpoint hot-swap requests")
      .add("--snapshot PATH", opt.snapshot, "save the serving model to PATH at startup")
      .add("--log-ms N", cfg.metrics_log_period, "metrics log-line period; 0 silences it")
      .add("--idle-ms N", cfg.idle_timeout, "close connections idle this long; 0 keeps them")
      .add("--backend NAME", cfg.pool.serve.backend, "compute backend (reference|cpu_opt)")
      .add("--trace PATH", opt.trace,
           "enable tracing, dump chrome://tracing JSON to PATH on drain\n"
           "(PAINTPLACE_TRACE=PATH does the same)")
      .add("--trace-sample N", cfg.pool.serve.trace_sample,
           "tail-based sampling: head-sample 1-in-N requests, always\n"
           "keep slow/shed/error ones; 0 records everything")
      .add("--trace-slow-ms X", cfg.pool.serve.trace_slow_ms,
           "slow-request retention threshold")
      .add("--profile PATH", opt.profile,
           "sample span stacks while serving, write collapsed-stack\n"
           "text to PATH on drain and print the top-10 table")
      .add("--metrics-dump PATH", opt.metrics_dump,
           "write the final metrics exposition to PATH on drain")
      .add("--postmortem DIR", opt.postmortem,
           "crash forensics: record flight events and dump\n"
           "DIR/postmortem.<pid>.json on SIGSEGV/SIGABRT/SIGBUS")
      .add("--stall-ms X", cfg.watchdog.stall_ms,
           "watchdog: report any request in flight longer than X ms\n"
           "and force-retain its trace; 0 disables")
      .add(
          "--log-format F",
          [&](std::string_view v) {
            if (v != "kv" && v != "json") return false;
            log_cfg.format = v == "json" ? obs::LogFormat::kJson : obs::LogFormat::kKeyValue;
            return true;
          },
          log_cfg.format == obs::LogFormat::kJson ? "json" : "kv", "kv | json (JSON lines)",
          "kv or json")
      .add(
          "--slo-p99-ms X",
          [&](std::string_view v) {
            double ms = 0.0;
            if (!paintplace::parse_value(v, ms)) return false;
            cfg.slo.latency_objective_s = ms * 1e-3;
            return true;
          },
          paintplace::flag_text(cfg.slo.latency_objective_s * 1e3),
          "SLO: windowed p99 latency objective", paintplace::expected_value<double>())
      .add("--slo-error-rate X", cfg.slo.error_rate_objective,
           "SLO: windowed error-rate objective")
      .add("--slo-window-s X", cfg.slo.window_s, "SLO rolling window in seconds")
      .add("--seed N", mcfg.seed, "stand-in model seed");
  flags.parse_or_exit(argc, argv);

  if (flags.given("--log-format")) obs::Log::instance().configure(log_cfg);
  // Install the crash handlers before any model/server work so a fault
  // anywhere past argument parsing produces a post-mortem.
  if (!opt.postmortem.empty()) obs::FlightRecorder::instance().install(opt.postmortem);

  if (!opt.checkpoint.empty()) {
    try {
      mcfg = core::Pix2Pix::peek_config(opt.checkpoint);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "cannot read checkpoint %s: %s\n", opt.checkpoint.c_str(), e.what());
      return 1;
    }
    obs::Log::instance()
        .info("serve_cli", "model")
        .kv("checkpoint", opt.checkpoint)
        .kv("image_size", mcfg.generator.image_size)
        .kv("in_channels", mcfg.generator.in_channels)
        .kv("out_channels", mcfg.generator.out_channels);
  } else {
    mcfg.generator.max_channels = mcfg.generator.base_channels * 8;
    mcfg.disc_base_channels = mcfg.generator.base_channels;
    obs::Log::instance()
        .info("serve_cli", "model")
        .kv("stand_in", true)
        .kv("image_size", mcfg.generator.image_size)
        .kv("in_channels", mcfg.generator.in_channels)
        .kv("seed", mcfg.seed)
        .kv("note", "forecasts are untrained");
  }

  net::ModelFactory make_model = [&]() {
    auto model = std::make_shared<core::CongestionForecaster>(mcfg);
    if (!opt.checkpoint.empty()) model->load(opt.checkpoint);
    return model;
  };

  if (!opt.snapshot.empty()) {
    make_model()->save(opt.snapshot);
    obs::Log::instance().info("serve_cli", "snapshot_saved").kv("path", opt.snapshot);
  }

  // --trace takes precedence over an inherited PAINTPLACE_TRACE; either way
  // the tracer is enabled now and the JSON is written on drain.
  if (!opt.trace.empty()) obs::Tracer::instance().configure(opt.trace);
  if (!opt.profile.empty()) obs::Profiler::instance().start();

  sem_init(&g_stop_sem, 0, 0);
  std::signal(SIGINT, handle_stop);
  std::signal(SIGTERM, handle_stop);
  std::signal(SIGPIPE, SIG_IGN);

  try {
    net::NetServer server(cfg, make_model);
    obs::Log::instance()
        .info("serve_cli", "pool")
        .kv("replicas", cfg.pool.replicas)
        .kv("max_depth", cfg.pool.max_replica_depth)
        .kv("client_cap", cfg.pool.max_client_inflight)
        .kv("backend", paintplace::backend::active_backend().name())
        .kv("workers", paintplace::parallel_workers());
    // Harnesses poll for this line; flush so it is visible even when stdout
    // is a pipe or file (block-buffered) rather than a tty.
    std::printf("LISTENING %u\n", static_cast<unsigned>(server.port()));
    std::fflush(stdout);

    while (sem_wait(&g_stop_sem) != 0 && errno == EINTR) {
    }
    obs::Log::instance().info("serve_cli", "draining");
    // shutdown() sets the pool gauges before the pool drains; the exposition
    // comes after it so every counter includes the drained tail.
    server.shutdown();
    if (!opt.metrics_dump.empty()) {
      const std::string exposition = obs::MetricsRegistry::global().render_prometheus();
      if (std::FILE* f = std::fopen(opt.metrics_dump.c_str(), "w")) {
        std::fwrite(exposition.data(), 1, exposition.size(), f);
        std::fclose(f);
        obs::Log::instance().info("serve_cli", "metrics_written").kv("path", opt.metrics_dump);
      } else {
        obs::Log::instance().error("serve_cli", "metrics_write_failed").kv("path", opt.metrics_dump);
      }
    }
    if (obs::Tracer::instance().dump_configured()) {
      obs::Log::instance()
          .info("serve_cli", "trace_written")
          .kv("path", obs::Tracer::instance().configured_path())
          .kv("spans", static_cast<std::uint64_t>(obs::Tracer::instance().recorded()))
          .kv("dropped", obs::Tracer::instance().dropped());
    }
    if (!opt.profile.empty()) {
      obs::Profiler& prof = obs::Profiler::instance();
      prof.stop();
      if (prof.write_collapsed(opt.profile)) {
        obs::Log::instance()
            .info("serve_cli", "profile_written")
            .kv("path", opt.profile)
            .kv("samples", prof.samples());
      }
      std::printf("hottest span stacks:\n");
      for (const auto& [stack, count] : prof.top_k(10)) {
        std::printf("  %8llu  %s\n", static_cast<unsigned long long>(count), stack.c_str());
      }
    }
    const net::Metrics& m = server.metrics();
    obs::Log::instance()
        .info("serve_cli", "served")
        .kv("completed", m.requests_completed.load())
        .kv("shed", m.shed_total())
        .kv("protocol_errors", m.protocol_errors.load())
        .kv("watchdog_stalls", server.watchdog().stalls());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "forecast_serve: %s\n", e.what());
    return 1;
  }
  return 0;
}
