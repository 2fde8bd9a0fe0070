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
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "backend/backend.h"
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

using paintplace::Index;
namespace core = paintplace::core;
namespace net = paintplace::net;

/// The batching defaults are the library's: one source of truth.
const paintplace::serve::ServeConfig kServeDefaults{};

struct Options {
  std::string bind = "127.0.0.1";
  int port = 7433;
  int replicas = 2;
  std::string checkpoint;        ///< serve this train_cgan checkpoint
  Index width = 32;              ///< stand-in model resolution (no --checkpoint)
  Index in_channels = 4;
  Index base_channels = 8;
  Index max_batch = kServeDefaults.max_batch;
  Index max_wait_us = kServeDefaults.max_wait.count();
  std::size_t cache_capacity = 1024;
  Index max_replica_depth = 64;
  Index max_client_inflight = 16;
  bool allow_swap = false;
  std::string snapshot;          ///< save the serving model here at startup
  Index log_period_ms = 2000;
  Index idle_ms = 0;             ///< close idle connections after this (0 = never)
  std::string backend;
  std::string trace;             ///< chrome-trace dump path (also PAINTPLACE_TRACE)
  std::uint64_t trace_sample = 0;  ///< tail-based sampling: head 1-in-N (0 = all)
  double trace_slow_ms = 100.0;  ///< always retain requests slower than this
  std::string profile;           ///< collapsed-stack dump path (enables the profiler)
  std::string metrics_dump;      ///< write final metrics exposition here on drain
  std::string postmortem;        ///< dir for crash-forensics dumps (enables recorder)
  double stall_ms = 0.0;         ///< watchdog stall threshold; 0 disables
  std::string log_format;        ///< kv | json ("" = kv / env default)
  double slo_p99_ms = 250.0;     ///< windowed p99 objective
  double slo_error_rate = 0.01;  ///< windowed (failed+shed)/total objective
  double slo_window_s = 60.0;    ///< SLO rolling window
  std::uint64_t seed = 1;
};

void usage() {
  std::printf(
      "forecast_serve — TCP front-end for the congestion forecaster\n\n"
      "usage: forecast_serve [options]\n"
      "  --bind A               address to bind (default 127.0.0.1)\n"
      "  --port N               TCP port; 0 picks an ephemeral one (default 7433)\n"
      "  --replicas N           ForecastServer replicas, content-hash sharded (default 2)\n"
      "  --checkpoint PATH      serve a train_cgan checkpoint (else a stand-in model)\n"
      "  --width N              stand-in model resolution (default 32)\n"
      "  --channels N           stand-in model input channels (default 4)\n"
      "  --base-channels N      stand-in model first encoder width (default 8)\n"
      "  --max-batch N          micro-batch flush size per replica (default %lld)\n"
      "  --max-wait-us N        hold a partial micro-batch open up to N us; 0 dispatches\n"
      "                         as soon as a replica is idle (default %lld)\n"
      "  --cache N              result-cache entries per replica; 0 disables (default 1024)\n"
      "  --max-depth N          per-replica admitted-request bound; 0 = unbounded (default 64)\n"
      "  --max-inflight N       per-client in-flight fairness cap; 0 = none (default 16)\n"
      "  --allow-swap           accept in-band checkpoint hot-swap requests\n"
      "  --snapshot PATH        save the serving model to PATH at startup\n"
      "  --log-ms N             metrics log-line period; 0 silences it (default 2000)\n"
      "  --idle-ms N            close connections idle this long; 0 keeps them (default 0)\n"
      "  --backend NAME         compute backend (reference|cpu_opt)\n"
      "  --trace PATH           enable tracing, dump chrome://tracing JSON to PATH on drain\n"
      "                         (PAINTPLACE_TRACE=PATH does the same)\n"
      "  --trace-sample N       tail-based sampling: head-sample 1-in-N requests, always\n"
      "                         keep slow/shed/error ones (default 0 = record everything)\n"
      "  --trace-slow-ms X      slow-request retention threshold (default 100)\n"
      "  --profile PATH         sample span stacks while serving, write collapsed-stack\n"
      "                         text to PATH on drain and print the top-10 table\n"
      "  --metrics-dump PATH    write the final metrics exposition to PATH on drain\n"
      "  --postmortem DIR       crash forensics: record flight events and dump\n"
      "                         DIR/postmortem.<pid>.json on SIGSEGV/SIGABRT/SIGBUS\n"
      "  --stall-ms X           watchdog: report any request in flight longer than X ms\n"
      "                         and force-retain its trace (default 0 = disabled)\n"
      "  --log-format F         kv (default) | json (JSON lines)\n"
      "  --slo-p99-ms X         SLO: windowed p99 latency objective (default 250)\n"
      "  --slo-error-rate X     SLO: windowed error-rate objective (default 0.01)\n"
      "  --slo-window-s X       SLO rolling window in seconds (default 60)\n"
      "  --seed N               stand-in model seed (default 1)\n",
      static_cast<long long>(kServeDefaults.max_batch),
      static_cast<long long>(kServeDefaults.max_wait.count()));
}

bool parse_args(int argc, char** argv, Options& opt) {
  auto need_value = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", argv[i]);
      return nullptr;
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    const char* v = nullptr;
    if (!std::strcmp(a, "--help") || !std::strcmp(a, "-h")) {
      usage();
      std::exit(0);
    } else if (!std::strcmp(a, "--bind")) {
      if (!(v = need_value(i))) return false;
      opt.bind = v;
    } else if (!std::strcmp(a, "--port")) {
      if (!(v = need_value(i))) return false;
      opt.port = std::atoi(v);
    } else if (!std::strcmp(a, "--replicas")) {
      if (!(v = need_value(i))) return false;
      opt.replicas = std::atoi(v);
    } else if (!std::strcmp(a, "--checkpoint")) {
      if (!(v = need_value(i))) return false;
      opt.checkpoint = v;
    } else if (!std::strcmp(a, "--width")) {
      if (!(v = need_value(i))) return false;
      opt.width = std::atoll(v);
    } else if (!std::strcmp(a, "--channels")) {
      if (!(v = need_value(i))) return false;
      opt.in_channels = std::atoll(v);
    } else if (!std::strcmp(a, "--base-channels")) {
      if (!(v = need_value(i))) return false;
      opt.base_channels = std::atoll(v);
    } else if (!std::strcmp(a, "--max-batch")) {
      if (!(v = need_value(i))) return false;
      opt.max_batch = std::atoll(v);
    } else if (!std::strcmp(a, "--max-wait-us")) {
      if (!(v = need_value(i))) return false;
      opt.max_wait_us = std::atoll(v);
    } else if (!std::strcmp(a, "--cache")) {
      if (!(v = need_value(i))) return false;
      opt.cache_capacity = static_cast<std::size_t>(std::atoll(v));
    } else if (!std::strcmp(a, "--max-depth")) {
      if (!(v = need_value(i))) return false;
      opt.max_replica_depth = std::atoll(v);
    } else if (!std::strcmp(a, "--max-inflight")) {
      if (!(v = need_value(i))) return false;
      opt.max_client_inflight = std::atoll(v);
    } else if (!std::strcmp(a, "--allow-swap")) {
      opt.allow_swap = true;
    } else if (!std::strcmp(a, "--snapshot")) {
      if (!(v = need_value(i))) return false;
      opt.snapshot = v;
    } else if (!std::strcmp(a, "--log-ms")) {
      if (!(v = need_value(i))) return false;
      opt.log_period_ms = std::atoll(v);
    } else if (!std::strcmp(a, "--idle-ms")) {
      if (!(v = need_value(i))) return false;
      opt.idle_ms = std::atoll(v);
    } else if (!std::strcmp(a, "--backend")) {
      if (!(v = need_value(i))) return false;
      opt.backend = v;
    } else if (!std::strcmp(a, "--trace")) {
      if (!(v = need_value(i))) return false;
      opt.trace = v;
    } else if (!std::strcmp(a, "--trace-sample")) {
      if (!(v = need_value(i))) return false;
      opt.trace_sample = static_cast<std::uint64_t>(std::atoll(v));
    } else if (!std::strcmp(a, "--trace-slow-ms")) {
      if (!(v = need_value(i))) return false;
      opt.trace_slow_ms = std::atof(v);
    } else if (!std::strcmp(a, "--profile")) {
      if (!(v = need_value(i))) return false;
      opt.profile = v;
    } else if (!std::strcmp(a, "--slo-p99-ms")) {
      if (!(v = need_value(i))) return false;
      opt.slo_p99_ms = std::atof(v);
    } else if (!std::strcmp(a, "--slo-error-rate")) {
      if (!(v = need_value(i))) return false;
      opt.slo_error_rate = std::atof(v);
    } else if (!std::strcmp(a, "--slo-window-s")) {
      if (!(v = need_value(i))) return false;
      opt.slo_window_s = std::atof(v);
    } else if (!std::strcmp(a, "--metrics-dump")) {
      if (!(v = need_value(i))) return false;
      opt.metrics_dump = v;
    } else if (!std::strcmp(a, "--postmortem")) {
      if (!(v = need_value(i))) return false;
      opt.postmortem = v;
    } else if (!std::strcmp(a, "--stall-ms")) {
      if (!(v = need_value(i))) return false;
      opt.stall_ms = std::atof(v);
    } else if (!std::strcmp(a, "--log-format")) {
      if (!(v = need_value(i))) return false;
      opt.log_format = v;
      if (opt.log_format != "kv" && opt.log_format != "json") {
        std::fprintf(stderr, "--log-format must be kv or json (got %s)\n", v);
        return false;
      }
    } else if (!std::strcmp(a, "--seed")) {
      if (!(v = need_value(i))) return false;
      opt.seed = static_cast<std::uint64_t>(std::atoll(v));
    } else {
      std::fprintf(stderr, "unknown flag %s (try --help)\n", a);
      return false;
    }
  }
  return true;
}

// Signal handling: a semaphore is one of the few things a handler may
// legally poke; main blocks on it and runs the orderly drain.
sem_t g_stop_sem;

void handle_stop(int) { sem_post(&g_stop_sem); }

}  // namespace

int main(int argc, char** argv) {
  std::setvbuf(stdout, nullptr, _IOLBF, 1 << 16);
  Options opt;
  if (!parse_args(argc, argv, opt)) return 2;

  namespace obs = paintplace::obs;
  // --log-format picks the structured-log rendering.
  if (!opt.log_format.empty()) {
    obs::LogConfig lcfg = obs::Log::instance().config();
    lcfg.format =
        opt.log_format == "json" ? obs::LogFormat::kJson : obs::LogFormat::kKeyValue;
    obs::Log::instance().configure(lcfg);
  }
  // Install the crash handlers before any model/server work so a fault
  // anywhere past argument parsing produces a post-mortem.
  if (!opt.postmortem.empty()) obs::FlightRecorder::instance().install(opt.postmortem);

  core::Pix2PixConfig mcfg;
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
    mcfg.generator.image_size = opt.width;
    mcfg.generator.in_channels = opt.in_channels;
    mcfg.generator.base_channels = opt.base_channels;
    mcfg.generator.max_channels = opt.base_channels * 8;
    mcfg.disc_base_channels = opt.base_channels;
    mcfg.seed = opt.seed;
    obs::Log::instance()
        .info("serve_cli", "model")
        .kv("stand_in", true)
        .kv("image_size", opt.width)
        .kv("in_channels", opt.in_channels)
        .kv("seed", opt.seed)
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

  net::NetServerConfig cfg;
  cfg.bind_address = opt.bind;
  cfg.port = static_cast<std::uint16_t>(opt.port);
  cfg.allow_swap = opt.allow_swap;
  cfg.metrics_log_period = std::chrono::milliseconds(opt.log_period_ms);
  cfg.idle_timeout = std::chrono::milliseconds(opt.idle_ms);
  cfg.pool.replicas = opt.replicas;
  cfg.pool.max_replica_depth = opt.max_replica_depth;
  cfg.pool.max_client_inflight = opt.max_client_inflight;
  cfg.pool.serve.max_batch = opt.max_batch;
  cfg.pool.serve.max_wait = std::chrono::microseconds(opt.max_wait_us);
  cfg.pool.serve.cache_capacity = opt.cache_capacity;
  cfg.pool.serve.backend = opt.backend;
  cfg.pool.serve.trace_sample = opt.trace_sample;
  cfg.pool.serve.trace_slow_ms = opt.trace_slow_ms;
  cfg.slo.window_s = opt.slo_window_s;
  cfg.slo.latency_objective_s = opt.slo_p99_ms * 1e-3;
  cfg.slo.error_rate_objective = opt.slo_error_rate;
  cfg.watchdog.stall_ms = opt.stall_ms;
  // --trace takes precedence over an inherited PAINTPLACE_TRACE; either way
  // the tracer is enabled now and the JSON is written on drain.
  if (!opt.trace.empty()) paintplace::obs::Tracer::instance().configure(opt.trace);
  if (!opt.profile.empty()) paintplace::obs::Profiler::instance().start();

  sem_init(&g_stop_sem, 0, 0);
  std::signal(SIGINT, handle_stop);
  std::signal(SIGTERM, handle_stop);
  std::signal(SIGPIPE, SIG_IGN);

  try {
    net::NetServer server(cfg, make_model);
    obs::Log::instance()
        .info("serve_cli", "pool")
        .kv("replicas", opt.replicas)
        .kv("max_depth", opt.max_replica_depth)
        .kv("client_cap", opt.max_client_inflight)
        .kv("backend", paintplace::backend::active_backend().name())
        .kv("workers", paintplace::parallel_workers());
    // Harnesses poll for this line; flush so it is visible even when stdout
    // is a pipe or file (block-buffered) rather than a tty.
    std::printf("LISTENING %u\n", static_cast<unsigned>(server.port()));
    std::fflush(stdout);

    while (sem_wait(&g_stop_sem) != 0 && errno == EINTR) {
    }
    obs::Log::instance().info("serve_cli", "draining");
    // Snapshot gauges before shutdown (the pool is gone afterwards), write
    // the exposition after it so every counter includes the drained tail.
    const net::PoolGauges gauges = server.pool_gauges();
    server.shutdown();
    if (!opt.metrics_dump.empty()) {
      std::string exposition = net::render_text(server.metrics(), gauges);
      exposition += paintplace::obs::MetricsRegistry::global().render_prometheus(
          [](const std::string& name) { return name.rfind("net_", 0) != 0; });
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
