// Serving-engine benchmark: batched inference throughput vs the sequential
// single-request baseline, end-to-end server throughput under concurrent
// clients, and the effect of the result cache on repeat-heavy workloads.
//
// The serving model is channel-fat at moderate resolution (the regime where
// per-sample GEMMs degenerate to a handful of columns and batching recovers
// SIMD width and instruction-level parallelism — see Conv2d::forward).
// Override with PAINT_SERVE_WIDTH / PAINT_SERVE_BASE / PAINT_SERVE_REQS.
// Emits BENCH_serve.json (see bench_json.h) alongside the stdout report.
#include <cstdio>
#include <thread>
#include <vector>

#include "backend/backend.h"
#include "bench/bench_json.h"
#include "bench/gemm_shapes.h"
#include "common/flags.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/timer.h"
#include "nn/tensor_ops.h"
#include "obs/profiler.h"
#include "obs/sampler.h"
#include "obs/trace.h"
#include "serve/forecast_server.h"

using namespace paintplace;

namespace {

nn::Tensor random_input(Index width, std::uint64_t seed) {
  Rng rng(seed);
  nn::Tensor t(nn::Shape{1, 4, width, width});
  for (Index i = 0; i < t.numel(); ++i) t[i] = static_cast<float>(rng.uniform());
  return t;
}

}  // namespace

int main() {
  std::setvbuf(stdout, nullptr, _IOLBF, 1 << 16);
  const Index width = env_or<Index>("PAINT_SERVE_WIDTH", 32);
  const Index base = env_or<Index>("PAINT_SERVE_BASE", 32);
  // At least 16 so every batch size and client count below gets real work.
  const Index reps = std::max<Index>(16, env_or<Index>("PAINT_SERVE_REQS", 48));

  std::printf("== paintplace::serve throughput ==\n");
  std::printf("model: %lldx%lld inputs, base %lld, max %lld channels; %lld requests/run\n",
              static_cast<long long>(width), static_cast<long long>(width),
              static_cast<long long>(base), static_cast<long long>(base * 8),
              static_cast<long long>(reps));
  // Numbers below are attributable: they depend on which GEMM backend the
  // forward passes dispatch to and how many pool workers it fans out over.
  std::printf("compute backend: %s; pool workers: %d\n\n", backend::active_backend().name(),
              parallel_workers());

  bench::BenchReport report("serve");
  report.meta(bench::jint("width", width));
  report.meta(bench::jint("base_channels", base));
  report.meta(bench::jint("requests", reps));
  report.meta(bench::jstr("backend", backend::active_backend().name()));
  report.meta(bench::jint("pool_workers", parallel_workers()));

  // GEMM context for the serving numbers — same U-Net shape sweep as
  // bench_gemm, batch 4, aggregated per backend.
  {
    core::GeneratorConfig gen;
    gen.in_channels = 4;
    gen.image_size = width;
    gen.base_channels = base;
    gen.max_channels = base * 8;
    std::printf("GEMM backends on this model's layer shapes (batch 4):\n");
    for (const std::string& name : backend::backend_names()) {
      const backend::ComputeBackend* be = backend::find_backend(name);
      double flops = 0.0, secs = 0.0;
      for (const bench::GemmShape& s : bench::unet_gemm_shapes(gen, 4)) {
        std::vector<float> A(static_cast<std::size_t>(s.M * s.K), 0.5f);
        std::vector<float> B(static_cast<std::size_t>(s.K * s.N), 0.25f);
        std::vector<float> C(static_cast<std::size_t>(s.M * s.N), 0.0f);
        const double gfs = bench::time_gemm(*be, s, A.data(), B.data(), C.data(), 0.02);
        flops += s.flops();
        secs += s.flops() / (gfs * 1e9);
      }
      std::printf("  %-12s %8.2f GFLOP/s aggregate%s\n", name.c_str(), flops / secs / 1e9,
                  name == backend::active_backend().name() ? "   (active)" : "");
    }
    std::printf("\n");
  }

  core::Pix2PixConfig cfg;
  cfg.generator.in_channels = 4;
  cfg.generator.image_size = width;
  cfg.generator.base_channels = base;
  cfg.generator.max_channels = base * 8;
  cfg.disc_base_channels = base;
  auto model = std::make_shared<core::CongestionForecaster>(cfg);
  model->set_deterministic_inference(true);

  std::vector<nn::Tensor> inputs;
  inputs.reserve(static_cast<std::size_t>(reps));
  for (Index i = 0; i < reps; ++i) inputs.push_back(random_input(width, 1000 + i));

  // ---- 1. Batched forward pass vs sequential predict() ---------------------
  (void)model->predict(inputs[0]);  // warm up allocators/pool
  Timer t_seq;
  for (Index i = 0; i < reps; ++i) (void)model->predict(inputs[i]);
  const double seq_s = t_seq.seconds();
  const double seq_rps = static_cast<double>(reps) / seq_s;
  std::printf("%-28s %10.1f ms/req %10.2f req/s   (baseline)\n", "sequential predict()",
              1e3 * seq_s / static_cast<double>(reps), seq_rps);
  report.sample({bench::jstr("section", "sequential"), bench::jnum("req_per_s", seq_rps),
                 bench::jnum("ms_per_req", 1e3 * seq_s / static_cast<double>(reps))});

  double speedup_at_4 = 0.0;
  double batch8_rps = 0.0;
  for (Index b : {2, 4, 8, 16}) {
    Timer t_bat;
    for (Index i = 0; i < reps; i += b) {
      std::vector<const nn::Tensor*> ptrs;
      for (Index j = i; j < i + b; ++j) ptrs.push_back(&inputs[j % reps]);
      (void)model->predict_batch(nn::stack_batch(ptrs));
    }
    const double bat_s = t_bat.seconds();
    const double speedup = seq_s / bat_s;
    if (b == 4) speedup_at_4 = speedup;
    if (b == 8) batch8_rps = static_cast<double>(reps) / bat_s;
    std::printf("predict_batch(%-2lld)           %10.1f ms/req %10.2f req/s   (%.2fx)\n",
                static_cast<long long>(b), 1e3 * bat_s / static_cast<double>(reps),
                static_cast<double>(reps) / bat_s, speedup);
    report.sample({bench::jstr("section", "batched"), bench::jint("batch", b),
                   bench::jnum("req_per_s", static_cast<double>(reps) / bat_s),
                   bench::jnum("speedup", speedup)});
  }
  std::printf("\nbatched speedup at batch 4: %.2fx (acceptance floor: 2x)\n\n", speedup_at_4);

  // ---- 2. End-to-end server under concurrent closed-loop clients -----------
  // The shipped ServeConfig batching policy: work-conserving, so a lone
  // client is never held back and batches form only behind a running forward.
  std::printf("%-12s %-12s %-12s %-12s %-12s\n", "clients", "req/s", "mean batch", "max batch",
              "speedup");
  double one_client_rps = 0.0;
  double eight_client_rps = 0.0;
  for (int clients : {1, 2, 4, 8}) {
    serve::ServeConfig scfg;
    scfg.max_batch = 8;
    scfg.cache_capacity = 0;  // distinct inputs; isolate the batching effect
    scfg.deterministic = true;
    auto serve_model = std::make_shared<core::CongestionForecaster>(cfg);
    serve::ForecastServer server(scfg, std::move(serve_model));
    // Untimed first request, like the warm-up predict() of section 1: it
    // packs the fresh model's weights and grows the worker's workspace.
    server.submit(random_input(width, 999)).get();
    const serve::ServeStats warm = server.stats();
    Timer t_srv;
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        for (Index i = 0; i < reps / clients; ++i) {
          const Index idx = (c * (reps / clients) + i) % reps;
          server.submit(inputs[static_cast<std::size_t>(idx)]).get();
        }
      });
    }
    for (auto& th : threads) th.join();
    const double rps = static_cast<double>((reps / clients) * clients) / t_srv.seconds();
    if (clients == 1) one_client_rps = rps;
    if (clients == 8) eight_client_rps = rps;
    const serve::ServeStats stats = server.stats();
    const double mean_batch = static_cast<double>(stats.model_samples - warm.model_samples) /
                              static_cast<double>(stats.batches - warm.batches);
    std::printf("%-12d %-12.2f %-12.2f %-12llu %-12.2f\n", clients, rps, mean_batch,
                static_cast<unsigned long long>(stats.max_batch), rps / one_client_rps);
    report.sample({bench::jstr("section", "server"), bench::jint("clients", clients),
                   bench::jnum("req_per_s", rps), bench::jnum("mean_batch", mean_batch),
                   bench::jnum("speedup", rps / one_client_rps)});
  }

  // What the serving layer costs over calling the model directly: one client
  // against sequential predict() (target >= 0.9) and 8 clients against
  // predict_batch(8) (target >= 0.8).
  const double one_client_ratio = one_client_rps / seq_rps;
  const double eight_client_ratio = eight_client_rps / batch8_rps;
  std::printf("\nserver vs direct model: 1 client %.2f of sequential predict() (target 0.9), "
              "8 clients %.2f of predict_batch(8) (target 0.8)\n",
              one_client_ratio, eight_client_ratio);
  report.sample({bench::jstr("section", "server_vs_direct"),
                 bench::jnum("one_client_of_predict", one_client_ratio),
                 bench::jnum("eight_clients_of_batch8", eight_client_ratio)});

  // ---- 3. Repeat-heavy workload: the result cache ---------------------------
  const Index pool_size = std::max<Index>(1, reps / 8);
  std::printf("\ncache (4 clients resubmitting %lld distinct placements):\n",
              static_cast<long long>(pool_size));
  {
    serve::ServeConfig scfg;
    scfg.max_batch = 8;
    scfg.cache_capacity = 1024;
    auto serve_model = std::make_shared<core::CongestionForecaster>(cfg);
    serve::ForecastServer server(scfg, std::move(serve_model));
    const Index pool = pool_size;
    Timer t_cache;
    std::vector<std::thread> threads;
    for (int c = 0; c < 4; ++c) {
      threads.emplace_back([&, c] {
        Rng pick(static_cast<std::uint64_t>(c) + 77);
        for (Index i = 0; i < reps; ++i) {
          const Index idx = pick.uniform_int(0, pool - 1);
          server.submit(inputs[static_cast<std::size_t>(idx)]).get();
        }
      });
    }
    for (auto& th : threads) th.join();
    const double rps = static_cast<double>(4 * reps) / t_cache.seconds();
    const serve::ServeStats stats = server.stats();
    std::printf("  %.2f req/s — %.0f%% cache hits, %llu coalesced, %llu model samples "
                "(%.1fx over uncached single-client)\n",
                rps,
                100.0 * static_cast<double>(stats.cache_hits) /
                    static_cast<double>(stats.requests),
                static_cast<unsigned long long>(stats.coalesced),
                static_cast<unsigned long long>(stats.model_samples), rps / one_client_rps);
    report.sample(
        {bench::jstr("section", "cache"), bench::jnum("req_per_s", rps),
         bench::jnum("hit_rate", static_cast<double>(stats.cache_hits) /
                                     static_cast<double>(stats.requests)),
         bench::jnum("speedup", rps / one_client_rps)});
  }
  // ---- 4. Tracing + profiling overhead guard --------------------------------
  // The request path is instrumented with obs::Span at every layer (net,
  // pool, serve, core, per-layer, per-GEMM). With the tracer, the tail
  // sampler AND the profiler all disabled — the production default — a Span
  // must cost one relaxed atomic load (tracing and profiling share one
  // combined flags word; the sampler only runs behind an enabled tracer).
  // Measure that cost directly and bound the implied fraction of a request's
  // budget: even at a generous 64 spans/request, it must stay under 2% of
  // the single-client request time measured above.
  {
    obs::Tracer::instance().disable();
    obs::Tracer::instance().sampler().disable();
    obs::Profiler::instance().stop();
    constexpr int kSpanReps = 2'000'000;
    Timer t_span;
    for (int i = 0; i < kSpanReps; ++i) {
      obs::Span span("bench.disabled", "bench");
    }
    const double ns_per_span = t_span.seconds() * 1e9 / kSpanReps;
    const double spans_per_req = 64.0;
    const double req_ns = 1e9 / one_client_rps;
    const double overhead = spans_per_req * ns_per_span / req_ns;
    std::printf("\ndisabled-tracing span cost: %.1f ns/span — %.4f%% of a request at %.0f "
                "spans/req (budget: 2%%)\n",
                ns_per_span, 100.0 * overhead, spans_per_req);
    report.sample({bench::jstr("section", "trace_overhead"),
                   bench::jnum("ns_per_disabled_span", ns_per_span),
                   bench::jnum("overhead_fraction", overhead)});
    if (overhead >= 0.02) {
      std::printf("FAIL: disabled tracing costs %.2f%% of request time (>= 2%%)\n",
                  100.0 * overhead);
      report.write();
      return 1;
    }
  }

  // ---- 5. Span-stack profiler on the serving path ---------------------------
  // Run a short single-client server workload with the sampling profiler on
  // and show where the samples land. The folded stacks should put the bulk
  // of the time under serve.run_batch's forward pass — if they don't, the
  // pipeline is spending its budget outside the model.
  {
    obs::Profiler& prof = obs::Profiler::instance();
    prof.clear();
    prof.start(std::chrono::microseconds(200));
    serve::ServeConfig scfg;
    scfg.max_batch = 8;
    scfg.cache_capacity = 0;
    auto serve_model = std::make_shared<core::CongestionForecaster>(cfg);
    serve::ForecastServer server(scfg, std::move(serve_model));
    for (Index i = 0; i < reps; ++i) {
      server.submit(inputs[static_cast<std::size_t>(i % reps)]).get();
    }
    server.shutdown();
    prof.stop();
    std::printf("\nprofiler: %llu folded-stack samples over %lld requests; hottest stacks:\n",
                static_cast<unsigned long long>(prof.samples()),
                static_cast<long long>(reps));
    for (const auto& [stack, count] : prof.top_k(5)) {
      std::printf("  %8llu  %s\n", static_cast<unsigned long long>(count), stack.c_str());
    }
    report.sample({bench::jstr("section", "profiler"),
                   bench::jint("samples", static_cast<Index>(prof.samples()))});
    prof.clear();
  }

  report.write();
  return 0;
}
