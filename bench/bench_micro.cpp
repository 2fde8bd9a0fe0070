// Performance microbenchmarks (google-benchmark) for the substrate hot
// paths: GEMM, convolution forward/backward, U-Net inference, PathFinder
// routing, rendering and colormap decoding. These back the speedup
// discussion of Sec 5.1 and catch performance regressions. After them,
// main() runs the disabled-span guard and exits non-zero on a breach.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench/bench_json.h"
#include "common/rng.h"
#include "common/timer.h"
#include "core/forecaster.h"
#include "core/unet.h"
#include "data/dataset.h"
#include "fpga/design_suite.h"
#include "img/render.h"
#include "nn/conv2d.h"
#include "nn/gemm.h"
#include "obs/profiler.h"
#include "obs/sampler.h"
#include "obs/trace.h"
#include "place/sa_placer.h"
#include "route/router.h"

using namespace paintplace;

namespace {

nn::Tensor random_tensor(nn::Shape shape, std::uint64_t seed) {
  Rng rng(seed);
  nn::Tensor t(std::move(shape));
  for (Index i = 0; i < t.numel(); ++i) t[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  return t;
}

void BM_Gemm(benchmark::State& state) {
  const Index n = state.range(0);
  std::vector<float> a(static_cast<std::size_t>(n * n)), b(a), c(a);
  Rng rng(1);
  for (auto& v : a) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  for (auto& v : b) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  for (auto _ : state) {
    nn::sgemm(n, n, n, 1.0f, a.data(), b.data(), 0.0f, c.data());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(256)->Arg(512);

void BM_ConvForward(benchmark::State& state) {
  Rng rng(2);
  nn::Conv2d conv("c", 64, 128, 4, 2, 1, rng);
  const nn::Tensor x = random_tensor(nn::Shape{1, 64, 32, 32}, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.forward(x));
  }
}
BENCHMARK(BM_ConvForward);

void BM_ConvBackward(benchmark::State& state) {
  Rng rng(4);
  nn::Conv2d conv("c", 64, 128, 4, 2, 1, rng);
  const nn::Tensor x = random_tensor(nn::Shape{1, 64, 32, 32}, 5);
  const nn::Tensor g = random_tensor(nn::Shape{1, 128, 16, 16}, 6);
  conv.forward(x);
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.backward(g));
  }
}
BENCHMARK(BM_ConvBackward);

void BM_UNetInference(benchmark::State& state) {
  core::GeneratorConfig cfg;
  cfg.image_size = state.range(0);
  cfg.base_channels = 8;
  cfg.max_channels = 64;
  core::UNetGenerator gen(cfg);
  gen.set_training(false);
  const nn::Tensor x = random_tensor(nn::Shape{1, 4, cfg.image_size, cfg.image_size}, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.forward(x));
  }
}
BENCHMARK(BM_UNetInference)->Arg(64)->Arg(128)->Unit(benchmark::kMillisecond);

struct RouteFixture {
  fpga::Netlist nl;
  fpga::Arch arch;
  place::Placement placement;

  RouteFixture()
      : nl(fpga::generate_packed(fpga::scale_spec(fpga::design_by_name("ode"), 0.04),
                                 fpga::NetgenParams{}, 8)),
        arch(make_arch(nl)),
        placement(make_placement(arch, nl)) {}

  static fpga::Arch make_arch(const fpga::Netlist& nl) {
    const fpga::NetlistStats s = nl.stats();
    return fpga::Arch::auto_sized(
        {s.num_clbs, s.num_inputs + s.num_outputs, s.num_mems, s.num_mults});
  }
  static place::Placement make_placement(const fpga::Arch& arch, const fpga::Netlist& nl) {
    place::SaPlacer placer(arch, nl, place::PlacerOptions{});
    return placer.place();
  }
};

void BM_PathFinderRoute(benchmark::State& state) {
  RouteFixture f;
  route::ChannelGraph graph(f.arch);
  for (auto _ : state) {
    route::CongestionMap congestion(graph);
    route::PathFinderRouter router(graph);
    benchmark::DoNotOptimize(router.route(f.placement, congestion));
  }
  state.SetLabel(std::to_string(f.nl.num_nets()) + " nets");
}
BENCHMARK(BM_PathFinderRoute)->Unit(benchmark::kMillisecond);

// items_per_s is the annealer's moves per second.
void BM_SaPlace(benchmark::State& state) {
  RouteFixture f;
  std::uint64_t seed = 1;
  std::int64_t moves = 0;
  for (auto _ : state) {
    place::PlacerOptions opt;
    opt.seed = seed++;
    place::SaPlacer placer(f.arch, f.nl, opt);
    benchmark::DoNotOptimize(placer.place());
    moves += placer.report().moves_attempted;
  }
  state.SetItemsProcessed(moves);
  state.SetLabel(std::to_string(f.nl.num_blocks()) + " blocks");
}
BENCHMARK(BM_SaPlace)->Unit(benchmark::kMillisecond);

void BM_RenderHeatmap(benchmark::State& state) {
  RouteFixture f;
  route::ChannelGraph graph(f.arch);
  route::CongestionMap congestion(graph);
  route::PathFinderRouter router(graph);
  router.route(f.placement, congestion);
  const img::PixelGeometry geom(f.arch, 256);
  for (auto _ : state) {
    benchmark::DoNotOptimize(img::render_route_heatmap(f.placement, congestion, geom));
  }
}
BENCHMARK(BM_RenderHeatmap);

void BM_RenderConnectivity(benchmark::State& state) {
  RouteFixture f;
  const img::PixelGeometry geom(f.arch, 256);
  for (auto _ : state) {
    benchmark::DoNotOptimize(img::render_connectivity(f.placement, geom));
  }
}
BENCHMARK(BM_RenderConnectivity);

void BM_ColormapDecode(benchmark::State& state) {
  RouteFixture f;
  route::ChannelGraph graph(f.arch);
  route::CongestionMap congestion(graph);
  route::PathFinderRouter router(graph);
  router.route(f.placement, congestion);
  const img::PixelGeometry geom(f.arch, 256);
  const img::Image heat = img::render_route_heatmap(f.placement, congestion, geom);
  const img::Image mask = img::channel_mask(geom);
  for (auto _ : state) {
    benchmark::DoNotOptimize(img::decode_total_utilization(heat, mask));
  }
}
BENCHMARK(BM_ColormapDecode);

// Console reporter that also accumulates each run into a BenchReport so the
// harness emits BENCH_micro.json alongside the usual console table.
class JsonTeeReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonTeeReporter(bench::BenchReport& report) : report_(report) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    benchmark::ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.error_occurred || run.iterations == 0) continue;
      const double iters = static_cast<double>(run.iterations);
      std::vector<bench::JsonField> fields;
      fields.push_back(bench::jstr("name", run.benchmark_name()));
      fields.push_back(bench::jint("iterations", static_cast<long long>(run.iterations)));
      fields.push_back(bench::jnum("real_time_ms", run.real_accumulated_time / iters * 1e3));
      fields.push_back(bench::jnum("cpu_time_ms", run.cpu_accumulated_time / iters * 1e3));
      const auto items = run.counters.find("items_per_second");
      if (items != run.counters.end()) {
        fields.push_back(bench::jnum("items_per_s", items->second.value));
      }
      report_.sample(fields);
    }
  }

 private:
  bench::BenchReport& report_;
};

// The serving path opens a span at every layer (net, pool, serve, core,
// per-layer, per-GEMM). With the tracer, the tail sampler and the profiler
// all disabled, the production default, a span costs one relaxed load of
// the shared span mask. Even at 64 spans per request, that must stay under
// 2% of one batch-1 predict() at the serving shape (32x32, base 32, max
// 256 channels), timed in this process. Returns false on a breach.
bool disabled_span_guard(bench::BenchReport& report) {
  core::Pix2PixConfig cfg;
  cfg.generator.in_channels = 4;
  cfg.generator.image_size = 32;
  cfg.generator.base_channels = 32;
  cfg.generator.max_channels = 256;
  cfg.disc_base_channels = 32;
  core::CongestionForecaster model(cfg);
  model.set_deterministic_inference(true);
  nn::Tensor x = random_tensor(nn::Shape{1, 4, 32, 32}, 9);
  for (Index i = 0; i < x.numel(); ++i) x[i] = 0.5f * (x[i] + 1.0f);  // placement inputs are [0,1]
  (void)model.predict(x);  // packs the weights
  constexpr int kPredicts = 16;
  Timer t_predict;
  for (int i = 0; i < kPredicts; ++i) benchmark::DoNotOptimize(model.predict(x));
  const double predict_ns = t_predict.seconds() * 1e9 / kPredicts;

  obs::Tracer::instance().disable();
  obs::Tracer::instance().sampler().disable();
  obs::Profiler::instance().stop();
  constexpr int kSpans = 2'000'000;
  Timer t_span;
  for (int i = 0; i < kSpans; ++i) {
    obs::Span span("bench.disabled", "bench");
  }
  const double ns_per_span = t_span.seconds() * 1e9 / kSpans;
  const double overhead = 64.0 * ns_per_span / predict_ns;
  std::printf("\ndisabled-tracing span cost: %.1f ns/span, %.4f%% of a %.2f ms batch-1 predict "
              "at 64 spans/request (budget: 2%%)\n",
              ns_per_span, 100.0 * overhead, predict_ns * 1e-6);
  report.sample({bench::jstr("section", "trace_overhead"),
                 bench::jnum("ns_per_disabled_span", ns_per_span),
                 bench::jnum("overhead_fraction", overhead)});
  if (overhead < 0.02) return true;
  std::printf("FAIL: disabled tracing costs %.2f%% of a predict (>= 2%%)\n", 100.0 * overhead);
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  bench::BenchReport report("micro");
  JsonTeeReporter reporter(report);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  // After the suite, so no --benchmark_filter can skip the guard.
  const bool ok = disabled_span_guard(report);
  report.write();
  return ok ? 0 : 1;
}
