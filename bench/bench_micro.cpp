// Performance microbenchmarks (google-benchmark) for the substrate hot
// paths: GEMM, convolution forward/backward, U-Net inference, PathFinder
// routing, rendering and colormap decoding. These back the speedup
// discussion of Sec 5.1 and catch performance regressions.
#include <benchmark/benchmark.h>

#include "bench/bench_json.h"
#include "common/rng.h"
#include "core/unet.h"
#include "data/dataset.h"
#include "fpga/design_suite.h"
#include "img/render.h"
#include "nn/conv2d.h"
#include "nn/gemm.h"
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

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  bench::BenchReport report("micro");
  JsonTeeReporter reporter(report);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  report.write();
  return 0;
}
