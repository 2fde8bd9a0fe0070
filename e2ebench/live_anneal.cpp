// live_anneal — paper application (c), real-time forecasts during annealing.
// One closed-loop caller runs SaPlacer anneals seeded from --seed; every 20
// accepted moves the snapshot callback renders the placement
// (data::make_input) and forecasts it with ForecastServer::submit(x).get()
// under the default ServeConfig. Every forecast is batch 1 with a distinct
// input, so this loads the serve queue's idle max_wait, the GEMV-shaped inner
// layers and rendering, and bypasses net, the result cache and batching.
// The op is one frame (render + forecast).
#include <cmath>

#include "data/dataset.h"
#include "obs/trace.h"
#include "place/sa_placer.h"
#include "serve/forecast_server.h"
#include "trace_fold.h"
#include "workloads.h"

namespace e2e {

namespace {

constexpr Index kSnapshotEvery = 20;     // accepted moves per frame
constexpr Index kFramesPerChunk = 100;   // trace flush period (~2.3k events per ring)

struct LiveState {
  std::unique_ptr<Design> design;
  std::unique_ptr<serve::ForecastServer> server;
};

struct Segment {
  Latencies frames;
  Latencies make_input;
  double wall_s = 0.0;
  double anneal_s = 0.0;  ///< SaPlacer::place() time, snapshot callbacks excluded
  Index anneals = 0;
  Index moves = 0;
};

std::unique_ptr<LiveState> set_up() {
  auto state = std::make_unique<LiveState>();
  state->design = std::make_unique<Design>();
  state->server = std::make_unique<serve::ForecastServer>(serve::ServeConfig{}, make_model());
  // First op: forecast the render of a random start placement.
  place::Placement start(state->design->arch, state->design->netlist);
  Rng rng(kNetlistSeed);
  start.random_init(rng);
  state->server->submit(data::make_input(start, state->design->geom, kWidth, kLambdaConnect)).get();
  return state;
}

class LiveLoop {
 public:
  LiveLoop(LiveState& state, std::uint64_t seed, CheckSample& checks)
      : state_(state), rng_(seed), checks_(checks) {}

  /// Anneals until `seconds` have passed, one frame per snapshot.
  Segment run(double seconds, TraceSession* trace) {
    Segment seg;
    const Clock::time_point start = Clock::now();
    const Clock::time_point deadline =
        start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
    Clock::time_point last_frame_end = start;
    Index chunk = 0;
    while (Clock::now() < deadline) {
      place::PlacerOptions options;
      options.seed = rng_.engine()();
      place::SaPlacer placer(state_.design->arch, state_.design->netlist, options);
      double callback_s = 0.0;
      placer.set_snapshot(
          [&](const place::Placement& placement, Index, double) {
            const Clock::time_point t0 = Clock::now();
            if (t0 < deadline) {
              frame(placement, seg);
              last_frame_end = Clock::now();
              if (trace != nullptr && ++chunk == kFramesPerChunk) {
                chunk = 0;
                settle_spans();
                trace->flush();
              }
            }
            callback_s += seconds_between(t0, Clock::now());
          },
          kSnapshotEvery);
      const Clock::time_point a0 = Clock::now();
      placer.place();
      seg.anneal_s += seconds_between(a0, Clock::now()) - callback_s;
      seg.anneals += 1;
      seg.moves += placer.report().moves_attempted;
    }
    seg.wall_s = seconds_between(start, last_frame_end);
    return seg;
  }

 private:
  void frame(const place::Placement& placement, Segment& seg) {
    const Clock::time_point t0 = Clock::now();
    obs::Span span("bench.live.frame", "bench");
    nn::Tensor x;
    {
      obs::Span render("bench.img.make_input", "bench");
      x = data::make_input(placement, state_.design->geom, kWidth, kLambdaConnect);
    }
    seg.make_input.add(ms_since(t0));
    serve::ForecastResult result;
    bool ok = true;
    try {
      obs::Span forecast("bench.serve.forecast", "bench");
      result = state_.server->submit(x).get();
    } catch (const std::exception&) {
      ok = false;
    }
    ok = ok && !result.from_cache && valid_heatmap(result.heatmap) &&
         std::isfinite(result.congestion_score);
    if (!ok) {
      seg.frames.add_failed();
      return;
    }
    seg.frames.add(ms_since(t0));
    if (CheckedOp* slot = checks_.slot()) *slot = {x, result.heatmap, result.congestion_score};
  }

  LiveState& state_;
  Rng rng_;
  CheckSample& checks_;
};

double throughput(const Segment& seg) {
  return seg.wall_s > 0.0 ? static_cast<double>(seg.frames.size()) / seg.wall_s : 0.0;
}

}  // namespace

void run_live_anneal(const Options& opt, Report& rep) {
  std::unique_ptr<LiveState> state = timed_setup<LiveState>(rep, opt.setup_repeats(), set_up);
  CheckSample checks(derive_seed(opt.seed, 2));
  LiveLoop loop(*state, derive_seed(opt.seed, 1), checks);

  if (!opt.trace) {
    const Segment seg = loop.run(opt.seconds, nullptr);
    rep.ops(seg.frames.size(), seg.frames.failed());
    report_end_to_end(rep, seg.frames, throughput(seg));
  } else {
    const Segment untraced = loop.run(opt.seconds / 3.0, nullptr);
    HistWindow wait(registry_histogram("serve_batch_wait_seconds"));
    HistWindow exec(registry_histogram("serve_batch_exec_seconds"));
    const serve::ServeStats stats0 = state->server->stats();
    PackWindow pack;
    TraceSession trace(trace_path(opt));
    trace.start();
    const Segment seg = loop.run(opt.seconds * 2.0 / 3.0, &trace);
    settle_spans();
    trace.stop();
    const serve::ServeStats stats = state->server->stats();
    rep.ops(untraced.frames.size() + seg.frames.size(),
            untraced.frames.failed() + seg.frames.failed());

    rep.metric("place.anneal_ms", 1e3 * seg.anneal_s / static_cast<double>(seg.anneals), "ms");
    rep.metric("place.moves_per_s", static_cast<double>(seg.moves) / seg.anneal_s, "1/s");
    rep.metric("img.make_input_ms", seg.make_input.quantile(0.5), "ms");
    rep.metric("serve.batch_wait_p50_ms", 1e3 * wait.quantile(0.5), "ms");
    rep.metric("serve.batch_exec_p50_ms", 1e3 * exec.quantile(0.5), "ms");
    rep.metric("serve.mean_batch",
               static_cast<double>(stats.model_samples - stats0.model_samples) /
                   static_cast<double>(stats.batches - stats0.batches),
               "1");
    // Besides rendering, a frame waits on the batch queue and the batch
    // itself; the residual is submit and future hand-off.
    const double covered_ms = seg.make_input.sum() + 1e3 * (wait.sum() + exec.sum());
    report_layers(rep, trace, pack, seg.frames.size(), throughput(untraced) / throughput(seg) - 1.0,
                  1.0 - covered_ms / seg.frames.sum());
  }

  state->server->shutdown();
  check_against_reference(checks.ops(), rep);
}

}  // namespace e2e
