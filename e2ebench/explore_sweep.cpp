// explore_sweep — paper applications (a) and (b), placement exploration for
// minimum congestion, overall and per region. Each round places 16
// candidates with SweepConfig::options_at(seeded index) and renders them
// inside parallel_for_each, then makes one predict_batch(16), scores it
// (congestion_scores) and picks the least congested candidate in each of the
// five Regions. The annealer sets candidates per second and the forward runs
// at batch 16, so a forecaster-only speedup should show ~0 here: this is the
// control for live_anneal. The op is one round.
#include <cmath>

#include "common/parallel.h"
#include "core/explorer.h"
#include "data/dataset.h"
#include "nn/tensor_ops.h"
#include "obs/trace.h"
#include "place/sa_placer.h"
#include "trace_fold.h"
#include "workloads.h"

namespace e2e {

namespace {

constexpr Index kCandidates = 16;
constexpr Index kRoundsPerChunk = 10;  // trace flush period

struct ExploreState {
  std::unique_ptr<Design> design;
  std::shared_ptr<core::CongestionForecaster> model;
};

struct Segment {
  Latencies rounds;
  Latencies make_input;
  Latencies predict;
  double wall_s = 0.0;
  double anneal_s = 0.0;  ///< summed over candidates (they run in parallel)
  Index candidates = 0;
  Index moves = 0;
};

nn::Tensor batch_of(const std::vector<nn::Tensor>& inputs) {
  std::vector<const nn::Tensor*> ptrs;
  for (const nn::Tensor& x : inputs) ptrs.push_back(&x);
  return nn::stack_batch(ptrs);
}

std::unique_ptr<ExploreState> set_up() {
  auto state = std::make_unique<ExploreState>();
  state->design = std::make_unique<Design>();
  state->model = make_model();
  // First op: one batch-16 forecast of a random start placement.
  place::Placement start(state->design->arch, state->design->netlist);
  Rng rng(kNetlistSeed);
  start.random_init(rng);
  const nn::Tensor x = data::make_input(start, state->design->geom, kWidth, kLambdaConnect);
  const nn::Tensor heat =
      state->model->predict_batch(batch_of(std::vector<nn::Tensor>(kCandidates, x)));
  (void)state->model->congestion_scores(heat);
  return state;
}

class ExploreLoop {
 public:
  ExploreLoop(ExploreState& state, std::uint64_t seed, CheckSample& checks)
      : state_(state), checks_(checks) {
    sweep_.base_seed = derive_seed(seed, 10);
    // Start on a whole sweep period, so every run walks the same sequence of
    // option combinations and only the placer seeds depend on --seed.
    const auto period = static_cast<Index>(sweep_.alpha_ts.size() * sweep_.inner_nums.size() *
                                           sweep_.algorithms.size());
    next_index_ = period * static_cast<Index>(derive_seed(seed, 11) % 1000);
  }

  Segment run(double seconds, TraceSession* trace) {
    Segment seg;
    const Clock::time_point start = Clock::now();
    Clock::time_point end = start;
    Index chunk = 0;
    while (seconds_between(start, Clock::now()) < seconds) {
      round(seg);
      end = Clock::now();
      if (trace != nullptr && ++chunk == kRoundsPerChunk) {
        chunk = 0;
        trace->flush();
      }
    }
    seg.wall_s = seconds_between(start, end);
    return seg;
  }

 private:
  void round(Segment& seg) {
    const Clock::time_point t0 = Clock::now();
    obs::Span span("bench.explore.round", "bench");
    // Consecutive sweep indices: every round covers 16 of the 18 option
    // combinations, so rounds cost about the same.
    const Index first = next_index_;
    next_index_ += kCandidates;
    std::vector<nn::Tensor> inputs(kCandidates);
    std::vector<double> anneal_s(kCandidates), render_ms(kCandidates);
    std::vector<Index> moves(kCandidates);
    {
      obs::Span place_span("bench.explore.place_render", "bench");
      parallel_for_each(kCandidates, [&](Index j) {
        const auto u = static_cast<std::size_t>(j);
        place::SaPlacer placer(state_.design->arch, state_.design->netlist,
                               sweep_.options_at(first + j));
        const Clock::time_point a0 = Clock::now();
        place::Placement placement = [&] {
          obs::Span anneal("bench.place.anneal", "bench");
          return placer.place();
        }();
        const Clock::time_point r0 = Clock::now();
        {
          obs::Span render("bench.img.make_input", "bench");
          inputs[u] = data::make_input(placement, state_.design->geom, kWidth, kLambdaConnect);
        }
        anneal_s[u] = seconds_between(a0, r0);
        render_ms[u] = ms_since(r0);
        moves[u] = placer.report().moves_attempted;
      });
    }
    const Clock::time_point p0 = Clock::now();
    const nn::Tensor heat = state_.model->predict_batch(batch_of(inputs));
    seg.predict.add(ms_since(p0));

    bool ok = heat.shape() == nn::Shape{kCandidates, 3, kWidth, kWidth};
    std::vector<double> scores;
    {
      obs::Span score("bench.explore.score", "bench");
      scores = state_.model->congestion_scores(heat);
      for (const core::Region& region :
           {core::Region::overall(), core::Region::upper(), core::Region::lower(),
            core::Region::left(), core::Region::right()}) {
        double best = INFINITY;
        for (Index j = 0; ok && j < kCandidates; ++j) {
          best = std::min(best, core::region_congestion(nn::slice_batch(heat, j), region));
        }
        ok = ok && std::isfinite(best);
      }
    }
    for (Index j = 0; j < kCandidates; ++j) {
      const auto u = static_cast<std::size_t>(j);
      seg.anneal_s += anneal_s[u];
      seg.moves += moves[u];
      seg.make_input.add(render_ms[u]);
      if (!ok) continue;
      const nn::Tensor map = nn::slice_batch(heat, j);
      ok = valid_heatmap(map) && std::isfinite(scores[u]);
      if (CheckedOp* slot = checks_.slot()) *slot = {inputs[u], map, scores[u]};
    }
    seg.candidates += kCandidates;
    if (ok) {
      seg.rounds.add(ms_since(t0));
    } else {
      seg.rounds.add_failed();
    }
  }

  ExploreState& state_;
  CheckSample& checks_;
  data::SweepConfig sweep_;
  Index next_index_ = 0;
};

double throughput(const Segment& seg) {
  return seg.wall_s > 0.0 ? static_cast<double>(seg.candidates) / seg.wall_s : 0.0;
}

}  // namespace

void run_explore_sweep(const Options& opt, Report& rep) {
  std::unique_ptr<ExploreState> state = timed_setup<ExploreState>(rep, opt.setup_repeats(), set_up);
  CheckSample checks(derive_seed(opt.seed, 2));
  ExploreLoop loop(*state, opt.seed, checks);

  if (!opt.trace) {
    const Segment seg = loop.run(opt.seconds, nullptr);
    rep.ops(seg.rounds.size(), seg.rounds.failed());
    report_end_to_end(rep, seg.rounds, throughput(seg));
  } else {
    const Segment untraced = loop.run(opt.seconds / 3.0, nullptr);
    PackWindow pack;
    TraceSession trace(trace_path(opt));
    trace.start();
    const Segment seg = loop.run(opt.seconds * 2.0 / 3.0, &trace);
    trace.stop();
    rep.ops(untraced.rounds.size() + seg.rounds.size(),
            untraced.rounds.failed() + seg.rounds.failed());

    rep.metric("place.anneal_ms", 1e3 * seg.anneal_s / static_cast<double>(seg.candidates), "ms");
    rep.metric("place.moves_per_s", static_cast<double>(seg.moves) / seg.anneal_s, "1/s");
    rep.metric("img.make_input_ms", seg.make_input.quantile(0.5), "ms");
    rep.metric("core.predict_batch_ms", seg.predict.quantile(0.5), "ms");
    const SpanTotals rounds = trace.fold().span("bench.explore.round");
    report_layers(rep, trace, pack, seg.rounds.size(), throughput(untraced) / throughput(seg) - 1.0,
                  rounds.total_us == 0.0 ? 0.0 : rounds.self_us() / rounds.total_us);
  }
  check_against_reference(checks.ops(), rep);
}

}  // namespace e2e
