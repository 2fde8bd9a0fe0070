// train — strategy-1 training of the serving-scale cGAN. Set-up routes 40
// seeded placements (data::build_dataset) and splits them 32 train / 8 val.
// The run trains one fresh seed-17 model (lr 1e-3) in epochs of batch-4
// steps over a seeded DataLoader, validating with train::Trainer::validate
// after every epoch, until the time is up. The same backend serves writes
// beside reads here: every Adam::step bumps weight versions, which
// invalidates the pack cache, and the backward pass runs sgemm_at / sgemm_bt
// — a gain for inference that costs training shows here. The op is one step
// (batch assembly + train_step).
//
// val_l1 and val_pixel_acc are read after a fixed number of epochs, so they
// repeat exactly for a seed however fast the machine is. Output checks:
// finite losses, a val_l1 at that epoch below epoch 0's, and a replay — a
// second fresh model trained for the same epochs after the timed run — that
// validates bit-equal, epoch for epoch. Exactly two models are built per
// run, so the peak RSS does not depend on how many epochs fit in the time.
#include <cmath>
#include <optional>
#include <tuple>

#include "data/dataset.h"
#include "data/splits.h"
#include "obs/trace.h"
#include "train/data_loader.h"
#include "train/trainer.h"
#include "trace_fold.h"
#include "workloads.h"

namespace e2e {

namespace {

constexpr Index kBatch = 4;
constexpr double kLearningRate = 1e-3;

struct Scale {
  Index placements;      ///< routed dataset size, 1/5 of it held out for validation
  Index quality_epochs;  ///< epoch after which val_l1 / val_pixel_acc are read
};

Scale scale_for(const Options& opt) { return opt.smoke ? Scale{10, 2} : Scale{40, 4}; }

struct TrainState {
  std::unique_ptr<Design> design;
  data::Dataset dataset;
  std::vector<const data::Sample*> train, val;
  double build_s = 0.0;
};

struct Segment {
  Latencies steps;
  Latencies validate;
  double data_s = 0.0, g_forward_s = 0.0, d_step_s = 0.0, g_step_s = 0.0;
  Index samples = 0;
  double wall_s = 0.0;
};

/// Samples per second.
double throughput(const Segment& seg) {
  return seg.wall_s > 0.0 ? static_cast<double>(seg.samples) / seg.wall_s : 0.0;
}

std::unique_ptr<TrainState> set_up(const Options& opt) {
  auto state = std::make_unique<TrainState>();
  state->design = std::make_unique<Design>();
  data::DatasetConfig cfg;
  cfg.image_width = kWidth;
  cfg.sweep.num_placements = scale_for(opt).placements;
  cfg.sweep.base_seed = derive_seed(opt.seed, 20);
  const Clock::time_point t0 = Clock::now();
  state->dataset = data::build_dataset(state->design->netlist, state->design->arch, cfg);
  state->build_s = seconds_between(t0, Clock::now());
  std::vector<const data::Sample*> all;
  for (const data::Sample& s : state->dataset.samples) all.push_back(&s);
  std::tie(state->train, state->val) = data::train_val_split(all, 0.2, derive_seed(opt.seed, 21));
  return state;
}

core::Pix2PixConfig training_config() {
  core::Pix2PixConfig cfg = model_config();
  cfg.adam.lr = static_cast<float>(kLearningRate);
  return cfg;
}

train::DataLoaderConfig loader_config(std::uint64_t seed) {
  train::DataLoaderConfig cfg;
  cfg.batch_size = kBatch;
  cfg.seed = seed;
  return cfg;
}

train::TrainerConfig trainer_config(std::uint64_t seed) {
  train::TrainerConfig cfg;
  cfg.batch_size = kBatch;
  cfg.seed = seed;
  return cfg;  // validation only; no checkpoint directory
}

/// One training run of a fresh model. Every train() call continues where the
/// previous one stopped.
class Training {
 public:
  Training(const TrainState& state, std::uint64_t seed)
      : state_(state),
        model_(training_config()),
        loader_(state.train, loader_config(seed)),
        trainer_(model_, trainer_config(seed)) {}

  /// Trains until `seconds` have passed and at least `min_epochs` epochs
  /// (over every call) are validated; stops at a step boundary. With a trace
  /// the recorded spans are flushed after every epoch.
  Segment train(double seconds, Index min_epochs, TraceSession* trace) {
    Segment seg;
    const Clock::time_point start = Clock::now();
    const Clock::time_point deadline =
        start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
    while (Clock::now() < deadline || epochs_done() < min_epochs) {
      if (!in_epoch_) {
        loader_.start_epoch(epochs_done());
        in_epoch_ = true;
      }
      if (step(seg)) continue;
      in_epoch_ = false;
      validate(seg);
      if (trace != nullptr) trace->flush();
    }
    seg.wall_s = seconds_between(start, Clock::now());
    return seg;
  }

  bool finite_losses() const { return finite_losses_; }
  Index epochs_done() const { return static_cast<Index>(val_l1_.size()); }
  const std::vector<double>& val_l1() const { return val_l1_; }
  const std::vector<double>& val_acc() const { return val_acc_; }

 private:
  /// One step; false, without stepping, when the epoch is over.
  bool step(Segment& seg) {
    const Clock::time_point t0 = Clock::now();
    train::Batch batch;
    {
      obs::Span data_span("bench.train.data", "bench");
      if (!loader_.next(batch)) return false;
    }
    const Clock::time_point t1 = Clock::now();
    core::StepTimings phases;
    core::GanLosses losses;
    {
      obs::Span step_span("bench.train.step", "bench");
      losses = model_.model().train_step(batch.inputs, batch.targets, &phases);
    }
    seg.steps.add(ms_since(t0));
    seg.data_s += seconds_between(t0, t1);
    seg.g_forward_s += phases.g_forward_s;
    seg.d_step_s += phases.d_step_s;
    seg.g_step_s += phases.g_step_s;
    seg.samples += batch.size();
    finite_losses_ = finite_losses_ && std::isfinite(losses.d_loss) &&
                     std::isfinite(losses.g_gan) && std::isfinite(losses.g_l1);
    return true;
  }

  void validate(Segment& seg) {
    const Clock::time_point v0 = Clock::now();
    train::EpochStats stats;
    {
      obs::Span validate_span("bench.train.validate", "bench");
      stats = trainer_.validate(state_.val, epochs_done());
    }
    seg.validate.add(ms_since(v0));
    val_l1_.push_back(stats.val_l1);
    val_acc_.push_back(stats.val_pixel_accuracy);
  }

  const TrainState& state_;
  core::CongestionForecaster model_;
  train::DataLoader loader_;
  train::Trainer trainer_;
  bool in_epoch_ = false;
  bool finite_losses_ = true;
  std::vector<double> val_l1_, val_acc_;
};

/// The first `epochs` validations of a training run.
struct Quality {
  bool finite_losses = true;
  std::vector<double> val_l1, val_acc;

  Quality(const Training& t, Index epochs)
      : finite_losses(t.finite_losses()),
        val_l1(t.val_l1().begin(), t.val_l1().begin() + epochs),
        val_acc(t.val_acc().begin(), t.val_acc().begin() + epochs) {}
};

/// Reports the quality metrics of the timed run and runs the output checks
/// against a replay of its first `epochs` epochs.
void check_quality(const Quality& run, const TrainState& state, const Options& opt,
                   Index epochs, Report& rep) {
  rep.check(run.finite_losses, "a training loss is not finite");
  rep.check(run.val_l1.back() < run.val_l1.front(),
            "val_l1 did not fall: epoch 0 " + std::to_string(run.val_l1.front()) + ", epoch " +
                std::to_string(epochs - 1) + " " + std::to_string(run.val_l1.back()));
  rep.metric("val_l1", run.val_l1.back(), "1");
  rep.metric("val_pixel_acc", run.val_acc.back(), "1");

  Training replay(state, derive_seed(opt.seed, 22));
  replay.train(0.0, epochs, nullptr);
  const Quality again(replay, epochs);
  rep.check(again.finite_losses, "a replay training loss is not finite");
  rep.check(again.val_l1 == run.val_l1 && again.val_acc == run.val_acc,
            "a replay of the same seed validated differently");
}

}  // namespace

void run_train(const Options& opt, Report& rep) {
  std::unique_ptr<TrainState> state =
      timed_setup<TrainState>(rep, opt.setup_repeats(), [&] { return set_up(opt); });
  const Index epochs = scale_for(opt).quality_epochs;

  std::optional<Quality> quality;
  {
    Training run(*state, derive_seed(opt.seed, 22));
    if (!opt.trace) {
      const Segment seg = run.train(opt.seconds, epochs, nullptr);
      rep.ops(seg.steps.size(), seg.steps.failed());
      report_end_to_end(rep, seg.steps, throughput(seg));
    } else {
      const Segment untraced = run.train(opt.seconds / 3.0, 0, nullptr);
      PackWindow pack;
      TraceSession trace(trace_path(opt));
      trace.start();
      const Segment seg = run.train(opt.seconds * 2.0 / 3.0, epochs, &trace);
      trace.stop();
      rep.ops(untraced.steps.size() + seg.steps.size(),
              untraced.steps.failed() + seg.steps.failed());

      double route_s = 0.0, iterations = 0.0;
      for (const data::Sample& s : state->dataset.samples) {
        route_s += s.meta.route_seconds;
        iterations += static_cast<double>(s.meta.route_iterations);
      }
      const double n_routed = static_cast<double>(state->dataset.samples.size());
      const double steps = static_cast<double>(seg.steps.size());
      rep.metric("route.route_ms", 1e3 * route_s / n_routed, "ms");
      rep.metric("route.iterations", iterations / n_routed, "1");
      rep.metric("data.build_dataset_s", state->build_s, "s");
      rep.metric("train.data_ms", 1e3 * seg.data_s / steps, "ms");
      rep.metric("train.g_forward_ms", 1e3 * seg.g_forward_s / steps, "ms");
      rep.metric("train.d_step_ms", 1e3 * seg.d_step_s / steps, "ms");
      rep.metric("train.g_step_ms", 1e3 * seg.g_step_s / steps, "ms");
      rep.metric("train.validate_ms", seg.validate.mean(), "ms");
      const GemmTotals bt = trace.fold().gemm("sgemm_bt");
      rep.metric("backend.sgemm_bt_ms",
                 bt.count == 0 ? 0.0 : 1e-3 * bt.us / static_cast<double>(bt.count), "ms");
      // A step's time outside its instrumented children (layers, GEMMs):
      // norms, activations, losses and the optimizer.
      const SpanTotals step = trace.fold().span("bench.train.step");
      report_layers(rep, trace, pack, seg.steps.size(), throughput(untraced) / throughput(seg) - 1.0,
                    step.total_us == 0.0 ? 0.0 : step.self_us() / step.total_us);
    }
    quality.emplace(run, epochs);
  }  // the timed model is gone before the replay builds the second one
  check_quality(*quality, *state, opt, epochs, rep);
}

}  // namespace e2e
