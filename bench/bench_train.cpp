// Training-pipeline benchmark: optimizer steps/sec of the mini-batched cGAN
// train_step at batch 1/4/8, per-phase breakdown (data assembly, generator
// forward, discriminator step, generator backward+step), under every
// registered compute backend.
//
// The model is the serving-scale configuration (channel-fat at moderate
// resolution) — the regime where the batched backward lowering and the
// cpu_opt GEMM kernels pay off. Override with PAINT_TRAIN_WIDTH /
// PAINT_TRAIN_BASE / PAINT_TRAIN_STEPS.
#include <cstdio>
#include <string>
#include <vector>

#include "backend/backend.h"
#include "bench/bench_json.h"
#include "common/flags.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/timer.h"
#include "core/pix2pix.h"
#include "data/sample.h"
#include "train/data_loader.h"

using namespace paintplace;

namespace {

std::vector<data::Sample> random_samples(Index n, Index width, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<data::Sample> out(static_cast<std::size_t>(n));
  for (data::Sample& s : out) {
    s.input = nn::Tensor(nn::Shape{1, 4, width, width});
    s.target = nn::Tensor(nn::Shape{1, 3, width, width});
    for (Index i = 0; i < s.input.numel(); ++i) {
      s.input[i] = static_cast<float>(rng.uniform());
    }
    for (Index i = 0; i < s.target.numel(); ++i) {
      s.target[i] = static_cast<float>(rng.uniform());
    }
  }
  return out;
}

struct RunResult {
  double steps_per_sec = 0.0;
  double samples_per_sec = 0.0;
  core::StepTimings phases;
  double data_s = 0.0;
};

RunResult run_training(const std::string& backend_name, Index batch, Index steps, Index width,
                       Index base) {
  backend::ScopedBackend scoped(backend_name);

  core::Pix2PixConfig cfg;
  cfg.generator.in_channels = 4;
  cfg.generator.out_channels = 3;
  cfg.generator.image_size = width;
  cfg.generator.base_channels = base;
  cfg.generator.max_channels = base * 8;
  cfg.disc_base_channels = base;
  cfg.seed = 17;
  core::Pix2Pix model(cfg);

  const std::vector<data::Sample> samples = random_samples(batch * 4, width, 23);
  std::vector<const data::Sample*> ptrs;
  for (const data::Sample& s : samples) ptrs.push_back(&s);
  train::DataLoaderConfig loader_cfg;
  loader_cfg.batch_size = batch;
  loader_cfg.seed = 29;
  train::DataLoader loader(ptrs, loader_cfg);

  RunResult result;
  Index done = 0, epoch = 0;
  // One warmup step per configuration: first-touch workspace growth and
  // lazy pool spin-up would otherwise pollute the smallest runs.
  Index warmup = 1;
  Timer total;
  while (done < steps) {
    loader.start_epoch(epoch++);
    train::Batch b;
    Timer data_timer;
    // Count-first so the timed window ends with the last measured step
    // instead of one extra (unmeasured) batch assembly.
    while (done < steps && loader.next(b)) {
      if (warmup > 0) {
        core::StepTimings ignored;
        model.train_step(b.inputs, b.targets, &ignored);
        warmup -= 1;
        total.reset();
        data_timer.reset();
        continue;
      }
      result.data_s += data_timer.seconds();
      core::StepTimings step;
      model.train_step(b.inputs, b.targets, &step);
      result.phases += step;
      done += 1;
      data_timer.reset();
    }
  }
  const double elapsed = total.seconds();
  result.steps_per_sec = static_cast<double>(steps) / elapsed;
  result.samples_per_sec = static_cast<double>(steps * batch) / elapsed;
  return result;
}

}  // namespace

int main() {
  std::setvbuf(stdout, nullptr, _IOLBF, 1 << 16);
  const Index width = env_or<Index>("PAINT_TRAIN_WIDTH", 32);
  const Index base = env_or<Index>("PAINT_TRAIN_BASE", 32);
  const Index steps = std::max<Index>(2, env_or<Index>("PAINT_TRAIN_STEPS", 12));

  std::printf("== paintplace::train step throughput ==\n");
  std::printf("model: %lldx%lld inputs, base %lld, max %lld channels; %lld steps/run\n",
              static_cast<long long>(width), static_cast<long long>(width),
              static_cast<long long>(base), static_cast<long long>(base * 8),
              static_cast<long long>(steps));
  std::printf("pool workers: %d\n\n", parallel_workers());

  bench::BenchReport report("train");
  report.meta(bench::jint("image_size", width));
  report.meta(bench::jint("base_channels", base));
  report.meta(bench::jint("steps_per_run", steps));
  report.meta(bench::jint("workers", parallel_workers()));

  std::printf("%-10s %6s %10s %12s | %8s %8s %8s %8s\n", "backend", "batch", "steps/s",
              "samples/s", "data", "G-fwd", "D-step", "G-bwd");
  double ref_b4 = 0.0, opt_b4 = 0.0;
  for (const std::string& name : backend::backend_names()) {
    for (const Index batch : {Index{1}, Index{4}, Index{8}}) {
      const RunResult r = run_training(name, batch, steps, width, base);
      std::printf("%-10s %6lld %10.2f %12.2f | %7.1f%% %7.1f%% %7.1f%% %7.1f%%\n", name.c_str(),
                  static_cast<long long>(batch), r.steps_per_sec, r.samples_per_sec,
                  100.0 * r.data_s * r.steps_per_sec / static_cast<double>(steps),
                  100.0 * r.phases.g_forward_s * r.steps_per_sec / static_cast<double>(steps),
                  100.0 * r.phases.d_step_s * r.steps_per_sec / static_cast<double>(steps),
                  100.0 * r.phases.g_step_s * r.steps_per_sec / static_cast<double>(steps));
      report.sample({bench::jstr("backend", name), bench::jint("batch", batch),
                     bench::jnum("steps_per_sec", r.steps_per_sec),
                     bench::jnum("samples_per_sec", r.samples_per_sec),
                     bench::jnum("data_seconds", r.data_s),
                     bench::jnum("g_forward_seconds", r.phases.g_forward_s),
                     bench::jnum("d_step_seconds", r.phases.d_step_s),
                     bench::jnum("g_step_seconds", r.phases.g_step_s)});
      if (batch == 4 && name == "reference") ref_b4 = r.steps_per_sec;
      if (batch == 4 && name == "cpu_opt") opt_b4 = r.steps_per_sec;
    }
  }
  if (ref_b4 > 0.0 && opt_b4 > 0.0) {
    std::printf("\ncpu_opt vs reference at batch 4: %.2fx steps/sec\n", opt_b4 / ref_b4);
    report.meta(bench::jnum("speedup_batch4", opt_b4 / ref_b4));
  }
  report.write();
  return 0;
}
