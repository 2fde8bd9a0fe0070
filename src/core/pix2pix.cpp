#include "core/pix2pix.h"

#include <algorithm>
#include <optional>

#include "common/timer.h"
#include "nn/serialize.h"
#include "nn/tensor_ops.h"
#include "obs/trace.h"

namespace paintplace::core {

namespace {

void check_training_pair(const Pix2PixConfig& config, const nn::Tensor& input01,
                         const nn::Tensor& truth01) {
  const GeneratorConfig& gen = config.generator;
  PP_CHECK_MSG(input01.rank() == 4 && input01.dim(0) >= 1 && input01.dim(1) == gen.in_channels &&
                   input01.dim(2) == gen.image_size && input01.dim(3) == gen.image_size,
               "Pix2Pix::train_step input " << input01.shape().str() << " does not match model (N,"
                                            << gen.in_channels << "," << gen.image_size << ","
                                            << gen.image_size << ")");
  PP_CHECK_MSG(truth01.rank() == 4 && truth01.dim(0) == input01.dim(0) &&
                   truth01.dim(1) == gen.out_channels && truth01.dim(2) == gen.image_size &&
                   truth01.dim(3) == gen.image_size,
               "Pix2Pix::train_step truth " << truth01.shape().str() << " does not match input "
                                            << input01.shape().str() << " and model (N,"
                                            << gen.out_channels << "," << gen.image_size << ","
                                            << gen.image_size << ")");
}

/// The phase spans of a training step. next() closes the open "train.*" span
/// and opens the named one, so consecutive phases tile the step and the
/// trace leaves none of its time unattributed; the last span closes with
/// the step.
class PhaseSpans {
 public:
  void next(const char* name) {
    span_.reset();
    span_.emplace(name, "train");
  }

 private:
  std::optional<obs::Span> span_;
};

}  // namespace

Pix2Pix::Pix2Pix(const Pix2PixConfig& config) : config_(config) {
  GeneratorConfig gen_cfg = config.generator;
  gen_cfg.seed = config.seed;
  generator_ = std::make_unique<UNetGenerator>(gen_cfg);
  discriminator_ = std::make_unique<PatchDiscriminator>(config.discriminator_config());
  opt_g_ = std::make_unique<nn::Adam>(generator_->parameters(), config.adam);
  opt_d_ = std::make_unique<nn::Adam>(discriminator_->parameters(), config.adam);
}

nn::Tensor Pix2Pix::to_signed(const nn::Tensor& t01) {
  nn::Tensor t = t01;
  for (Index i = 0; i < t.numel(); ++i) t[i] = t[i] * 2.0f - 1.0f;
  return t;
}

nn::Tensor Pix2Pix::to_unit(const nn::Tensor& signed_t) {
  nn::Tensor t = signed_t;
  for (Index i = 0; i < t.numel(); ++i) t[i] = std::clamp((t[i] + 1.0f) * 0.5f, 0.0f, 1.0f);
  return t;
}

GanLosses Pix2Pix::train_step(const nn::Tensor& input01, const nn::Tensor& truth01,
                              StepTimings* timings) {
  check_training_pair(config_, input01, truth01);
  PhaseSpans phases;
  phases.next("train.g_forward");
  const nn::Tensor x = to_signed(input01);
  const nn::Tensor t = to_signed(truth01);

  generator_->set_training(true);
  discriminator_->set_training(true);

  Timer timer;
  // ---- Generator forward (one stochastic draw of z per step). ----
  const nn::Tensor g = generator_->forward(x);
  if (timings) timings->g_forward_s = timer.seconds();

  GanLosses losses;

  // ---- Discriminator step: real pair -> 1, fake pair -> 0. ----
  phases.next("train.zero_grad");
  discriminator_->zero_grad();
  timer.reset();
  {
    phases.next("train.d_forward");
    const nn::Tensor real_logits = discriminator_->forward(nn::concat_channels(x, t));
    phases.next("train.loss");
    const float loss_real = bce_.forward(real_logits, 1.0f);
    // Halve each branch so D's total matches the conventional (real+fake)/2.
    nn::Tensor grad = bce_.backward();
    grad.mul_(0.5f);
    phases.next("train.d_backward");
    discriminator_->backward(grad);

    phases.next("train.d_forward");
    const nn::Tensor fake_logits = discriminator_->forward(nn::concat_channels(x, g));
    phases.next("train.loss");
    const float loss_fake = bce_.forward(fake_logits, 0.0f);
    grad = bce_.backward();
    grad.mul_(0.5f);
    phases.next("train.d_backward");
    discriminator_->backward(grad);

    losses.d_loss = 0.5 * (static_cast<double>(loss_real) + static_cast<double>(loss_fake));
    phases.next("train.opt_d");
    opt_d_->step();
  }
  if (timings) timings->d_step_s = timer.seconds();

  // ---- Generator step: fool the (updated) discriminator + L1. ----
  phases.next("train.zero_grad");
  generator_->zero_grad();
  discriminator_->zero_grad();  // scratch; D is not stepped below
  timer.reset();
  {
    // Re-run D on the fake pair so its activation caches match the weights
    // used to compute the generator gradient.
    phases.next("train.d_forward");
    const nn::Tensor fake_logits = discriminator_->forward(nn::concat_channels(x, g));
    phases.next("train.loss");
    const float g_gan = bce_.forward(fake_logits, 1.0f);  // non-saturating form
    const nn::Tensor grad_fake = bce_.backward();
    phases.next("train.d_backward");
    const nn::Tensor grad_concat = discriminator_->backward(grad_fake);
    auto [grad_x_part, grad_g] = nn::split_channels(grad_concat, config_.generator.in_channels);
    (void)grad_x_part;  // condition x is an input, not a learnable path

    losses.g_gan = static_cast<double>(g_gan);
    phases.next("train.loss");
    const float l1 = l1_.forward(g, t);
    losses.g_l1 = static_cast<double>(l1);
    if (config_.use_l1) {
      grad_g.add_(l1_.backward(), config_.lambda_l1);
    }
    phases.next("train.g_backward");
    generator_->backward(grad_g);
    phases.next("train.opt_g");
    opt_g_->step();
  }
  if (timings) timings->g_step_s = timer.seconds();
  return losses;
}

GanLosses Pix2Pix::train_step_accumulated(const std::vector<const nn::Tensor*>& inputs01,
                                          const std::vector<const nn::Tensor*>& truths01) {
  const Index B = static_cast<Index>(inputs01.size());
  PP_CHECK_MSG(B >= 1 && inputs01.size() == truths01.size(),
               "train_step_accumulated needs matching, non-empty input/truth lists");
  PP_CHECK_MSG((B & (B - 1)) == 0,
               "train_step_accumulated batch size " << B << " must be a power of two "
                                                    << "(exact 1/N gradient scaling)");
  const float inv_b = 1.0f / static_cast<float>(B);

  generator_->set_training(true);
  discriminator_->set_training(true);

  PhaseSpans phases;
  std::vector<nn::Tensor> xs, ts, fakes;
  xs.reserve(static_cast<std::size_t>(B));
  ts.reserve(static_cast<std::size_t>(B));
  fakes.reserve(static_cast<std::size_t>(B));
  for (Index b = 0; b < B; ++b) {
    phases.next("train.g_forward");
    check_training_pair(config_, *inputs01[static_cast<std::size_t>(b)],
                        *truths01[static_cast<std::size_t>(b)]);
    PP_CHECK_MSG(inputs01[static_cast<std::size_t>(b)]->dim(0) == 1,
                 "train_step_accumulated samples must be single (1,C,H,W) tensors");
    xs.push_back(to_signed(*inputs01[static_cast<std::size_t>(b)]));
    ts.push_back(to_signed(*truths01[static_cast<std::size_t>(b)]));
    // One stochastic draw per sample for the D phase's fake pairs. (A batched
    // step draws the batch's noise field in one pass instead — see
    // docs/training.md for when the two updates coincide bit-for-bit.)
    fakes.push_back(generator_->forward(xs.back()));
  }

  GanLosses losses;

  // ---- Discriminator step, gradients averaged over the micro-batch. ----
  phases.next("train.zero_grad");
  discriminator_->zero_grad();
  {
    double loss_real = 0.0, loss_fake = 0.0;
    for (Index b = 0; b < B; ++b) {
      phases.next("train.d_forward");
      const nn::Tensor real_logits = discriminator_->forward(
          nn::concat_channels(xs[static_cast<std::size_t>(b)], ts[static_cast<std::size_t>(b)]));
      phases.next("train.loss");
      loss_real += static_cast<double>(bce_.forward(real_logits, 1.0f));
      nn::Tensor grad = bce_.backward();
      grad.mul_(0.5f * inv_b);  // exact: both factors are powers of two
      phases.next("train.d_backward");
      discriminator_->backward(grad);
    }
    for (Index b = 0; b < B; ++b) {
      phases.next("train.d_forward");
      const nn::Tensor fake_logits = discriminator_->forward(nn::concat_channels(
          xs[static_cast<std::size_t>(b)], fakes[static_cast<std::size_t>(b)]));
      phases.next("train.loss");
      loss_fake += static_cast<double>(bce_.forward(fake_logits, 0.0f));
      nn::Tensor grad = bce_.backward();
      grad.mul_(0.5f * inv_b);
      phases.next("train.d_backward");
      discriminator_->backward(grad);
    }
    losses.d_loss = 0.5 * (loss_real + loss_fake) / static_cast<double>(B);
    phases.next("train.opt_d");
    opt_d_->step();
  }

  // ---- Generator step: per-sample forward/backward, one Adam update. ----
  phases.next("train.zero_grad");
  generator_->zero_grad();
  discriminator_->zero_grad();  // scratch; D is not stepped below
  {
    for (Index b = 0; b < B; ++b) {
      // Re-run G so its layer caches (and D's, below) belong to this sample.
      phases.next("train.g_forward");
      const nn::Tensor g = generator_->forward(xs[static_cast<std::size_t>(b)]);
      phases.next("train.d_forward");
      const nn::Tensor fake_logits = discriminator_->forward(
          nn::concat_channels(xs[static_cast<std::size_t>(b)], g));
      phases.next("train.loss");
      losses.g_gan += static_cast<double>(bce_.forward(fake_logits, 1.0f));
      nn::Tensor grad = bce_.backward();
      grad.mul_(inv_b);
      phases.next("train.d_backward");
      const nn::Tensor grad_concat = discriminator_->backward(grad);
      auto [grad_x_part, grad_g] = nn::split_channels(grad_concat, config_.generator.in_channels);
      (void)grad_x_part;
      phases.next("train.loss");
      losses.g_l1 += static_cast<double>(l1_.forward(g, ts[static_cast<std::size_t>(b)]));
      if (config_.use_l1) {
        nn::Tensor l1_grad = l1_.backward();
        l1_grad.mul_(inv_b);
        grad_g.add_(l1_grad, config_.lambda_l1);
      }
      phases.next("train.g_backward");
      generator_->backward(grad_g);
    }
    losses.g_gan /= static_cast<double>(B);
    losses.g_l1 /= static_cast<double>(B);
    phases.next("train.opt_g");
    opt_g_->step();
  }
  return losses;
}

nn::Tensor Pix2Pix::predict(const nn::Tensor& input01) {
  const GeneratorConfig& gen = config_.generator;
  PP_CHECK_MSG(input01.rank() == 4, "Pix2Pix::predict expects an NCHW tensor (N," << gen.in_channels
                                        << "," << gen.image_size << "," << gen.image_size
                                        << "), got rank " << input01.rank());
  PP_CHECK_MSG(input01.dim(0) >= 1 && input01.dim(1) == gen.in_channels &&
                   input01.dim(2) == gen.image_size && input01.dim(3) == gen.image_size,
               "Pix2Pix::predict input " << input01.shape().str() << " does not match model (N,"
                                         << gen.in_channels << "," << gen.image_size << ","
                                         << gen.image_size << ")");
  generator_->set_training(false);  // eval batch-norm; dropout z stays live unless frozen
  const nn::Tensor g = generator_->forward(to_signed(input01));
  return to_unit(g);
}

void Pix2Pix::reset_optimizers(float lr) {
  nn::AdamConfig cfg = config_.adam;
  cfg.lr = lr;
  opt_g_ = std::make_unique<nn::Adam>(generator_->parameters(), cfg);
  opt_d_ = std::make_unique<nn::Adam>(discriminator_->parameters(), cfg);
}

void Pix2Pix::save_optimizer_state(nn::TensorMap& out) const {
  opt_g_->export_state(out, "opt_g/");
  opt_d_->export_state(out, "opt_d/");
}

bool Pix2Pix::load_optimizer_state(const nn::TensorMap& map) {
  if (!nn::Adam::has_state(map, "opt_g/") || !nn::Adam::has_state(map, "opt_d/")) return false;
  opt_g_->import_state(map, "opt_g/");
  opt_d_->import_state(map, "opt_d/");
  return true;
}

nn::Tensor Pix2Pix::encode_config(const Pix2PixConfig& config) {
  const GeneratorConfig& g = config.generator;
  return nn::Tensor(nn::Shape{12},
                    {static_cast<float>(g.in_channels), static_cast<float>(g.out_channels),
                     static_cast<float>(g.image_size), static_cast<float>(g.base_channels),
                     static_cast<float>(g.max_channels),
                     static_cast<float>(static_cast<int>(g.skips)),
                     g.dropout ? 1.0f : 0.0f, g.dropout_p,
                     static_cast<float>(config.disc_base_channels), config.lambda_l1,
                     config.use_l1 ? 1.0f : 0.0f,
                     static_cast<float>(static_cast<int>(g.norm))});
}

Pix2PixConfig Pix2Pix::decode_config(const nn::Tensor& encoded) {
  PP_CHECK_MSG(encoded.shape() == nn::Shape{12}, "malformed checkpoint config record");
  Pix2PixConfig cfg;
  cfg.generator.in_channels = static_cast<Index>(encoded[0]);
  cfg.generator.out_channels = static_cast<Index>(encoded[1]);
  cfg.generator.image_size = static_cast<Index>(encoded[2]);
  cfg.generator.base_channels = static_cast<Index>(encoded[3]);
  cfg.generator.max_channels = static_cast<Index>(encoded[4]);
  cfg.generator.skips = static_cast<SkipMode>(static_cast<int>(encoded[5]));
  cfg.generator.dropout = encoded[6] != 0.0f;
  cfg.generator.dropout_p = encoded[7];
  cfg.disc_base_channels = static_cast<Index>(encoded[8]);
  cfg.lambda_l1 = encoded[9];
  cfg.use_l1 = encoded[10] != 0.0f;
  cfg.generator.norm = static_cast<NormKind>(static_cast<int>(encoded[11]));
  cfg.generator.validate();
  return cfg;
}

namespace {
constexpr const char* kConfigKey = "__pix2pix_config__";
}  // namespace

void Pix2Pix::save(const std::string& path) {
  nn::TensorMap map = nn::snapshot_parameters(*generator_);
  nn::TensorMap disc = nn::snapshot_parameters(*discriminator_);
  map.insert(disc.begin(), disc.end());
  map.emplace(kConfigKey, encode_config(config_));
  nn::save_tensors_file(map, path);
}

void Pix2Pix::load(const std::string& path) {
  const nn::TensorMap map = nn::load_tensors_file(path);
  if (const auto it = map.find(kConfigKey); it != map.end()) {
    const Pix2PixConfig stored = decode_config(it->second);
    PP_CHECK_MSG(encode_config(stored).max_abs_diff(encode_config(config_)) == 0.0f,
                 "checkpoint " << path << " was trained with a different architecture "
                               << "configuration; use Pix2Pix::load_file to reconstruct it");
  }
  nn::restore_parameters(*generator_, map);
  nn::restore_parameters(*discriminator_, map);
}

Pix2PixConfig Pix2Pix::peek_config(const std::string& path) {
  const nn::TensorMap map = nn::load_tensors_file(path);
  const auto it = map.find(kConfigKey);
  PP_CHECK_MSG(it != map.end(), "checkpoint " << path << " has no config record");
  return decode_config(it->second);
}

Pix2Pix Pix2Pix::load_file(const std::string& path) {
  const nn::TensorMap map = nn::load_tensors_file(path);
  const auto it = map.find(kConfigKey);
  PP_CHECK_MSG(it != map.end(), "checkpoint " << path << " has no config record");
  Pix2Pix model(decode_config(it->second));
  nn::restore_parameters(*model.generator_, map);
  nn::restore_parameters(*model.discriminator_, map);
  return model;
}

}  // namespace paintplace::core
