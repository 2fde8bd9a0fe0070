#include "nn/adam.h"

#include <cmath>

#include "backend/pack_cache.h"
#include "common/parallel.h"

namespace paintplace::nn {

Adam::Adam(std::vector<Parameter*> params, AdamConfig config)
    : params_(std::move(params)), config_(config) {
  PP_CHECK(config_.lr > 0.0f && config_.eps > 0.0f);
  PP_CHECK(config_.beta1 >= 0.0f && config_.beta1 < 1.0f);
  PP_CHECK(config_.beta2 >= 0.0f && config_.beta2 < 1.0f);
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (Parameter* p : params_) {
    PP_CHECK(p != nullptr);
    m_.emplace_back(p->value.shape());
    v_.emplace_back(p->value.shape());
  }
}

void Adam::step() {
  // Every size is checked before t_ or any tensor moves, so a bad gradient
  // throws with the model and the optimizer state exactly as they were.
  for (std::size_t pi = 0; pi < params_.size(); ++pi) {
    const Parameter& p = *params_[pi];
    const Index n = p.value.numel();
    PP_CHECK_MSG(p.grad.numel() == n && m_[pi].numel() == n && v_[pi].numel() == n,
                 "Adam: parameter '" << p.name << "' has " << n << " values but grad "
                                     << p.grad.numel() << ", m " << m_[pi].numel() << ", v "
                                     << v_[pi].numel());
  }
  t_ += 1;
  const float b1 = config_.beta1, b2 = config_.beta2, eps = config_.eps;
  const float bias1 = 1.0f - std::pow(b1, static_cast<float>(t_));
  const float bias2 = 1.0f - std::pow(b2, static_cast<float>(t_));
  const float alpha = config_.lr * std::sqrt(bias2) / bias1;
  for (std::size_t pi = 0; pi < params_.size(); ++pi) {
    Parameter& p = *params_[pi];
    float* w = p.value.data();
    float* m = m_[pi].data();
    float* v = v_[pi].data();
    const float* grad = p.grad.data();
    // Each element's update reads and writes only that element, so any split
    // of the range gives the same bits as one serial pass.
    const auto update = [=](Index begin, Index end) {
      for (Index i = begin; i < end; ++i) {
        const float g = grad[i];
        m[i] = b1 * m[i] + (1.0f - b1) * g;
        v[i] = b2 * v[i] + (1.0f - b2) * g * g;
        w[i] -= alpha * m[i] / (std::sqrt(v[i]) + eps);
      }
    };
    const Index n = p.value.numel();
    if (n < kParallelGrain) {
      update(0, n);
    } else {
      parallel_for(n, update);
    }
    // The weights just changed in place: retire any packed panels built from
    // the old values and give the parameter a fresh cache identity. This is
    // how Trainer fine-tune steps invalidate the serving cache — every
    // weight update flows through here.
    p.bump_version();
    backend::PackedWeightCache::instance().invalidate(p.value.data());
  }
}

void Adam::zero_grad() {
  for (Parameter* p : params_) p->grad.fill(0.0f);
}

namespace {

// The step count is an integer stored in float tensors; 20-bit limbs keep
// it exact far past any realistic training length (same idiom as the
// trainer's loop-state checkpoint).
constexpr Index kStepLimb = Index{1} << 20;

std::string step_key(const std::string& prefix) { return prefix + "__step__"; }

}  // namespace

void Adam::export_state(TensorMap& out, const std::string& prefix) const {
  for (std::size_t pi = 0; pi < params_.size(); ++pi) {
    out.emplace(prefix + params_[pi]->name + ".m", m_[pi]);
    out.emplace(prefix + params_[pi]->name + ".v", v_[pi]);
  }
  out.emplace(step_key(prefix),
              Tensor(Shape{2}, {static_cast<float>(t_ / kStepLimb),
                                static_cast<float>(t_ % kStepLimb)}));
}

void Adam::import_state(const TensorMap& map, const std::string& prefix) {
  const auto step_it = map.find(step_key(prefix));
  PP_CHECK_MSG(step_it != map.end() && step_it->second.shape() == Shape{2},
               "no Adam state under prefix '" << prefix << "'");
  for (std::size_t pi = 0; pi < params_.size(); ++pi) {
    for (const char* moment : {".m", ".v"}) {
      const std::string key = prefix + params_[pi]->name + moment;
      const auto it = map.find(key);
      PP_CHECK_MSG(it != map.end(), "Adam state is missing '" << key << "'");
      PP_CHECK_MSG(it->second.shape() == params_[pi]->value.shape(),
                   "Adam state '" << key << "' has shape " << it->second.shape().str()
                                  << ", parameter has " << params_[pi]->value.shape().str());
      (moment[1] == 'm' ? m_ : v_)[pi] = it->second;
    }
  }
  t_ = static_cast<Index>(step_it->second[0]) * kStepLimb +
       static_cast<Index>(step_it->second[1]);
}

bool Adam::has_state(const TensorMap& map, const std::string& prefix) {
  return map.find(step_key(prefix)) != map.end();
}

}  // namespace paintplace::nn
