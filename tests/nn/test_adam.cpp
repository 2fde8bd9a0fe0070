#include "nn/adam.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"

namespace paintplace::nn {
namespace {

/// Minimal quadratic "module": loss = 0.5 * ||w - target||^2.
struct Quadratic {
  Parameter w{"w", Shape{2}};
  Tensor target{Shape{2}, {3.0f, -2.0f}};

  double loss() const {
    double total = 0.0;
    for (Index i = 0; i < 2; ++i) {
      const double d = static_cast<double>(w.value[i]) - static_cast<double>(target[i]);
      total += 0.5 * d * d;
    }
    return total;
  }
  void compute_grad() {
    for (Index i = 0; i < 2; ++i) w.grad[i] = w.value[i] - target[i];
  }
};

TEST(Adam, ConvergesOnQuadratic) {
  Quadratic q;
  Adam opt({&q.w}, AdamConfig{0.1f, 0.9f, 0.999f, 1e-8f});
  for (int i = 0; i < 500; ++i) {
    opt.zero_grad();
    q.compute_grad();
    opt.step();
  }
  EXPECT_NEAR(q.w.value[0], 3.0f, 1e-2f);
  EXPECT_NEAR(q.w.value[1], -2.0f, 1e-2f);
}

TEST(Adam, FirstStepMagnitudeIsLr) {
  // With bias correction the very first Adam step has magnitude ~lr.
  Parameter p("p", Shape{1});
  Adam opt({&p}, AdamConfig{0.01f, 0.9f, 0.999f, 1e-8f});
  p.grad[0] = 123.0f;  // any nonzero gradient
  opt.step();
  EXPECT_NEAR(std::fabs(p.value[0]), 0.01f, 1e-4f);
}

TEST(Adam, PaperDefaults) {
  const AdamConfig cfg;
  EXPECT_FLOAT_EQ(cfg.lr, 2e-4f);
  EXPECT_FLOAT_EQ(cfg.beta1, 0.5f);
  EXPECT_FLOAT_EQ(cfg.beta2, 0.999f);
  EXPECT_FLOAT_EQ(cfg.eps, 1e-8f);
}

TEST(Adam, ZeroGradClearsGradients) {
  Parameter p("p", Shape{3});
  p.grad.fill(5.0f);
  Adam opt({&p});
  opt.zero_grad();
  for (Index i = 0; i < 3; ++i) EXPECT_EQ(p.grad[i], 0.0f);
}

TEST(Adam, StepCountIncrements) {
  Parameter p("p", Shape{1});
  Adam opt({&p});
  EXPECT_EQ(opt.step_count(), 0);
  opt.step();
  opt.step();
  EXPECT_EQ(opt.step_count(), 2);
}

TEST(Adam, ZeroGradientLeavesParamsUnchanged) {
  Parameter p("p", Shape{2});
  p.value[0] = 1.5f;
  p.value[1] = -0.5f;
  Adam opt({&p});
  opt.step();
  EXPECT_FLOAT_EQ(p.value[0], 1.5f);
  EXPECT_FLOAT_EQ(p.value[1], -0.5f);
}

TEST(Adam, RejectsBadConfig) {
  Parameter p("p", Shape{1});
  EXPECT_THROW(Adam({&p}, AdamConfig{-1.0f, 0.5f, 0.999f, 1e-8f}), CheckError);
  EXPECT_THROW(Adam({&p}, AdamConfig{1e-3f, 1.0f, 0.999f, 1e-8f}), CheckError);
  EXPECT_THROW(Adam({&p}, AdamConfig{1e-3f, 0.5f, 0.999f, 0.0f}), CheckError);
}

TEST(Adam, StateRoundTripReplaysTrajectoryBitwise) {
  // Interrupt-and-restore at step 5 must replay steps 6..10 exactly: same
  // moments + same step count (bias correction) => identical parameters.
  Quadratic straight, resumed;
  Adam opt_straight({&straight.w}, AdamConfig{0.1f, 0.9f, 0.999f, 1e-8f});
  for (int i = 0; i < 5; ++i) {
    straight.compute_grad();
    opt_straight.step();
  }

  TensorMap state;
  opt_straight.export_state(state, "opt/");
  resumed.w.value = straight.w.value;  // checkpointed weights
  Adam opt_resumed({&resumed.w}, AdamConfig{0.1f, 0.9f, 0.999f, 1e-8f});
  opt_resumed.import_state(state, "opt/");
  EXPECT_EQ(opt_resumed.step_count(), 5);

  for (int i = 0; i < 5; ++i) {
    straight.compute_grad();
    opt_straight.step();
    resumed.compute_grad();
    opt_resumed.step();
  }
  EXPECT_EQ(resumed.w.value[0], straight.w.value[0]);  // bitwise, no tolerance
  EXPECT_EQ(resumed.w.value[1], straight.w.value[1]);
}

TEST(Adam, StepCountSurvivesLimbEncodingPastTwentyBits) {
  // The step count rides in float tensors as 20-bit limbs; counts past 2^20
  // must round-trip exactly.
  Parameter p("p", Shape{1});
  Adam opt({&p});
  for (Index i = 0; i < (Index{1} << 20) + 3; ++i) opt.step();

  TensorMap state;
  opt.export_state(state, "opt/");
  Parameter q("p", Shape{1});
  Adam restored({&q});
  restored.import_state(state, "opt/");
  EXPECT_EQ(restored.step_count(), (Index{1} << 20) + 3);
}

TEST(Adam, HasStateKeysOffThePrefix) {
  Parameter p("p", Shape{1});
  Adam opt({&p});
  TensorMap state;
  EXPECT_FALSE(Adam::has_state(state, "opt_g/"));
  opt.export_state(state, "opt_g/");
  EXPECT_TRUE(Adam::has_state(state, "opt_g/"));
  EXPECT_FALSE(Adam::has_state(state, "opt_d/"));
}

TEST(Adam, ImportRejectsMissingOrMismatchedState) {
  Parameter p("p", Shape{2});
  Adam opt({&p});
  TensorMap state;
  EXPECT_THROW(opt.import_state(state, "opt/"), CheckError);  // no state at all

  opt.export_state(state, "opt/");
  Parameter wrong("p", Shape{3});
  Adam other({&wrong});
  EXPECT_THROW(other.import_state(state, "opt/"), CheckError);  // shape mismatch
}

/// Scalar reference for Adam::step: the same three statements per element,
/// on one thread, every element through the checked accessor. The
/// raw-pointer, pool-split update must match it bit for bit.
struct ScalarAdam {
  AdamConfig config_;
  std::vector<Tensor> m_, v_;
  Index t_ = 0;

  ScalarAdam(const std::vector<Parameter*>& params, AdamConfig config) : config_(config) {
    for (Parameter* p : params) {
      m_.emplace_back(p->value.shape());
      v_.emplace_back(p->value.shape());
    }
  }

  void step(const std::vector<Parameter*>& params_) {
    t_ += 1;
    const float b1 = config_.beta1, b2 = config_.beta2;
    const float bias1 = 1.0f - std::pow(b1, static_cast<float>(t_));
    const float bias2 = 1.0f - std::pow(b2, static_cast<float>(t_));
    const float alpha = config_.lr * std::sqrt(bias2) / bias1;
    for (std::size_t pi = 0; pi < params_.size(); ++pi) {
      Parameter& p = *params_[pi];
      Tensor& m = m_[pi];
      Tensor& v = v_[pi];
      const Index n = p.value.numel();
      for (Index i = 0; i < n; ++i) {
        const float g = p.grad[i];
        m[i] = b1 * m[i] + (1.0f - b1) * g;
        v[i] = b2 * v[i] + (1.0f - b2) * g * g;
        p.value[i] -= alpha * m[i] / (std::sqrt(v[i]) + config_.eps);
      }
    }
  }
};

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), sizeof(float) * static_cast<std::size_t>(a.numel())) == 0;
}

TEST(Adam, StepMatchesScalarLoopBitForBit) {
  // Sizes on both sides of the elementwise grain, so serial parameters,
  // pool-split ones and uneven last ranges are all covered.
  const std::vector<Index> sizes = {1,          7,          kParallelGrain - 1, kParallelGrain,
                                    kParallelGrain + 1, 3 * kParallelGrain + 5};
  const AdamConfig config{1e-3f, 0.5f, 0.999f, 1e-8f};
  const int saved_workers = parallel_workers();
  for (const int workers : {1, 2, 3, 4}) {
    set_parallel_workers(workers);
    std::vector<Parameter> fast_store;
    Rng init(7);
    for (std::size_t k = 0; k < sizes.size(); ++k) {
      fast_store.emplace_back("p" + std::to_string(k), Shape{sizes[k]});
      for (Index i = 0; i < sizes[k]; ++i) {
        fast_store.back().value[i] = static_cast<float>(init.normal());
      }
    }
    std::vector<Parameter> oracle_store = fast_store;
    std::vector<Parameter*> fast, oracle;
    for (std::size_t k = 0; k < sizes.size(); ++k) {
      fast.push_back(&fast_store[k]);
      oracle.push_back(&oracle_store[k]);
    }
    Adam opt(fast, config);
    ScalarAdam reference(oracle, config);
    Rng grads(11);
    for (int step = 0; step < 10; ++step) {
      for (std::size_t k = 0; k < sizes.size(); ++k) {
        for (Index i = 0; i < sizes[k]; ++i) fast[k]->grad[i] = static_cast<float>(grads.normal());
        oracle[k]->grad = fast[k]->grad;
      }
      opt.step();
      reference.step(oracle);
    }

    TensorMap state;
    opt.export_state(state, "opt/");
    for (std::size_t k = 0; k < sizes.size(); ++k) {
      SCOPED_TRACE("workers " + std::to_string(workers) + ", size " + std::to_string(sizes[k]));
      EXPECT_TRUE(same_bits(fast[k]->value, oracle[k]->value));
      EXPECT_TRUE(same_bits(state.at("opt/" + fast[k]->name + ".m"), reference.m_[k]));
      EXPECT_TRUE(same_bits(state.at("opt/" + fast[k]->name + ".v"), reference.v_[k]));
    }
    EXPECT_TRUE(same_bits(state.at("opt/__step__"), Tensor(Shape{2}, {0.0f, 10.0f})));
  }
  set_parallel_workers(saved_workers);
}

TEST(Adam, MismatchedGradThrowsBeforeAnyUpdate) {
  // A gradient of the wrong size is a caller bug. It must throw before any
  // weight, moment or the step count moves, whichever parameter holds it
  // and whether it is short or long.
  for (const Index bad_size : {Index{2}, Index{4}}) {
    Parameter a("a", Shape{3}), b("b", Shape{3});
    Adam opt({&a, &b}, AdamConfig{0.1f, 0.9f, 0.999f, 1e-8f});
    a.grad.fill(1.0f);
    b.grad.fill(-1.0f);
    opt.step();  // non-zero moments, so an untouched state is observable
    const Tensor a_before = a.value, b_before = b.value;
    TensorMap before;
    opt.export_state(before, "opt/");

    b.grad = Tensor(Shape{bad_size});
    b.grad.fill(2.0f);
    EXPECT_THROW(opt.step(), CheckError) << "grad of " << bad_size << " for 3 values";

    EXPECT_TRUE(same_bits(a.value, a_before));
    EXPECT_TRUE(same_bits(b.value, b_before));
    EXPECT_EQ(opt.step_count(), 1);
    TensorMap after;
    opt.export_state(after, "opt/");
    for (const auto& [key, tensor] : before) {
      EXPECT_TRUE(same_bits(after.at(key), tensor)) << key;
    }
  }
}

TEST(Adam, MultipleParametersIndependent) {
  Parameter a("a", Shape{1}), b("b", Shape{1});
  Adam opt({&a, &b}, AdamConfig{0.1f, 0.9f, 0.999f, 1e-8f});
  a.grad[0] = 1.0f;
  b.grad[0] = 0.0f;
  opt.step();
  EXPECT_LT(a.value[0], 0.0f);
  EXPECT_EQ(b.value[0], 0.0f);
}

}  // namespace
}  // namespace paintplace::nn
