// Batched-inference equivalence: the contract the serving engine relies on.
#include <gtest/gtest.h>

#include <cstring>

#include "nn/tensor_ops.h"
#include "tests/serve/serve_fixtures.h"

namespace paintplace::serve {
namespace {

TEST(PredictBatch, MatchesPerSamplePredictExactly) {
  auto model = testfix::tiny_model();
  model->set_deterministic_inference(true);
  std::vector<nn::Tensor> inputs;
  for (std::uint64_t i = 0; i < 6; ++i) inputs.push_back(testfix::random_input(i));

  std::vector<const nn::Tensor*> ptrs;
  for (const nn::Tensor& t : inputs) ptrs.push_back(&t);
  const nn::Tensor batched = model->predict_batch(nn::stack_batch(ptrs));
  ASSERT_EQ(batched.dim(0), 6);
  for (std::uint64_t i = 0; i < 6; ++i) {
    const nn::Tensor single = model->predict(inputs[i]);
    // Bit-exact: the batched GEMM lowering preserves each element's
    // accumulation order, and at batch 1 the inner layers take cpu_opt's
    // small-N path while the batched call runs them on the packed
    // micro-kernel — both must produce the same bits.
    const nn::Tensor row = nn::slice_batch(batched, static_cast<Index>(i));
    ASSERT_EQ(row.numel(), single.numel());
    EXPECT_EQ(0, std::memcmp(row.data(), single.data(), sizeof(float) * single.numel()))
        << "sample " << i << " differs by up to " << row.max_abs_diff(single);
  }
}

TEST(PredictBatch, DeterministicInferenceIsAPureFunction) {
  auto model = testfix::tiny_model();
  model->set_deterministic_inference(true);
  const nn::Tensor x = testfix::random_input(1);
  const nn::Tensor a = model->predict(x);
  const nn::Tensor b = model->predict(x);
  EXPECT_EQ(a.max_abs_diff(b), 0.0f);
  EXPECT_TRUE(model->deterministic_inference());
}

TEST(PredictBatch, StochasticInferenceStillDrawsNoise) {
  auto model = testfix::tiny_model();  // default: paper behaviour, z live in eval
  const nn::Tensor x = testfix::random_input(1);
  const nn::Tensor a = model->predict(x);
  const nn::Tensor b = model->predict(x);
  EXPECT_GT(a.max_abs_diff(b), 0.0f);
  EXPECT_FALSE(model->deterministic_inference());
}

TEST(PredictBatch, BatchShapeIsNOutChannelsByImage) {
  auto model = testfix::tiny_model();
  std::vector<nn::Tensor> inputs;
  std::vector<const nn::Tensor*> ptrs;
  for (std::uint64_t i = 0; i < 3; ++i) inputs.push_back(testfix::random_input(i));
  for (const nn::Tensor& t : inputs) ptrs.push_back(&t);
  const nn::Tensor y = model->predict_batch(nn::stack_batch(ptrs));
  EXPECT_EQ(y.shape(), (nn::Shape{3, 3, 16, 16}));
}

TEST(PredictBatch, CongestionScoresMatchPerSampleScore) {
  auto model = testfix::tiny_model();
  model->set_deterministic_inference(true);
  std::vector<nn::Tensor> inputs;
  std::vector<const nn::Tensor*> ptrs;
  for (std::uint64_t i = 0; i < 4; ++i) inputs.push_back(testfix::random_input(i));
  for (const nn::Tensor& t : inputs) ptrs.push_back(&t);
  const nn::Tensor batched = model->predict_batch(nn::stack_batch(ptrs));
  const std::vector<double> scores = model->congestion_scores(batched);
  ASSERT_EQ(scores.size(), 4u);
  for (std::uint64_t i = 0; i < 4; ++i) {
    const double single = model->congestion_score(nn::slice_batch(batched, static_cast<Index>(i)));
    EXPECT_DOUBLE_EQ(scores[i], single);
  }
}

TEST(PredictBatch, WrongShapeFailsWithClearMessage) {
  auto model = testfix::tiny_model();
  try {
    model->predict(nn::Tensor(nn::Shape{1, 4, 8, 8}));  // model expects 16x16
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("predict"), std::string::npos);
    EXPECT_NE(what.find("16"), std::string::npos);  // names the expected extent
  }
  // predict() is single-sample; batches must go through predict_batch.
  EXPECT_THROW(model->predict(nn::Tensor(nn::Shape{2, 4, 16, 16})), CheckError);
  EXPECT_NO_THROW(model->predict_batch(nn::Tensor(nn::Shape{2, 4, 16, 16})));
  // Rank and channel mismatches fail up front too.
  EXPECT_THROW(model->predict(nn::Tensor(nn::Shape{4, 16, 16})), CheckError);
  EXPECT_THROW(model->predict_batch(nn::Tensor(nn::Shape{2, 3, 16, 16})), CheckError);
}

}  // namespace
}  // namespace paintplace::serve
