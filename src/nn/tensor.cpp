#include "nn/tensor.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/parallel.h"

namespace paintplace::nn {

std::string Shape::str() const {
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < dims_.size(); ++i) {
    if (i) os << ",";
    os << dims_[i];
  }
  os << "]";
  return os.str();
}

Tensor Tensor::full(Shape shape, float value) {
  Tensor t(std::move(shape));
  t.fill(value);
  return t;
}

Tensor& Tensor::add_(const Tensor& other, float alpha) {
  PP_CHECK_MSG(shape_ == other.shape_, "add_ shape mismatch " << shape_.str() << " vs "
                                                              << other.shape_.str());
  const float* src = other.data();
  float* dst = data();
  const Index n = numel();
  if (n < kParallelGrain) {
    for (Index i = 0; i < n; ++i) dst[i] += alpha * src[i];
  } else {
    parallel_for(n, [&](Index b, Index e) {
      for (Index i = b; i < e; ++i) dst[i] += alpha * src[i];
    });
  }
  return *this;
}

Tensor& Tensor::mul_(float s) {
  float* dst = data();
  const Index n = numel();
  if (n < kParallelGrain) {
    for (Index i = 0; i < n; ++i) dst[i] *= s;
  } else {
    parallel_for(n, [&](Index b, Index e) {
      for (Index i = b; i < e; ++i) dst[i] *= s;
    });
  }
  return *this;
}

double Tensor::sum() const {
  double s = 0.0;
  for (float v : data_) s += static_cast<double>(v);
  return s;
}

float Tensor::min() const {
  PP_CHECK(!data_.empty());
  return *std::min_element(data_.begin(), data_.end());
}

float Tensor::max() const {
  PP_CHECK(!data_.empty());
  return *std::max_element(data_.begin(), data_.end());
}

float Tensor::max_abs_diff(const Tensor& other) const {
  PP_CHECK_MSG(shape_ == other.shape_, "max_abs_diff shape mismatch");
  float m = 0.0f;
  for (Index i = 0; i < numel(); ++i) {
    m = std::max(m, std::fabs(data_[static_cast<std::size_t>(i)] -
                              other.data_[static_cast<std::size_t>(i)]));
  }
  return m;
}

double Tensor::mean_abs_diff(const Tensor& other) const {
  PP_CHECK_MSG(shape_ == other.shape_, "mean_abs_diff shape mismatch");
  if (numel() == 0) return 0.0;
  double s = 0.0;
  for (Index i = 0; i < numel(); ++i) {
    s += std::fabs(static_cast<double>(data_[static_cast<std::size_t>(i)]) -
                   static_cast<double>(other.data_[static_cast<std::size_t>(i)]));
  }
  return s / static_cast<double>(numel());
}

}  // namespace paintplace::nn
