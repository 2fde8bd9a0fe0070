// Dense float32 tensor in NCHW layout — the value type of the nn framework.
//
// Kept deliberately simple: contiguous storage, up-to-4-D shapes, bounds
// checks on the scalar accessors, raw-pointer access for the hot kernels
// (gemm / im2col), and a handful of whole-tensor reductions used by losses
// and tests. No views, no broadcasting: the network code in this repo never
// needs them, and their absence keeps aliasing reasoning trivial.
#pragma once

#include <string>
#include <vector>

#include "common/check.h"

namespace paintplace::nn {

using paintplace::Index;

/// Elementwise passes over a tensor fan out over the worker pool from this
/// many elements on; below it the dispatch overhead beats the work. Chosen so
/// optimizer updates and copies of real layer tensors parallelise while
/// per-pixel scalars and test tensors stay serial.
inline constexpr Index kParallelGrain = Index{1} << 15;

/// Tensor shape: an ordered list of extents. Empty shape = scalar tensor
/// with one element (used for loss values).
class Shape {
 public:
  Shape() = default;
  Shape(std::initializer_list<Index> dims) : dims_(dims) { validate(); }
  explicit Shape(std::vector<Index> dims) : dims_(std::move(dims)) { validate(); }

  Index rank() const { return static_cast<Index>(dims_.size()); }
  Index operator[](Index i) const {
    PP_CHECK_MSG(i >= 0 && i < rank(), "shape dim " << i << " out of range");
    return dims_[static_cast<std::size_t>(i)];
  }
  Index numel() const {
    Index n = 1;
    for (Index d : dims_) n *= d;
    return n;
  }
  bool operator==(const Shape& o) const { return dims_ == o.dims_; }
  bool operator!=(const Shape& o) const { return !(*this == o); }

  const std::vector<Index>& dims() const { return dims_; }
  std::string str() const;

 private:
  void validate() const {
    for (Index d : dims_) PP_CHECK_MSG(d >= 0, "negative shape extent");
  }
  std::vector<Index> dims_;
};

/// Dense float tensor. Value semantics (copy copies the buffer).
class Tensor {
 public:
  Tensor() = default;
  explicit Tensor(Shape shape) : shape_(std::move(shape)) {
    data_.assign(static_cast<std::size_t>(shape_.numel()), 0.0f);
  }
  Tensor(Shape shape, std::vector<float> data) : shape_(std::move(shape)), data_(std::move(data)) {
    PP_CHECK_MSG(static_cast<Index>(data_.size()) == shape_.numel(),
                 "data size does not match shape " << shape_.str());
  }

  static Tensor zeros(Shape shape) { return Tensor(std::move(shape)); }
  static Tensor full(Shape shape, float value);
  static Tensor scalar(float value) { return Tensor(Shape{}, {value}); }

  const Shape& shape() const { return shape_; }
  Index rank() const { return shape_.rank(); }
  Index dim(Index i) const { return shape_[i]; }
  Index numel() const { return static_cast<Index>(data_.size()); }
  bool empty() const { return data_.empty(); }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  float& operator[](Index i) {
    PP_CHECK_MSG(i >= 0 && i < numel(), "flat index " << i << " out of range");
    return data_[static_cast<std::size_t>(i)];
  }
  float operator[](Index i) const {
    PP_CHECK_MSG(i >= 0 && i < numel(), "flat index " << i << " out of range");
    return data_[static_cast<std::size_t>(i)];
  }

  /// 4-D accessor (NCHW). Checked.
  float& at(Index n, Index c, Index h, Index w) { return data_[offset4(n, c, h, w)]; }
  float at(Index n, Index c, Index h, Index w) const { return data_[offset4(n, c, h, w)]; }

  /// Scalar value of a one-element tensor.
  float item() const {
    PP_CHECK_MSG(numel() == 1, "item() on tensor with " << numel() << " elements");
    return data_[0];
  }

  void fill(float value) { data_.assign(data_.size(), value); }

  /// Reinterpret the buffer with a new shape of equal numel.
  Tensor reshaped(Shape new_shape) const {
    PP_CHECK_MSG(new_shape.numel() == numel(), "reshape numel mismatch");
    return Tensor(std::move(new_shape), data_);
  }

  // ---- In-place arithmetic used by optimizers and losses ----
  Tensor& add_(const Tensor& other, float alpha = 1.0f);
  Tensor& sub_(const Tensor& other) { return add_(other, -1.0f); }
  Tensor& mul_(float s);

  // ---- Reductions ----
  double sum() const;
  double mean() const { return numel() == 0 ? 0.0 : sum() / static_cast<double>(numel()); }
  float min() const;
  float max() const;
  /// Largest absolute element-wise difference to `other` (shapes must match).
  float max_abs_diff(const Tensor& other) const;
  /// Mean |a - b| over all elements (the validation L1 metric).
  double mean_abs_diff(const Tensor& other) const;

 private:
  std::size_t offset4(Index n, Index c, Index h, Index w) const {
    PP_CHECK_MSG(rank() == 4, "at(n,c,h,w) on rank-" << rank() << " tensor");
    const Index N = shape_[0], C = shape_[1], H = shape_[2], W = shape_[3];
    PP_CHECK_MSG(n >= 0 && n < N && c >= 0 && c < C && h >= 0 && h < H && w >= 0 && w < W,
                 "index (" << n << "," << c << "," << h << "," << w << ") out of " << shape_.str());
    return static_cast<std::size_t>(((n * C + c) * H + h) * W + w);
  }

  Shape shape_;
  std::vector<float> data_;
};

}  // namespace paintplace::nn
