#include "nn/serialize.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "nn/conv2d.h"

namespace paintplace::nn {
namespace {

Tensor random_tensor(Shape shape, std::uint64_t seed) {
  Rng rng(seed);
  Tensor t(std::move(shape));
  for (Index i = 0; i < t.numel(); ++i) t[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  return t;
}

TEST(Serialize, StreamRoundTrip) {
  TensorMap map;
  map.emplace("alpha", random_tensor(Shape{3, 4}, 1));
  map.emplace("beta", random_tensor(Shape{2, 2, 2, 2}, 2));
  map.emplace("scalarish", Tensor::scalar(4.5f));

  std::stringstream buffer;
  save_tensors(map, buffer);
  const TensorMap loaded = load_tensors(buffer);

  ASSERT_EQ(loaded.size(), 3u);
  for (const auto& [name, tensor] : map) {
    const auto it = loaded.find(name);
    ASSERT_NE(it, loaded.end()) << name;
    EXPECT_EQ(it->second.shape(), tensor.shape());
    EXPECT_EQ(it->second.max_abs_diff(tensor), 0.0f);
  }
}

TEST(Serialize, RejectsGarbageMagic) {
  std::stringstream buffer;
  buffer << "not a checkpoint at all";
  EXPECT_THROW(load_tensors(buffer), CheckError);
}

TEST(Serialize, RejectsTruncatedStream) {
  TensorMap map;
  map.emplace("t", random_tensor(Shape{64}, 3));
  std::stringstream buffer;
  save_tensors(map, buffer);
  const std::string full = buffer.str();
  std::stringstream cut(full.substr(0, full.size() / 2));
  EXPECT_THROW(load_tensors(cut), CheckError);
}

/// A one-tensor checkpoint whose record declares `dims` and then holds
/// `floats` zero floats, written word by word as the format lays it out.
std::string checkpoint_declaring(const std::vector<std::uint64_t>& dims, std::size_t floats) {
  std::string bytes = "PPCK";
  const auto put = [&bytes](auto word) {
    bytes.append(reinterpret_cast<const char*>(&word), sizeof(word));
  };
  put(std::uint32_t{1});  // version
  put(std::uint64_t{1});  // tensor count
  put(std::uint64_t{1});  // name length
  bytes += 't';
  put(static_cast<std::uint64_t>(dims.size()));
  for (const std::uint64_t d : dims) put(d);
  bytes.append(floats * sizeof(float), '\0');
  return bytes;
}

TEST(Serialize, RejectsTensorExtentsWhoseProductOverflows) {
  constexpr std::uint64_t k2e31 = std::uint64_t{1} << 31, k2e32 = std::uint64_t{1} << 32;
  // 2^32 x 2^32 wraps 64 bits to 0, so unchecked it loads as an empty tensor.
  std::stringstream wraps(checkpoint_declaring({k2e32, k2e32}, 0));
  EXPECT_THROW(load_tensors(wraps), CheckError);
  // 2^32 x 2^31 fits 64 unsigned bits but not a signed Index; the trailing
  // 0 would make the total 0.
  std::stringstream past_index(checkpoint_declaring({k2e32, k2e31, 0}, 0));
  EXPECT_THROW(load_tensors(past_index), CheckError);
}

TEST(Serialize, RejectsMoreFloatsThanTheStreamHolds) {
  std::stringstream exact(checkpoint_declaring({4, 4}, 16));
  EXPECT_EQ(load_tensors(exact).at("t").shape(), Shape({4, 4}));
  std::stringstream one_short(checkpoint_declaring({4, 4}, 15));
  EXPECT_THROW(load_tensors(one_short), CheckError);
  // 2^17 x 2^17 = 2^34 floats is a 64 GiB zero-fill; the check comes first.
  constexpr std::uint64_t k2e17 = std::uint64_t{1} << 17;
  std::stringstream huge(checkpoint_declaring({k2e17, k2e17}, 16));
  EXPECT_THROW(load_tensors(huge), CheckError);
}

TEST(Serialize, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/pp_ckpt_test.bin";
  TensorMap map;
  map.emplace("weights", random_tensor(Shape{8, 4, 4, 4}, 4));
  save_tensors_file(map, path);
  const TensorMap loaded = load_tensors_file(path);
  EXPECT_EQ(loaded.at("weights").max_abs_diff(map.at("weights")), 0.0f);
  std::remove(path.c_str());
}

TEST(Serialize, MissingFileThrows) {
  EXPECT_THROW(load_tensors_file("/nonexistent/dir/ckpt.bin"), CheckError);
}

TEST(Serialize, SnapshotRestoreRoundTripsModule) {
  Rng rng(5);
  Conv2d conv_a("layer", 2, 3, 3, 1, 1, rng);
  const TensorMap snapshot = snapshot_parameters(conv_a);

  Rng rng2(99);  // different init
  Conv2d conv_b("layer", 2, 3, 3, 1, 1, rng2);
  std::vector<Parameter*> pa, pb;
  conv_a.collect_parameters(pa);
  conv_b.collect_parameters(pb);
  ASSERT_GT(pa[0]->value.max_abs_diff(pb[0]->value), 0.0f);

  restore_parameters(conv_b, snapshot);
  EXPECT_EQ(pa[0]->value.max_abs_diff(pb[0]->value), 0.0f);
  EXPECT_EQ(pa[1]->value.max_abs_diff(pb[1]->value), 0.0f);
}

TEST(Serialize, RestoreMissingParameterThrows) {
  Rng rng(6);
  Conv2d conv("layer", 1, 1, 3, 1, 1, rng);
  TensorMap empty;
  EXPECT_THROW(restore_parameters(conv, empty), CheckError);
}

TEST(Serialize, RestoreShapeMismatchThrows) {
  Rng rng(7);
  Conv2d conv("layer", 1, 1, 3, 1, 1, rng);
  TensorMap map;
  map.emplace("layer.weight", Tensor(Shape{2, 1, 3, 3}));
  map.emplace("layer.bias", Tensor(Shape{1}));
  EXPECT_THROW(restore_parameters(conv, map), CheckError);
}

TEST(Serialize, ExtraEntriesIgnored) {
  Rng rng(8);
  Conv2d conv("layer", 1, 1, 3, 1, 1, rng);
  TensorMap map = snapshot_parameters(conv);
  map.emplace("unrelated.tensor", Tensor(Shape{5}));
  EXPECT_NO_THROW(restore_parameters(conv, map));
}

}  // namespace
}  // namespace paintplace::nn
