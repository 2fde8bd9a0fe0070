#include "data/dataset_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>

#include "fpga/netgen.h"

namespace paintplace::data {
namespace {

Dataset small_dataset() {
  fpga::DesignSpec spec;
  spec.name = "cache_toy";
  spec.num_luts = 25;
  spec.num_ffs = 8;
  spec.num_nets = 55;
  spec.num_inputs = 4;
  spec.num_outputs = 3;
  const fpga::Netlist nl = fpga::generate_packed(spec, fpga::NetgenParams{}, 6);
  const fpga::NetlistStats s = nl.stats();
  const fpga::Arch arch = fpga::Arch::auto_sized(
      {s.num_clbs, s.num_inputs + s.num_outputs, s.num_mems, s.num_mults});
  DatasetConfig cfg;
  cfg.image_width = 16;
  cfg.sweep.num_placements = 3;
  return build_dataset(nl, arch, cfg);
}

TEST(DatasetIo, RoundTripPreservesEverything) {
  const Dataset original = small_dataset();
  const std::string path = ::testing::TempDir() + "/pp_dataset.bin";
  save_dataset(original, path);
  const Dataset loaded = load_dataset(path);

  EXPECT_EQ(loaded.design, original.design);
  EXPECT_EQ(loaded.config.image_width, original.config.image_width);
  EXPECT_DOUBLE_EQ(loaded.config.lambda_connect, original.config.lambda_connect);
  ASSERT_EQ(loaded.samples.size(), original.samples.size());
  for (std::size_t i = 0; i < original.samples.size(); ++i) {
    const Sample& a = original.samples[i];
    const Sample& b = loaded.samples[i];
    EXPECT_EQ(a.input.max_abs_diff(b.input), 0.0f);
    EXPECT_EQ(a.target.max_abs_diff(b.target), 0.0f);
    EXPECT_EQ(a.meta.design, b.meta.design);
    EXPECT_EQ(a.meta.placer_options.seed, b.meta.placer_options.seed);
    EXPECT_DOUBLE_EQ(a.meta.placer_options.alpha_t, b.meta.placer_options.alpha_t);
    EXPECT_EQ(a.meta.placer_options.algorithm, b.meta.placer_options.algorithm);
    EXPECT_DOUBLE_EQ(a.meta.true_total_utilization, b.meta.true_total_utilization);
    EXPECT_DOUBLE_EQ(a.meta.route_seconds, b.meta.route_seconds);
    EXPECT_EQ(a.meta.route_success, b.meta.route_success);
    EXPECT_EQ(a.meta.route_iterations, b.meta.route_iterations);
  }
  std::remove(path.c_str());
}

TEST(DatasetIo, RejectsGarbageFile) {
  const std::string path = ::testing::TempDir() + "/pp_dataset_bad.bin";
  {
    std::ofstream out(path, std::ios::binary);
    out << "this is not a dataset";
  }
  EXPECT_THROW(load_dataset(path), paintplace::CheckError);
  std::remove(path.c_str());
}

TEST(DatasetIo, RejectsTruncatedFile) {
  const Dataset original = small_dataset();
  const std::string path = ::testing::TempDir() + "/pp_dataset_cut.bin";
  save_dataset(original, path);
  // Truncate to half.
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  in.close();
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }
  EXPECT_THROW(load_dataset(path), paintplace::CheckError);
  std::remove(path.c_str());
}

TEST(DatasetIo, MissingFileThrows) {
  EXPECT_THROW(load_dataset("/nonexistent/ds.bin"), paintplace::CheckError);
}

/// A saved one-sample dataset whose words the tests below overwrite. Layout:
/// magic, version, design, width, lambda, count, then the sample: input
/// (rank, 4 extents, 16 floats), target, design, seed, alpha_t, inner_num,
/// algorithm and six more 8-byte fields.
class TinyDatasetFile {
 public:
  static constexpr std::size_t kCountAt = 4 + 4 + 8 + 3 + 8 + 8;  // design "toy"
  static constexpr std::size_t kInputExtentsAt = kCountAt + 8 + 8;
  static constexpr std::size_t kAlgorithmFromEnd = 7 * 8;

  explicit TinyDatasetFile(const std::string& name)
      : path_(::testing::TempDir() + "/" + name) {
    Dataset ds;
    ds.design = "toy";
    ds.config.image_width = 2;
    Sample s;
    s.input = nn::Tensor(nn::Shape{1, 4, 2, 2});
    s.target = nn::Tensor(nn::Shape{1, 3, 2, 2});
    s.meta.design = "toy";
    ds.samples.push_back(s);
    save_dataset(ds, path_);
    std::ifstream in(path_, std::ios::binary);
    bytes_.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  ~TinyDatasetFile() { std::remove(path_.c_str()); }

  std::size_t size() const { return bytes_.size(); }
  /// Overwrites the 8-byte word at `offset` and rewrites the file.
  void set_u64(std::size_t offset, std::uint64_t v) {
    ASSERT_LE(offset + sizeof v, bytes_.size());
    std::memcpy(bytes_.data() + offset, &v, sizeof v);
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(bytes_.data(), static_cast<std::streamsize>(bytes_.size()));
  }
  Dataset load() const { return load_dataset(path_); }

 private:
  std::string path_;
  std::string bytes_;
};

TEST(DatasetIo, TinyFileLoadsUntouched) {
  TinyDatasetFile f("pp_dataset_tiny.bin");
  const Dataset ds = f.load();
  ASSERT_EQ(ds.samples.size(), 1u);
  EXPECT_EQ(ds.samples[0].input.shape(), nn::Shape({1, 4, 2, 2}));
  EXPECT_EQ(ds.samples[0].meta.placer_options.algorithm, place::PlaceAlgorithm::kAnnealing);
  f.set_u64(f.size() - TinyDatasetFile::kAlgorithmFromEnd, 1);
  EXPECT_EQ(f.load().samples[0].meta.placer_options.algorithm, place::PlaceAlgorithm::kGreedy);
}

TEST(DatasetIo, RejectsUnknownPlacementAlgorithm) {
  TinyDatasetFile f("pp_dataset_algo.bin");
  for (const std::uint64_t bad : {std::uint64_t{2}, std::uint64_t{1} << 32, ~std::uint64_t{0}}) {
    SCOPED_TRACE(bad);
    f.set_u64(f.size() - TinyDatasetFile::kAlgorithmFromEnd, bad);
    EXPECT_THROW(f.load(), paintplace::CheckError);
  }
}

TEST(DatasetIo, RejectsSampleCountTheFileCannotHold) {
  TinyDatasetFile f("pp_dataset_count.bin");
  // Reserving this many samples would ask for petabytes before reading one.
  f.set_u64(TinyDatasetFile::kCountAt, std::uint64_t{1} << 40);
  EXPECT_THROW(f.load(), paintplace::CheckError);
  f.set_u64(TinyDatasetFile::kCountAt, ~std::uint64_t{0});
  EXPECT_THROW(f.load(), paintplace::CheckError);
}

TEST(DatasetIo, RejectsTensorExtentsTheFileCannotHold) {
  TinyDatasetFile f("pp_dataset_extent.bin");
  const std::size_t at = TinyDatasetFile::kInputExtentsAt;
  // 2^30 x 4 x 2 x 2 floats is 64 GiB; the file holds a few hundred bytes.
  f.set_u64(at, std::uint64_t{1} << 30);
  EXPECT_THROW(f.load(), paintplace::CheckError);
  // 2^58 x 16 = 2^62 floats fit an Index, but their byte count wraps 64 bits to 0.
  f.set_u64(at, std::uint64_t{1} << 58);
  EXPECT_THROW(f.load(), paintplace::CheckError);
}

TEST(DatasetIo, RejectsTensorExtentsWhoseProductOverflows) {
  TinyDatasetFile f("pp_dataset_overflow.bin");
  const std::size_t at = TinyDatasetFile::kInputExtentsAt;
  // 2^32 * 2^32 wraps 64 bits to 0, so the byte bound alone would pass it.
  f.set_u64(at, std::uint64_t{1} << 32);
  f.set_u64(at + 8, std::uint64_t{1} << 32);
  f.set_u64(at + 16, 1);
  f.set_u64(at + 24, 1);
  EXPECT_THROW(f.load(), paintplace::CheckError);
  // 2^32 * 2^31 fits 64 unsigned bits but not a signed Index; a trailing 0
  // would make the total 0.
  f.set_u64(at + 8, std::uint64_t{1} << 31);
  f.set_u64(at + 16, 0);
  EXPECT_THROW(f.load(), paintplace::CheckError);
  // An extent that is negative as an Index.
  f.set_u64(at, ~std::uint64_t{0});
  f.set_u64(at + 8, 1);
  EXPECT_THROW(f.load(), paintplace::CheckError);
}

}  // namespace
}  // namespace paintplace::data
