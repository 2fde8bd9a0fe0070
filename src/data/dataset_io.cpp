#include "data/dataset_io.h"

#include <cstring>
#include <fstream>
#include <limits>

namespace paintplace::data {
namespace {

constexpr char kMagic[4] = {'P', 'P', 'D', 'S'};
constexpr std::uint32_t kVersion = 2;
// Fewest bytes one sample can take: two rank words, a design length and the
// ten fixed-size meta fields.
constexpr std::uint64_t kMinSampleBytes = 13 * sizeof(std::uint64_t);

void write_u64(std::ostream& out, std::uint64_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}
std::uint64_t read_u64(std::istream& in) {
  std::uint64_t v = 0;
  in.read(reinterpret_cast<char*>(&v), sizeof(v));
  PP_CHECK_MSG(in.good(), "dataset file truncated");
  return v;
}
void write_f64(std::ostream& out, double v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}
double read_f64(std::istream& in) {
  double v = 0;
  in.read(reinterpret_cast<char*>(&v), sizeof(v));
  PP_CHECK_MSG(in.good(), "dataset file truncated");
  return v;
}
void write_string(std::ostream& out, const std::string& s) {
  write_u64(out, s.size());
  out.write(s.data(), static_cast<std::streamsize>(s.size()));
}
std::string read_string(std::istream& in) {
  const std::uint64_t len = read_u64(in);
  PP_CHECK_MSG(len < (1u << 20), "implausible string length in dataset file");
  std::string s(len, '\0');
  in.read(s.data(), static_cast<std::streamsize>(len));
  PP_CHECK_MSG(in.good(), "dataset file truncated");
  return s;
}
void write_tensor(std::ostream& out, const nn::Tensor& t) {
  write_u64(out, static_cast<std::uint64_t>(t.rank()));
  for (Index d = 0; d < t.rank(); ++d) write_u64(out, static_cast<std::uint64_t>(t.dim(d)));
  out.write(reinterpret_cast<const char*>(t.data()),
            static_cast<std::streamsize>(sizeof(float)) *
                static_cast<std::streamsize>(t.numel()));
}
/// Bytes between the read position and `end`, the stream's size.
std::uint64_t bytes_left(std::istream& in, std::streamoff end) {
  const std::streamoff pos = in.tellg();
  PP_CHECK_MSG(pos >= 0 && pos <= end, "dataset file position lost");
  return static_cast<std::uint64_t>(end - pos);
}
/// Rejects extents whose element count overflows or whose floats the rest
/// of the file cannot hold, before allocating anything.
nn::Tensor read_tensor(std::istream& in, std::streamoff end) {
  const std::uint64_t rank = read_u64(in);
  PP_CHECK_MSG(rank <= 8, "implausible tensor rank in dataset file");
  std::vector<Index> dims;
  // Every prefix product must fit an Index, as Shape::numel multiplies in order.
  constexpr auto kMaxIndex = static_cast<std::uint64_t>(std::numeric_limits<Index>::max());
  std::uint64_t numel = 1;
  for (std::uint64_t d = 0; d < rank; ++d) {
    const std::uint64_t extent = read_u64(in);
    PP_CHECK_MSG(extent == 0 || numel <= kMaxIndex / extent,
                 "tensor extents overflow in dataset file");
    numel *= extent;
    dims.push_back(static_cast<Index>(extent));
  }
  PP_CHECK_MSG(numel <= bytes_left(in, end) / sizeof(float),
               "tensor of " << numel << " floats does not fit in the rest of the dataset file");
  nn::Tensor t((nn::Shape(dims)));
  in.read(reinterpret_cast<char*>(t.data()),
          static_cast<std::streamsize>(sizeof(float)) *
              static_cast<std::streamsize>(t.numel()));
  PP_CHECK_MSG(in.good(), "dataset file truncated");
  return t;
}

}  // namespace

void save_dataset(const Dataset& dataset, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  PP_CHECK_MSG(out.is_open(), "cannot open " << path << " for writing");
  out.write(kMagic, sizeof(kMagic));
  out.write(reinterpret_cast<const char*>(&kVersion), sizeof(kVersion));
  write_string(out, dataset.design);
  write_u64(out, static_cast<std::uint64_t>(dataset.config.image_width));
  write_f64(out, dataset.config.lambda_connect);
  write_u64(out, dataset.samples.size());
  for (const Sample& s : dataset.samples) {
    write_tensor(out, s.input);
    write_tensor(out, s.target);
    write_string(out, s.meta.design);
    write_u64(out, s.meta.placer_options.seed);
    write_f64(out, s.meta.placer_options.alpha_t);
    write_f64(out, s.meta.placer_options.inner_num);
    write_u64(out, static_cast<std::uint64_t>(s.meta.placer_options.algorithm));
    write_f64(out, s.meta.placement_cost);
    write_f64(out, s.meta.true_total_utilization);
    write_f64(out, s.meta.rudy_total);
    write_f64(out, s.meta.route_seconds);
    write_u64(out, s.meta.route_success ? 1 : 0);
    write_u64(out, static_cast<std::uint64_t>(s.meta.route_iterations));
  }
  PP_CHECK_MSG(out.good(), "dataset write failed");
}

Dataset load_dataset(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  PP_CHECK_MSG(in.is_open(), "cannot open " << path);
  const std::streamoff end = in.tellg();
  in.seekg(0);
  char magic[4] = {};
  in.read(magic, sizeof(magic));
  PP_CHECK_MSG(in.good() && std::memcmp(magic, kMagic, sizeof(kMagic)) == 0,
               "not a paintplace dataset file");
  std::uint32_t version = 0;
  in.read(reinterpret_cast<char*>(&version), sizeof(version));
  PP_CHECK_MSG(in.good() && version == kVersion, "unsupported dataset version " << version);

  Dataset ds;
  ds.design = read_string(in);
  ds.config.image_width = static_cast<Index>(read_u64(in));
  ds.config.lambda_connect = read_f64(in);
  const std::uint64_t count = read_u64(in);
  PP_CHECK_MSG(count <= bytes_left(in, end) / kMinSampleBytes,
               "sample count " << count << " does not fit in the rest of the dataset file");
  ds.samples.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    Sample s;
    s.input = read_tensor(in, end);
    s.target = read_tensor(in, end);
    s.meta.design = read_string(in);
    s.meta.placer_options.seed = read_u64(in);
    s.meta.placer_options.alpha_t = read_f64(in);
    s.meta.placer_options.inner_num = read_f64(in);
    const std::uint64_t algorithm = read_u64(in);
    PP_CHECK_MSG(algorithm == static_cast<std::uint64_t>(place::PlaceAlgorithm::kAnnealing) ||
                     algorithm == static_cast<std::uint64_t>(place::PlaceAlgorithm::kGreedy),
                 "unknown placement algorithm " << algorithm << " in dataset file");
    s.meta.placer_options.algorithm = static_cast<place::PlaceAlgorithm>(algorithm);
    s.meta.placement_cost = read_f64(in);
    s.meta.true_total_utilization = read_f64(in);
    s.meta.rudy_total = read_f64(in);
    s.meta.route_seconds = read_f64(in);
    s.meta.route_success = read_u64(in) != 0;
    s.meta.route_iterations = static_cast<Index>(read_u64(in));
    ds.samples.push_back(std::move(s));
  }
  ds.config.sweep.num_placements = static_cast<Index>(ds.samples.size());
  return ds;
}

}  // namespace paintplace::data
