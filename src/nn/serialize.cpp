#include "nn/serialize.h"

#include <cstring>
#include <fstream>
#include <limits>

#include "backend/pack_cache.h"

namespace paintplace::nn {
namespace {

constexpr char kMagic[4] = {'P', 'P', 'C', 'K'};
constexpr std::uint32_t kVersion = 1;

void write_u64(std::ostream& out, std::uint64_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

std::uint64_t read_u64(std::istream& in, const char* file) {
  std::uint64_t v = 0;
  in.read(reinterpret_cast<char*>(&v), sizeof(v));
  PP_CHECK_MSG(in.good(), file << " truncated");
  return v;
}

}  // namespace

std::uint64_t bytes_left(std::istream& in, std::streamoff end) {
  const std::streamoff pos = in.tellg();
  PP_CHECK_MSG(pos >= 0 && pos <= end, "stream position lost");
  return static_cast<std::uint64_t>(end - pos);
}

void write_tensor(std::ostream& out, const Tensor& t) {
  write_u64(out, static_cast<std::uint64_t>(t.rank()));
  for (Index d = 0; d < t.rank(); ++d) write_u64(out, static_cast<std::uint64_t>(t.dim(d)));
  out.write(reinterpret_cast<const char*>(t.data()),
            static_cast<std::streamsize>(sizeof(float)) *
                static_cast<std::streamsize>(t.numel()));
}

Tensor read_tensor(std::istream& in, std::streamoff end, const char* file) {
  const std::uint64_t rank = read_u64(in, file);
  PP_CHECK_MSG(rank <= 8, "implausible tensor rank in " << file);
  std::vector<Index> dims;
  // Every prefix product must fit an Index, as Shape::numel multiplies in order.
  constexpr auto kMaxIndex = static_cast<std::uint64_t>(std::numeric_limits<Index>::max());
  std::uint64_t numel = 1;
  for (std::uint64_t d = 0; d < rank; ++d) {
    const std::uint64_t extent = read_u64(in, file);
    PP_CHECK_MSG(extent == 0 || numel <= kMaxIndex / extent,
                 "tensor extents overflow in " << file);
    numel *= extent;
    dims.push_back(static_cast<Index>(extent));
  }
  PP_CHECK_MSG(numel <= bytes_left(in, end) / sizeof(float),
               "tensor of " << numel << " floats does not fit in the rest of the " << file);
  Tensor t((Shape(dims)));
  in.read(reinterpret_cast<char*>(t.data()),
          static_cast<std::streamsize>(sizeof(float)) *
              static_cast<std::streamsize>(t.numel()));
  PP_CHECK_MSG(in.good(), file << " truncated");
  return t;
}

void save_tensors(const TensorMap& tensors, std::ostream& out) {
  out.write(kMagic, sizeof(kMagic));
  const std::uint32_t version = kVersion;
  out.write(reinterpret_cast<const char*>(&version), sizeof(version));
  write_u64(out, tensors.size());
  for (const auto& [name, tensor] : tensors) {
    write_u64(out, name.size());
    out.write(name.data(), static_cast<std::streamsize>(name.size()));
    write_tensor(out, tensor);
  }
  PP_CHECK_MSG(out.good(), "checkpoint write failed");
}

TensorMap load_tensors(std::istream& in) {
  const std::streampos start = in.tellg();
  in.seekg(0, std::ios::end);
  const std::streamoff end = in.tellg();
  in.seekg(start);
  char magic[4] = {};
  in.read(magic, sizeof(magic));
  PP_CHECK_MSG(in.good() && std::memcmp(magic, kMagic, sizeof(kMagic)) == 0,
               "not a paintplace checkpoint (bad magic)");
  std::uint32_t version = 0;
  in.read(reinterpret_cast<char*>(&version), sizeof(version));
  PP_CHECK_MSG(in.good() && version == kVersion, "unsupported checkpoint version " << version);
  const std::uint64_t count = read_u64(in, "checkpoint");
  TensorMap tensors;
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t name_len = read_u64(in, "checkpoint");
    PP_CHECK_MSG(name_len < (1u << 20), "implausible name length in checkpoint");
    std::string name(name_len, '\0');
    in.read(name.data(), static_cast<std::streamsize>(name_len));
    tensors.emplace(std::move(name), read_tensor(in, end, "checkpoint"));
  }
  return tensors;
}

void save_tensors_file(const TensorMap& tensors, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  PP_CHECK_MSG(out.is_open(), "cannot open " << path << " for writing");
  save_tensors(tensors, out);
}

TensorMap load_tensors_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  PP_CHECK_MSG(in.is_open(), "cannot open " << path << " for reading");
  return load_tensors(in);
}

TensorMap snapshot_parameters(Module& module) {
  TensorMap map;
  for (Parameter* p : module.parameters()) {
    const auto [it, inserted] = map.emplace(p->name, p->value);
    PP_CHECK_MSG(inserted, "duplicate parameter name " << p->name);
    (void)it;
  }
  std::vector<NamedBuffer> buffers;
  module.collect_buffers(buffers);
  for (const NamedBuffer& b : buffers) {
    const auto [it, inserted] = map.emplace(b.name, *b.tensor);
    PP_CHECK_MSG(inserted, "duplicate buffer name " << b.name);
    (void)it;
  }
  return map;
}

void restore_parameters(Module& module, const TensorMap& tensors) {
  auto restore_one = [&tensors](const std::string& name, Tensor& dst) {
    const auto it = tensors.find(name);
    PP_CHECK_MSG(it != tensors.end(), "checkpoint missing entry " << name);
    PP_CHECK_MSG(it->second.shape() == dst.shape(),
                 "checkpoint shape mismatch for " << name << ": " << it->second.shape().str()
                                                  << " vs " << dst.shape().str());
    dst = it->second;
  };
  for (Parameter* p : module.parameters()) {
    restore_one(p->name, p->value);
    // Tensor assignment is a std::vector copy-assign: when the capacity
    // fits, the destination keeps its old data pointer while the values
    // change under it — exactly the in-place mutation the packed-weight
    // cache keys against, so retire its entries and re-version.
    p->bump_version();
    backend::PackedWeightCache::instance().invalidate(p->value.data());
  }
  std::vector<NamedBuffer> buffers;
  module.collect_buffers(buffers);
  for (const NamedBuffer& b : buffers) restore_one(b.name, *b.tensor);
}

}  // namespace paintplace::nn
