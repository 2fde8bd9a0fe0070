// Binary checkpoint format for named tensors.
//
// Layout: magic "PPCK" | u32 version | u64 count | per tensor:
//   u64 name_len | name bytes | tensor record
// where a tensor record is u64 rank | u64 dims[rank] | f32 data[numel].
// `.ppds` datasets (data/dataset_io.h) store their tensors as the same
// record, through the same checked reader.
// Little-endian host assumed (x86/ARM little-endian targets).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>

#include "nn/module.h"

namespace paintplace::nn {

/// Named tensor bundle used for model checkpoints.
using TensorMap = std::map<std::string, Tensor>;

/// Bytes between the read position of `in` and `end`, the stream's size.
std::uint64_t bytes_left(std::istream& in, std::streamoff end);

void write_tensor(std::ostream& out, const Tensor& t);
/// Reads one tensor record from `in`, whose size is `end`. A rank above 8,
/// extents whose element count overflows an Index, and more floats than the
/// bytes left all throw CheckError before anything is allocated. `file`
/// names the format in error messages.
Tensor read_tensor(std::istream& in, std::streamoff end, const char* file);

void save_tensors(const TensorMap& tensors, std::ostream& out);
TensorMap load_tensors(std::istream& in);

void save_tensors_file(const TensorMap& tensors, const std::string& path);
TensorMap load_tensors_file(const std::string& path);

/// Snapshot all parameters of a module into a map (by parameter name).
TensorMap snapshot_parameters(Module& module);

/// Restore parameters by name. Every parameter of `module` must be present
/// in `tensors` with a matching shape; extra entries are ignored (they may
/// belong to sibling modules stored in the same checkpoint).
void restore_parameters(Module& module, const TensorMap& tensors);

}  // namespace paintplace::nn
