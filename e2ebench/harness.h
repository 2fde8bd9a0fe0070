// Shared pieces of the end-to-end benchmark: the fixed program
// configuration, metric reporting, latency statistics, timed set-up, the
// reference-backend output check and the registry windows the per-layer
// metrics are read from.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/forecaster.h"
#include "fpga/arch.h"
#include "fpga/netlist.h"
#include "img/geometry.h"
#include "obs/metrics_registry.h"

namespace e2e {

using namespace paintplace;
using Clock = std::chrono::steady_clock;

// ---- Fixed program configuration --------------------------------------------
// Table-2 OR1200 at 4% scale (12 CLBs, 493 nets) from netlist seed 1, and the
// serving-scale cGAN of bench_serve / bench_gemm: 32x32 inputs, base 32 and
// at most 256 channels, model seed 17, on the process default backend.
inline constexpr const char* kDesign = "OR1200";
inline constexpr double kDesignScale = 0.04;
inline constexpr std::uint64_t kNetlistSeed = 1;
inline constexpr Index kWidth = 32;
inline constexpr Index kBaseChannels = 32;
inline constexpr std::uint64_t kModelSeed = 17;
inline constexpr double kLambdaConnect = 0.1;  // data::DatasetConfig default
inline constexpr Index kRenderTarget = 256;    // data::DatasetConfig default
inline constexpr int kSetupRepeats = 3;
inline constexpr std::size_t kCheckedOps = 32;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 15.0;
  bool trace = false;
  bool smoke = false;  ///< ~1/20-scale inputs for CI; every check stays on
  std::string out_dir = ".";

  int setup_repeats() const { return smoke ? 1 : kSetupRepeats; }
};

/// The placed world every workload anneals on: packed netlist, fabric and
/// pixel geometry. The geometry points into `arch`, so a Design never moves.
struct Design {
  Design();
  Design(const Design&) = delete;
  Design& operator=(const Design&) = delete;

  fpga::Netlist netlist;
  fpga::Arch arch;
  img::PixelGeometry geom;
};

core::Pix2PixConfig model_config();
/// A fresh seed-17 forecaster with frozen inference noise.
std::shared_ptr<core::CongestionForecaster> make_model();

/// Independent seed for input stream `stream` of workload seed `seed`, so
/// adding a stream never shifts another.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

double seconds_between(Clock::time_point a, Clock::time_point b);
inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return 1e3 * seconds_between(a, b);
}
inline double ms_since(Clock::time_point t) { return ms_between(t, Clock::now()); }

/// A (1,3,w,w) heat map with every value finite and in [0,1].
bool valid_heatmap(const nn::Tensor& heatmap);

/// High-water resident set of this process, MiB.
double peak_rss_mb();

double median(std::vector<double> values);

// ---- Reporting --------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Collects one workload's metrics and output checks. Each metric is printed
/// when recorded, as `workload metric value unit`, with every digit of the
/// value; anything else the harness prints starts with '#'.
class Report {
 public:
  explicit Report(std::string workload) : workload_(std::move(workload)) {}

  const std::string& workload() const { return workload_; }
  void metric(const std::string& name, double value, const std::string& unit);
  /// Records an output check; a failed one is printed and fails the run.
  void check(bool ok, const std::string& what);
  /// Counts ops. Every failed op costs +inf latency; those that were not
  /// `refused` under load (they errored or returned no valid output) also
  /// fail the run.
  void ops(std::uint64_t attempted, std::uint64_t failed, std::uint64_t refused = 0);
  /// Prints the op counts and the verdict line. True when ops ran, every
  /// check passed and every failed op was refused.
  bool finish();

  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  std::string workload_;
  std::vector<Metric> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t refused_ = 0;
  int failed_checks_ = 0;
};

/// Per-op latencies in milliseconds. A failed, shed or wrong op is +inf: it
/// misses every latency limit.
class Latencies {
 public:
  void add(double ms) { ms_.push_back(ms); }
  void add_failed();
  void append(const Latencies& other);

  std::size_t size() const { return ms_.size(); }
  std::uint64_t failed() const { return failed_; }
  /// Linear interpolation between order statistics.
  double quantile(double q) const;
  /// The highest percentile, at most `max_q`, that leaves at least ten
  /// samples beyond it (never below the median).
  double tail_q(double max_q) const;
  double sum() const;  ///< of the finite samples
  double mean() const { return size() == failed_ ? 0.0 : sum() / static_cast<double>(size() - failed_); }

 private:
  std::vector<double> ms_;
  std::uint64_t failed_ = 0;
};

/// The end-to-end metrics every workload reports for an untraced run:
/// sample count, p50 and tail op latency (tail_pct names the tail's
/// percentile, at most p90), p99 where ten samples lie beyond it, throughput
/// and peak RSS.
void report_end_to_end(Report& rep, const Latencies& ops, double throughput_per_s);

/// Builds the workload's state `repeats` times from scratch (each after the
/// previous one is destroyed, so peak memory holds one set-up), reports the
/// median wall time as `setup_s` and returns the last one.
template <class T>
std::unique_ptr<T> timed_setup(Report& rep, int repeats,
                               const std::function<std::unique_ptr<T>()>& make) {
  std::vector<double> seconds;
  std::unique_ptr<T> state;
  for (int i = 0; i < repeats; ++i) {
    state.reset();
    const Clock::time_point t0 = Clock::now();
    state = make();
    seconds.push_back(seconds_between(t0, Clock::now()));
  }
  rep.metric("setup_s", median(seconds), "s");
  return state;
}

// ---- Output check -----------------------------------------------------------

/// One op kept for the output check: the model input and what the program
/// returned for it.
struct CheckedOp {
  nn::Tensor input;
  nn::Tensor heatmap;
  double score = 0.0;
};

/// Seeded reservoir: keeps a uniform sample of kCheckedOps ops out of every
/// op offered.
class CheckSample {
 public:
  explicit CheckSample(std::uint64_t seed) : rng_(seed) {}
  /// Slot to fill with the current op, or nullptr when it is not kept.
  CheckedOp* slot();
  const std::vector<CheckedOp>& ops() const { return ops_; }

 private:
  Rng rng_;
  std::uint64_t offered_ = 0;
  std::vector<CheckedOp> ops_;
};

/// Recomputes every kept op on a fresh seed-17 model under the reference
/// backend: the heat map must agree within 1e-3 (max |Δ|) and the congestion
/// score within 1e-4. Run only once no other forward pass is in flight.
void check_against_reference(const std::vector<CheckedOp>& ops, Report& rep);

// ---- Registry windows -------------------------------------------------------

/// What a registry histogram recorded from construction until now.
class HistWindow {
 public:
  explicit HistWindow(const obs::Histogram& h);
  double quantile(double q) const;
  double sum() const { return h_->sum() - sum0_; }

 private:
  const obs::Histogram* h_;
  std::array<std::uint64_t, obs::Histogram::kBuckets> buckets0_{};
  double sum0_ = 0.0;
};

/// Histogram `name` of the global registry; it must already exist.
const obs::Histogram& registry_histogram(const std::string& name);

/// Packed-weight cache hits and misses from construction until now.
class PackWindow {
 public:
  PackWindow();
  double hit_ratio() const;
  double cached_mb() const;

 private:
  std::uint64_t hits0_ = 0, misses0_ = 0;
};

}  // namespace e2e
