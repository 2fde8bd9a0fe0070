#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>

#include "backend/backend.h"
#include "fpga/design_suite.h"
#include "nn/tensor_ops.h"

namespace e2e {

namespace {

fpga::BlockDemand demand_of(const fpga::Netlist& nl) {
  const fpga::NetlistStats s = nl.stats();
  return {s.num_clbs, s.num_inputs + s.num_outputs, s.num_mems, s.num_mults};
}

/// Shortest text that reads back as exactly `v`.
std::string exact(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

}  // namespace

Design::Design()
    : netlist(fpga::generate_packed(
          fpga::scale_spec(fpga::design_by_name(kDesign), kDesignScale), fpga::NetgenParams{},
          kNetlistSeed)),
      arch(fpga::Arch::auto_sized(demand_of(netlist))),
      geom(arch, kRenderTarget) {}

core::Pix2PixConfig model_config() {
  core::Pix2PixConfig cfg;
  cfg.generator.in_channels = 4;
  cfg.generator.image_size = kWidth;
  cfg.generator.base_channels = kBaseChannels;
  cfg.generator.max_channels = kBaseChannels * 8;
  cfg.disc_base_channels = kBaseChannels;
  cfg.seed = kModelSeed;
  return cfg;
}

std::shared_ptr<core::CongestionForecaster> make_model() {
  auto model = std::make_shared<core::CongestionForecaster>(model_config());
  model->set_deterministic_inference(true);
  return model;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream * 0xbf58476d1ce4e5b9ULL + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

bool valid_heatmap(const nn::Tensor& heatmap) {
  if (heatmap.shape() != nn::Shape{1, 3, kWidth, kWidth}) return false;
  for (Index i = 0; i < heatmap.numel(); ++i) {
    const float v = heatmap.data()[i];
    if (!(v >= 0.0f && v <= 1.0f)) return false;  // also rejects NaN
  }
  return true;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// ---- Report -----------------------------------------------------------------

void Report::metric(const std::string& name, double value, const std::string& unit) {
  std::printf("%s %s %s %s\n", workload_.c_str(), name.c_str(), exact(value).c_str(),
              unit.c_str());
  metrics_.push_back({name, value, unit});
}

void Report::check(bool ok, const std::string& what) {
  if (ok) return;
  failed_checks_ += 1;
  std::printf("# %s CHECK FAILED: %s\n", workload_.c_str(), what.c_str());
}

void Report::ops(std::uint64_t attempted, std::uint64_t failed, std::uint64_t refused) {
  attempted_ += attempted;
  failed_ += failed;
  refused_ += refused;
}

bool Report::finish() {
  check(failed_ == refused_, std::to_string(failed_ - refused_) +
                                 " ops returned an error or no valid forecast");
  check(attempted_ > 0, "no op ran");
  const bool ok = failed_checks_ == 0;
  metric("attempted", static_cast<double>(attempted_), "count");
  metric("failed", static_cast<double>(failed_), "count");
  metric("failed_frac",
         attempted_ == 0 ? 1.0 : static_cast<double>(failed_) / static_cast<double>(attempted_),
         "1");
  metric("correct", ok ? 1.0 : 0.0, "bool");
  return ok;
}

// ---- Latencies --------------------------------------------------------------

void Latencies::add_failed() {
  ms_.push_back(std::numeric_limits<double>::infinity());
  failed_ += 1;
}

void Latencies::append(const Latencies& other) {
  ms_.insert(ms_.end(), other.ms_.begin(), other.ms_.end());
  failed_ += other.failed_;
}

double Latencies::quantile(double q) const {
  if (ms_.empty()) return 0.0;
  std::vector<double> sorted = ms_;
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  if (std::isinf(sorted[hi])) return sorted[hi];
  return sorted[lo] + (pos - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

double Latencies::tail_q(double max_q) const {
  const double n = static_cast<double>(std::max<std::size_t>(size(), 1));
  return std::clamp(1.0 - 10.0 / n, 0.5, max_q);
}

double Latencies::sum() const {
  double total = 0.0;
  for (double v : ms_) {
    if (std::isfinite(v)) total += v;
  }
  return total;
}

void report_end_to_end(Report& rep, const Latencies& ops, double throughput_per_s) {
  rep.metric("samples", static_cast<double>(ops.size()), "count");
  rep.metric("p50_ms", ops.quantile(0.5), "ms");
  // The tail stops at p90: on a shared host p99 moves from run to run with
  // single stalls, by more than any bound the benchmark could hold.
  const double tail = ops.tail_q(0.9);
  rep.metric("tail_ms", ops.quantile(tail), "ms");
  rep.metric("tail_pct", 100.0 * tail, "%");
  if (ops.tail_q(0.99) == 0.99) rep.metric("p99_ms", ops.quantile(0.99), "ms");
  rep.metric("throughput_per_s", throughput_per_s, "1/s");
  rep.metric("peak_rss_mb", peak_rss_mb(), "MiB");
}

// ---- Output check -----------------------------------------------------------

CheckedOp* CheckSample::slot() {
  const std::uint64_t seen = offered_++;
  if (ops_.size() < kCheckedOps) {
    ops_.emplace_back();
    return &ops_.back();
  }
  const Index j = rng_.uniform_int(0, static_cast<Index>(seen));
  return j < static_cast<Index>(kCheckedOps) ? &ops_[static_cast<std::size_t>(j)] : nullptr;
}

void check_against_reference(const std::vector<CheckedOp>& ops, Report& rep) {
  rep.check(!ops.empty(), "no op was kept for the reference check");
  if (ops.empty()) return;
  const backend::ScopedBackend reference("reference");
  const std::shared_ptr<core::CongestionForecaster> oracle = make_model();
  std::vector<const nn::Tensor*> inputs;
  for (const CheckedOp& op : ops) inputs.push_back(&op.input);
  const nn::Tensor expected = oracle->predict_batch(nn::stack_batch(inputs));
  const std::vector<double> scores = oracle->congestion_scores(expected);
  double worst_map = 0.0, worst_score = 0.0;
  std::uint64_t wrong = 0;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const nn::Tensor want = nn::slice_batch(expected, static_cast<Index>(i));
    const bool same_shape = want.shape() == ops[i].heatmap.shape();
    const double map_diff =
        same_shape ? want.max_abs_diff(ops[i].heatmap) : std::numeric_limits<double>::infinity();
    const double score_diff = std::abs(scores[i] - ops[i].score);
    wrong += map_diff <= 1e-3 && score_diff <= 1e-4 ? 0 : 1;
    worst_map = std::max(worst_map, map_diff);
    worst_score = std::max(worst_score, score_diff);
  }
  rep.ops(0, wrong);  // already counted as attempted when they ran
  std::printf("# %s reference check: %zu ops, max |heat map diff| %.3g, max |score diff| %.3g\n",
              rep.workload().c_str(), ops.size(), worst_map, worst_score);
  rep.check(worst_map <= 1e-3, "heat map differs from the reference backend by " +
                                   std::to_string(worst_map) + " (limit 1e-3)");
  rep.check(worst_score <= 1e-4, "congestion score differs from the reference backend by " +
                                     std::to_string(worst_score) + " (limit 1e-4)");
}

// ---- Registry windows -------------------------------------------------------

HistWindow::HistWindow(const obs::Histogram& h)
    : h_(&h), sum0_(h.sum()) {
  for (int b = 0; b < obs::Histogram::kBuckets; ++b) {
    buckets0_[static_cast<std::size_t>(b)] = h.bucket_count(b);
  }
}

double HistWindow::quantile(double q) const {
  std::array<std::uint64_t, obs::Histogram::kBuckets> delta{};
  for (int b = 0; b < obs::Histogram::kBuckets; ++b) {
    delta[static_cast<std::size_t>(b)] =
        h_->bucket_count(b) - buckets0_[static_cast<std::size_t>(b)];
  }
  return obs::Histogram::quantile_of(delta, q);
}

const obs::Histogram& registry_histogram(const std::string& name) {
  const obs::Histogram* h = obs::MetricsRegistry::global().find_histogram(name);
  PP_CHECK_MSG(h != nullptr, "registry histogram " << name << " does not exist yet");
  return *h;
}

namespace {

std::uint64_t counter_value(const char* name) {
  const obs::Counter* c = obs::MetricsRegistry::global().find_counter(name);
  return c == nullptr ? 0 : c->load();
}

}  // namespace

PackWindow::PackWindow()
    : hits0_(counter_value("backend_pack_cache_hits_total")),
      misses0_(counter_value("backend_pack_cache_misses_total")) {}

double PackWindow::hit_ratio() const {
  const double hits = static_cast<double>(counter_value("backend_pack_cache_hits_total") - hits0_);
  const double misses =
      static_cast<double>(counter_value("backend_pack_cache_misses_total") - misses0_);
  return hits + misses == 0.0 ? 0.0 : hits / (hits + misses);
}

double PackWindow::cached_mb() const {
  return obs::MetricsRegistry::global().gauge("backend_pack_cache_bytes").value() /
         (1024.0 * 1024.0);
}

}  // namespace e2e
