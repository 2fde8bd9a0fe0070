#include "obs/profiler.h"

#include <algorithm>

#include "obs/log.h"
#include "obs/thread_slot.h"

namespace paintplace::obs {

Profiler& Profiler::instance() {
  static Profiler profiler;
  return profiler;
}

bool Profiler::enabled() const {
  return (detail::g_span_mask.load(std::memory_order_relaxed) & detail::kSpanMaskProfile) != 0;
}

void Profiler::start(std::chrono::microseconds period) {
  if (running_.exchange(true)) return;
  detail::g_span_mask.fetch_or(detail::kSpanMaskProfile, std::memory_order_relaxed);
  sampler_ = std::thread([this, period] {
    while (running_.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(period);
      sample_once();
    }
  });
}

void Profiler::stop() {
  detail::g_span_mask.fetch_and(
      static_cast<std::uint8_t>(~detail::kSpanMaskProfile), std::memory_order_relaxed);
  if (!running_.exchange(false)) return;
  if (sampler_.joinable()) sampler_.join();
}

namespace {

/// Folds one thread's live stack into "a;b;c". The owner pushes and pops
/// without a lock, so take the snapshot between two equal even readings of
/// the slot's sequence counter; give up on this sweep after a few torn
/// reads rather than spin on a busy thread.
bool fold_stack(const detail::ThreadSlot& slot, std::string& key) {
  char name[detail::kSpanNameLen];
  for (int attempt = 0; attempt < 8; ++attempt) {
    const std::uint32_t seq = slot.seq.load(std::memory_order_acquire);
    if ((seq & 1) != 0) continue;
    const std::uint32_t depth = std::min<std::uint32_t>(
        slot.depth.load(std::memory_order_acquire), detail::kMaxSpanDepth);
    key.clear();
    for (std::uint32_t d = 0; d < depth; ++d) {
      slot.read_frame(d, name);
      if (d > 0) key += ';';
      key += name;
    }
    // read_frame's acquire loads keep this reload after the frame reads.
    if (slot.seq.load(std::memory_order_relaxed) == seq) return depth > 0;
  }
  return false;
}

}  // namespace

void Profiler::sample_once() {
  // The stacks stay live for the flight recorder while profiling is off;
  // only a profiling run may sample them.
  if (!enabled()) return;
  // Fold each non-idle stack outside the aggregate lock, then merge.
  std::vector<std::string> folded;
  std::string key;
  for (std::uint32_t i = 0; i < detail::slot_count(); ++i) {
    if (fold_stack(*detail::slot_at(i), key)) folded.push_back(key);
  }
  if (folded.empty()) return;
  std::lock_guard<std::mutex> lock(agg_mu_);
  for (auto& k : folded) {
    aggregate_[std::move(k)] += 1;
    samples_ += 1;
  }
}

void Profiler::clear() {
  std::lock_guard<std::mutex> lock(agg_mu_);
  aggregate_.clear();
  samples_ = 0;
}

std::uint64_t Profiler::samples() const {
  std::lock_guard<std::mutex> lock(agg_mu_);
  return samples_;
}

std::string Profiler::collapsed() const {
  std::lock_guard<std::mutex> lock(agg_mu_);
  std::string out;
  for (const auto& [stack, count] : aggregate_) {
    out += stack;
    out += ' ';
    out += std::to_string(count);
    out += '\n';
  }
  return out;
}

bool Profiler::write_collapsed(const std::string& path) const {
  return write_file(path, collapsed(), "profile_write_failed");
}

std::vector<std::pair<std::string, std::uint64_t>> Profiler::top_k(std::size_t k) const {
  std::vector<std::pair<std::string, std::uint64_t>> out;
  {
    std::lock_guard<std::mutex> lock(agg_mu_);
    out.assign(aggregate_.begin(), aggregate_.end());
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.second != b.second ? a.second > b.second : a.first < b.first;
  });
  if (out.size() > k) out.resize(k);
  return out;
}

}  // namespace paintplace::obs
