#include "obs/sampler.h"

#include "common/check.h"
#include "obs/metrics_registry.h"
#include "obs/thread_slot.h"

namespace paintplace::obs {

namespace {

/// splitmix64 — a cheap, well-mixed hash of (seed, request index) so head
/// sampling is deterministic per seed but uncorrelated with request order
/// (a plain modulo would strobe against periodic workloads).
std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

Sampler::Sampler() {
  auto& reg = MetricsRegistry::global();
  sampled_ = &reg.counter("obs_trace_sampled_total",
                          "requests head-sampled into the trace (1-in-N)");
  retained_slow_ = &reg.counter("obs_trace_retained_slow_total",
                                "requests tail-retained: latency over threshold");
  retained_error_ = &reg.counter("obs_trace_retained_error_total",
                                 "requests tail-retained: shed or error outcome");
  retained_stall_ = &reg.counter("obs_trace_retained_stall_total",
                                 "requests tail-retained: watchdog stall report");
  discarded_ = &reg.counter("obs_trace_discarded_total",
                            "requests whose buffered spans were discarded");
}

void Sampler::configure(const SamplerConfig& config) {
  PP_CHECK_MSG(config.sample_every >= 1, "trace sample_every must be >= 1");
  std::lock_guard<std::mutex> lock(mu_);
  config_ = config;
  decisions_ = 0;
  pending_.clear();
  active_.store(true, std::memory_order_relaxed);
}

void Sampler::disable() {
  std::lock_guard<std::mutex> lock(mu_);
  active_.store(false, std::memory_order_relaxed);
  pending_.clear();
}

void Sampler::begin(std::uint64_t trace_id) {
  if (!active() || trace_id == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  PendingRequest& req = pending_[trace_id];
  req.head_sampled =
      splitmix64(config_.seed ^ decisions_++) % config_.sample_every == 0;
  if (req.head_sampled) sampled_->fetch_add(1);
}

bool Sampler::offer(const SpanEvent& event, detail::ThreadSlot* slot) {
  if (!active()) return false;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = pending_.find(event.trace_id);
  if (it == pending_.end() || it->second.head_sampled) return false;
  if (it->second.spans.size() < config_.max_buffered_spans) {
    it->second.spans.emplace_back(slot, event);
  }
  return true;
}

bool Sampler::finish(std::uint64_t trace_id, double latency_s, RequestOutcome outcome) {
  if (!active() || trace_id == 0) return true;  // recording live: id is in the trace
  PendingRequest req;
  bool retain = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = pending_.find(trace_id);
    if (it == pending_.end()) return true;
    req = std::move(it->second);
    pending_.erase(it);
    if (req.head_sampled) return true;  // committed live; counted at begin()
    if (outcome != RequestOutcome::kOk) {
      retained_error_->fetch_add(1);
      retain = true;
    } else if (latency_s >= config_.slow_threshold_s) {
      retained_slow_->fetch_add(1);
      retain = true;
    } else {
      discarded_->fetch_add(1);
    }
  }
  // Commit outside the sampler lock: a ring record takes the ring's own
  // mutex, and holding both across many spans would stall the hot offer().
  if (retain) commit(req.spans);
  return retain;
}

void Sampler::force_retain(std::uint64_t trace_id) {
  if (!active() || trace_id == 0) return;
  Buffered spans;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = pending_.find(trace_id);
    if (it == pending_.end() || it->second.head_sampled) return;
    // Flip to head_sampled: spans still to come record live, and finish()
    // sees the request as already committed.
    it->second.head_sampled = true;
    spans = std::move(it->second.spans);
    it->second.spans.clear();
    retained_stall_->fetch_add(1);
  }
  commit(spans);
}

void Sampler::commit(const Buffered& spans) {
  // The offering thread allocated its slot's ring before offering.
  for (const auto& [slot, event] : spans) {
    slot->trace_ring.load(std::memory_order_acquire)->record(event);
  }
}

void Sampler::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  pending_.clear();
  decisions_ = 0;
}

std::size_t Sampler::pending() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pending_.size();
}

}  // namespace paintplace::obs
