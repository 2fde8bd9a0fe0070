#include "obs/thread_slot.h"

#include <sys/syscall.h>
#include <unistd.h>

#include <cstring>

namespace paintplace::obs::detail {
namespace {

std::atomic<ThreadSlot*> g_slots[kMaxThreads];
std::atomic<std::uint32_t> g_slot_count{0};

/// Claim/release bookkeeping. Leaked, like the slots: threads that exit
/// during static destruction still release into it.
struct Registry {
  std::mutex mu;
  std::vector<ThreadSlot*> free;
};

Registry& registry() {
  static Registry* r = new Registry();
  return *r;
}

thread_local ThreadSlot* t_slot = nullptr;
thread_local bool t_exiting = false;

/// Hands the thread's slot back when the thread exits.
struct SlotReleaser {
  ~SlotReleaser() {
    t_exiting = true;
    if (t_slot == nullptr) return;
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    r.free.push_back(t_slot);
    t_slot = nullptr;
  }
};

ThreadSlot* claim() {
  ThreadSlot* slot = nullptr;
  {
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    if (!r.free.empty()) {
      slot = r.free.back();
      r.free.pop_back();
    } else {
      const std::uint32_t n = g_slot_count.load(std::memory_order_relaxed);
      if (n >= kMaxThreads) return nullptr;
      slot = new ThreadSlot(static_cast<int>(n) + 1);
      g_slots[n].store(slot, std::memory_order_release);
      g_slot_count.store(n + 1, std::memory_order_release);
    }
  }
  slot->os_tid.store(static_cast<std::uint64_t>(::syscall(SYS_gettid)),
                     std::memory_order_relaxed);
  thread_local SlotReleaser releaser;
  t_slot = slot;
  return slot;
}

}  // namespace

void TraceRing::record(const SpanEvent& event) {
  std::lock_guard<std::mutex> lock(mu);
  events[head] = event;
  head = (head + 1) % events.size();
  if (size < events.size()) {
    size += 1;
  } else {
    overwritten += 1;
  }
}

void ThreadSlot::read_frame(std::uint32_t d, char (&out)[kSpanNameLen]) const {
  for (std::size_t w = 0; w < kFrameWords; ++w) {
    const std::uint64_t word = frames[d][w].load(std::memory_order_acquire);
    std::memcpy(out + w * sizeof(word), &word, sizeof(word));
  }
  out[kSpanNameLen - 1] = '\0';
}

ThreadSlot* this_thread_slot() {
  if (t_slot != nullptr || t_exiting) return t_slot;
  return claim();
}

std::uint32_t slot_count() { return g_slot_count.load(std::memory_order_acquire); }

ThreadSlot* slot_at(std::uint32_t index) {
  return g_slots[index].load(std::memory_order_acquire);
}

bool push_span(const char* name) {
  ThreadSlot* slot = this_thread_slot();
  if (slot == nullptr) return false;
  const std::uint32_t d = slot->depth.load(std::memory_order_relaxed);
  if (d < kMaxSpanDepth) {
    char buf[kSpanNameLen] = {};
    for (std::size_t i = 0; i + 1 < kSpanNameLen && name[i] != '\0'; ++i) buf[i] = name[i];
    const std::uint32_t s = slot->seq.load(std::memory_order_relaxed);
    slot->seq.store(s + 1, std::memory_order_relaxed);
    // Release stores: a reader that acquires any new word also sees the odd
    // seq above, so its closing seq check catches the torn frame.
    for (std::size_t w = 0; w < kFrameWords; ++w) {
      std::uint64_t word;
      std::memcpy(&word, buf + w * sizeof(word), sizeof(word));
      slot->frames[d][w].store(word, std::memory_order_release);
    }
    slot->seq.store(s + 2, std::memory_order_release);
  }
  slot->depth.store(d + 1, std::memory_order_release);
  return true;
}

void pop_span() {
  ThreadSlot* slot = t_slot;
  if (slot == nullptr) return;
  const std::uint32_t d = slot->depth.load(std::memory_order_relaxed);
  if (d > 0) slot->depth.store(d - 1, std::memory_order_release);
}

}  // namespace paintplace::obs::detail
