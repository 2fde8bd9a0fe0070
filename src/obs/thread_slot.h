// paintplace::obs — the one per-thread slot every obs feature shares.
//
// A thread claims a slot the first time any obs feature touches it (a
// stacked Span, a traced span, a flight-recorder event). The slot holds:
//
//   - the live span stack — read by the profiler's sampler and by the
//     post-mortem dump;
//   - the flight recorder's event ring (single writer, readable from a
//     signal handler);
//   - the tracer's event ring, allocated on the first traced span (many
//     writers — the tail sampler commits into other threads' rings — so it
//     keeps its own mutex).
//
// Slots live in one immortal fixed table: they are never freed, so readers
// (the sampler, the dump, the signal handler) walk the table with plain
// atomic loads, and threads that exit during static destruction have
// somewhere valid to release into. When a thread exits its slot goes on a
// freelist and the next new thread reuses it — thread-per-connection
// servers churn threads, and neither memory nor the table may grow per
// connection. A reused slot keeps its chrome tid, its tracer ring and the
// previous owner's newest flight events until they are overwritten. Only
// kMaxThreads threads can hold a slot at once; beyond that a thread records
// nothing.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "obs/flight_recorder.h"
#include "obs/trace.h"

namespace paintplace::obs::detail {

inline constexpr std::size_t kMaxThreads = 256;   ///< live threads holding a slot
inline constexpr std::size_t kMaxSpanDepth = 32;  ///< named frames per stack
inline constexpr std::size_t kSpanNameLen = 48;   ///< bytes per frame, NUL included
inline constexpr std::size_t kFrameWords = kSpanNameLen / sizeof(std::uint64_t);

/// The tracer's fixed-capacity ring of completed spans. Oldest events are
/// overwritten on wraparound.
struct TraceRing {
  std::mutex mu;
  std::vector<SpanEvent> events = std::vector<SpanEvent>(Tracer::kRingCapacity);
  std::size_t size = 0;  ///< valid events (<= capacity)
  std::size_t head = 0;  ///< next write slot
  std::uint64_t overwritten = 0;

  void record(const SpanEvent& event);
};

struct ThreadSlot {
  explicit ThreadSlot(int tid_) : tid(tid_) {}

  const int tid;                         ///< chrome tid: table index + 1
  std::atomic<std::uint64_t> os_tid{0};  ///< the current owner's gettid()

  // Live span stack. Only the owner writes. Names are copied in at push
  // into atomic words (stored release, loaded acquire), so no reader can
  // chase a pointer into a dead stack frame. `seq` is odd while a push
  // rewrites a frame; the profiler retries a snapshot when it changes, so
  // it never keeps a torn name. `depth` may exceed kMaxSpanDepth: the
  // excess frames balance but are not named.
  std::atomic<std::uint32_t> seq{0};
  std::atomic<std::uint32_t> depth{0};
  std::atomic<std::uint64_t> frames[kMaxSpanDepth][kFrameWords];

  // Flight-event ring: head counts events ever recorded (release-published
  // so the dump sees whole events); slot = head % capacity.
  std::atomic<std::uint64_t> head{0};
  FlightEvent events[FlightRecorder::kEventsPerThread];

  // Tracer ring; only the owner allocates it, before its first record.
  std::atomic<TraceRing*> trace_ring{nullptr};

  /// Copies frame `d` into `out` (NUL-terminated). Async-signal-safe.
  void read_frame(std::uint32_t d, char (&out)[kSpanNameLen]) const;
};

/// The calling thread's slot, claimed on first use; nullptr when the table
/// is full or the thread is exiting.
ThreadSlot* this_thread_slot();

/// Slots claimed so far, in table order (some may currently be free).
/// Async-signal-safe.
std::uint32_t slot_count();
ThreadSlot* slot_at(std::uint32_t index);

/// Pushes `name` onto the calling thread's span stack. Returns false (and
/// pushes nothing) when the thread has no slot.
bool push_span(const char* name);
/// Pops the frame a successful push_span added.
void pop_span();

}  // namespace paintplace::obs::detail
