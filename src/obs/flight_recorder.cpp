#include "obs/flight_recorder.h"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <chrono>
#include <cstring>

#include "obs/build_info.h"
#include "obs/metrics_registry.h"
#include "obs/thread_slot.h"

namespace paintplace::obs {
namespace {

std::uint64_t steady_us() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Copies `src` into dst[cap], truncating, replacing anything that would
/// need JSON escaping (quotes, backslashes, control/non-ASCII bytes) with
/// '_'. Done at record time so the signal handler emits bytes verbatim.
void sanitize_into(char* dst, std::size_t cap, const char* src) {
  std::size_t i = 0;
  if (src != nullptr) {
    for (; src[i] != '\0' && i + 1 < cap; ++i) {
      const unsigned char c = static_cast<unsigned char>(src[i]);
      dst[i] = (c >= 0x20 && c <= 0x7e && c != '"' && c != '\\')
                   ? static_cast<char>(c)
                   : '_';
    }
  }
  dst[i] = '\0';
}

// ---------------------------------------------------------------------------
// Async-signal-safe append helpers. All formatting in the handler path goes
// through these: bounds-checked byte copies and hand-rolled integer
// conversion, nothing else.

struct Appender {
  char* buf;
  std::size_t cap;
  std::size_t len = 0;

  void raw(const char* s, std::size_t n) {
    if (len + n > cap) n = cap - len;
    std::memcpy(buf + len, s, n);
    len += n;
  }
  void str(const char* s) { raw(s, std::strlen(s)); }
  void ch(char c) {
    if (len < cap) buf[len++] = c;
  }
  void u64(std::uint64_t v) {
    char tmp[24];
    int n = 0;
    do {
      tmp[n++] = static_cast<char>('0' + v % 10);
      v /= 10;
    } while (v != 0);
    while (n > 0) ch(tmp[--n]);
  }
  void i64(std::int64_t v) {
    if (v < 0) {
      ch('-');
      // Negate via uint64 so INT64_MIN does not overflow.
      u64(~static_cast<std::uint64_t>(v) + 1);
    } else {
      u64(static_cast<std::uint64_t>(v));
    }
  }
};

}  // namespace

const char* to_string(EventKind kind) {
  switch (kind) {
    case EventKind::kLog: return "log";
    case EventKind::kRequest: return "request";
    case EventKind::kShed: return "shed";
    case EventKind::kSwap: return "swap";
    case EventKind::kDrain: return "drain";
    case EventKind::kStall: return "stall";
    case EventKind::kSignal: return "signal";
    case EventKind::kMark: return "mark";
  }
  return "mark";
}

namespace {

// Metrics snapshot the handler embeds verbatim: pre-escaped as JSON string
// content at refresh time (off the signal path).
constexpr std::size_t kMetricsSnapshotCap = 256 * 1024;
char g_metrics_snapshot[kMetricsSnapshotCap];
std::atomic<std::size_t> g_metrics_snapshot_len{0};

// The dump is rendered into static storage: the handler cannot malloc, and
// untouched BSS pages cost nothing until a crash actually happens.
constexpr std::size_t kDumpBufCap = 8 * 1024 * 1024;
char g_dump_buf[kDumpBufCap];

/// Writes the first n bytes of g_dump_buf to `path` (async-signal-safe).
/// Returns true when every byte landed.
bool write_dump(const char* path, std::size_t n) {
  const int fd = ::open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;
  std::size_t off = 0;
  while (off < n) {
    const ssize_t w = ::write(fd, g_dump_buf + off, n - off);
    if (w <= 0) break;
    off += static_cast<std::size_t>(w);
  }
  ::close(fd);
  return off == n;
}

}  // namespace

void flight_recorder_signal_handler(int signo) {
  FlightRecorder& rec = FlightRecorder::instance();
  FlightRecorder::record(EventKind::kSignal, 0, "fatal signal", signo, 0);
  write_dump(rec.dump_path(), rec.render_dump(g_dump_buf, kDumpBufCap, signo));
  // Restore the default disposition and re-raise so the process still dies
  // with the original signal (exit status / core dump preserved).
  ::signal(signo, SIG_DFL);
  ::raise(signo);
}

FlightRecorder& FlightRecorder::instance() {
  static FlightRecorder* rec = new FlightRecorder();
  return *rec;
}

FlightRecorder::FlightRecorder() : epoch_us_(steady_us()) {}

void FlightRecorder::enable() {
  // Spans now also sit on their thread's live span stack (one name copy
  // per span while enabled; still a single relaxed load when not).
  detail::g_span_mask.fetch_or(detail::kSpanMaskForensics, std::memory_order_relaxed);
}

bool FlightRecorder::enabled() const {
  return (detail::g_span_mask.load(std::memory_order_relaxed) &
          detail::kSpanMaskForensics) != 0;
}

void FlightRecorder::install(const std::string& dir) {
  enable();
  refresh_metrics_snapshot();

  Appender path{dump_path_, sizeof(dump_path_) - 1};
  path.str(dir.c_str());
  if (!dir.empty() && dir.back() != '/') path.ch('/');
  path.str("postmortem.");
  path.u64(static_cast<std::uint64_t>(::getpid()));
  path.str(".json");
  dump_path_[path.len] = '\0';

  bool expected = false;
  if (!installed_.compare_exchange_strong(expected, true)) return;

  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = flight_recorder_signal_handler;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;
  for (int signo : {SIGSEGV, SIGABRT, SIGBUS}) {
    ::sigaction(signo, &action, nullptr);
  }
}

void FlightRecorder::record(EventKind kind, std::uint64_t trace_id, const char* msg,
                            std::int64_t a, std::int64_t b) {
  FlightRecorder& rec = instance();
  if (!rec.enabled()) return;
  detail::ThreadSlot* slot = detail::this_thread_slot();
  if (slot == nullptr) return;
  const std::uint64_t head = slot->head.load(std::memory_order_relaxed);
  FlightEvent& e = slot->events[head % kEventsPerThread];
  e.t_us = steady_us() - rec.epoch_us_;
  e.trace_id = trace_id;
  e.kind = kind;
  sanitize_into(e.msg, sizeof(e.msg), msg);
  e.a = a;
  e.b = b;
  slot->head.store(head + 1, std::memory_order_release);
}

void FlightRecorder::refresh_metrics_snapshot() {
  const std::string text = MetricsRegistry::global().render_prometheus();
  std::size_t n = 0;
  for (char raw : text) {
    if (n + 8 >= kMetricsSnapshotCap) break;  // worst-case escape is 6 bytes
    const unsigned char c = static_cast<unsigned char>(raw);
    if (c == '"' || c == '\\') {
      g_metrics_snapshot[n++] = '\\';
      g_metrics_snapshot[n++] = static_cast<char>(c);
    } else if (c == '\n') {
      g_metrics_snapshot[n++] = '\\';
      g_metrics_snapshot[n++] = 'n';
    } else if (c < 0x20 || c > 0x7e) {
      g_metrics_snapshot[n++] = '_';
    } else {
      g_metrics_snapshot[n++] = static_cast<char>(c);
    }
  }
  g_metrics_snapshot_len.store(n, std::memory_order_release);
}

std::size_t FlightRecorder::render_dump(char* buf, std::size_t cap,
                                        int signal_number) const {
  Appender out{buf, cap};
  out.str("{\"schema\":\"paintplace-postmortem-v1\",\"signal\":");
  out.i64(signal_number);
  out.str(",\"pid\":");
  out.u64(static_cast<std::uint64_t>(::getpid()));

  const BuildInfo& build = build_info();
  out.str(",\"build\":{\"git_sha\":\"");
  out.str(build.git_sha);  // configure-time constants: already plain ASCII
  out.str("\",\"compiler\":\"");
  // __VERSION__ can contain anything: sanitize it like a message.
  char compiler[256];
  sanitize_into(compiler, sizeof(compiler), build.compiler);
  out.str(compiler);
  out.str("\",\"native_kernel\":");
  out.str(build.native_kernel ? "true" : "false");
  out.str("},\"threads\":[");

  const std::uint32_t slot_count = detail::slot_count();
  char name[detail::kSpanNameLen];
  for (std::uint32_t s = 0; s < slot_count; ++s) {
    const detail::ThreadSlot* slot = detail::slot_at(s);
    if (s > 0) out.ch(',');

    out.str("{\"tid\":");
    out.u64(slot->os_tid.load(std::memory_order_relaxed));

    out.str(",\"span_stack\":[");
    std::uint32_t depth = slot->depth.load(std::memory_order_acquire);
    if (depth > detail::kMaxSpanDepth) depth = detail::kMaxSpanDepth;
    for (std::uint32_t d = 0; d < depth; ++d) {
      if (d > 0) out.ch(',');
      out.ch('"');
      slot->read_frame(d, name);
      sanitize_into(name, sizeof(name), name);  // names are copied raw at push
      out.str(name);
      out.ch('"');
    }
    out.str("],\"events\":[");

    const std::uint64_t head = slot->head.load(std::memory_order_acquire);
    const std::uint64_t start = head > kEventsPerThread ? head - kEventsPerThread : 0;
    for (std::uint64_t i = start; i < head; ++i) {
      const FlightEvent& e = slot->events[i % kEventsPerThread];
      if (i != start) out.ch(',');
      out.str("{\"t_us\":");
      out.u64(e.t_us);
      out.str(",\"kind\":\"");
      out.str(to_string(e.kind));
      out.str("\",\"trace\":");
      out.u64(e.trace_id);
      out.str(",\"msg\":\"");
      out.str(e.msg);  // sanitized at record time
      out.str("\",\"a\":");
      out.i64(e.a);
      out.str(",\"b\":");
      out.i64(e.b);
      out.ch('}');
    }
    out.str("]}");
  }

  out.str("],\"metrics\":\"");
  out.raw(g_metrics_snapshot, g_metrics_snapshot_len.load(std::memory_order_acquire));
  out.str("\"}\n");
  return out.len;
}

bool FlightRecorder::dump(const std::string& path, int signal_number) {
  return write_dump(path.c_str(), render_dump(g_dump_buf, kDumpBufCap, signal_number));
}

std::size_t FlightRecorder::recorded() const {
  std::size_t total = 0;
  for (std::uint32_t s = 0; s < detail::slot_count(); ++s) {
    const std::uint64_t head = detail::slot_at(s)->head.load(std::memory_order_acquire);
    total += static_cast<std::size_t>(head < kEventsPerThread ? head : kEventsPerThread);
  }
  return total;
}

void FlightRecorder::clear() {
  for (std::uint32_t s = 0; s < detail::slot_count(); ++s) {
    detail::slot_at(s)->head.store(0, std::memory_order_release);
  }
}

}  // namespace paintplace::obs
