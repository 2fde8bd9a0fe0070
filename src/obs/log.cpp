#include "obs/log.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "obs/flight_recorder.h"
#include "obs/metrics_registry.h"

namespace paintplace::obs {
namespace {

double now_s() {
  using clock = std::chrono::steady_clock;
  static const clock::time_point start = clock::now();
  return std::chrono::duration<double>(clock::now() - start).count();
}

std::int64_t wall_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

/// Renders a JSON string literal (with quotes) into `out`.
void append_json_string(std::string& out, const char* s) {
  out.push_back('"');
  for (; *s; ++s) {
    const unsigned char c = static_cast<unsigned char>(*s);
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(static_cast<char>(c));
        }
    }
  }
  out.push_back('"');
}

/// key=value text needs quoting only when the value has spaces/quotes/empties.
bool needs_quotes(const std::string& v) {
  if (v.empty()) return true;
  for (char c : v) {
    if (c == ' ' || c == '"' || c == '=' || c == '\n' || c == '\t') return true;
  }
  return false;
}

std::string format_double(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  return buf;
}

}  // namespace

const char* to_string(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "debug";
    case LogLevel::kInfo: return "info";
    case LogLevel::kWarn: return "warn";
    case LogLevel::kError: return "error";
  }
  return "info";
}

bool write_file(const std::string& path, const std::string& body, const char* fail_event) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    Log::instance().error("obs", fail_event).kv("path", path);
    return false;
  }
  const bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  std::fclose(f);
  return ok;
}

LogLevel log_level_from_string(const std::string& name) {
  if (name == "debug") return LogLevel::kDebug;
  if (name == "warn" || name == "warning") return LogLevel::kWarn;
  if (name == "error") return LogLevel::kError;
  return LogLevel::kInfo;
}

// ---------------------------------------------------------------------------
// LogLine

LogLine::LogLine(Log* log, LogLevel level, const char* subsystem, const char* event)
    : log_(log), level_(level), subsystem_(subsystem), event_(event) {
  live_ = log_ != nullptr && log_->enabled(level);
}

LogLine::LogLine(LogLine&& other) noexcept
    : log_(other.log_),
      live_(other.live_),
      level_(other.level_),
      subsystem_(other.subsystem_),
      event_(other.event_),
      fields_(std::move(other.fields_)) {
  other.live_ = false;
  other.log_ = nullptr;
}

LogLine::~LogLine() {
  if (live_ && log_ != nullptr) log_->emit(*this);
}

LogLine& LogLine::kv(const char* key, std::int64_t value) {
  if (!live_) return *this;
  const std::string text = std::to_string(value);
  fields_.push_back({key, text, text});
  return *this;
}

LogLine& LogLine::kv(const char* key, std::uint64_t value) {
  if (!live_) return *this;
  const std::string text = std::to_string(value);
  fields_.push_back({key, text, text});
  return *this;
}

LogLine& LogLine::kv(const char* key, double value) {
  if (!live_) return *this;
  const std::string text = format_double(value);
  fields_.push_back({key, text, text});
  return *this;
}

LogLine& LogLine::kv(const char* key, bool value) {
  if (!live_) return *this;
  const char* text = value ? "true" : "false";
  fields_.push_back({key, text, text});
  return *this;
}

LogLine& LogLine::kv(const char* key, const char* value) {
  if (!live_) return *this;
  std::string json;
  append_json_string(json, value != nullptr ? value : "");
  fields_.push_back({key, value != nullptr ? value : "", std::move(json)});
  return *this;
}

LogLine& LogLine::kv(const char* key, const std::string& value) {
  return kv(key, value.c_str());
}

// ---------------------------------------------------------------------------
// Log

Log& Log::instance() {
  static Log* log = [] {
    auto* l = new Log();
    LogConfig config;
    if (const char* level = std::getenv("PAINTPLACE_LOG_LEVEL")) {
      config.min_level = log_level_from_string(level);
    }
    if (const char* format = std::getenv("PAINTPLACE_LOG_FORMAT")) {
      if (std::strcmp(format, "json") == 0) config.format = LogFormat::kJson;
    }
    l->configure(config);
    return l;
  }();
  return *log;
}

Log::Log() {
  auto& registry = MetricsRegistry::global();
  emitted_counter_ = &registry.counter(
      "obs_log_emitted_total", "Structured log lines written to the sink");
  suppressed_counter_ = &registry.counter(
      "obs_log_suppressed_total", "Structured log lines dropped by the rate limiter");
}

void Log::configure(const LogConfig& config) {
  std::lock_guard<std::mutex> lock(mu_);
  config_ = config;
  min_level_.store(static_cast<std::uint8_t>(config.min_level), std::memory_order_relaxed);
}

LogConfig Log::config() const {
  std::lock_guard<std::mutex> lock(mu_);
  return config_;
}

void Log::set_sink(std::function<void(const std::string&)> sink) {
  std::lock_guard<std::mutex> lock(mu_);
  sink_ = std::move(sink);
}

std::uint64_t Log::emitted() const { return emitted_.load(std::memory_order_relaxed); }
std::uint64_t Log::suppressed() const { return suppressed_.load(std::memory_order_relaxed); }

void Log::reset_rate_limits() {
  std::lock_guard<std::mutex> lock(mu_);
  windows_.clear();
}

void Log::emit(const LogLine& line) {
  std::string rendered;
  std::uint64_t drained_suppressed = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);

    if (config_.rate_limit_per_key > 0) {
      std::string key(to_string(line.level_));
      key.push_back(':');
      key += line.subsystem_;
      key.push_back(':');
      key += line.event_;
      KeyWindow& window = windows_[key];
      const double now = now_s();
      if (now - window.window_start_s >= config_.rate_window_s) {
        window.window_start_s = now;
        window.in_window = 0;
        drained_suppressed = window.suppressed;
        window.suppressed = 0;
      }
      if (window.in_window >= config_.rate_limit_per_key) {
        ++window.suppressed;
        suppressed_.fetch_add(1, std::memory_order_relaxed);
        suppressed_counter_->fetch_add(1);
        return;
      }
      ++window.in_window;
    }

    rendered.reserve(128);
    if (config_.format == LogFormat::kJson) {
      rendered += "{\"ts_ms\":";
      rendered += std::to_string(wall_ms());
      rendered += ",\"level\":\"";
      rendered += to_string(line.level_);
      rendered += "\",\"subsystem\":";
      append_json_string(rendered, line.subsystem_);
      rendered += ",\"event\":";
      append_json_string(rendered, line.event_);
      for (const LogLine::Field& f : line.fields_) {
        rendered.push_back(',');
        append_json_string(rendered, f.key.c_str());
        rendered.push_back(':');
        rendered += f.json_value;
      }
      if (drained_suppressed > 0) {
        rendered += ",\"suppressed\":";
        rendered += std::to_string(drained_suppressed);
      }
      rendered.push_back('}');
    } else {
      char ts[32];
      std::snprintf(ts, sizeof(ts), "%.3f", now_s());
      rendered += ts;
      rendered.push_back(' ');
      rendered += to_string(line.level_);
      rendered.push_back(' ');
      rendered += line.subsystem_;
      rendered.push_back('.');
      rendered += line.event_;
      for (const LogLine::Field& f : line.fields_) {
        rendered.push_back(' ');
        rendered += f.key;
        rendered.push_back('=');
        if (needs_quotes(f.text_value)) {
          rendered += f.json_value;  // JSON literal doubles as a quoted form
        } else {
          rendered += f.text_value;
        }
      }
      if (drained_suppressed > 0) {
        rendered += " suppressed=";
        rendered += std::to_string(drained_suppressed);
      }
    }

    emitted_.fetch_add(1, std::memory_order_relaxed);
    emitted_counter_->fetch_add(1);

    // Mirror the line into the flight recorder so a post-mortem shows the
    // last log activity per thread. msg carries "subsystem.event"; `a` the
    // level. (Recorded inside the lock so ring order matches sink order on
    // one thread; the ring write itself is lock-free.)
    FlightRecorder::record(EventKind::kLog, 0,
                           (std::string(line.subsystem_) + "." + line.event_).c_str(),
                           static_cast<std::int64_t>(line.level_), 0);

    if (sink_) {
      sink_(rendered);
      return;
    }
  }
  rendered.push_back('\n');
  std::fwrite(rendered.data(), 1, rendered.size(), stdout);
  std::fflush(stdout);
}

}  // namespace paintplace::obs
