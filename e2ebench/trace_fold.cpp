#include "trace_fold.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/trace.h"

namespace e2e {

namespace {

/// Number after `"key":` inside `event`, or `fallback` when the key is absent.
double field(std::string_view event, std::string_view key, double fallback) {
  std::string pattern = "\"";
  pattern += key;
  pattern += "\":";
  const std::size_t at = event.find(pattern);
  if (at == std::string_view::npos) return fallback;
  return std::strtod(event.data() + at + pattern.size(), nullptr);
}

struct Event {
  double ts = 0.0, end = 0.0;
  SpanTotals* totals = nullptr;
};

}  // namespace

void TraceFold::add(const std::string& json) {
  static constexpr std::string_view kEventStart = "{\"name\":\"";
  std::map<int, std::vector<Event>> by_thread;
  std::size_t pos = 0;
  // dump_json writes one event per line; span names never contain quotes.
  while ((pos = json.find(kEventStart, pos)) != std::string::npos) {
    const std::size_t name_begin = pos + kEventStart.size();
    const std::size_t name_end = json.find('"', name_begin);
    std::size_t line_end = json.find('\n', name_end);
    if (line_end == std::string::npos) line_end = json.size();
    const std::string_view event(json.data() + name_end, line_end - name_end);
    const std::string name = json.substr(name_begin, name_end - name_begin);
    pos = line_end;

    const double ts = field(event, "ts", 0.0);
    const double dur = field(event, "dur", 0.0);
    SpanTotals& totals = spans_[name];
    totals.count += 1;
    totals.total_us += dur;
    totals.samples += field(event, "batch", 1.0);
    if (name.rfind("gemm.", 0) == 0) {
      const std::size_t args_at = event.find("\"args\":");
      const std::string_view args =
          args_at == std::string_view::npos ? event : event.substr(args_at);
      const double M = field(args, "M", 0.0), N = field(args, "N", 0.0), K = field(args, "K", 0.0);
      GemmTotals& g = gemms_[name.substr(5)];
      g.count += 1;
      g.us += dur;
      g.flops += 2.0 * M * N * K;
      if (name != "gemm.sgemm_bt") g.weight_bytes += 4.0 * M * K;
    }
    by_thread[static_cast<int>(field(event, "tid", 0.0))].push_back({ts, ts + dur, &totals});
  }

  // Spans nest per thread by time containment: parents sort before their
  // children (earlier start, or the same start and a later end).
  for (auto& [tid, events] : by_thread) {
    std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
      return a.ts != b.ts ? a.ts < b.ts : a.end > b.end;
    });
    std::vector<const Event*> open;
    for (const Event& e : events) {
      while (!open.empty() && !(e.ts >= open.back()->ts && e.end <= open.back()->end)) {
        open.pop_back();
      }
      if (!open.empty()) open.back()->totals->child_us += e.end - e.ts;
      open.push_back(&e);
    }
  }
}

SpanTotals TraceFold::span(const std::string& name) const {
  const auto it = spans_.find(name);
  return it == spans_.end() ? SpanTotals{} : it->second;
}

GemmTotals TraceFold::gemm(const std::string& variant) const {
  if (!variant.empty()) {
    const auto it = gemms_.find(variant);
    return it == gemms_.end() ? GemmTotals{} : it->second;
  }
  GemmTotals all;
  for (const auto& [name, g] : gemms_) {
    all.count += g.count;
    all.us += g.us;
    all.flops += g.flops;
    all.weight_bytes += g.weight_bytes;
  }
  return all;
}

// ---- TraceSession -----------------------------------------------------------

TraceSession::~TraceSession() {
  if (running_) obs::Tracer::instance().disable();
}

void TraceSession::start() {
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.clear();
  tracer.enable();
  running_ = true;
}

void TraceSession::flush() {
  obs::Tracer& tracer = obs::Tracer::instance();
  const std::string json = tracer.dump_json();
  dropped_ += tracer.dropped();
  tracer.clear();
  fold_.add(json);
  if (!written_) {
    written_ = true;
    if (std::FILE* f = std::fopen(chrome_path_.c_str(), "w")) {
      std::fwrite(json.data(), 1, json.size(), f);
      std::fclose(f);
      std::printf("# wrote %s\n", chrome_path_.c_str());
    }
  }
}

void TraceSession::stop() {
  flush();
  obs::Tracer::instance().disable();
  running_ = false;
}

void settle_spans() { std::this_thread::sleep_for(std::chrono::milliseconds(2)); }

// ---- Per-layer metrics ------------------------------------------------------

void report_layers(Report& rep, const TraceSession& trace, const PackWindow& pack,
                   std::size_t traced_ops, double overhead_frac, double residual_frac) {
  const TraceFold& fold = trace.fold();
  const double ops = static_cast<double>(traced_ops);
  const SpanTotals single = fold.span("core.predict");
  const SpanTotals batched = fold.span("core.predict_batch");
  const double samples = single.samples + batched.samples;
  rep.metric("core.forward_ms_per_sample",
             samples == 0.0 ? 0.0 : 1e-3 * (single.total_us + batched.total_us) / samples, "ms");
  // Self time of each generator layer span, its GEMM child spans removed.
  const Index depth = model_config().generator.depth();
  for (const char* side : {"enc", "dec"}) {
    for (Index i = 0; i < depth; ++i) {
      const std::string level = side + std::to_string(i);
      const SpanTotals layer = fold.span("gen." + level + ".weight");
      rep.metric("core.layer." + level + "_ms",
                 layer.count == 0 ? 0.0 : 1e-3 * layer.self_us() / static_cast<double>(layer.count),
                 "ms");
    }
  }
  for (const char* variant : {"sgemm", "sgemm_at"}) {
    const GemmTotals g = fold.gemm(variant);
    rep.metric(std::string("backend.") + variant + "_ms",
               g.count == 0 ? 0.0 : 1e-3 * g.us / static_cast<double>(g.count), "ms");
  }
  const GemmTotals all = fold.gemm();
  rep.metric("backend.gflop_s", all.us == 0.0 ? 0.0 : all.flops / (all.us * 1e3), "GFLOP/s");
  rep.metric("backend.gflop_per_op", all.flops * 1e-9 / ops, "GFLOP");
  std::printf("# %s backend.weight_mb_per_op is computed from GEMM shapes, not measured\n",
              rep.workload().c_str());
  rep.metric("backend.weight_mb_per_op", all.weight_bytes / (1024.0 * 1024.0) / ops, "MiB");
  rep.metric("backend.pack_cache_hit_ratio", pack.hit_ratio(), "1");
  rep.metric("backend.pack_cache_mb", pack.cached_mb(), "MiB");
  rep.metric("obs.trace_overhead_frac", overhead_frac, "1");
  rep.metric("trace.residual_frac", residual_frac, "1");
  rep.metric("obs.trace_dropped", static_cast<double>(trace.dropped()), "count");
  rep.check(trace.dropped() == 0, "trace rings wrapped: " + std::to_string(trace.dropped()) +
                                      " events dropped");
}

}  // namespace e2e
