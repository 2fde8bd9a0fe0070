#include "serve/forecast_server.h"

#include <algorithm>

#include "backend/backend.h"
#include "nn/tensor_ops.h"
#include "obs/flight_recorder.h"
#include "obs/log.h"
#include "obs/metrics_registry.h"
#include "obs/sampler.h"
#include "obs/trace.h"

namespace paintplace::serve {

namespace {

// Serving-side registry instruments, shared across replicas. The coalesce
// wait histogram meters enqueue -> batch-start: the latency cost a request
// pays to ride a bigger (cheaper per-sample) batch.
struct ServeInstruments {
  obs::Histogram& batch_wait = obs::MetricsRegistry::global().histogram(
      "serve_batch_wait_seconds", "request enqueue to batch execution start");
  obs::Histogram& batch_exec = obs::MetricsRegistry::global().histogram(
      "serve_batch_exec_seconds", "batched forward + scoring wall time");
  obs::Counter& batches = obs::MetricsRegistry::global().counter(
      "serve_batches_total", "micro-batches executed");
  obs::Counter& coalesced = obs::MetricsRegistry::global().counter(
      "serve_coalesced_total", "duplicate requests folded into one forward");
};

ServeInstruments& instruments() {
  static ServeInstruments inst;
  return inst;
}

}  // namespace

ForecastServer::ForecastServer(const ServeConfig& config,
                               std::shared_ptr<core::CongestionForecaster> model,
                               std::string label)
    : config_(config),
      cache_(config.cache_capacity),
      queue_(config.max_batch, config.max_wait) {
  PP_CHECK_MSG(config.workers >= 1, "ForecastServer needs at least one worker");
  PP_CHECK_MSG(model != nullptr, "ForecastServer needs an initial model");
  PP_CHECK_MSG(config.deterministic || config.cache_capacity == 0,
               "stochastic inference with a result cache would serve stale noise draws; "
               "set deterministic=true or cache_capacity=0");
  if (config_.deterministic) model->set_deterministic_inference(true);
  // Throws on unknown names before any worker starts, so a typo in a config
  // fails the server construction instead of silently serving on the default.
  if (!config_.backend.empty()) backend::set_active_backend(config_.backend);
  if (config_.trace_sample > 0) {
    obs::SamplerConfig sampler_cfg;
    sampler_cfg.sample_every = config_.trace_sample;
    sampler_cfg.slow_threshold_s = config_.trace_slow_ms * 1e-3;
    obs::Tracer::instance().sampler().configure(sampler_cfg);
  }
  registry_.publish(std::move(model), std::move(label));
  workers_.reserve(static_cast<std::size_t>(config.workers));
  for (int w = 0; w < config.workers; ++w) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ForecastServer::~ForecastServer() { shutdown(); }

std::future<ForecastResult> ForecastServer::submit(const nn::Tensor& input01,
                                                   const TensorKey* key) {
  obs::Span span("serve.submit", "serve");
  PP_CHECK_MSG(!queue_.closed(), "ForecastServer::submit after shutdown");
  // Validate against the current model configuration up front — the same
  // check predict() would run, but failing in the caller's thread instead
  // of inside a worker.
  const ModelSnapshot snapshot = registry_.current();
  snapshot.model->validate_input(input01, /*batched=*/false);

  PendingRequest req;
  req.key = key != nullptr ? *key : TensorKey::of(input01);
  if (auto hit = cache_.get(req.key, snapshot.version)) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.requests += 1;
    stats_.cache_hits += 1;
    std::promise<ForecastResult> ready;
    ready.set_value(std::move(*hit));
    return ready.get_future();
  }

  req.input = input01;
  req.enqueued_at = std::chrono::steady_clock::now();
  req.trace_id = obs::TraceContext::current();
  std::future<ForecastResult> future = req.promise.get_future();
  PP_CHECK_MSG(queue_.push(req), "ForecastServer::submit after shutdown");
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.requests += 1;
  }
  return future;
}

std::uint64_t ForecastServer::publish_model(std::shared_ptr<core::CongestionForecaster> model,
                                            std::string label) {
  PP_CHECK_MSG(model != nullptr, "ForecastServer::publish_model: null model");
  if (config_.deterministic) model->set_deterministic_inference(true);
  const std::uint64_t version = registry_.publish(std::move(model), std::move(label));
  // Cached results were produced by an older version; a hit must mean "the
  // serving model would paint exactly this", so drop them.
  cache_.clear();
  // debug level: the pool publishes once per replica, and the net layer
  // already logs the swap once at info.
  obs::Log::instance()
      .debug("serve", "publish_model")
      .kv("version", version);
  obs::FlightRecorder::record(obs::EventKind::kSwap, 0, "publish_model",
                              static_cast<std::int64_t>(version), 0);
  return version;
}

void ForecastServer::shutdown() {
  if (shut_down_.exchange(true)) return;
  obs::FlightRecorder::record(obs::EventKind::kDrain, 0, "forecast server drain", 0, 0);
  queue_.close();
  for (std::thread& t : workers_) t.join();
  workers_.clear();
}

ServeStats ForecastServer::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

void ForecastServer::worker_loop() {
  for (;;) {
    std::vector<PendingRequest> batch = queue_.pop_batch();
    if (batch.empty()) return;  // closed and drained
    run_batch(std::move(batch));
  }
}

void ForecastServer::run_batch(std::vector<PendingRequest> batch) {
  // The batch executes once for many requests; adopt the first traced
  // request's id so the batch span stitches to at least one request chain
  // (the others are reachable through the shared span's time range).
  std::uint64_t batch_trace = 0;
  const auto batch_start = std::chrono::steady_clock::now();
  for (const PendingRequest& req : batch) {
    if (batch_trace == 0) batch_trace = req.trace_id;
    instruments().batch_wait.record(
        std::chrono::duration<double>(batch_start - req.enqueued_at).count());
  }
  const obs::ScopedTraceId trace_scope(batch_trace);
  obs::Span span("serve.run_batch", "serve");
  if (span.active()) span.arg("batch", static_cast<std::int64_t>(batch.size()));
  try {
    const ModelSnapshot snapshot = registry_.current();

    // Late cache check (another worker may have just computed a duplicate)
    // plus within-batch coalescing: every distinct input runs exactly once.
    std::vector<Index> unique_of_request(batch.size(), -1);  // request -> unique slot
    std::vector<const nn::Tensor*> unique_inputs;
    std::vector<TensorKey> unique_keys;
    std::uint64_t coalesced = 0;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (auto hit = cache_.get(batch[i].key, snapshot.version)) {
        std::lock_guard<std::mutex> lock(stats_mu_);
        stats_.cache_hits += 1;
        batch[i].promise.set_value(std::move(*hit));
        continue;
      }
      bool found = false;
      for (std::size_t u = 0; u < unique_keys.size(); ++u) {
        if (unique_keys[u] == batch[i].key) {
          unique_of_request[i] = static_cast<Index>(u);
          coalesced += 1;
          found = true;
          break;
        }
      }
      if (!found) {
        unique_of_request[i] = static_cast<Index>(unique_inputs.size());
        unique_inputs.push_back(&batch[i].input);
        unique_keys.push_back(batch[i].key);
      }
    }
    if (unique_inputs.empty()) return;  // everything was already cached
    if (span.active()) {
      span.arg("unique", static_cast<std::int64_t>(unique_inputs.size()));
      span.arg("coalesced", static_cast<std::int64_t>(coalesced));
    }

    nn::Tensor heatmaps;
    {
      std::lock_guard<std::mutex> lock(model_mu_);
      heatmaps = snapshot.model->predict_batch(nn::stack_batch(unique_inputs));
    }
    // Scoring is pure per-pixel decoding — no layer state — so it runs
    // outside the lock and overlaps with the next batch's forward pass.
    const std::vector<double> scores = snapshot.model->congestion_scores(heatmaps);
    instruments().batch_exec.record(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - batch_start).count());
    instruments().batches.fetch_add(1);
    instruments().coalesced.fetch_add(coalesced);
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      stats_.batches += 1;
      stats_.model_samples += unique_inputs.size();
      stats_.coalesced += coalesced;
      stats_.max_batch = std::max<std::uint64_t>(stats_.max_batch, unique_inputs.size());
    }

    std::vector<ForecastResult> results(unique_inputs.size());
    for (std::size_t u = 0; u < unique_inputs.size(); ++u) {
      results[u].heatmap = nn::slice_batch(heatmaps, static_cast<Index>(u));
      results[u].congestion_score = scores[u];
      results[u].model_version = snapshot.version;
      results[u].from_cache = false;
      cache_.put(unique_keys[u], results[u]);
    }
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (unique_of_request[i] < 0) continue;  // already served from cache
      batch[i].promise.set_value(results[static_cast<std::size_t>(unique_of_request[i])]);
    }
  } catch (...) {
    // A failed batch (e.g. a hot-swapped model with an incompatible input
    // size) fails its requests, not the server.
    const std::exception_ptr err = std::current_exception();
    for (PendingRequest& req : batch) {
      try {
        req.promise.set_exception(err);
      } catch (const std::future_error&) {
        // promise already satisfied (cache hit before the failure) — fine.
      }
    }
  }
}

}  // namespace paintplace::serve
