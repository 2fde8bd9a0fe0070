// ForecastServer — micro-batched congestion-forecast serving engine.
//
// Placement clients (SA placers, explorers, interactive tools) submit
// rendered placements and get a future for the predicted heat map plus its
// congestion score. Submissions are coalesced on a BatchQueue into
// micro-batches that run as ONE batched generator forward pass (see
// CongestionForecaster::predict_batch), amortizing the per-sample GEMM
// inefficiency of the channel-fat inner U-Net levels. Identical placements
// are served from a content-hash LRU cache without touching the model, and
// duplicates inside one batch run only once. Checkpoints hot-swap through a
// ModelRegistry: in-flight batches finish on the model they started with.
//
// Threading contract: the server owns the model(s) handed to the registry —
// forward passes are stateful (layer caches), so the server serializes them
// behind a mutex. Don't call predict() on a published model from outside
// while the server is running.
#pragma once

#include <atomic>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "serve/batch_queue.h"
#include "serve/forecast_types.h"
#include "serve/model_registry.h"
#include "serve/result_cache.h"

namespace paintplace::serve {

struct ServeConfig {
  Index max_batch = 8;  ///< flush a batch at this many pending requests
  /// ... or this long after the oldest arrival. 0 (the default) never holds
  /// a batch open: an idle worker dispatches at once, and batches form from
  /// the requests that arrive while a forward is running.
  std::chrono::microseconds max_wait{0};
  int workers = 1;      ///< batch-consumer threads (forward passes still serialize)
  std::size_t cache_capacity = 1024;  ///< LRU entries; 0 disables caching
  /// Freeze the generator's inference noise z so predictions are a pure
  /// function of the input. Required for the cache to be sound; disable only
  /// if you want stochastic maps AND an empty cache_capacity.
  bool deterministic = true;
  /// Compute backend to activate when the server starts ("reference",
  /// "cpu_opt", ...). Empty keeps the process default (PAINTPLACE_BACKEND
  /// env var, else cpu_opt). Note the active backend is process-wide, not
  /// per-server — both built-in backends agree to ~1e-4, but a swap mid-run
  /// invalidates bit-exact cache guarantees, so pick one at startup.
  std::string backend;
  /// Tail-based trace sampling: head-sample 1-in-this-many requests, always
  /// retain slow/shed/error requests (see obs/sampler.h). 0 keeps the
  /// record-everything behavior. The sampler — like the tracer — is
  /// process-wide; the request lifecycle (begin/finish) is driven by the
  /// net front-end, so this knob only matters behind a NetServer.
  std::uint64_t trace_sample = 0;
  /// Requests slower than this always commit their trace when sampling.
  double trace_slow_ms = 100.0;
};

class ForecastServer {
 public:
  /// Takes ownership of the initial model (published as version 1).
  ForecastServer(const ServeConfig& config, std::shared_ptr<core::CongestionForecaster> model,
                 std::string label = "initial");
  ~ForecastServer();

  ForecastServer(const ForecastServer&) = delete;
  ForecastServer& operator=(const ForecastServer&) = delete;

  /// Submits one rendered placement (1,C,w,w in [0,1]). The future resolves
  /// with the heat map + score — immediately on a cache hit, after the next
  /// micro-batch otherwise. Throws CheckError on bad shape or after shutdown.
  /// `key` is TensorKey::of(input01) when the caller has already computed it
  /// (ReplicaPool does, to pick the shard); null computes it here.
  std::future<ForecastResult> submit(const nn::Tensor& input01,
                                     const TensorKey* key = nullptr);

  /// Hot-swaps the serving model (e.g. a fine-tuned checkpoint). In-flight
  /// batches finish on their old model; the cache is cleared because cached
  /// results no longer reflect the serving model. Returns the new version.
  std::uint64_t publish_model(std::shared_ptr<core::CongestionForecaster> model,
                              std::string label);

  /// Stops intake, serves every queued request, joins workers. Idempotent;
  /// also runs on destruction.
  void shutdown();

  ServeStats stats() const;
  ResultCache& cache() { return cache_; }
  ModelRegistry& registry() { return registry_; }

 private:
  void worker_loop();
  void run_batch(std::vector<PendingRequest> batch);

  ServeConfig config_;
  ModelRegistry registry_;
  ResultCache cache_;
  BatchQueue queue_;
  std::mutex model_mu_;  // forward passes are stateful — one at a time
  std::vector<std::thread> workers_;
  std::atomic<bool> shut_down_{false};

  mutable std::mutex stats_mu_;
  ServeStats stats_;
};

}  // namespace paintplace::serve
