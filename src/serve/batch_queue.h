// Micro-batch request queue: the heart of the serving engine's coalescing.
//
// Producers push single requests; consumers pop whole batches of up to
// max_batch, oldest first. With max_wait == 0 (ServeConfig's default) the
// queue is work-conserving: a consumer takes whatever is pending the moment
// it asks, so an idle worker never waits and a batch is exactly the requests
// that arrived while the previous forward ran (continuous batching). A
// max_wait > 0 holds a partial batch open until max_batch requests are
// pending or max_wait has elapsed since the *oldest* one arrived — a lone
// request then pays up to max_wait of latency for the chance of a fuller
// batch. close() stops intake but lets consumers drain what is queued;
// pop_batch returns an empty vector once the queue is closed and empty.
#pragma once

#include <chrono>
#include <condition_variable>
#include <deque>
#include <future>
#include <mutex>
#include <vector>

#include "serve/forecast_types.h"
#include "serve/tensor_key.h"

namespace paintplace::serve {

/// One queued forecast request: the rendered placement, its content hash,
/// and the promise the client's future is waiting on.
struct PendingRequest {
  nn::Tensor input;  ///< (1,C,w,w) in [0,1]
  TensorKey key;
  std::promise<ForecastResult> promise;
  std::chrono::steady_clock::time_point enqueued_at;
  /// Trace id captured at submit (0 = untraced): the batch worker adopts it
  /// so the spans of a cross-thread request stitch together in the trace.
  std::uint64_t trace_id = 0;
};

class BatchQueue {
 public:
  BatchQueue(Index max_batch, std::chrono::microseconds max_wait)
      : max_batch_(max_batch), max_wait_(max_wait) {
    PP_CHECK_MSG(max_batch >= 1, "BatchQueue max_batch must be >= 1");
    PP_CHECK_MSG(max_wait.count() >= 0, "BatchQueue max_wait must be >= 0");
  }

  /// Enqueues a request. Returns false (leaving `req` untouched) after close().
  bool push(PendingRequest& req);

  /// Blocks until a request is pending (and, with max_wait > 0, until the
  /// batch is full or the oldest request's deadline passes), then returns up
  /// to max_batch requests, oldest first. Empty vector = closed and drained.
  std::vector<PendingRequest> pop_batch();

  /// Stops intake; queued requests remain poppable. Idempotent.
  void close();

  bool closed() const;
  std::size_t pending() const;

 private:
  const Index max_batch_;
  const std::chrono::microseconds max_wait_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<PendingRequest> queue_;
  bool closed_ = false;
};

}  // namespace paintplace::serve
