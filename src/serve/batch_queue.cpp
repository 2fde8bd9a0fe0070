#include "serve/batch_queue.h"

namespace paintplace::serve {

bool BatchQueue::push(PendingRequest& req) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) return false;
    queue_.push_back(std::move(req));
  }
  cv_.notify_one();
  return true;
}

std::vector<PendingRequest> BatchQueue::pop_batch() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (queue_.empty()) {
      if (closed_) return {};
      cv_.wait(lock, [this] { return closed_ || !queue_.empty(); });
      continue;
    }
    if (static_cast<Index>(queue_.size()) >= max_batch_ || closed_ || max_wait_.count() == 0) {
      break;
    }
    // Wait for the batch to fill, but no longer than the oldest request's
    // deadline — latency is bounded by max_wait regardless of traffic.
    const auto deadline = queue_.front().enqueued_at + max_wait_;
    cv_.wait_until(lock, deadline, [this] {
      return closed_ || static_cast<Index>(queue_.size()) >= max_batch_;
    });
    // Another consumer may have drained the queue while we slept — loop back
    // and re-evaluate from the top (which also handles close/drain).
    if (queue_.empty()) continue;
    if (closed_ || static_cast<Index>(queue_.size()) >= max_batch_ ||
        std::chrono::steady_clock::now() >= deadline) {
      break;
    }
  }
  const std::size_t take = std::min<std::size_t>(queue_.size(), static_cast<std::size_t>(max_batch_));
  std::vector<PendingRequest> batch;
  batch.reserve(take);
  for (std::size_t i = 0; i < take; ++i) {
    batch.push_back(std::move(queue_.front()));
    queue_.pop_front();
  }
  return batch;
}

void BatchQueue::close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }
  cv_.notify_all();
}

bool BatchQueue::closed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return closed_;
}

std::size_t BatchQueue::pending() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

}  // namespace paintplace::serve
