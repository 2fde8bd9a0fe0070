#include "net/replica_pool.h"

#include <algorithm>

#include "obs/trace.h"

namespace paintplace::net {

ReplicaPool::ReplicaPool(const ReplicaPoolConfig& config, const ModelFactory& make_model)
    : config_(config) {
  PP_CHECK_MSG(config.replicas >= 1, "ReplicaPool needs at least one replica");
  PP_CHECK_MSG(config.max_replica_depth >= 0 && config.max_client_inflight >= 0,
               "ReplicaPool admission bounds must be >= 0");
  replicas_.reserve(static_cast<std::size_t>(config.replicas));
  replica_depth_.assign(static_cast<std::size_t>(config.replicas), 0);
  for (int r = 0; r < config.replicas; ++r) {
    auto model = make_model();
    PP_CHECK_MSG(model != nullptr, "ReplicaPool model factory returned null");
    replicas_.push_back(std::make_unique<serve::ForecastServer>(
        config.serve, std::move(model), "replica-" + std::to_string(r) + "-initial"));
  }
}

ReplicaPool::~ReplicaPool() { shutdown(); }

int ReplicaPool::replica_of(const serve::TensorKey& key) const {
  return static_cast<int>(serve::TensorKeyHash{}(key) % replicas_.size());
}

Admission ReplicaPool::submit(std::uint64_t client_id, const nn::Tensor& input01) {
  obs::Span span("pool.dispatch", "pool");
  Admission adm;
  // Hashed once: the same key picks the shard and keys the replica's cache.
  const serve::TensorKey key = serve::TensorKey::of(input01);
  adm.replica = replica_of(key);
  if (span.active()) span.arg("replica", static_cast<std::int64_t>(adm.replica));

  {
    std::lock_guard<std::mutex> lock(admission_mu_);
    PP_CHECK_MSG(!shut_down_, "ReplicaPool::submit after shutdown");
    if (config_.max_replica_depth > 0 &&
        replica_depth_[static_cast<std::size_t>(adm.replica)] >= config_.max_replica_depth) {
      adm.shed = ShedReason::kReplicaQueueFull;
      if (span.active()) span.arg("shed", to_string(adm.shed));
      return adm;
    }
    Index& inflight = client_inflight_[client_id];
    if (config_.max_client_inflight > 0 && inflight >= config_.max_client_inflight) {
      adm.shed = ShedReason::kClientCapExceeded;
      if (span.active()) span.arg("shed", to_string(adm.shed));
      return adm;
    }
    replica_depth_[static_cast<std::size_t>(adm.replica)] += 1;
    inflight += 1;
  }

  // The slot guard releases admission state exactly once, whatever path the
  // response takes (written, dropped on disconnect, or an exception between).
  const int replica = adm.replica;
  adm.slot = std::shared_ptr<void>(nullptr, [this, replica, client_id](void*) {
    release(replica, client_id);
  });

  try {
    adm.future = replicas_[static_cast<std::size_t>(adm.replica)]->submit(input01, &key);
  } catch (...) {
    adm.slot.reset();  // submit never happened — free the slots immediately
    throw;
  }
  return adm;
}

void ReplicaPool::release(int replica, std::uint64_t client_id) {
  std::lock_guard<std::mutex> lock(admission_mu_);
  replica_depth_[static_cast<std::size_t>(replica)] -= 1;
  const auto it = client_inflight_.find(client_id);
  if (it != client_inflight_.end() && --it->second <= 0) client_inflight_.erase(it);
}

std::uint64_t ReplicaPool::hot_swap(const ModelFactory& make_model, const std::string& label) {
  std::uint64_t version = 0;
  for (std::size_t r = 0; r < replicas_.size(); ++r) {
    auto model = make_model();
    PP_CHECK_MSG(model != nullptr, "ReplicaPool model factory returned null");
    const std::uint64_t v = replicas_[r]->publish_model(std::move(model), label);
    // Versions advance in lockstep because every publish goes through the
    // pool; a divergence means someone published on a replica directly.
    PP_CHECK_MSG(r == 0 || v == version, "replica model versions diverged: " << v
                                             << " vs " << version);
    version = v;
  }
  return version;
}

void ReplicaPool::shutdown() {
  {
    std::lock_guard<std::mutex> lock(admission_mu_);
    if (shut_down_) return;
    shut_down_ = true;
  }
  // ForecastServer::shutdown serves every queued request before joining, so
  // all admitted futures resolve — drain, not drop.
  for (auto& replica : replicas_) replica->shutdown();
}

PoolStats ReplicaPool::stats() const {
  PoolStats out;
  for (const auto& replica : replicas_) {
    const serve::ServeStats s = replica->stats();
    out.serve.requests += s.requests;
    out.serve.cache_hits += s.cache_hits;
    out.serve.coalesced += s.coalesced;
    out.serve.batches += s.batches;
    out.serve.model_samples += s.model_samples;
    out.serve.max_batch = std::max(out.serve.max_batch, s.max_batch);
  }
  out.cache_hits = out.serve.cache_hits;
  out.cache_requests = out.serve.requests;
  out.model_version = replicas_.empty() ? 0 : replicas_.front()->registry().current().version;
  {
    std::lock_guard<std::mutex> lock(admission_mu_);
    for (Index d : replica_depth_) {
      out.queue_depth += static_cast<std::uint64_t>(d);
      out.max_replica_depth =
          std::max(out.max_replica_depth, static_cast<std::uint64_t>(d));
    }
  }
  return out;
}

std::vector<Index> ReplicaPool::replica_depths() const {
  std::lock_guard<std::mutex> lock(admission_mu_);
  return replica_depth_;
}

}  // namespace paintplace::net
