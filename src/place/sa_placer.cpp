#include "place/sa_placer.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <iterator>

namespace paintplace::place {

const char* place_algorithm_name(PlaceAlgorithm a) {
  switch (a) {
    case PlaceAlgorithm::kAnnealing: return "annealing";
    case PlaceAlgorithm::kGreedy: return "greedy";
  }
  return "?";
}

SaPlacer::SaPlacer(const Arch& arch, const Netlist& netlist, PlacerOptions options)
    : arch_(&arch), netlist_(&netlist), options_(options) {
  PP_CHECK_MSG(options.alpha_t > 0.0 && options.alpha_t < 1.0, "alpha_t must be in (0,1)");
  PP_CHECK_MSG(options.inner_num > 0.0, "inner_num must be positive");
}

void SaPlacer::set_snapshot(SnapshotFn fn, Index every_accepted) {
  PP_CHECK(every_accepted > 0);
  snapshot_ = std::move(fn);
  snapshot_every_ = every_accepted;
}

namespace {

/// Per-net cost cache for one anneal (see SaPlacer::place). Invariant: after
/// every move, accepted or undone, cost_[n] == p.net_cost(n) to the bit. Both
/// sums of a move add over one ascending list of the moved blocks' nets, each
/// net once, so a delta is bit-equal to evaluating net_cost on both sides.
///
/// The after-side reads flat tables built here, one set per anneal: every
/// net's pins in one CSR array (driver first, then its sinks in Net order)
/// and its crossing factor. Pin ids are checked once, here, so flat_cost
/// indexes the location array unchecked; it computes the same box and the
/// same cost expression as Placement::net_cost, which the constructor
/// confirms on every net.
class NetCostCache {
 public:
  explicit NetCostCache(const Placement& p) : p_(&p) {
    const Netlist& nl = p.netlist();
    const auto num_nets = static_cast<std::size_t>(nl.num_nets());
    cost_.reserve(num_nets);
    q_.reserve(num_nets);
    pin_begin_.reserve(num_nets + 1);
    pin_begin_.push_back(0);
    for (const fpga::Net& n : nl.nets()) {
      pins_.push_back(n.driver);
      pins_.insert(pins_.end(), n.sinks.begin(), n.sinks.end());
      pin_begin_.push_back(pins_.size());
      q_.push_back(crossing_factor(n.pin_count()));
    }
    for (BlockId b : pins_) {
      PP_CHECK_MSG(b >= 0 && b < nl.num_blocks(), "net pin " << b << " out of range");
    }
    const GridLoc* locs = p.locs().data();
    for (const fpga::Net& n : nl.nets()) {
      cost_.push_back(p.net_cost(n.id));
      PP_CHECK_MSG(flat_cost(locs, n.id) == cost_.back(),
                   "flat cost of net " << n.name << " differs from net_cost");
    }
    // sum_before() merges two nets_of lists: they must be strictly ascending.
    for (const fpga::Block& b : nl.blocks()) {
      const std::vector<NetId>& nets = nl.nets_of(b.id);
      PP_CHECK_MSG(std::adjacent_find(nets.begin(), nets.end(), std::greater_equal<>()) ==
                       nets.end(),
                   "nets of block " << b.name << " are not strictly ascending");
    }
  }

  /// Collects the nets on block `a` and on `b` (if b >= 0), ascending and
  /// each once, and returns the sum of their cached costs.
  double sum_before(BlockId a, BlockId b) {
    const Netlist& nl = p_->netlist();
    const std::vector<NetId>& na = nl.nets_of(a);
    touched_.clear();
    if (b >= 0) {
      const std::vector<NetId>& nb = nl.nets_of(b);
      std::set_union(na.begin(), na.end(), nb.begin(), nb.end(), std::back_inserter(touched_));
    } else {
      touched_.assign(na.begin(), na.end());
    }
    double sum = 0.0;
    for (NetId n : touched_) sum += cost_[static_cast<std::size_t>(n)];
    return sum;
  }

  /// Recomputes the collected nets on the placement as it is now and returns
  /// the sum of their costs. commit() keeps them; otherwise they are dropped.
  double sum_after() {
    const GridLoc* locs = p_->locs().data();
    trial_.clear();
    double sum = 0.0;
    for (NetId n : touched_) {
      const double c = flat_cost(locs, n);
      trial_.push_back(c);
      sum += c;
    }
    return sum;
  }

  void commit() {
    for (std::size_t i = 0; i < touched_.size(); ++i) {
      cost_[static_cast<std::size_t>(touched_[i])] = trial_[i];
    }
  }

  /// Tripwire: throws CheckError unless every cached cost equals net_cost.
  void verify() const {
    for (const fpga::Net& n : p_->netlist().nets()) {
      PP_CHECK_MSG(cost_[static_cast<std::size_t>(n.id)] == p_->net_cost(n.id),
                   "net cost cache drifted on net " << n.name);
    }
  }

 private:
  /// Placement::net_cost(n) over the flat tables: q(t) * half-perimeter.
  double flat_cost(const GridLoc* locs, NetId n) const {
    const auto i = static_cast<std::size_t>(n);
    const BlockId* pin = pins_.data() + pin_begin_[i];
    const BlockId* const end = pins_.data() + pin_begin_[i + 1];
    const GridLoc& d = locs[*pin];
    Index xmin = d.x, xmax = d.x, ymin = d.y, ymax = d.y;
    for (++pin; pin != end; ++pin) {
      const GridLoc& l = locs[*pin];
      xmin = std::min(xmin, l.x);
      xmax = std::max(xmax, l.x);
      ymin = std::min(ymin, l.y);
      ymax = std::max(ymax, l.y);
    }
    return q_[i] * static_cast<double>((xmax - xmin) + (ymax - ymin));
  }

  const Placement* p_;
  std::vector<BlockId> pins_;           // every net's pins, driver first
  std::vector<std::size_t> pin_begin_;  // net id -> its first pin; one extra end entry
  std::vector<double> q_;               // net id -> crossing_factor(pin count)
  std::vector<double> cost_;            // net id -> cost
  std::vector<NetId> touched_;          // nets of the current move, ascending
  std::vector<double> trial_;           // their costs after the move
};

}  // namespace

Placement SaPlacer::place() {
  Rng rng(options_.seed);
  Placement p(*arch_, *netlist_);
  p.random_init(rng);
  report_ = PlacerReport{};
  report_.initial_cost = p.total_cost();

  // Movable blocks grouped by tile type so proposals stay legal.
  std::vector<BlockId> movable;
  for (const fpga::Block& b : netlist_->blocks()) movable.push_back(b.id);
  PP_CHECK_MSG(!movable.empty(), "nothing to place");

  const Index n_blocks = netlist_->num_blocks();
  const Index moves_per_temp = std::max<Index>(
      1, static_cast<Index>(options_.inner_num *
                            std::pow(static_cast<double>(n_blocks), 4.0 / 3.0)));

  double cost = report_.initial_cost;
  NetCostCache cache(p);

  // Initial temperature: VPR heuristic — 20x the std-dev of the cost change
  // over a probe sweep of random moves (annealing only).
  auto propose_and_apply = [&](double rlim, double temperature) -> bool {
    // Pick a movable block and a target slot of its tile type within rlim.
    const BlockId b = movable[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<Index>(movable.size()) - 1))];
    const TileType type = fpga::tile_type_for(netlist_->block(b).kind);
    const auto& slots = arch_->slots(type);
    if (slots.size() < 2) return false;
    const GridLoc from = p.loc(b);
    // Rejection-sample a slot within the range window.
    GridLoc to{};
    bool found = false;
    for (int attempt = 0; attempt < 12; ++attempt) {
      const GridLoc cand =
          slots[static_cast<std::size_t>(rng.uniform_int(0, static_cast<Index>(slots.size()) - 1))];
      if (cand == from) continue;
      if (std::abs(cand.x - from.x) > static_cast<Index>(rlim) ||
          std::abs(cand.y - from.y) > static_cast<Index>(rlim)) {
        continue;
      }
      to = cand;
      found = true;
      break;
    }
    if (!found) return false;

    const BlockId occupant = p.block_at(to);
    const double before = cache.sum_before(b, occupant);
    if (occupant >= 0) {
      p.swap(b, occupant);
    } else {
      p.move(b, to);
    }
    const double after = cache.sum_after();
    const double delta = after - before;

    bool accept;
    if (delta <= 0.0) {
      accept = true;
    } else if (options_.algorithm == PlaceAlgorithm::kGreedy || temperature <= 0.0) {
      accept = false;
    } else {
      accept = rng.uniform() < std::exp(-delta / temperature);
    }
    if (accept) {
      cache.commit();
      cost += delta;
      report_.moves_accepted += 1;
      if (snapshot_ && report_.moves_accepted % snapshot_every_ == 0) {
        snapshot_(p, report_.moves_accepted, temperature);
      }
    } else {
      // Undo.
      if (occupant >= 0) {
        p.swap(b, occupant);
      } else {
        p.move(b, from);
      }
    }
    report_.moves_attempted += 1;
    return accept;
  };

  double rlim = static_cast<double>(std::max(arch_->width(), arch_->height()));
  double temperature = 0.0;
  if (options_.algorithm == PlaceAlgorithm::kAnnealing) {
    // Probe sweep at infinite temperature to estimate the cost scale.
    double sum = 0.0, sum_sq = 0.0;
    const Index probes = std::min<Index>(n_blocks, 64);
    for (Index i = 0; i < probes; ++i) {
      const double before = cost;
      propose_and_apply(rlim, 1e30);
      const double d = cost - before;
      sum += d;
      sum_sq += d * d;
    }
    const double n = static_cast<double>(std::max<Index>(1, probes));
    const double var = std::max(0.0, sum_sq / n - (sum / n) * (sum / n));
    temperature = 20.0 * std::sqrt(var) + 1e-6;
  }

  const double exit_t =
      0.005 * std::max(1.0, cost) / static_cast<double>(std::max<Index>(1, netlist_->num_nets()));
  for (;;) {
    Index accepted_this_temp = 0;
    for (Index m = 0; m < moves_per_temp; ++m) {
      if (propose_and_apply(rlim, temperature)) accepted_this_temp += 1;
    }
    report_.temperature_steps += 1;
    const double accept_rate =
        static_cast<double>(accepted_this_temp) / static_cast<double>(moves_per_temp);
    // VPR range-limit adaptation: aim for ~44% acceptance.
    rlim = std::clamp(rlim * (1.0 - 0.44 + accept_rate), 1.0,
                      static_cast<double>(std::max(arch_->width(), arch_->height())));
    if (options_.algorithm == PlaceAlgorithm::kGreedy) {
      if (accepted_this_temp == 0) break;       // local minimum reached
      if (report_.temperature_steps >= 64) break;
    } else {
      temperature *= options_.alpha_t;
      if (temperature < exit_t) break;
      if (report_.temperature_steps >= 512) break;  // hard cap for safety
    }
  }

  report_.final_cost = p.total_cost();
  cache.verify();
  p.validate();
  return p;
}

}  // namespace paintplace::place
