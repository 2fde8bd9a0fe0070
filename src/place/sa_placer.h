// Simulated-annealing placer in the VPR mould.
//
// The paper's datasets are produced by "sweeping the VPR placement options,
// including seed, ALPHA_T, INNER_NUM and place_algorithm" (Sec. 5); those
// four knobs are exactly the fields of PlacerOptions here.
#pragma once

#include <functional>

#include "place/placement.h"

namespace paintplace::place {

enum class PlaceAlgorithm : std::uint8_t {
  kAnnealing,  ///< classic SA with adaptive range limit (VPR bounding_box)
  kGreedy,     ///< zero-temperature descent (accept only improving moves)
};

const char* place_algorithm_name(PlaceAlgorithm a);

struct PlacerOptions {
  std::uint64_t seed = 1;
  double alpha_t = 0.9;        ///< temperature decay per outer iteration
  double inner_num = 1.0;      ///< moves per temperature = inner_num * N^(4/3)
  PlaceAlgorithm algorithm = PlaceAlgorithm::kAnnealing;
};

struct PlacerReport {
  double initial_cost = 0.0;
  double final_cost = 0.0;
  Index moves_attempted = 0;
  Index moves_accepted = 0;
  Index temperature_steps = 0;
};

class SaPlacer {
 public:
  /// Observer invoked during annealing (used by the paper's "visualizing the
  /// simulated annealing placement" application): receives the evolving
  /// placement, the number of accepted moves so far and the temperature.
  using SnapshotFn =
      std::function<void(const Placement&, Index accepted_moves, double temperature)>;

  SaPlacer(const Arch& arch, const Netlist& netlist, PlacerOptions options);

  /// Runs the full anneal from a fresh random start and returns the final
  /// placement (always legal; validated before return).
  ///
  /// Each anneal keeps a per-net cost cache, filled once from
  /// Placement::net_cost. A move sums the cached costs of the nets on its
  /// one or two blocks, recomputes only those nets after the move, and
  /// commits their new costs if it is accepted; a rejected move is undone
  /// and its new costs dropped. Invariant: the cached cost of every net n
  /// equals net_cost(n) exactly after every move. Deltas, accept decisions,
  /// snapshots and the final placement are therefore bit-identical to
  /// recomputing every touched net before and after each move. place()
  /// checks the invariant over all nets before returning and throws
  /// CheckError if any cached cost drifted.
  Placement place();

  /// Registers `fn` to run after every `every_accepted` accepted moves.
  void set_snapshot(SnapshotFn fn, Index every_accepted);

  const PlacerReport& report() const { return report_; }

 private:
  const Arch* arch_;
  const Netlist* netlist_;
  PlacerOptions options_;
  PlacerReport report_;
  SnapshotFn snapshot_;
  Index snapshot_every_ = 0;
};

}  // namespace paintplace::place
