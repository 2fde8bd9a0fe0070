// Placement state: a legal assignment of every packed-netlist block to an
// architecture slot, and the weighted-HPWL cost of each net under it. Costs
// are computed from the current locations on every call; nothing is cached
// here. The incremental bookkeeping lives in the annealer: SaPlacer keeps a
// per-net cost cache for each anneal (see sa_placer.h) and recomputes only
// the nets a move touches.
#pragma once

#include <vector>

#include "common/rng.h"
#include "fpga/arch.h"
#include "fpga/netlist.h"

namespace paintplace::place {

using fpga::Arch;
using fpga::BlockId;
using fpga::GridLoc;
using fpga::Netlist;
using fpga::NetId;
using fpga::TileType;
using paintplace::Index;

/// Axis-aligned net bounding box in tile coordinates.
struct BBox {
  Index xmin = 0, xmax = 0, ymin = 0, ymax = 0;
  Index half_perimeter() const { return (xmax - xmin) + (ymax - ymin); }
};

/// Expected-crossing-count factor q(t) applied to the half-perimeter of a
/// t-terminal net (VPR's classic correction for multi-terminal nets).
double crossing_factor(Index terminals);

class Placement {
 public:
  /// Requires a packed netlist whose demand fits the arch capacities.
  Placement(const Arch& arch, const Netlist& netlist);

  const Arch& arch() const { return *arch_; }
  const Netlist& netlist() const { return *netlist_; }

  /// Assigns every block a random legal slot (deterministic given rng).
  void random_init(Rng& rng);

  bool is_placed() const;
  GridLoc loc(BlockId b) const {
    PP_CHECK(b >= 0 && b < netlist_->num_blocks());
    return locs_[static_cast<std::size_t>(b)];
  }

  /// Block occupying a slot, or -1.
  BlockId block_at(const GridLoc& slot) const;

  /// Moves `b` to `target` (must be a legal, free slot of matching type).
  void move(BlockId b, const GridLoc& target);
  /// Swaps two placed blocks of the same tile type.
  void swap(BlockId a, BlockId b);

  /// Net bounding box over current locations (IO pads count at their tile).
  BBox net_bbox(NetId n) const;
  /// Weighted half-perimeter of one net: q(t) * hpwl(bbox).
  double net_cost(NetId n) const;
  /// Total weighted HPWL (recomputed from scratch — used for seeding and
  /// verification; the annealer tracks deltas through its cost cache).
  double total_cost() const;

  /// Throws CheckError unless every block sits on a distinct legal slot of
  /// the right tile type.
  void validate() const;

 private:
  std::size_t slot_key(const GridLoc& slot) const;

  const Arch* arch_;
  const Netlist* netlist_;
  std::vector<GridLoc> locs_;
  std::vector<BlockId> occupancy_;  // slot key -> block or -1
};

}  // namespace paintplace::place
