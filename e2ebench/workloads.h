// The four workloads. Each builds its state (timed as setup_s), measures for
// Options::seconds, reports its metrics and runs its output checks into the
// Report. With Options::trace the run is split: a third untraced, then the
// rest traced, and the per-layer metrics come from the traced part.
#pragma once

#include <string>
#include <vector>

#include "harness.h"

namespace e2e {

void run_live_anneal(const Options& opt, Report& rep);
void run_net_open(const Options& opt, Report& rep);
void run_explore_sweep(const Options& opt, Report& rep);
void run_train(const Options& opt, Report& rep);

struct Workload {
  const char* name;
  void (*run)(const Options&, Report&);
};

inline const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"live_anneal", run_live_anneal},
      {"net_open", run_net_open},
      {"explore_sweep", run_explore_sweep},
      {"train", run_train},
  };
  return all;
}

/// Where a workload writes its Chrome trace.
inline std::string trace_path(const Options& opt) {
  return opt.out_dir + "/trace_e2e_" + opt.workload + ".json";
}

}  // namespace e2e
