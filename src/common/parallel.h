// Process-wide worker pool with a static-partition parallel_for.
//
// The nn layer uses this for GEMM/im2col/elementwise loops; the data layer
// uses it to route independent placements concurrently. Work is split into
// contiguous ranges — cheap, deterministic partitioning that fits the regular
// loops in this codebase.
//
// Concurrent callers share the pool. Each top-level parallel_for counts
// itself among the active callers and claims at most its fair share of the
// idle workers: min(n, ceil(W / active)) - 1 of them, where W is
// parallel_workers(). It splits [0, n) statically over those workers and
// itself, and waits only for its own job. When no worker is idle it runs the
// whole range inline. A lone caller therefore gets the same partition it
// always had (ceil(n / W) indices per range), while two callers (two serving
// replicas, say) compute side by side on half the pool each.
//
// Contract: how [0, n) is split depends on the other callers, so no call site
// may reduce across its ranges (sum partial results range by range, say)
// where the result's bits matter: what is computed for an index must not
// depend on the range it lands in. Every call site in this codebase keeps to
// that, so outputs are bit-identical whatever the thread count and whatever
// else runs at once.
#pragma once

#include <functional>

#include "common/check.h"

namespace paintplace {

/// Number of threads a lone caller splits its work over, itself included
/// (>= 1): the pool holds this many minus one worker threads.
int parallel_workers();

/// Override the worker count (mainly for tests and for benchmarks that need
/// single-thread numbers). Pass 0 to restore the hardware default. The pool
/// is rebuilt on next use, so call this only while no other thread is inside
/// parallel_for.
void set_parallel_workers(int workers);

/// Runs fn(begin, end) over a static partition of [0, n). Blocks until all
/// ranges complete. An exception thrown by any range is rethrown on this
/// caller, and only on it. fn must be safe to invoke concurrently on disjoint
/// ranges. A call made from inside another call's fn runs inline.
void parallel_for(Index n, const std::function<void(Index, Index)>& fn);

/// Convenience: per-index body.
void parallel_for_each(Index n, const std::function<void(Index)>& fn);

}  // namespace paintplace
