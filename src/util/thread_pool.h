// Fork-join helper used to fan experiment sweeps out across cores.
//
// Each index is independent (its own simulator instance seeded from
// derive_seed), so there is no work stealing or task graph — threads claim
// indices from one atomic counter, which is more than fast enough for
// indices that each run an entire workflow simulation.
#pragma once

#include <cstddef>
#include <functional>

namespace wire::util {

/// Runs `fn(i)` for every i in [0, count) and blocks until all complete, on
/// min(threads, count) threads: the calling thread plus min(threads, count)
/// - 1 helpers (`threads == 0` uses hardware_concurrency()), so `count == 1`
/// runs inline on the caller. Indices are claimed atomically in increasing
/// order; which index lands on which thread is nondeterministic, so fn(i)
/// must write only to slot i. Every index runs even if some throw; after all
/// complete, the exception of the lowest throwing index rethrows.
void parallel_for(std::size_t count, const std::function<void(std::size_t)>& fn,
                  std::size_t threads = 0);

}  // namespace wire::util
