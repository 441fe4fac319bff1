/**
 * @file
 * Cache-backed local sweep execution: `siwi-run --cache DIR`.
 *
 * The offline counterpart of the server's submit path, sharing
 * the same key derivation (serve/cache_key.hh) and blob store
 * (serve/result_cache.hh): every cell is looked up before it is
 * run, and every computed cell is stored. A siwi-run invocation
 * and a siwi-serve instance pointed at the same directory
 * therefore share results — in either direction.
 *
 * Because cells are bit-identical functions of their resolved
 * configuration, a cache hit is exact: the returned Results — and
 * its serialized JSON — are byte-identical whether every cell was
 * computed, cached, or any mix of the two.
 */

#ifndef SIWI_SERVE_CACHED_RUN_HH
#define SIWI_SERVE_CACHED_RUN_HH

#include <vector>

#include "runner/experiment_runner.hh"
#include "serve/result_cache.hh"

namespace siwi::serve {

/** Cache traffic of one runSweepsCached() invocation. */
struct CachedRunCounters
{
    u64 hits = 0;
    u64 misses = 0; //!< computed this run (and stored)
};

/**
 * runner::runSweeps() with a read-through / write-through result
 * cache installed as its per-cell hook (RunOptions::run_cell, so
 * any hook in @p opts is replaced): same grid normalization,
 * canonical cell order and return value. @p counters (optional)
 * reports the hit/miss split.
 */
runner::Results runSweepsCached(
    const std::vector<runner::SweepSpec> &sweeps,
    const runner::RunOptions &opts, ResultCache *cache,
    CachedRunCounters *counters = nullptr);

} // namespace siwi::serve

#endif // SIWI_SERVE_CACHED_RUN_HH
