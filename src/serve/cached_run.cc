#include "serve/cached_run.hh"

#include <atomic>
#include <cstdio>

#include "serve/cache_key.hh"

namespace siwi::serve {

runner::Results
runSweepsCached(const std::vector<runner::SweepSpec> &sweeps,
                const runner::RunOptions &opts, ResultCache *cache,
                CachedRunCounters *counters)
{
    std::atomic<u64> hits{0};
    std::atomic<u64> misses{0};
    runner::RunOptions cached_opts = opts;
    // runSweeps hands the hook its own deduplicated sweeps, so
    // the keys match what siwi-serve derives for the same cells.
    cached_opts.run_cell = [&](const runner::SweepSpec &s,
                               const runner::CellSpec &cs,
                               bool *cached) {
        const std::string key = cellCacheKey(s, cs);
        runner::CellResult c;
        if (cache->lookup(key, &c)) {
            hits.fetch_add(1);
            *cached = true;
            return c;
        }
        misses.fetch_add(1);
        c = runner::runCell(s, cs.machine, cs.wl, cs.sms, cs.policy,
                            opts.cycle_skip);
        std::string serr;
        if (!cache->store(key, c, &serr))
            std::fprintf(stderr, "siwi-run: %s\n", serr.c_str());
        return c;
    };
    runner::Results out = runner::runSweeps(sweeps, cached_opts);
    if (counters) {
        counters->hits = hits.load();
        counters->misses = misses.load();
    }
    return out;
}

} // namespace siwi::serve
