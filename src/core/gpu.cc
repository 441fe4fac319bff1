#include "core/gpu.hh"

#include <algorithm>

#include "common/bits.hh"
#include "common/log.hh"

namespace siwi::core {

GpuConfig
GpuConfig::make(pipeline::PipelineMode mode, unsigned num_sms)
{
    return make(pipeline::SMConfig::make(mode), num_sms);
}

GpuConfig
GpuConfig::make(const pipeline::SMConfig &sm, unsigned num_sms)
{
    GpuConfig cfg;
    cfg.sm = sm;
    cfg.num_sms = num_sms;
    cfg.shared_backend = num_sms > 1;
    cfg.dram = sm.mem.dram;
    // One channel for the whole chip: bandwidth grows with the SM
    // count but tops out at 4x the paper's per-SM 10 GB/s, so
    // larger chips start contending for it.
    cfg.dram.bytes_per_cycle_x10 *= std::min(num_sms, 4u);
    return cfg;
}

std::string
GpuConfig::checkInvariants() const
{
    std::string sm_err = sm.checkInvariants();
    if (!sm_err.empty())
        return sm_err;
    if (num_sms < 1)
        return "num_sms must be at least 1";
    if (num_sms > 1 && !shared_backend)
        return "a multi-SM chip requires the shared backend";
    if (shared_backend) {
        if (l2.block_bytes != sm.mem.l1.block_bytes)
            return "l2_block_bytes must match l1_block_bytes";
        // The shared L2 reuses the set-associative tag array, so
        // mirror its constructor asserts too.
        u32 l2_blocks = l2.size_bytes / l2.block_bytes;
        if (l2.ways < 1 || l2_blocks < l2.ways ||
            l2_blocks % l2.ways != 0)
            return "l2_size_bytes must be a whole number of "
                   "sets (a multiple of l2_ways * "
                   "l2_block_bytes)";
        if (dram.bytes_per_cycle_x10 < 1)
            return "chip dram_bytes_per_cycle_x10 must be at "
                   "least 1";
        // Banked topology: the interleaving hashes XOR-fold
        // power-of-two digits, and each slice must own a whole
        // number of sets of the shared capacity.
        if (!isPow2(l2.slices))
            return "l2_slices must be a nonzero power of two";
        u32 l2_sets = l2_blocks / l2.ways;
        if (l2_sets % l2.slices != 0)
            return "l2_slices must divide the shared L2 set "
                   "count (l2_size_bytes / l2_block_bytes / "
                   "l2_ways)";
        if (!isPow2(dram.channels))
            return "dram_channels must be a nonzero power of two";
    }
    return {};
}

void
GpuConfig::validate() const
{
    std::string err = checkInvariants();
    siwi_assert(err.empty(), err);
}

Gpu::Gpu(const pipeline::SMConfig &cfg)
{
    cfg_.sm = cfg;
    cfg_.validate();
}

Gpu::Gpu(const GpuConfig &cfg) : cfg_(cfg)
{
    cfg_.validate();
}

SimStats
Gpu::launch(const Kernel &kernel, const LaunchConfig &lc)
{
    return launchTraced(kernel, lc, nullptr);
}

SimStats
Gpu::launchTraced(const Kernel &kernel, const LaunchConfig &lc,
                  pipeline::SM::TraceHook hook)
{
    skipped_cycles_ = 0;
    if (cfg_.num_sms == 1 && !cfg_.shared_backend) {
        // The paper's single-SM setup: private DRAM channel,
        // self-assigned CTAs.
        pipeline::SM sm(cfg_.sm, memory_);
        if (hook)
            sm.setTraceHook(std::move(hook));
        sm.launch(kernel.program(), lc.grid_blocks,
                  lc.block_threads);
        SimStats stats = sm.run(lc.max_cycles, lc.cycle_skip);
        skipped_cycles_ = sm.skippedCycles();
        return stats;
    }
    return launchChip(kernel, lc, hook);
}

SimStats
Gpu::launchChip(const Kernel &kernel, const LaunchConfig &lc,
                const pipeline::SM::TraceHook &hook)
{
    mem::BankedL2 backend(cfg_.l2, cfg_.dram, cfg_.noc,
                          cfg_.num_sms);

    // Chip-level CTA scheduler: a shared cursor over the grid.
    // Every SM pulls at most one CTA per cycle and SMs are stepped
    // in index order, so the initial distribution is round-robin
    // and each retirement hands the next pending CTA to the SM
    // that freed a slot ("round-robin-on-retire").
    unsigned next_cta = 0;
    auto source = [&next_cta, grid = lc.grid_blocks]() -> int {
        return next_cta < grid ? int(next_cta++) : -1;
    };

    std::vector<std::unique_ptr<pipeline::SM>> sms;
    sms.reserve(cfg_.num_sms);
    for (unsigned i = 0; i < cfg_.num_sms; ++i) {
        auto sm = std::make_unique<pipeline::SM>(cfg_.sm, memory_,
                                                 &backend, i);
        if (hook)
            sm->setTraceHook(hook);
        sm->setCtaSource(source);
        sm->launch(kernel.program(), lc.grid_blocks,
                   lc.block_threads);
        sms.push_back(std::move(sm));
    }

    // Lockstep cycle loop: within a cycle, SM order fixes the
    // order of shared-backend requests, which keeps multi-SM
    // timing deterministic. With cycle skipping each SM keeps its
    // own wake: an SM whose step was quiet is not stepped again
    // before its nextWake() (re-stepping it earlier provably
    // changes nothing, and nothing outside it can wake it — the
    // backend is passive and the CTA source is polled only when
    // the SM has a free slot), and it catches up with skipTo()
    // just before its next step. SMs that do step still step in
    // index order, so backend request order and CTA hand-out are
    // those of stepping every SM every cycle. When no SM made
    // progress the chip jumps to the earliest wake.
    std::vector<Cycle> wake(sms.size(), 0);
    Cycle cycle = 0;
    bool hit_limit = false;
    for (;;) {
        bool all_done = true;
        for (const auto &sm : sms) {
            if (!sm->done()) {
                all_done = false;
                break;
            }
        }
        if (all_done)
            break;
        if (cycle >= lc.max_cycles) {
            warn("chip cycle limit hit at ", cycle);
            hit_limit = true;
            break;
        }
        bool progress = false;
        for (size_t i = 0; i < sms.size(); ++i) {
            pipeline::SM &sm = *sms[i];
            if (sm.done() || wake[i] > cycle)
                continue;
            if (sm.now() < cycle)
                sm.skipTo(cycle);
            bool p = sm.step();
            progress |= p;
            wake[i] = p || !lc.cycle_skip ? cycle + 1 : sm.nextWake();
        }
        ++cycle;
        if (lc.cycle_skip && !progress) {
            Cycle next = lc.max_cycles;
            for (size_t i = 0; i < sms.size(); ++i) {
                if (!sms[i]->done())
                    next = std::min(next, wake[i]);
            }
            cycle = std::max(cycle, next);
        }
    }
    // A timeout leaves sleeping SMs behind the chip clock; bring
    // every live SM to it, as if it had been stepped throughout.
    for (auto &sm : sms) {
        if (!sm->done() && sm->now() < cycle)
            sm->skipTo(cycle);
    }

    std::vector<SimStats> per_sm;
    per_sm.reserve(sms.size());
    for (auto &sm : sms) {
        per_sm.push_back(sm->finalizeStats());
        skipped_cycles_ += sm->skippedCycles();
    }

    SimStats agg = SimStats::aggregate(per_sm);
    agg.timed_out |= hit_limit;
    // Chip-level backend counters: reported once, from the shared
    // backend itself (per-SM stats keep them zero), with the
    // schema-v5 per-slice/channel/port breakdowns alongside the
    // scalar totals.
    agg.l2_hits = backend.stats().hits;
    agg.l2_misses = backend.stats().misses;
    agg.dram_transactions = backend.dramStats().transactions;
    agg.dram_bytes = backend.dramStats().bytes;
    for (u32 s = 0; s < backend.numSlices(); ++s)
        agg.l2_slices.push_back(backend.sliceStats(s));
    for (u32 c = 0; c < backend.numChannels(); ++c)
        agg.dram_channels.push_back(backend.channelStats(c));
    for (unsigned p = 0; p < backend.numPorts(); ++p)
        agg.noc_ports.push_back(backend.portStats(p));
    return agg;
}

} // namespace siwi::core
