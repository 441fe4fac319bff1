#include "core/gpu.hh"

#include <algorithm>
#include <optional>

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
    if (l2.block_bytes != sm.mem.l1.block_bytes)
        return "l2_block_bytes must match l1_block_bytes";
    // The shared L2 reuses the set-associative tag array, so
    // mirror its constructor asserts too.
    u32 l2_blocks = l2.size_bytes / l2.block_bytes;
    if (l2.ways < 1 || l2_blocks < l2.ways || l2_blocks % l2.ways != 0)
        return "l2_size_bytes must be a whole number of sets (a "
               "multiple of l2_ways * l2_block_bytes)";
    if (dram.bytes_per_cycle_x10 < 1)
        return "dram_bytes_per_cycle_x10 must be at least 1";
    // Banked topology: the interleaving hashes XOR-fold
    // power-of-two digits, and each slice must own a whole number
    // of sets of the shared capacity.
    if (!isPow2(l2.slices))
        return "l2_slices must be a nonzero power of two";
    u32 l2_sets = l2_blocks / l2.ways;
    if (l2_sets % l2.slices != 0)
        return "l2_slices must divide the shared L2 set count "
               "(l2_size_bytes / l2_block_bytes / l2_ways)";
    if (!isPow2(dram.channels))
        return "dram_channels must be a nonzero power of two";
    return {};
}

void
GpuConfig::validate() const
{
    std::string err = checkInvariants();
    siwi_assert(err.empty(), err);
}

Gpu::Gpu(const pipeline::SMConfig &cfg) : Gpu(GpuConfig::make(cfg, 1))
{
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
    const bool chip = cfg_.num_sms > 1;

    // The memory below the L1s. One SM has the paper's private
    // channel: the DRAM bandwidth and latency, nothing else of the
    // chip topology. A chip shares the banked L2.
    std::optional<mem::DramBackend> channel;
    std::optional<mem::BankedL2> banked;
    mem::MemoryBackend *backend;
    if (chip) {
        backend = &banked.emplace(cfg_.l2, cfg_.dram, cfg_.noc,
                                  cfg_.num_sms);
    } else {
        mem::DramConfig ch;
        ch.bytes_per_cycle_x10 = cfg_.dram.bytes_per_cycle_x10;
        ch.latency_cycles = cfg_.dram.latency_cycles;
        backend = &channel.emplace(ch);
    }

    // Chip-level CTA scheduler: a shared cursor over the grid.
    // Every SM pulls at most one CTA per cycle and SMs are stepped
    // in index order, so the initial distribution is round-robin
    // and each retirement hands the next pending CTA to the SM
    // that freed a slot ("round-robin-on-retire"). A lone SM
    // assigns its own CTAs.
    unsigned next_cta = 0;
    auto source = [&next_cta, grid = lc.grid_blocks]() -> int {
        return next_cta < grid ? int(next_cta++) : -1;
    };

    std::vector<std::unique_ptr<pipeline::SM>> sms;
    sms.reserve(cfg_.num_sms);
    for (unsigned i = 0; i < cfg_.num_sms; ++i) {
        auto sm = std::make_unique<pipeline::SM>(cfg_.sm, memory_,
                                                 *backend, i);
        if (hook)
            sm->setTraceHook(hook);
        if (chip)
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
            warn("cycle limit hit at ", cycle);
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

    if (!chip) {
        // One SM's result is its own statistics, with the DRAM
        // traffic of its private channel.
        SimStats st = std::move(per_sm.front());
        st.timed_out = hit_limit;
        st.dram_transactions = channel->dramStats().transactions;
        st.dram_bytes = channel->dramStats().bytes;
        return st;
    }
    SimStats agg = SimStats::aggregate(per_sm);
    agg.timed_out = hit_limit;
    // Chip-level backend counters: reported once, from the shared
    // backend itself (per-SM stats keep them zero), with the
    // per-slice/channel/port breakdowns alongside the scalar
    // totals.
    agg.l2_hits = banked->stats().hits;
    agg.l2_misses = banked->stats().misses;
    agg.dram_transactions = banked->dramStats().transactions;
    agg.dram_bytes = banked->dramStats().bytes;
    for (u32 s = 0; s < banked->numSlices(); ++s)
        agg.l2_slices.push_back(banked->sliceStats(s));
    for (u32 c = 0; c < banked->numChannels(); ++c)
        agg.dram_channels.push_back(banked->channelStats(c));
    for (unsigned p = 0; p < banked->numPorts(); ++p)
        agg.noc_ports.push_back(banked->portStats(p));
    return agg;
}

} // namespace siwi::core
