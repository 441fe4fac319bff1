/**
 * @file
 * Differential stepping-equivalence harness.
 *
 * Event-driven cycle skipping (core::LaunchConfig::cycle_skip)
 * promises observational equivalence: the complete SimStats block —
 * cycle counts, IPC denominators, per-SM breakdowns, timeout flags
 * — must be bit-identical to stepping every cycle. These tests run
 * the whole fast suite plus randomized machine mutations both ways
 * and compare with SimStats::operator==, so any wake-bound bug that
 * changes *anything* observable fails loudly rather than skewing
 * results quietly.
 *
 * All runs here also execute under SM::setSleepAudit: with per-warp
 * sleep/wake, step() re-verifies every sleeping warp every cycle —
 * sleepEligible must still hold and the recorded wake bound must
 * still be conservative — so the --no-skip leg of each pair proves
 * every slept warp non-issuable for every cycle of its slept
 * window, across the whole fast suite and the randomized machine
 * mutations. An audit violation panics (aborts) with the warp,
 * cycle and full SM debug state rather than surfacing as an opaque
 * stat diff.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "../bench_spec.hh"
#include "common/log.hh"
#include "common/rng.hh"
#include "core/config_io.hh"
#include "core/gpu.hh"
#include "isa/assembler.hh"
#include "pipeline/config_io.hh"
#include "pipeline/sm.hh"
#include "runner/runner.hh"
#include "workloads/workload.hh"

namespace siwi {
namespace {

using runner::CellSpec;
using runner::SweepSpec;
using workloads::RunResult;
using workloads::SizeClass;

/** Scope guard: per-warp sleep auditing on for the enclosed runs. */
struct SleepAuditScope
{
    SleepAuditScope() { pipeline::SM::setSleepAudit(true); }
    ~SleepAuditScope() { pipeline::SM::setSleepAudit(false); }
};

/** Run one (workload, chip) both ways and compare everything. */
void
expectEquivalent(const workloads::Workload &wl,
                 const core::GpuConfig &chip, SizeClass sc,
                 const std::string &label)
{
    SleepAuditScope audit;
    RunResult skip = workloads::runWorkload(wl, chip, sc,
                                            /*cycle_skip=*/true);
    RunResult step = workloads::runWorkload(wl, chip, sc,
                                            /*cycle_skip=*/false);
    EXPECT_TRUE(skip.stats == step.stats)
        << label << ": SimStats differ between skip and no-skip "
        << "(skip cycles=" << skip.stats.cycles
        << " step cycles=" << step.stats.cycles << ")";
    EXPECT_EQ(skip.verified, step.verified) << label;
    EXPECT_EQ(skip.verify_msg, step.verify_msg) << label;
    EXPECT_EQ(step.skipped_cycles, 0u)
        << label << ": no-skip run must never fast-forward";
}

/**
 * Every cell of the fast suite: all five machines x the full
 * workload list at Tiny size, exactly what CI's bench gate runs.
 */
TEST(SteppingEquivalence, FastSuiteCells)
{
    SleepAuditScope audit;
    std::vector<SweepSpec> sweeps = test::benchSpec("fast");
    ASSERT_FALSE(sweeps.empty());
    for (const CellSpec &cs : runner::expandCells(sweeps)) {
        const SweepSpec &s = sweeps[cs.sweep];
        runner::CellResult a =
            runner::runCell(s, cs.machine, cs.wl, cs.sms,
                            cs.policy, /*cycle_skip=*/true);
        runner::CellResult b =
            runner::runCell(s, cs.machine, cs.wl, cs.sms,
                            cs.policy, /*cycle_skip=*/false);
        EXPECT_TRUE(a.stats == b.stats)
            << s.name << " " << a.machine << " " << a.workload
            << ": SimStats differ between skip and no-skip";
        EXPECT_EQ(a.verified, b.verified) << a.workload;
        EXPECT_EQ(a.ipc, b.ipc) << a.workload;
    }
}

/**
 * Multi-SM chips add the chip CTA source and the banked L2 to the
 * launch loop's per-SM wakes; cover them on every pipeline mode.
 */
TEST(SteppingEquivalence, MultiSmChips)
{
    const workloads::Workload *wl =
        workloads::findWorkload("BFS");
    if (!wl)
        wl = workloads::allWorkloads().front();
    for (pipeline::PipelineMode mode :
         {pipeline::PipelineMode::Baseline,
          pipeline::PipelineMode::Warp64,
          pipeline::PipelineMode::SBI, pipeline::PipelineMode::SWI,
          pipeline::PipelineMode::SBISWI}) {
        expectEquivalent(*wl, core::GpuConfig::make(mode, 4),
                         SizeClass::Tiny,
                         std::string("4-SM chip mode ") +
                             pipeline::pipelineModeName(mode));
    }
}

/**
 * The 16-SM banked chip of bench/specs/scaling.json (the
 * fig_scaling_banked sweep, its `set` block included), where
 * Gpu::launch keeps one wake per SM: a mostly asleep workload
 * (Transpose) and a busy one (ConvolutionSeparable). Full size,
 * because a Tiny grid is a single CTA and would leave 15 of the 16
 * SMs idle from the first cycle.
 */
TEST(SteppingEquivalence, BankedChip16Sm)
{
    std::vector<SweepSpec> sweeps =
        test::benchSpec("scaling", SizeClass::Full);
    auto sweep = std::find_if(
        sweeps.begin(), sweeps.end(), [](const SweepSpec &s) {
            return s.name == "fig_scaling_banked";
        });
    ASSERT_NE(sweep, sweeps.end());
    auto machine = std::find_if(
        sweep->machines.begin(), sweep->machines.end(),
        [](const runner::MachineSpec &m) {
            return m.name == "SBI+SWI";
        });
    ASSERT_NE(machine, sweep->machines.end());
    auto sms = std::find(sweep->sms.begin(), sweep->sms.end(), 16u);
    ASSERT_NE(sms, sweep->sms.end());
    core::GpuConfig chip = runner::resolvedCellConfig(
        *sweep, size_t(machine - sweep->machines.begin()),
        size_t(sms - sweep->sms.begin()), 0);
    ASSERT_EQ(chip.num_sms, 16u);
    ASSERT_GT(chip.l2.slices, 1u) << "the set block was not applied";

    SleepAuditScope audit;
    for (const char *name : {"Transpose", "ConvolutionSeparable"}) {
        const workloads::Workload *wl = workloads::findWorkload(name);
        ASSERT_NE(wl, nullptr) << name;
        RunResult skip = workloads::runWorkload(*wl, chip,
                                                SizeClass::Full,
                                                /*cycle_skip=*/true);
        RunResult step = workloads::runWorkload(*wl, chip,
                                                SizeClass::Full,
                                                /*cycle_skip=*/false);
        ASSERT_TRUE(skip.verified) << name << ": " << skip.verify_msg;
        EXPECT_TRUE(skip.stats == step.stats)
            << name << ": SimStats differ between skip and no-skip "
            << "(skip cycles=" << skip.stats.cycles
            << " step cycles=" << step.stats.cycles << ")";
        EXPECT_EQ(step.skipped_cycles, 0u) << name;
        EXPECT_GT(skip.skipped_cycles, 0u)
            << name << ": no SM ever slept through a quiet stretch";
    }
}

/**
 * CTA 0 spins in an ALU loop and keeps its SM issuing; CTA 1
 * chases pointers through DRAM (a self-loop at 4096, which the
 * caller writes) and sleeps between loads, then stores the
 * pointer to 4100.
 */
core::Kernel
spinAndChase()
{
    const char *src = R"(
.kernel spin_and_chase
    s2r r0, %ctaid
    bnz r0, chase
    movi r1, #0
spin:
    iadd r1, r1, #1
    isetlt r2, r1, #400
    bnz r2, spin
    exit
chase:
    movi r3, #4096
    ld r3, [r3+0]
    ld r3, [r3+0]
    ld r3, [r3+0]
    ld r3, [r3+0]
    st [r3+4], r3
    exit
)";
    isa::AsmResult res = isa::assemble(src);
    EXPECT_TRUE(res.ok()) << res.error;
    return core::Kernel::compile(res.program);
}

/**
 * Per-SM wakes skip inside a chip that never goes quiet as a
 * whole. Alone, the spinning CTA never lets its SM jump, so the
 * chip as a whole is never quiet: every cycle skipped with both
 * CTAs is SM 1 sleeping to its own wake while SM 0 steps on.
 */
TEST(SteppingEquivalence, PerSmWakesSkipInsideBusyChip)
{
    core::Kernel kernel = spinAndChase();

    SleepAuditScope audit;
    auto run = [&](unsigned ctas, bool cycle_skip, u64 *skipped) {
        core::Gpu gpu(core::GpuConfig::make(
            pipeline::PipelineMode::Baseline, 2));
        gpu.memory().write32(4096, 4096); // a self-loop to chase
        core::LaunchConfig lc;
        lc.grid_blocks = ctas;
        lc.block_threads = 512;
        lc.cycle_skip = cycle_skip;
        core::SimStats st = gpu.launch(kernel, lc);
        EXPECT_EQ(gpu.memory().read32(4100), ctas > 1 ? 4096u : 0u);
        *skipped = gpu.skippedCycles();
        return st;
    };
    u64 spin_only = 0, both = 0, stepped = 0;
    run(1, true, &spin_only);
    EXPECT_EQ(spin_only, 0u) << "the spinning SM went quiet";
    core::SimStats skip = run(2, true, &both);
    core::SimStats step = run(2, false, &stepped);
    EXPECT_TRUE(skip == step)
        << "SimStats differ between skip and no-skip";
    EXPECT_EQ(stepped, 0u);
    EXPECT_GT(both, 0u) << "the sleeping SM never skipped";
}

/**
 * The timeout path of the launch loop: the cycle limit falls while
 * CTA 0 still spins and CTA 1 sleeps on DRAM, so with skipping the
 * sleeping SM lags the chip clock and must be caught up to it. On
 * 1, 2 and 4 SMs (on 4, two SMs get no CTA and finish at once)
 * every run must time out at exactly max_cycles, with statistics
 * identical to stepping every cycle.
 */
TEST(SteppingEquivalence, CycleLimitInBothSteppingModes)
{
    core::Kernel kernel = spinAndChase();
    SleepAuditScope audit;
    setLogQuiet(true);
    for (unsigned sms : {1u, 2u, 4u}) {
        for (Cycle limit : {Cycle(50), Cycle(301), Cycle(777)}) {
            auto run = [&](bool cycle_skip) {
                core::Gpu gpu(core::GpuConfig::make(
                    pipeline::PipelineMode::Baseline, sms));
                gpu.memory().write32(4096, 4096);
                core::LaunchConfig lc;
                lc.grid_blocks = 2;
                lc.block_threads = 512;
                lc.max_cycles = limit;
                lc.cycle_skip = cycle_skip;
                return gpu.launch(kernel, lc);
            };
            core::SimStats skip = run(true);
            core::SimStats step = run(false);
            std::string label = std::to_string(sms) + " SM(s), " +
                                std::to_string(limit) + " cycles";
            EXPECT_TRUE(skip.timed_out) << label;
            EXPECT_EQ(skip.cycles, limit) << label;
            EXPECT_TRUE(skip == step)
                << label << ": SimStats differ between skip and "
                << "no-skip";
        }
    }
    setLogQuiet(false);
}

/**
 * Randomized machine mutations: start from each canonical machine,
 * apply a handful of random config key=value overrides (through
 * the same field tables spec files use), keep only configurations
 * that pass checkInvariants, and demand stepping equivalence on a
 * barrier-heavy and a divergent workload. This sweeps wake-source
 * corner cases (tiny MSHR counts, deep latencies, small CCTs) that
 * the canonical machines never exercise.
 */
TEST(SteppingEquivalence, RandomizedMachines)
{
    struct KeyPool
    {
        const char *key;
        std::vector<const char *> values;
    };
    const std::vector<KeyPool> pool = {
        {"mshrs", {"1", "2", "4", "64"}},
        {"write_buffer_entries", {"1", "2", "8"}},
        {"l1_hit_latency", {"1", "3", "9"}},
        {"dram_latency_cycles", {"10", "100", "700"}},
        {"dram_bytes_per_cycle_x10", {"5", "40", "100"}},
        {"exec_latency", {"1", "8", "24"}},
        {"scoreboard_entries", {"1", "2", "6"}},
        {"cct_capacity", {"2", "8", "16"}},
        {"cct_steps_per_cycle", {"1", "2"}},
        {"swi", {"false", "true"}},
        {"delivery_latency", {"0", "2"}},
        {"max_blocks_resident", {"1", "4", "8"}},
        {"lookup_sets", {"1", "2", "4"}},
        {"sched_policy", {"oldest", "rr", "gto", "minpc"}},
    };
    const workloads::Workload *barrier =
        workloads::findWorkload("FastWalshTransform");
    const workloads::Workload *divergent =
        workloads::findWorkload("BFS");
    ASSERT_NE(barrier, nullptr);
    ASSERT_NE(divergent, nullptr);

    Rng rng(20260808);
    int accepted = 0;
    for (int trial = 0; accepted < 12 && trial < 200; ++trial) {
        pipeline::PipelineMode mode = static_cast<
            pipeline::PipelineMode>(rng.below(5));
        core::GpuConfig chip = core::GpuConfig::make(mode, 1);
        unsigned muts = 1 + unsigned(rng.below(4));
        std::string label = std::string("mode ") +
                            pipeline::pipelineModeName(mode);
        for (unsigned m = 0; m < muts; ++m) {
            const KeyPool &kp = pool[rng.below(
                unsigned(pool.size()))];
            const char *val =
                kp.values[rng.below(unsigned(kp.values.size()))];
            std::string kv =
                std::string(kp.key) + "=" + val;
            // SM keys go to the SM table, the DRAM keys to the
            // chip's.
            std::string err;
            if (!pipeline::smConfigApplyKeyValue(kv, &chip.sm,
                                                 &err) &&
                !core::gpuConfigApplyKeyValue(kv, &chip, &err))
                continue; // key invalid for this mode: skip it
            label += " " + kv;
        }
        if (!chip.checkInvariants().empty())
            continue;
        ++accepted;
        const workloads::Workload *wl =
            (accepted % 2) ? barrier : divergent;
        expectEquivalent(*wl, chip, SizeClass::Tiny,
                         label + " on " + wl->name());
    }
    // The acceptance filter must not starve the test.
    EXPECT_GE(accepted, 8);
}

/**
 * The skip machinery must actually engage: a memory-bound kernel
 * spends most of its cycles waiting on DRAM, so a skip-enabled run
 * must fast-forward a significant share of them (this guards
 * against a silent regression that turns skipping into a no-op —
 * equivalence would still hold, speed would not).
 */
TEST(SteppingEquivalence, SkipEngagesOnMemoryBoundKernel)
{
    const workloads::Workload *wl =
        workloads::findWorkload("FastWalshTransform");
    ASSERT_NE(wl, nullptr);
    pipeline::SMConfig cfg =
        pipeline::SMConfig::make(pipeline::PipelineMode::Baseline);
    RunResult res = workloads::runWorkload(
        *wl, cfg, SizeClass::Tiny, 1, /*cycle_skip=*/true);
    ASSERT_TRUE(res.verified) << res.verify_msg;
    EXPECT_GT(res.skipped_cycles, res.stats.cycles / 4)
        << "cycle skipping barely engaged on a memory-bound "
           "kernel";
}

/**
 * Per-warp sleep must actually engage, and identically in both
 * stepping modes: warp_sleep_cycles counts warp-cycles parked off
 * the runnable active list and is accumulated at wake time from
 * the park cycle, so it is jump-invariant by construction. A run
 * with zero sleep cycles means the active list degenerated into
 * the old every-warp scan (equivalence would still hold; the
 * O(runnable) speedup would be silently gone).
 */
TEST(SteppingEquivalence, PerWarpSleepEngages)
{
    SleepAuditScope audit;
    const workloads::Workload *wl =
        workloads::findWorkload("FastWalshTransform");
    ASSERT_NE(wl, nullptr);
    pipeline::SMConfig cfg =
        pipeline::SMConfig::make(pipeline::PipelineMode::Baseline);
    RunResult skip = workloads::runWorkload(
        *wl, cfg, SizeClass::Tiny, 1, /*cycle_skip=*/true);
    RunResult step = workloads::runWorkload(
        *wl, cfg, SizeClass::Tiny, 1, /*cycle_skip=*/false);
    ASSERT_TRUE(skip.verified) << skip.verify_msg;
    EXPECT_GT(skip.stats.warp_sleep_cycles, 0u)
        << "no warp ever slept on a memory-bound kernel";
    EXPECT_GT(skip.stats.avg_runnable_warps_x10, 0u);
    EXPECT_EQ(skip.stats.warp_sleep_cycles,
              step.stats.warp_sleep_cycles)
        << "sleep accounting must be jump-invariant";
    EXPECT_EQ(skip.stats.runnable_warp_cycles,
              step.stats.runnable_warp_cycles);
}

} // namespace
} // namespace siwi
