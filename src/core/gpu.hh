/**
 * @file
 * Gpu: the top-level public entry point of the library.
 *
 * One Gpu = one chip: `num_sms` SM instances plus a global memory
 * image shared across launches. Every launch, one SM included,
 * runs the same lockstep cycle loop over a memory backend the
 * launch builds from GpuConfig and lends to each SM. The paper
 * simulates a single SM with a private DRAM channel, and that
 * remains the default (`Gpu(SMConfig)`): one SM gets a DramBackend
 * with the bandwidth and latency of GpuConfig::dram and assigns
 * its own CTAs. A multi-SM chip puts the per-SM L1s/write buffers
 * in front of the banked chip memory system (mem/banked_l2.hh): an
 * SM<->L2 interconnect, address-interleaved L2 slices, and
 * multi-channel DRAM the SMs contend for, with CTAs handed out by a
 * chip-level scheduler. Each launch runs a grid to completion on
 * freshly initialized pipelines and returns its statistics (with
 * per-SM breakdowns on a chip).
 */

#ifndef SIWI_CORE_GPU_HH
#define SIWI_CORE_GPU_HH

#include <memory>
#include <string>

#include "core/kernel.hh"
#include "core/stats.hh"
#include "mem/backend.hh"
#include "mem/banked_l2.hh"
#include "mem/memory_image.hh"
#include "pipeline/sm.hh"

namespace siwi::core {

/** Grid dimensions for a kernel launch. */
struct LaunchConfig
{
    unsigned grid_blocks = 1;
    unsigned block_threads = 256;
    Cycle max_cycles = 50'000'000;
    /**
     * Event-driven cycle skipping: an SM whose step was quiet is
     * not stepped again until its own next-event bound (see
     * SM::nextWake), and when no SM of the chip made progress the
     * clock jumps to the earliest bound instead of stepping empty
     * cycles. Observationally equivalent — all statistics, including
     * cycle counts and timeout detection, are bit-identical to
     * per-cycle stepping — so it defaults on; turn it off to
     * cross-check (siwi-run --no-skip, and the stepping-
     * equivalence tests do exactly that). A launch-time knob, not
     * a GpuConfig field: it cannot change results, so it is not
     * part of the machine identity that configs and baselines key
     * on.
     */
    bool cycle_skip = true;
};

/** Chip-level parameter set: SM geometry times chip topology. */
struct GpuConfig
{
    pipeline::SMConfig sm;
    unsigned num_sms = 1;

    mem::L2Config l2; //!< shared L2 geometry/timing/slicing
    /**
     * The DRAM below the L2 slices. One SM uses only its bandwidth
     * and latency, as the paper's private channel.
     */
    mem::DramConfig dram;
    mem::NocConfig noc; //!< SM<->L2 interconnect

    /**
     * Canonical chip for a pipeline mode: SMConfig::make(mode)
     * replicated @p num_sms times. The DRAM channel scales the
     * paper's per-SM 10 GB/s linearly up to 4 SMs and then
     * saturates, so the 8-SM point exposes bandwidth contention.
     */
    static GpuConfig make(pipeline::PipelineMode mode,
                          unsigned num_sms);

    /** As above, replicating an already-tuned SM config. */
    static GpuConfig make(const pipeline::SMConfig &sm,
                          unsigned num_sms);

    /**
     * Check invariants without stopping: empty string when
     * consistent, else a diagnostic (covers the nested SM config
     * too). Every chip field is checked at every SM count, also
     * those a 1-SM launch does not use. The non-fatal path serves
     * user-supplied spec and machine files.
     */
    std::string checkInvariants() const;

    /** Sanity-check invariants; panics on nonsense. */
    void validate() const;
};

/**
 * Field-wise equality over the GpuConfig field table plus the
 * nested SMConfig table (see core/config_io.hh); != is derived.
 */
bool operator==(const GpuConfig &a, const GpuConfig &b);

/**
 * The simulated device.
 */
class Gpu
{
  public:
    /** Single SM with a private DRAM channel (paper setup). */
    explicit Gpu(const pipeline::SMConfig &cfg);

    /** Full chip: @p cfg.num_sms SMs (see the file comment). */
    explicit Gpu(const GpuConfig &cfg);

    /** Global memory, for host-side setup and result readback. */
    mem::MemoryImage &memory() { return memory_; }
    const mem::MemoryImage &memory() const { return memory_; }

    const pipeline::SMConfig &config() const { return cfg_.sm; }
    const GpuConfig &chipConfig() const { return cfg_; }

    /** Run @p kernel over @p lc to completion; returns statistics. */
    SimStats launch(const Kernel &kernel, const LaunchConfig &lc);

    /**
     * As launch(), with a per-issue trace hook (Figure 2
     * diagrams). On a multi-SM chip every SM feeds the same hook;
     * events of one cycle arrive in SM order.
     */
    SimStats launchTraced(const Kernel &kernel, const LaunchConfig &lc,
                          pipeline::SM::TraceHook hook);

    /**
     * Cycles fast-forwarded by event-driven skipping during the
     * most recent launch, summed over SMs: every cycle an SM slept
     * through to its own wake counts, also while other SMs of the
     * chip kept stepping. Diagnostic only (not part of SimStats,
     * which stays bit-identical across stepping modes); zero when
     * the launch ran with cycle_skip off.
     */
    u64 skippedCycles() const { return skipped_cycles_; }

  private:
    GpuConfig cfg_;
    mem::MemoryImage memory_;
    u64 skipped_cycles_ = 0;
};

} // namespace siwi::core

#endif // SIWI_CORE_GPU_HH
