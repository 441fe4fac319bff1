/**
 * @file
 * The streaming-multiprocessor cycle-level model.
 *
 * One SM object simulates one kernel grid on one SM, in any of the
 * five pipeline configurations of the paper's evaluation (Figure 7):
 * the Fermi-like stack baseline, the 64-wide thread-frontier
 * reference, SBI, SWI, and SBI+SWI. See docs/DESIGN.md for the pipeline
 * structure and the interpretation notes.
 *
 * The SM owns warp/block/barrier/event state, the instruction
 * buffer, the scoreboard, the execution groups and the memory
 * pipeline. The per-cycle select/issue decision lives in the
 * frontend layer (frontend::FrontEnd, see
 * src/frontend/front_end.hh), which reads the SM's scheduling view
 * below and issues through it.
 *
 * The SM has no cycle loop of its own: core::Gpu::launch drives
 * step()/nextWake()/skipTo() for every SM of a launch, one SM
 * included, and lends each SM the memory backend below its L1.
 */

#ifndef SIWI_PIPELINE_SM_HH
#define SIWI_PIPELINE_SM_HH

#include <functional>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "core/stats.hh"
#include "divergence/reconv_stack.hh"
#include "divergence/split_heap.hh"
#include "exec/warp_state.hh"
#include "frontend/front_end.hh"
#include "isa/program.hh"
#include "mem/coalescer.hh"
#include "mem/memory_image.hh"
#include "mem/memory_system.hh"
#include "pipeline/config.hh"
#include "pipeline/exec_unit.hh"
#include "pipeline/ibuffer.hh"
#include "pipeline/scoreboard.hh"
#include "pipeline/warp_set.hh"

namespace siwi::pipeline {

/** One issue, for pipeline-diagram tracing (Figure 2). */
struct IssueEvent
{
    Cycle cycle;
    WarpId warp;
    Pc pc;
    LaneMask mask;
    /**
     * Execution group name. A view into the group's name storage
     * — stable while the SM lives, but the SM may not outlive
     * the launch call (core::Gpu builds its SMs per launch), so
     * a hook that retains events beyond the launch must copy
     * this field (std::string(e.unit)). It is a view so that
     * tracing never allocates and cannot perturb
     * timing-sensitive debugging runs.
     */
    std::string_view unit;
    bool secondary;      //!< issued by the secondary scheduler
    unsigned occupancy;  //!< group cycles (waves / transactions)
};

/**
 * Cycle-level SM simulator.
 */
class SM
{
  public:
    /**
     * @param backend the memory below this SM's L1 and write
     *        buffer, owned by the caller (core::Gpu builds one per
     *        launch and lends it to every SM)
     * @param port this SM's interconnect port on @p backend (its
     *        SM index)
     */
    SM(const SMConfig &cfg, mem::MemoryImage &memory,
       mem::MemoryBackend &backend, unsigned port = 0);

    // The front-end keeps a reference to its SM.
    SM(const SM &) = delete;
    SM &operator=(const SM &) = delete;

    /** Start a grid of @p grid_blocks x @p block_threads threads. */
    void launch(const isa::Program &prog, unsigned grid_blocks,
                unsigned block_threads);

    /**
     * Chip-level CTA scheduler hook: returns the next global CTA
     * id this SM should run, or -1 when the grid is exhausted.
     * When set, the SM stops self-assigning CTAs from the launch
     * grid and instead pulls at most one CTA per cycle from the
     * source (so a fresh chip distributes CTAs round-robin and a
     * retiring SM picks up the next pending CTA).
     */
    using CtaSource = std::function<int()>;
    void setCtaSource(CtaSource src)
    {
        cta_source_ = std::move(src);
    }

    /** All blocks retired? */
    bool done() const;

    /**
     * Advance one cycle.
     *
     * Hot-loop cost is O(runnable warps), not O(num_warps): warps
     * proven unable to act (sleepEligible) are parked off the
     * runnable active list at the end of each cycle and every
     * per-cycle scan — fetch, heap maintenance, the front-end
     * candidate domains — iterates the list, not the warp array.
     * Events, barrier releases and timed heap folds wake their
     * warps back onto it (wakeWarp), so parking is invisible to
     * results; setSleepAudit() re-proves it every cycle.
     *
     * @return true when the cycle made progress: an event fired, a
     *         heap restructured, the front-end issued or mutated
     *         scheduler state, a fetch or CTA launch happened, or
     *         a statistic that counts per-cycle attempts (SYNC
     *         suspensions) moved. A false return means the SM is
     *         fully asleep — re-stepping it changes nothing until
     *         nextWake(), so the caller may jump time there.
     */
    bool step();

    /**
     * Conservative next-event estimate: the earliest cycle at
     * which anything in this SM can change — the next deferred
     * event (writebacks, branch/exit resolutions and their
     * retries), the earliest execution-group release, the next L1
     * fill or backend wake, the next CCT sorter fold of any awake
     * warp, and the earliest sleeping warp's recorded wake bound
     * (min_sleep_wake_, which carries the folds of parked warps).
     * Every other transition (scoreboard, barriers, fetch, CTA
     * launch) happens only as a consequence of one of these, so
     * after a quiet step() the SM provably re-enters the same
     * quiet state on every cycle before the returned bound.
     * no_wake when no timed state is pending (the SM is dead in
     * the water until the cycle limit).
     */
    Cycle nextWake() const;

    /**
     * Jump the SM clock to @p target (>= now()) without stepping,
     * accounting the difference in skippedCycles(). Only valid
     * after a quiet step() and for target <= nextWake(): the SM
     * state is by construction identical to having stepped every
     * intervening cycle.
     */
    void skipTo(Cycle target);

    /**
     * Cycles fast-forwarded by skipTo() so far. Diagnostic only —
     * deliberately not part of SimStats, so skip-enabled and
     * per-cycle runs produce identical statistics blocks.
     */
    u64 skippedCycles() const { return skipped_cycles_; }

    Cycle now() const { return now_; }
    const SMConfig &config() const { return cfg_; }

    using TraceHook = std::function<void(const IssueEvent &)>;
    void setTraceHook(TraceHook hook) { trace_ = std::move(hook); }

    /** Statistics snapshot (complete after finalizeStats()). */
    core::SimStats &stats() { return stats_; }

    /**
     * Fold warp/cache/unit counters into stats_ and return it.
     * core::Gpu calls it once per SM after its cycle loop
     * finishes. The backend counters (l2_*, dram_*) stay zero
     * here: the backend belongs to the launch, which reports them
     * once.
     */
    core::SimStats finalizeStats();

    /** Multi-line dump of warp/context/barrier state (debugging). */
    std::string debugState() const;

    /**
     * Per-warp sleep oracle (test hook): verify that every warp
     * currently parked off the active list provably cannot issue,
     * fetch, bump an observable counter, or self-mutate before its
     * recorded wake bound. Pure — uses only non-counting probes.
     * @return false with a diagnostic in @p why on any violation
     */
    bool auditSleepingWarps(std::string *why) const;

    /**
     * Process-wide audit switch: when on, every step() of every SM
     * runs auditSleepingWarps() before the issue stage and again
     * after fetch, and panics on a violation. Test-only (the
     * integration oracles flip it around full suite runs); the per
     * -step cost is two relaxed atomic loads when off.
     */
    static void setSleepAudit(bool on);

  private:
    // ------------------------------------------------------------
    // internal structures
    // ------------------------------------------------------------
    struct WarpSlot
    {
        bool active = false;
        int block = -1;
        std::unique_ptr<exec::WarpState> state;
        std::unique_ptr<divergence::ReconvStack> stack;
        std::unique_ptr<divergence::SplitHeap> heap;
        bool stack_branch_pending = false;
        bool stack_barrier_blocked = false;
        Cycle last_divergence = ~Cycle(0);

        // --- sleep/wake state (see ARCHITECTURE.md) ---
        /** Parked off the active list: provably unschedulable. */
        bool asleep = false;
        /**
         * Conservative timed wake bound while asleep: the earliest
         * cycle this warp can change state *on its own* (its CCT
         * sorter fold). Every other unblocking — scoreboard
         * release, branch/exit resolution, barrier release — is an
         * event that wakes the warp explicitly, so the bound never
         * needs to cover those.
         */
        Cycle wake_at = ~Cycle(0);
        /** First slept cycle (warp_sleep_cycles accounting). */
        Cycle sleep_since = 0;
    };

    struct BlockSlot
    {
        bool active = false;
        int cta = -1;
        unsigned live_threads = 0;
        unsigned barrier_arrived = 0;
        std::vector<WarpId> warps;
    };

    /** Deferred completion / resolution event. */
    struct Event
    {
        enum class Kind { Writeback, Branch, Exit };
        Kind kind;
        WarpId warp;
        u32 ctx_id = 0;
        int sb_entry = -1;
        isa::Instruction inst;
        LaneMask mask;
        LaneMask taken;
        Pc pc = invalid_pc;
    };

    /** An Event due at @ref when; @ref seq orders same-cycle events. */
    struct TimedEvent
    {
        Cycle when;
        u64 seq;
        Event ev;

        /** Fires after @p o (the heap order of SM::events_). */
        bool operator>(const TimedEvent &o) const
        {
            return when != o.when ? when > o.when : seq > o.seq;
        }
    };

    // ------------------------------------------------------------
    // scheduling view (what the front-end and its policies read)
    // ------------------------------------------------------------
    friend class frontend::FrontEnd;
    friend class frontend::SchedPolicy;

    unsigned numWarps() const { return unsigned(warps_.size()); }
    /** Scheduling view of context slot (w, slot). */
    frontend::CtxView ctxView(WarpId w, unsigned slot) const;
    /** Fresh buffered entry of the context in (w, slot), or null. */
    const IBufEntry *entryFor(WarpId w, unsigned slot) const;
    IBufEntry *entryFor(WarpId w, unsigned slot);
    /** Valid buffered entry of context @p ctx_id, or null. */
    IBufEntry *findCtx(WarpId w, u32 ctx_id);
    /**
     * May (w, slot) issue this cycle? A SYNC-gated probe counts a
     * suspension, so the number and order of calls is part of the
     * results.
     */
    bool ready(WarpId w, unsigned slot, bool check_group) const;
    /** A free execution group of class @p cls, or null. */
    ExecGroup *freeGroup(isa::UnitClass cls);
    /**
     * Issue the instruction buffered for context slot (w, slot).
     * @param primary row-sharing context, null for primary issues
     * @param row_share issue onto the primary's row
     * @return true on success
     */
    bool issueCand(WarpId w, unsigned slot, bool secondary,
                   frontend::PrimaryIssueInfo *primary,
                   bool row_share);
    /** Primary issued this cycle (filled by issueCand). */
    const frontend::PrimaryIssueInfo &lastPrimary() const
    {
        return last_primary_;
    }
    /** Reset lastPrimary() at the top of the issue stage. */
    void clearLastPrimary()
    {
        last_primary_ = frontend::PrimaryIssueInfo{};
    }
    /**
     * The runnable active list: active warps not parked by the
     * sleep/wake machinery. A sleeping warp is provably not ready,
     * not fetchable and free of claimed entries, so every candidate
     * scan may iterate this set instead of all warps and see
     * identical candidates in identical (ascending) order. The set
     * can grow mid-cycle (a barrier release wakes warps), so scans
     * must read it where they run, not cache it.
     */
    const WarpSet &awakeWarps() const { return awake_; }

    // ------------------------------------------------------------
    // pipeline stages
    // ------------------------------------------------------------
    /** Queue @p ev to fire at @p when, after any queued same-cycle event. */
    void schedule(Cycle when, const Event &ev);
    bool processEvents();
    bool heapMaintenance();
    void fetchStage();

    // --- scheduling helpers ---
    bool syncGated(WarpId w, const IBufEntry &e) const;

    // --- per-warp sleep/wake ---
    /** A buffered entry still backs a live context (fetch victim rule). */
    bool ibufEntryLive(WarpId w, const IBufEntry &e) const;
    /**
     * May warp @p w be parked? True only when no context slot can
     * issue (ignoring execution-group availability, which is
     * shared and timed), no fetch is possible, no SYNC gate would
     * bump the suspension counter, nothing is parked in the
     * cascade register, and the heap has no pending maintenance.
     * Pure: never bumps statistics. On true, *wake_out holds the
     * timed self-change bound (the heap's next sorter fold).
     */
    bool sleepEligible(WarpId w, Cycle *wake_out) const;
    /** Park every provably blocked awake warp (end of step()). */
    void sleepEvaluate();
    /** Wake warps whose timed bound has arrived (start of step()). */
    void timedWakes();
    /** Return @p w to the active list (no-op when awake). */
    void wakeWarp(WarpId w);
    /** Advance the runnable-warp integral to time @p t. */
    void accrueRunnable(Cycle t);
    /** Add @p w to the active list (init / wake paths). */
    void awakeInsert(WarpId w);
    /** Drop @p w from the active list at time @p t (sleep/retire). */
    void awakeErase(WarpId w, Cycle t);

    // --- semantics helpers ---
    void advanceCtx(WarpId w, u32 ctx_id, Pc next);
    void resolveBranch(const Event &ev);
    void resolveExit(const Event &ev);
    void arriveBarrier(WarpId w, u32 ctx_id, LaneMask mask);
    void checkBarrierRelease(int block_slot);
    void retireWarpIfDone(WarpId w);
    void accumulateWarpStats(WarpSlot &ws);
    bool issueMemory(WarpId w, const IBufEntry &e,
                     const frontend::CtxView &cv, ExecGroup *group,
                     bool row_share, Cycle when,
                     unsigned *occupancy, LaneMask *issued_mask);

    // --- block management ---
    void launchBlocks();
    void initWarp(WarpId w, int block_slot, unsigned first_tid,
                  unsigned thread_count);

    // ------------------------------------------------------------
    // state
    // ------------------------------------------------------------
    SMConfig cfg_;
    mem::MemoryImage &memory_;
    mem::MemorySystem memsys_;

    isa::Program prog_;
    unsigned grid_blocks_ = 0;
    unsigned block_threads_ = 0;
    unsigned next_cta_ = 0;
    CtaSource cta_source_;
    bool cta_source_dry_ = false;

    std::vector<WarpSlot> warps_;
    std::vector<BlockSlot> blocks_;

    IBuffer ibuf_;
    Scoreboard sb_;
    std::vector<ExecGroup> groups_;

    /**
     * Pending events: a binary min-heap on (when, seq). The
     * sequence number makes same-cycle events fire in the order
     * they were scheduled.
     */
    std::vector<TimedEvent> events_;
    u64 event_seq_ = 0;
    frontend::PrimaryIssueInfo last_primary_; //!< issued this cycle

    Cycle now_ = 0;
    u64 skipped_cycles_ = 0;
    u64 fetch_seq_ = 1;
    std::vector<WarpId> fe_rr_; //!< per-front-end round-robin cursor

    // --- reused per-issue scratch (issueMemory, launchBlocks) ---
    std::vector<mem::LaneAccess> lane_accesses_;
    std::vector<mem::Transaction> txns_;
    std::vector<WarpId> free_warps_;

    // --- per-warp sleep/wake state ---
    WarpSet awake_;  //!< active, schedulable warps (the hot-loop domain)
    WarpSet asleep_; //!< active warps parked off the active list
    /**
     * Cached min over sleeping warps' wake_at. May go stale-low
     * when an event wakes the minimum holder early; that only
     * costs one no-op timedWakes() scan, never a missed wake.
     */
    Cycle min_sleep_wake_ = ~Cycle(0);
    unsigned awake_count_ = 0;     //!< |awake_|
    u64 runnable_integral_ = 0;    //!< sum of awake_count_ over time
    Cycle runnable_mark_ = 0;      //!< integral accrued up to here

    core::SimStats stats_;
    TraceHook trace_;
    /**
     * Built from cfg_ and warps_, so declared after them; last, so
     * it does not split the hot cycle-state members above.
     */
    frontend::FrontEnd frontend_;
};

} // namespace siwi::pipeline

#endif // SIWI_PIPELINE_SM_HH
