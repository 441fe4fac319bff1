/**
 * @file
 * The SM front-end layer: instruction select + issue, decoupled
 * from the SM's warp/block/memory state.
 *
 * The paper's whole contribution lives here — stack vs.
 * thread-frontier scheduling (§3), SBI's dual issue over CPC1 and
 * CPC2 (§3.3), and SWI's cascaded mask-fit secondary scheduler
 * (§4) — so the front-end is a first-class layer: a FrontEnd
 * object owns the per-cycle select/issue decision and its private
 * scheduler state (cascade register, mask-inclusion lookup,
 * tie-break RNG), while its SM keeps warp contexts, blocks,
 * barriers, events and the memory pipeline and answers the front
 * end's candidate queries (context views, buffered entries,
 * readiness) and issue calls directly.
 *
 * One FrontEnd class covers the paper's five machines. Its issue
 * stage is picked by SMConfig::swi alone: the simple one-cycle
 * stage (the Fermi-like baseline's two pools, TF64's pools, or
 * SBI's primary plus CPC2 secondary), or SWI's cascaded stage with
 * the mask-inclusion lookup and the cascade register.
 *
 * Primary-candidate ordering is delegated to a SchedPolicy (see
 * sched_policy.hh), selected via SMConfig::sched_policy;
 * oldest-first reproduces the paper bit-exactly.
 */

#ifndef SIWI_FRONTEND_FRONT_END_HH
#define SIWI_FRONTEND_FRONT_END_HH

#include <optional>
#include <span>
#include <vector>

#include "common/lane_mask.hh"
#include "common/rng.hh"
#include "common/types.hh"
#include "frontend/sched_policy.hh"
#include "isa/opcode.hh"
#include "pipeline/mask_lookup.hh"

namespace siwi::pipeline {
class ExecGroup;
class SM;
} // namespace siwi::pipeline

namespace siwi::frontend {

/** Scheduling view of one warp context slot. */
struct CtxView
{
    bool valid = false; //!< exists and is schedulable
    u32 id = 0;
    Pc pc = invalid_pc;
    LaneMask mask;
    u32 version = 0;
};

/** Row occupancy info of the primary issue this cycle. */
struct PrimaryIssueInfo
{
    bool valid = false;
    WarpId w = 0;
    u32 ctx_id = 0;
    pipeline::ExecGroup *group = nullptr;
    LaneMask mask;
    isa::UnitClass unit = isa::UnitClass::MAD;
};

/**
 * One SM front-end: selects and issues instructions for one cycle.
 *
 * The candidate domains (per-pool warp lists, the SBI CPC2 slots)
 * are rebuilt each select from the SM's runnable active list —
 * the machine geometry fixes only their shape. The scratch vectors
 * are reused, so the per-cycle hot loop still never allocates in
 * steady state, and now visits O(runnable) warps, not all of them.
 */
class FrontEnd
{
  public:
    explicit FrontEnd(pipeline::SM &sm);

    /**
     * Select + issue for one cycle (the SM issue stage).
     * @return true when the front-end made progress or mutated any
     *         state: an issue, a cascade-register park or
     *         stale-drop, or a squashed conflict. False means the
     *         cycle was a pure (state-free) selection pass, so an
     *         identical cycle would repeat until something else in
     *         the SM changes — the contract the event-driven
     *         cycle-skipping loop relies on.
     */
    bool issueCycle() { return swi_ ? issueCascaded() : issueSimple(); }

  private:
    /** Primary pick parked between select and issue (SWI). */
    struct CascadeReg
    {
        bool valid = false;
        WarpId w = 0;
        u32 ctx_id = 0;
        u32 ctx_version = 0;
    };

    /**
     * The simple (1-cycle scheduler) issue stage of every machine
     * without SWI: two alternating pools, or one pool plus the SBI
     * secondary.
     * @return true when any instruction issued
     */
    bool issueSimple();

    /**
     * Oldest ready CPC2 entry, row-shared when possible (§3.3).
     * @return true when an instruction issued
     */
    bool issueSecondarySimple(const PrimaryIssueInfo &pinfo);

    /** SWI's cascaded (2-cycle scheduler) issue stage (§4). */
    bool issueCascaded();
    std::optional<Cand> pickSecondaryCascaded(
        const PrimaryIssueInfo &pinfo, bool *row_share_out);
    std::optional<Cand> pickSubstitute();

    /**
     * Primary candidate domain of @p pool right now: the awake
     * warps of the pool, ascending, slot 0 — the same candidates
     * the old full-warp scan offered, minus provably unready ones.
     * Returns a span over reused scratch; valid until the next
     * call for the same pool.
     */
    std::span<const Cand> poolDomain(unsigned pool);

    pipeline::SM &sm_;
    bool swi_; //!< SMConfig::swi, fixed for the SM's lifetime
    /**
     * One policy instance per scheduler pool: pooled machines
     * model two independent schedulers, so stateful policies (RR
     * cursor, GTO last-warp) must not leak across pools.
     * Single-pool machines only use index 0.
     */
    SchedPolicy policy_[2];
    /** Reusable poolDomain() scratch (hot loop: no allocation). */
    std::vector<Cand> pool_scratch_[2];

    pipeline::MaskLookup lookup_;
    Rng rng_;
    CascadeReg cascade_;
    // Reusable per-cycle scratch (hot loop: no allocation).
    std::vector<pipeline::LookupCandidate> lookup_scratch_;
    std::vector<Cand> cand_scratch_;
};

} // namespace siwi::frontend

#endif // SIWI_FRONTEND_FRONT_END_HH
