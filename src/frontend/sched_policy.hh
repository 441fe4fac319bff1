/**
 * @file
 * Primary-scheduler selection policies.
 *
 * The paper's machines all select their primary instruction
 * oldest-first (section 4: "the primary scheduler still selects
 * the oldest ready instruction"), but the policy is orthogonal to
 * the front-end structure: any ordering of the ready primary
 * candidates yields a working machine. Besides the paper's
 * oldest-first, SchedPolicy provides the classic alternatives of
 * the GPU-scheduling literature: loose round-robin (fairness),
 * greedy-then-oldest (GTO: stick with the last warp to exploit
 * intra-warp locality), and minimum-PC (favor trailing
 * warp-splits, which accelerates reconvergence on thread-frontier
 * machines).
 */

#ifndef SIWI_FRONTEND_SCHED_POLICY_HH
#define SIWI_FRONTEND_SCHED_POLICY_HH

#include <optional>
#include <span>
#include <string_view>

#include "common/types.hh"

namespace siwi::frontend {

/**
 * A scheduling candidate: warp + context slot (0 = primary /
 * CPC1, 1 = secondary / CPC2). The instruction-buffer entry is
 * resolved through the context id, so HCT re-sorting does not
 * orphan buffered instructions.
 */
struct Cand
{
    WarpId w;
    unsigned slot;
};

/** The selectable primary-scheduler policies. */
enum class SchedPolicyKind {
    OldestFirst,      //!< minimum fetch sequence (the paper)
    RoundRobin,       //!< loose round-robin over warps
    GreedyThenOldest, //!< GTO: last warp first, then oldest
    MinPc,            //!< minimum PC, oldest-first tie-break
};

/** CLI name of a policy: "oldest", "rr", "gto", "minpc". */
const char *schedPolicyName(SchedPolicyKind kind);

/** Parse a CLI policy name; false when unknown. */
bool parseSchedPolicy(std::string_view name, SchedPolicyKind *out);

/** Every policy, in registry order. */
std::span<const SchedPolicyKind> allSchedPolicies();

/**
 * One primary scheduler's candidate ordering and its state.
 *
 * select() scans the candidates in order and returns the best one
 * that is ready to issue, or nullopt. The round-robin cursor and
 * GTO's last warp advance through notifyIssued(), which the
 * front-end calls only when the pick actually issues — a selection
 * denied by a structural stall must not advance the cursor past
 * the stalled warp. Pooled machines get one policy per pool.
 */
class SchedPolicy
{
  public:
    SchedPolicy(SchedPolicyKind kind, unsigned num_warps)
        : kind_(kind), num_warps_(num_warps)
    {
    }

    /**
     * Pick the best ready candidate of @p cands, or nullopt.
     *
     * @p src answers ready(w, slot, check_group) and
     * entryFor(w, slot) (an entry with seq and pc) — the hosting
     * SM, or a table in tests. Readiness probes have side effects
     * (a SYNC-gated probe counts a suspension), so each policy
     * probes in its own fixed order: every candidate for the
     * ranking policies, and round-robin lazily up to its pick.
     *
     * @param check_group also require a free execution group
     */
    template <class Source>
    std::optional<Cand> select(const Source &src,
                               std::span<const Cand> cands,
                               bool check_group) const;

    /** Candidate @p c issued: advance the cursor and last warp. */
    void notifyIssued(const Cand &c)
    {
        cursor_ = WarpId((c.w + 1) % num_warps_);
        have_last_ = true;
        last_warp_ = c.w;
    }

  private:
    SchedPolicyKind kind_;
    unsigned num_warps_;
    WarpId cursor_ = 0;     //!< round-robin: first warp to try
    bool have_last_ = false; //!< GTO: some warp has issued
    WarpId last_warp_ = 0;  //!< GTO: the last issued warp
};

template <class Source>
std::optional<Cand>
SchedPolicy::select(const Source &src, std::span<const Cand> cands,
                    bool check_group) const
{
    std::optional<Cand> best;
    u64 best_seq = ~u64(0);
    switch (kind_) {
      case SchedPolicyKind::OldestFirst:
        // The paper's policy: minimum fetch sequence (age).
        for (const Cand &c : cands) {
            if (!src.ready(c.w, c.slot, check_group))
                continue;
            u64 seq = src.entryFor(c.w, c.slot)->seq;
            if (seq < best_seq) {
                best_seq = seq;
                best = c;
            }
        }
        return best;

      case SchedPolicyKind::RoundRobin:
        // Loose round-robin: the first ready candidate at or after
        // the cursor warp wins ("loose": a warp with nothing ready
        // is skipped rather than stalling the scheduler). The
        // domain is warp-ordered, so scanning it twice — first the
        // tail at/after the cursor, then the wrapped head — visits
        // candidates in round-robin order.
        for (int pass = 0; pass < 2; ++pass) {
            for (const Cand &c : cands) {
                bool tail = c.w >= cursor_;
                if ((pass == 0) != tail)
                    continue;
                if (src.ready(c.w, c.slot, check_group))
                    return c;
            }
        }
        return std::nullopt;

      case SchedPolicyKind::GreedyThenOldest: {
        // Keep issuing from the last issued warp while it has
        // something ready (intra-warp row reuse and cache
        // locality), falling back to oldest-first.
        std::optional<Cand> greedy;
        u64 greedy_seq = ~u64(0);
        for (const Cand &c : cands) {
            if (!src.ready(c.w, c.slot, check_group))
                continue;
            u64 seq = src.entryFor(c.w, c.slot)->seq;
            if (have_last_ && c.w == last_warp_ &&
                seq < greedy_seq) {
                greedy_seq = seq;
                greedy = c;
            }
            if (seq < best_seq) {
                best_seq = seq;
                best = c;
            }
        }
        return greedy ? greedy : best;
      }

      case SchedPolicyKind::MinPc: {
        // Minimum PC first, oldest-first tie-break: favors
        // trailing warp-splits, pulling divergent contexts back
        // together — the scheduling analogue of thread-frontier
        // reconvergence.
        Pc best_pc = invalid_pc;
        for (const Cand &c : cands) {
            if (!src.ready(c.w, c.slot, check_group))
                continue;
            const auto *e = src.entryFor(c.w, c.slot);
            if (!best || e->pc < best_pc ||
                (e->pc == best_pc && e->seq < best_seq)) {
                best_pc = e->pc;
                best_seq = e->seq;
                best = c;
            }
        }
        return best;
      }
    }
    return best;
}

} // namespace siwi::frontend

#endif // SIWI_FRONTEND_SCHED_POLICY_HH
