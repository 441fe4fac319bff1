#include "frontend/sched_policy.hh"

namespace siwi::frontend {

const char *
schedPolicyName(SchedPolicyKind kind)
{
    switch (kind) {
      case SchedPolicyKind::OldestFirst: return "oldest";
      case SchedPolicyKind::RoundRobin: return "rr";
      case SchedPolicyKind::GreedyThenOldest: return "gto";
      case SchedPolicyKind::MinPc: return "minpc";
    }
    return "?";
}

namespace {

constexpr SchedPolicyKind all_policies[] = {
    SchedPolicyKind::OldestFirst,
    SchedPolicyKind::RoundRobin,
    SchedPolicyKind::GreedyThenOldest,
    SchedPolicyKind::MinPc,
};

} // namespace

std::span<const SchedPolicyKind>
allSchedPolicies()
{
    return all_policies;
}

bool
parseSchedPolicy(std::string_view name, SchedPolicyKind *out)
{
    for (SchedPolicyKind k : all_policies) {
        if (name == schedPolicyName(k)) {
            *out = k;
            return true;
        }
    }
    return false;
}

} // namespace siwi::frontend
