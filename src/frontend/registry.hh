/**
 * @file
 * The machine / scheduling-policy registry.
 *
 * The five evaluated machines (Figure 7) and the four primary
 * scheduling policies are data, not code: one table each, shared
 * by the machine registry, the siwi-run CLI and the benches, so a
 * new machine variant or policy is one added row instead of
 * another `if (mode == ...)` branch.
 */

#ifndef SIWI_FRONTEND_REGISTRY_HH
#define SIWI_FRONTEND_REGISTRY_HH

#include <span>
#include <string_view>

#include "frontend/sched_policy.hh"
#include "pipeline/config.hh"

namespace siwi::frontend {

/** One registered machine: a named canonical configuration. */
struct MachineEntry
{
    const char *name;            //!< sweep/CLI label
    pipeline::PipelineMode mode; //!< SMConfig::make() input
    const char *paper_ref;       //!< where the paper defines it
};

/** The five paper machines, in Figure 7 column order. */
std::span<const MachineEntry> machineRegistry();

/** Registry row by name, or null. */
const MachineEntry *findMachineEntry(std::string_view name);

/** One registered primary scheduling policy. */
struct PolicyEntry
{
    const char *name; //!< CLI label ("oldest", "rr", ...)
    SchedPolicyKind kind;
    const char *description;
};

/** Every scheduling policy (oldest-first = the paper's). */
std::span<const PolicyEntry> policyRegistry();

/** Registry row by name, or null. */
const PolicyEntry *findPolicyEntry(std::string_view name);

} // namespace siwi::frontend

#endif // SIWI_FRONTEND_REGISTRY_HH
