// Fixture: minimal GpuConfig; "sm" is covered by its own table.
#ifndef SIWI_CORE_GPU_HH
#define SIWI_CORE_GPU_HH

#include "pipeline/config.hh"

namespace siwi::core {

struct GpuConfig
{
    pipeline::SMConfig sm;
    unsigned num_sms = 1;
    unsigned l2_slices = 1;
};

} // namespace siwi::core

#endif // SIWI_CORE_GPU_HH
