// Fixture: the GpuConfig chip field table.
#include "core/config_io.hh"

namespace siwi::core {

const int table[] = {
    F_U32("num_sms", num_sms, "SM instances on the chip"),
    F_U32("l2_slices", l2_slices, "address-interleaved L2 slices"),
};

} // namespace siwi::core
