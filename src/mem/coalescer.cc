#include "mem/coalescer.hh"

#include "common/bits.hh"
#include "common/log.hh"

namespace siwi::mem {

void
coalesce(const std::vector<LaneAccess> &accesses, unsigned block_bytes,
         std::vector<Transaction> &txns)
{
    siwi_assert(isPow2(block_bytes), "block size must be power of 2");
    const Addr mask = ~Addr(block_bytes - 1);

    txns.clear();
    for (const LaneAccess &acc : accesses) {
        Addr block = acc.addr & mask;
        bool merged = false;
        for (Transaction &t : txns) {
            if (t.block == block) {
                t.lanes.set(acc.lane);
                merged = true;
                break;
            }
        }
        if (!merged)
            txns.push_back({block, LaneMask::lane(acc.lane)});
    }
}

} // namespace siwi::mem
