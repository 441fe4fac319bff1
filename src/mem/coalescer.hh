/**
 * @file
 * Memory access coalescing into 128-byte transactions.
 *
 * Models the paper's LSU: "It can coalesce together multiple
 * parallel accesses that fall within the same 128-byte cache block.
 * Memory instructions that encounter conflicts are replayed with an
 * updated activity mask" (section 2).
 */

#ifndef SIWI_MEM_COALESCER_HH
#define SIWI_MEM_COALESCER_HH

#include <vector>

#include "common/lane_mask.hh"
#include "common/types.hh"

namespace siwi::mem {

/** One coalesced memory transaction. */
struct Transaction
{
    Addr block;     //!< block-aligned base address
    LaneMask lanes; //!< lanes served by this transaction
};

/** A single lane's byte access, as produced by exec::memAddresses. */
struct LaneAccess
{
    unsigned lane;
    Addr addr;
};

/**
 * Coalesce per-lane accesses into block-aligned transactions.
 *
 * Transactions are emitted in order of first touching lane, which is
 * the order the LSU replays them in.
 *
 * @param accesses per-lane byte addresses (active lanes only)
 * @param block_bytes transaction size (128 in the paper)
 * @param txns output, cleared first (the caller reuses it)
 */
void coalesce(const std::vector<LaneAccess> &accesses,
              unsigned block_bytes, std::vector<Transaction> &txns);

} // namespace siwi::mem

#endif // SIWI_MEM_COALESCER_HH
