/**
 * @file
 * Component ns/op, timed by calling each structure's public class
 * directly: the HCT sorter network, CCT insertion, the
 * mask-inclusion lookup, the scoreboard check and the L1 tag array.
 * Inputs come from a run-time RNG and every result feeds a sink, so
 * nothing folds away. Each figure is the median of several timed
 * batches.
 */

#include <array>

#include "bench.hh"
#include "common/rng.hh"
#include "divergence/cct.hh"
#include "divergence/hct.hh"
#include "isa/instruction.hh"
#include "mem/cache.hh"
#include "pipeline/mask_lookup.hh"
#include "pipeline/scoreboard.hh"
#include "stats.hh"
#include "trace.hh"

namespace perfbench {

using namespace siwi;

namespace {

constexpr int kBatches = 7;
constexpr size_t kOpsPerBatch = 200000;

/** Keeps results observable to the optimizer. */
volatile u64 g_sink = 0;

/** Median ns per call of @p op(i) over kBatches batches. */
template <typename Op>
double
nsPerOp(Op &&op)
{
    std::vector<double> ns;
    for (int b = 0; b < kBatches; ++b) {
        u64 acc = 0;
        const uint64_t t0 = nowNs();
        for (size_t i = 0; i < kOpsPerBatch; ++i)
            acc += op(i);
        ns.push_back(double(nowNs() - t0) / double(kOpsPerBatch));
        g_sink = g_sink + acc;
    }
    return median(ns);
}

/** Three contexts of one warp: disjoint lane masks (one warp's
 *  splits never share a lane), PCs that often coincide so the
 *  network merges. */
std::array<divergence::SorterEntry, 3>
randomContexts(Rng &rng, u32 id)
{
    const u64 r = rng.next(), s = rng.next();
    const u64 masks[3] = {r & s, r & ~s, ~r & s};
    std::array<divergence::SorterEntry, 3> out;
    for (u32 k = 0; k < 3; ++k) {
        out[k].pc = Pc(rng.below(8));
        out[k].mask = LaneMask(masks[k]);
        out[k].valid = masks[k] != 0 && rng.below(8) != 0;
        out[k].id = id + k;
    }
    return out;
}

} // namespace

void
measureComponents(Report *r)
{
    Rng rng(12345);

    std::vector<std::array<divergence::SorterEntry, 3>> triples(1024);
    for (size_t i = 0; i < triples.size(); ++i)
        triples[i] = randomContexts(rng, u32(3 * i));
    r->set("divergence.hct_insert_ns", nsPerOp([&](size_t i) {
               const auto &t = triples[i % triples.size()];
               return u64(divergence::hctSort(t[0], t[1], t[2]).merges);
           }));

    // Fill an 8-entry CCT at sorted-insert pace, then drain it.
    std::vector<Pc> pcs(4096);
    for (Pc &pc : pcs)
        pc = Pc(rng.below(256));
    divergence::Cct cct(8, 1);
    Cycle now = 0;
    r->set("divergence.cct_insert_ns", nsPerOp([&](size_t i) {
               if (cct.full()) {
                   while (cct.pop(now))
                       ;
               }
               now += 16;
               cct.tick(now);
               cct.insert(u32(i), pcs[i % pcs.size()], now);
               return u64(cct.size());
           }));

    for (unsigned sets : {1u, 2u, 8u, 16u}) {
        pipeline::MaskLookup ml(16, sets);
        std::vector<pipeline::LookupCandidate> cands;
        for (WarpId w = 0; w < 16; ++w) {
            pipeline::LookupCandidate c;
            c.key = w;
            c.warp = w;
            c.mask = LaneMask(rng.next() & 0xffffull);
            c.same_unit = true;
            c.other_unit_free = (w % 3) == 0;
            cands.push_back(c);
        }
        std::vector<LaneMask> free(256);
        for (LaneMask &m : free)
            m = LaneMask(rng.next() & 0xffffull);
        r->set("pipeline.mask_lookup_ns.sets" + std::to_string(sets),
               nsPerOp([&](size_t i) {
                   auto pick = ml.pick(WarpId(i % 16), free[i % free.size()],
                                       cands);
                   return u64(pick ? *pick : 0);
               }));
    }

    pipeline::Scoreboard sb(16, 6);
    for (unsigned i = 0; i < 6; ++i)
        sb.allocate(3, RegIdx(i), LaneMask(0xffull << i));
    std::vector<isa::Instruction> insts(256);
    for (isa::Instruction &in : insts) {
        in.op = isa::Opcode::IMAD;
        in.dst = RegIdx(rng.below(16));
        in.sa = RegIdx(rng.below(16));
        in.sb = RegIdx(rng.below(16));
        in.sc = RegIdx(rng.below(16));
    }
    r->set("pipeline.scoreboard_check_ns", nsPerOp([&](size_t i) {
               return u64(sb.conflicts(3, insts[i % insts.size()],
                                       LaneMask(0xf0f0ull)));
           }));

    // Half the addresses fall inside the filled 48 KiB.
    mem::L1Cache cache{mem::CacheConfig{}};
    for (Addr a = 0; a < 48 * 1024; a += 128)
        cache.fill(a);
    std::vector<Addr> addrs(4096);
    for (Addr &a : addrs)
        a = Addr(rng.below(96 * 1024 / 128) * 128);
    r->set("mem.cache_access_ns", nsPerOp([&](size_t i) {
               return u64(cache.access(addrs[i % addrs.size()]));
           }));
}

} // namespace perfbench
