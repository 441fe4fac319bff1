/**
 * @file
 * Property tests for nextWake over the banked chip backend: the
 * mirror of next_wake_property_test.cc with a BankedL2 (per-slice
 * MSHR files, bounded channel queues, a contended NoC) behind the
 * MemorySystem instead of the private DRAM pipe.
 *
 * The banked backend adds a second autonomous timed structure —
 * slice MSHR entries with a channel-issue cycle (start) and a fill
 * cycle — and MemorySystem::nextWake must fold its bounds in, or
 * the chip skip loop would sleep across a slice occupancy change
 * or a queued request's issue. Checked the same two ways: lazy
 * ticking at the reported bounds must be indistinguishable from
 * eager per-cycle ticking, and nothing observable (L1 MSHR
 * occupancy, any slice's MSHR occupancy, any returned latency)
 * may change strictly before the reported wake.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "common/rng.hh"
#include "mem/banked_l2.hh"
#include "mem/memory_system.hh"

namespace siwi::mem {
namespace {

struct ChipConfig
{
    MemConfig mem;
    L2Config l2;
    DramConfig dram;
    NocConfig noc;
};

ChipConfig
randomConfig(Rng &rng)
{
    ChipConfig c;
    c.mem.l1.size_bytes = 128 * (8u << rng.below(4));
    c.mem.l1.block_bytes = 128;
    c.mem.l1.ways = 2;
    c.mem.l1.hit_latency = 1 + rng.below(6);
    c.mem.mshrs = 1 + rng.below(8);
    c.mem.write_buffer_entries = 1 + rng.below(8);
    c.l2.size_bytes = 16 * 1024;
    c.l2.hit_latency = 1 + rng.below(30);
    c.l2.slices = 1u << rng.below(3);
    // Tiny MSHR files force slot waits (queued-but-unissued
    // channel requests), the interesting case for the bound.
    c.l2.mshrs_per_slice = 1 + rng.below(4);
    c.l2.tag_cycles = rng.below(3);
    c.dram.latency_cycles = 5 + rng.below(400);
    c.dram.bytes_per_cycle_x10 = 5 + rng.below(200);
    c.dram.channels = 1u << rng.below(2);
    c.dram.queue_depth = rng.below(5);
    c.noc.request_latency = rng.below(4);
    c.noc.response_latency = rng.below(4);
    c.noc.port_bytes_per_cycle_x10 =
        rng.below(2) ? 0 : 40 + rng.below(200);
    return c;
}

struct Req
{
    Cycle when;
    bool is_load;
    Addr block;
};

std::vector<Req>
randomStream(Rng &rng, unsigned count, Cycle span)
{
    std::vector<Req> reqs;
    reqs.reserve(count);
    for (unsigned i = 0; i < count; ++i) {
        Req r;
        r.when = rng.below(u32(span));
        r.is_load = rng.below(3) != 0;
        r.block = Addr(rng.below(12)) * 128;
        reqs.push_back(r);
    }
    std::sort(reqs.begin(), reqs.end(),
              [](const Req &a, const Req &b) {
                  return a.when < b.when;
              });
    return reqs;
}

/**
 * Lazy ticking at the reported wake bounds only must be
 * observationally identical to eager per-cycle ticking — for the
 * L1 observables and for every slice's MSHR occupancy.
 */
TEST(BankedNextWakeProperty, LazyTickMatchesEagerTick)
{
    Rng rng(3);
    for (int round = 0; round < 50; ++round) {
        ChipConfig cfg = randomConfig(rng);
        BankedL2 eager_l2(cfg.l2, cfg.dram, cfg.noc, 1);
        BankedL2 lazy_l2(cfg.l2, cfg.dram, cfg.noc, 1);
        MemorySystem eager(cfg.mem, eager_l2, 0);
        MemorySystem lazy(cfg.mem, lazy_l2, 0);
        std::vector<Req> reqs = randomStream(
            rng, 40, 2000 + rng.below(2000));

        size_t next = 0;
        const Cycle horizon = reqs.back().when + 3000;
        for (Cycle c = 0; c < horizon; ++c) {
            eager.tick(c);
            if (lazy.nextWake(c) <= c)
                lazy.tick(c);
            EXPECT_EQ(eager.mshrOccupancy(c), lazy.mshrOccupancy(c))
                << "round " << round << " cycle " << c;
            for (u32 s = 0; s < eager_l2.numSlices(); ++s) {
                EXPECT_EQ(eager_l2.sliceMshrOccupancy(s, c),
                          lazy_l2.sliceMshrOccupancy(s, c))
                    << "round " << round << " cycle " << c
                    << " slice " << s;
            }
            while (next < reqs.size() && reqs[next].when == c) {
                const Req &r = reqs[next++];
                if (r.is_load) {
                    EXPECT_EQ(eager.load(c, r.block),
                              lazy.load(c, r.block))
                        << "round " << round << " cycle " << c;
                } else {
                    EXPECT_EQ(eager.store(c, r.block, 128),
                              lazy.store(c, r.block, 128))
                        << "round " << round << " cycle " << c;
                }
            }
        }
        EXPECT_EQ(eager.stats().mshr_stalls,
                  lazy.stats().mshr_stalls);
        EXPECT_EQ(eager.cacheStats().hits,
                  lazy.cacheStats().hits);
        EXPECT_EQ(eager.cacheStats().misses,
                  lazy.cacheStats().misses);
        EXPECT_EQ(eager_l2.stats(), lazy_l2.stats());
        EXPECT_EQ(eager_l2.dramStats(), lazy_l2.dramStats());
        for (u32 s = 0; s < eager_l2.numSlices(); ++s)
            EXPECT_EQ(eager_l2.sliceStats(s),
                      lazy_l2.sliceStats(s))
                << "round " << round << " slice " << s;
    }
}

/**
 * The reference bound: BankedL2::nextWake as a scan of every
 * slice's in-flight misses (the implementation before the ordered
 * multiset of start and fill cycles).
 */
Cycle
scanBankedWake(const BankedL2 &l2, Cycle now)
{
    Cycle wake = no_wake;
    for (const BankedL2::Miss &m : l2.inflightMisses()) {
        if (m.start > now)
            wake = std::min(wake, m.start);
        if (m.fill > now)
            wake = std::min(wake, m.fill);
    }
    return wake;
}

/** MemorySystem::nextWake over a banked backend, as a scan. */
Cycle
scanSystemWake(const MemorySystem &sys, const BankedL2 &l2,
               Cycle now)
{
    Cycle wake = scanBankedWake(l2, now);
    for (const MemorySystem::Miss &m : sys.inflightMisses())
        wake = std::min(wake, std::max(m.fill, now));
    return wake;
}

/**
 * Both bounds equal their scans exactly on every cycle of random
 * multi-port traffic, including after an invalidate.
 */
TEST(BankedNextWakeProperty, NextWakeEqualsInflightScan)
{
    Rng rng(6);
    for (int round = 0; round < 50; ++round) {
        ChipConfig cfg = randomConfig(rng);
        const unsigned ports = 1 + rng.below(3);
        BankedL2 l2(cfg.l2, cfg.dram, cfg.noc, ports);
        std::vector<std::unique_ptr<MemorySystem>> sms;
        for (unsigned p = 0; p < ports; ++p)
            sms.push_back(
                std::make_unique<MemorySystem>(cfg.mem, l2, p));
        std::vector<Req> reqs = randomStream(
            rng, 60, 2000 + rng.below(2000));

        size_t next = 0;
        const Cycle horizon = reqs.back().when + 3000;
        for (Cycle c = 0; c < horizon; ++c) {
            for (auto &sys : sms)
                sys->tick(c);
            ASSERT_EQ(l2.nextWake(c), scanBankedWake(l2, c))
                << "round " << round << " cycle " << c;
            for (const auto &sys : sms) {
                ASSERT_EQ(sys->nextWake(c),
                          scanSystemWake(*sys, l2, c))
                    << "round " << round << " cycle " << c;
            }
            while (next < reqs.size() && reqs[next].when == c) {
                const Req &r = reqs[next++];
                MemorySystem &sys = *sms[next % ports];
                if (r.is_load)
                    sys.load(c, r.block);
                else
                    sys.store(c, r.block, 128);
            }
            if (c == horizon / 2) {
                l2.invalidate();
                ASSERT_EQ(l2.nextWake(c), no_wake);
            }
        }
    }
}

/**
 * The bound is never late: after arbitrary traffic, neither the
 * L1 MSHR occupancy nor any slice's MSHR occupancy may change on
 * a cycle strictly before nextWake(). The wake chain must make
 * strict progress and drain both levels.
 */
TEST(BankedNextWakeProperty, WakeNeverLaterThanFirstChange)
{
    Rng rng(4);
    for (int round = 0; round < 50; ++round) {
        ChipConfig cfg = randomConfig(rng);
        BankedL2 l2(cfg.l2, cfg.dram, cfg.noc, 1);
        MemorySystem sys(cfg.mem, l2, 0);
        std::vector<Req> reqs = randomStream(rng, 30, 1500);

        Cycle now = 0;
        for (const Req &r : reqs) {
            for (; now <= r.when; ++now)
                sys.tick(now);
            if (r.is_load)
                sys.load(r.when, r.block);
            else
                sys.store(r.when, r.block, 128);
        }

        auto sliceOcc = [&](Cycle c) {
            std::vector<unsigned> occ;
            for (u32 s = 0; s < l2.numSlices(); ++s)
                occ.push_back(l2.sliceMshrOccupancy(s, c));
            return occ;
        };

        Cycle wake = sys.nextWake(now);
        if (wake == no_wake) {
            EXPECT_EQ(sys.mshrOccupancy(now), 0u);
            for (unsigned o : sliceOcc(now))
                EXPECT_EQ(o, 0u);
            continue;
        }
        ASSERT_GE(wake, now);
        unsigned occ = sys.mshrOccupancy(now);
        std::vector<unsigned> slice_occ = sliceOcc(now);
        for (Cycle c = now; c < wake; ++c) {
            sys.tick(c);
            EXPECT_EQ(sys.mshrOccupancy(c), occ)
                << "round " << round << ": L1 state changed at "
                << c << " before the reported wake " << wake;
            EXPECT_EQ(sliceOcc(c), slice_occ)
                << "round " << round
                << ": slice state changed at " << c
                << " before the reported wake " << wake;
        }
        unsigned hops = 0;
        Cycle last = wake;
        while (wake != no_wake) {
            ASSERT_LT(++hops, 10000u) << "wake chain diverges";
            sys.tick(wake);
            last = wake;
            Cycle next_wake = sys.nextWake(wake);
            ASSERT_TRUE(next_wake == no_wake || next_wake > wake)
                << "round " << round << ": wake chain stuck at "
                << wake;
            wake = next_wake;
        }
        EXPECT_EQ(sys.mshrOccupancy(last + 1), 0u)
            << "round " << round
            << ": L1 fills stranded after the wake chain drained";
        for (unsigned o : sliceOcc(last + 1))
            EXPECT_EQ(o, 0u)
                << "round " << round
                << ": slice fills stranded after the wake chain "
                   "drained";
    }
}

} // namespace
} // namespace siwi::mem
