/**
 * @file
 * Unit tests for the SchedPolicy orderings, against a scripted
 * candidate table: selection order, cursor/greedy state, and the
 * policy names.
 */

#include <gtest/gtest.h>

#include <map>
#include <utility>

#include "frontend/sched_policy.hh"

using namespace siwi;
using namespace siwi::frontend;

namespace {

/**
 * A candidate source whose readiness / age / PC is a scripted
 * table, so policy selection can be tested in isolation from the
 * pipeline. It answers the two queries select() makes.
 */
struct Table
{
    struct Slot
    {
        bool ready = false;
        u64 seq = 0;
        Pc pc = 0;
    };

    Slot &slot(WarpId w, unsigned s) { return slots[{w, s}]; }

    bool ready(WarpId w, unsigned s, bool) const
    {
        auto it = slots.find({w, s});
        return it != slots.end() && it->second.ready;
    }

    const Slot *entryFor(WarpId w, unsigned s) const
    {
        return &slots.at({w, s});
    }

    std::map<std::pair<WarpId, unsigned>, Slot> slots;
};

std::vector<Cand>
domain(unsigned warps)
{
    std::vector<Cand> d;
    for (WarpId w = 0; w < warps; ++w)
        d.push_back({w, 0});
    return d;
}

TEST(SchedPolicyRegistry, NamesRoundTrip)
{
    EXPECT_EQ(allSchedPolicies().size(), 4u);
    for (SchedPolicyKind k : allSchedPolicies()) {
        SchedPolicyKind back;
        ASSERT_TRUE(parseSchedPolicy(schedPolicyName(k), &back));
        EXPECT_EQ(back, k);
    }
    SchedPolicyKind k;
    EXPECT_FALSE(parseSchedPolicy("nope", &k));
    EXPECT_STREQ(schedPolicyName(SchedPolicyKind::OldestFirst),
                 "oldest");
}

TEST(SchedPolicy, OldestFirstPicksMinimumSeq)
{
    Table t;
    SchedPolicy p(SchedPolicyKind::OldestFirst, 4);
    t.slot(1, 0) = {true, 30, 5};
    t.slot(2, 0) = {true, 10, 9};
    t.slot(3, 0) = {true, 20, 1};
    auto c = p.select(t, domain(4), true);
    ASSERT_TRUE(c.has_value());
    EXPECT_EQ(c->w, 2u);

    t.slot(2, 0).ready = false;
    c = p.select(t, domain(4), true);
    ASSERT_TRUE(c.has_value());
    EXPECT_EQ(c->w, 3u);

    for (WarpId w = 0; w < 4; ++w)
        t.slot(w, 0).ready = false;
    EXPECT_FALSE(p.select(t, domain(4), true).has_value());
}

TEST(SchedPolicy, RoundRobinAdvancesPastIssuedWarp)
{
    Table t;
    SchedPolicy p(SchedPolicyKind::RoundRobin, 4);
    for (WarpId w = 0; w < 4; ++w)
        t.slot(w, 0) = {true, u64(100 - w), 0}; // ages decorrelated

    auto c = p.select(t, domain(4), true);
    ASSERT_TRUE(c);
    EXPECT_EQ(c->w, 0u); // cursor starts at warp 0
    p.notifyIssued(*c);

    c = p.select(t, domain(4), true);
    ASSERT_TRUE(c);
    EXPECT_EQ(c->w, 1u); // cursor moved past warp 0
    p.notifyIssued(*c);

    t.slot(2, 0).ready = false; // loose: skip stalled warp
    c = p.select(t, domain(4), true);
    ASSERT_TRUE(c);
    EXPECT_EQ(c->w, 3u);
    p.notifyIssued(*c);

    c = p.select(t, domain(4), true); // wraps to warp 0
    ASSERT_TRUE(c);
    EXPECT_EQ(c->w, 0u);
}

TEST(SchedPolicy, GtoSticksWithLastWarpThenOldest)
{
    Table t;
    SchedPolicy p(SchedPolicyKind::GreedyThenOldest, 4);
    t.slot(0, 0) = {true, 50, 0};
    t.slot(2, 0) = {true, 10, 0};

    // No last warp yet: oldest (warp 2) wins.
    auto c = p.select(t, domain(4), true);
    ASSERT_TRUE(c);
    EXPECT_EQ(c->w, 2u);
    p.notifyIssued(*c);

    // Warp 2 still ready: greedy keeps it even when another warp
    // holds the older instruction now.
    t.slot(0, 0).seq = 1;
    c = p.select(t, domain(4), true);
    ASSERT_TRUE(c);
    EXPECT_EQ(c->w, 2u);
    p.notifyIssued(*c);

    // Last warp dries up: fall back to oldest.
    t.slot(2, 0).ready = false;
    c = p.select(t, domain(4), true);
    ASSERT_TRUE(c);
    EXPECT_EQ(c->w, 0u);
}

TEST(SchedPolicy, MinPcPrefersTrailingPcWithAgeTieBreak)
{
    Table t;
    SchedPolicy p(SchedPolicyKind::MinPc, 4);
    t.slot(0, 0) = {true, 5, 40};
    t.slot(1, 0) = {true, 9, 12};
    t.slot(2, 0) = {true, 3, 12};
    t.slot(3, 0) = {true, 1, 90};

    auto c = p.select(t, domain(4), true);
    ASSERT_TRUE(c);
    EXPECT_EQ(c->w, 2u); // pc 12, and older than warp 1
}

} // namespace
