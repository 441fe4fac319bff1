/**
 * @file
 * SMConfig factory tests against the paper's Table 2.
 */

#include <gtest/gtest.h>

#include <string>

#include "pipeline/config.hh"

namespace siwi::pipeline {
namespace {

TEST(Config, BaselineMatchesTable2)
{
    SMConfig c = SMConfig::make(PipelineMode::Baseline);
    EXPECT_EQ(c.num_warps, 32u);
    EXPECT_EQ(c.warp_width, 32u);
    EXPECT_EQ(c.num_pools, 2u);
    EXPECT_EQ(c.reconv, ReconvMode::Stack);
    EXPECT_EQ(c.schedulerLatency(), 1u);
    EXPECT_EQ(c.delivery_latency, 0u);
    EXPECT_EQ(c.exec_latency, 8u);
    EXPECT_EQ(c.scoreboard_entries, 6u);
    EXPECT_FALSE(c.sbi);
    EXPECT_FALSE(c.swi);
    EXPECT_EQ(c.maxThreads(), 1024u);
}

TEST(Config, SbiMatchesTable2)
{
    SMConfig c = SMConfig::make(PipelineMode::SBI);
    EXPECT_EQ(c.num_warps, 16u);
    EXPECT_EQ(c.warp_width, 64u);
    EXPECT_EQ(c.reconv, ReconvMode::ThreadFrontier);
    EXPECT_TRUE(c.sbi);
    EXPECT_FALSE(c.swi);
    EXPECT_EQ(c.schedulerLatency(), 1u);
    EXPECT_EQ(c.delivery_latency, 1u);
    EXPECT_EQ(c.maxThreads(), 1024u);
}

TEST(Config, SwiMatchesTable2)
{
    SMConfig c = SMConfig::make(PipelineMode::SWI);
    EXPECT_EQ(c.warp_width, 64u);
    EXPECT_TRUE(c.swi);
    EXPECT_FALSE(c.sbi);
    EXPECT_EQ(c.schedulerLatency(), 2u);
    EXPECT_EQ(c.delivery_latency, 1u);
    EXPECT_EQ(c.shuffle, LaneShufflePolicy::XorRev);
}

TEST(Config, SbiSwiCombinesBoth)
{
    SMConfig c = SMConfig::make(PipelineMode::SBISWI);
    EXPECT_TRUE(c.sbi);
    EXPECT_TRUE(c.swi);
    EXPECT_EQ(c.schedulerLatency(), 2u);
}

TEST(Config, InterweavingNeedsOneSchedulerPool)
{
    // SWI on the two-pool baseline (stack reconvergence allows
    // it) and SBI on two-pool Warp64 are rejected, naming the
    // switch and num_pools; with one pool both are machines. (The
    // five paper machines pass: SMConfig::make validates.)
    SMConfig swi = SMConfig::make(PipelineMode::Baseline);
    swi.swi = true;
    SMConfig sbi = SMConfig::make(PipelineMode::Warp64);
    sbi.sbi = true;
    for (SMConfig *c : {&swi, &sbi}) {
        std::string err = c->checkInvariants();
        EXPECT_NE(err.find(c->swi ? "swi" : "sbi"), std::string::npos)
            << err;
        EXPECT_NE(err.find("num_pools"), std::string::npos) << err;
        c->num_pools = 1;
        EXPECT_EQ(c->checkInvariants(), "");
    }
}

TEST(Config, MemoryDefaultsMatchTable2)
{
    SMConfig c = SMConfig::make(PipelineMode::Baseline);
    EXPECT_EQ(c.mem.l1.size_bytes, 48u * 1024);
    EXPECT_EQ(c.mem.l1.ways, 6u);
    EXPECT_EQ(c.mem.l1.block_bytes, 128u);
    EXPECT_EQ(c.mem.l1.hit_latency, 3u);
}

TEST(Config, ExecGeometryPreservesLaneBudget)
{
    // All configurations keep 64 MAD lanes + 8 SFU + 32 LSU.
    for (PipelineMode m :
         {PipelineMode::Baseline, PipelineMode::Warp64,
          PipelineMode::SBI, PipelineMode::SWI,
          PipelineMode::SBISWI}) {
        SMConfig c = SMConfig::make(m);
        EXPECT_EQ(c.mad_groups * c.mad_width, 64u);
        EXPECT_EQ(c.sfu_width, 8u);
        EXPECT_EQ(c.lsu_width, 32u);
    }
}

TEST(Config, SummaryMentionsMode)
{
    // A config carries no machine name: the summary describes the
    // machine by its switches, SWI's two-cycle scheduler included.
    SMConfig c = SMConfig::make(PipelineMode::SBISWI);
    std::string s = c.summary();
    EXPECT_NE(s.find("SBI:                on"), std::string::npos);
    EXPECT_NE(s.find("SWI:                on"), std::string::npos);
    EXPECT_NE(s.find("scheduler latency:  2"), std::string::npos);
    EXPECT_NE(s.find("thread frontier"), std::string::npos);
}

TEST(Config, ModeNames)
{
    EXPECT_STREQ(pipelineModeName(PipelineMode::Baseline),
                 "Baseline");
    EXPECT_STREQ(pipelineModeName(PipelineMode::SBISWI), "SBI+SWI");
    EXPECT_STREQ(laneShuffleName(LaneShufflePolicy::XorRev),
                 "XorRev");
}

TEST(Config, StackModeDisablesMemorySplits)
{
    SMConfig c = SMConfig::make(PipelineMode::Baseline);
    EXPECT_FALSE(c.split_on_memory_divergence);
    c = SMConfig::make(PipelineMode::SBI);
    EXPECT_TRUE(c.split_on_memory_divergence);
}

} // namespace
} // namespace siwi::pipeline
