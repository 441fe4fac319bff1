/**
 * @file
 * Golden spec-file test: the checked-in bench/specs/fast.json —
 * the grid the CI regression gate runs — must produce one JSON
 * document at one worker and at eight, with event-driven cycle
 * skipping on and off, and that document must match the committed
 * bench/baseline.json at tolerance 0. This is the baseline gate
 * itself, run as a unit test over the whole spec -> expand -> run
 * -> serialize pipeline.
 */

#include <gtest/gtest.h>

#include "../bench_spec.hh"
#include "common/log.hh"
#include "runner/runner.hh"

using namespace siwi;
using namespace siwi::runner;

namespace {

TEST(SpecGolden, FastSpecMatchesCommittedBaselineInBothSteppingModes)
{
    setLogQuiet(true);
    const std::vector<SweepSpec> sweeps = test::benchSpec("fast");
    ASSERT_FALSE(sweeps.empty());

    Results base;
    std::string err;
    ASSERT_TRUE(Results::load(std::string(SIWI_SOURCE_DIR) +
                                  "/bench/baseline.json",
                              &base, &err))
        << err;

    std::string first;
    for (bool cycle_skip : {true, false}) {
        for (unsigned jobs : {1u, 8u}) {
            SCOPED_TRACE("jobs=" + std::to_string(jobs) +
                         " cycle_skip=" + std::to_string(cycle_skip));
            RunOptions opts;
            opts.jobs = jobs;
            opts.suite_label = "fast";
            opts.cycle_skip = cycle_skip;
            Results res = runSweeps(sweeps, opts);
            std::string json = res.toJsonText();
            if (first.empty())
                first = json;
            EXPECT_EQ(json, first);
            CompareReport rep = compareResults(base, res, 0.0);
            EXPECT_TRUE(rep.pass()) << rep.format();
        }
    }
}

} // namespace
