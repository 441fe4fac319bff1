/**
 * @file
 * Tests for the figure reports siwi-run prints after its tables:
 * selection by sweep name, the shared gmean-ratio helper, and
 * skipping (never aborting) when a report's reference column was
 * filtered out of the run.
 */

#include <gtest/gtest.h>

#include "../bench_spec.hh"
#include "common/log.hh"
#include "runner/experiment_runner.hh"
#include "runner/reports.hh"

using namespace siwi;
using namespace siwi::runner;
using workloads::SizeClass;

namespace {

CellResult
cell(const std::string &sweep, const std::string &machine,
     const std::string &workload, double ipc, bool excluded = false)
{
    CellResult c;
    c.sweep = sweep;
    c.machine = machine;
    c.workload = workload;
    c.verified = true;
    c.ipc = ipc;
    c.excluded_from_means = excluded;
    return c;
}

TEST(Reports, GmeanRatioExcludesTmdRowsAndMissingColumns)
{
    Results r;
    r.cells = {
        cell("s", "Baseline", "A", 1.0),
        cell("s", "SBI", "A", 2.0),
        cell("s", "Baseline", "B", 4.0),
        cell("s", "SBI", "B", 8.0),
        cell("s", "Baseline", "TMD", 1.0, true),
        cell("s", "SBI", "TMD", 100.0, true),
    };
    EXPECT_DOUBLE_EQ(gmeanRatio(r, "s", "SBI", "Baseline"), 2.0);
    EXPECT_EQ(gmeanRatio(r, "s", "SWI", "Baseline"), 0.0);
    EXPECT_EQ(gmeanRatio(r, "s", "SBI", "NoSuchRef"), 0.0);
}

TEST(Reports, ChosenBySweepName)
{
    Results r;
    r.cells = {
        cell("fig7_regular", "Baseline", "A", 1.0),
        cell("fig7_regular", "SBI", "A", 1.5),
    };
    std::string text = formatReports(r);
    EXPECT_NE(text.find("=== fig7 report ==="), std::string::npos);
    EXPECT_NE(text.find("+50.0%"), std::string::npos) << text;
    EXPECT_EQ(text.find("fig9"), std::string::npos);

    // The same columns under a sweep no report reads.
    for (CellResult &c : r.cells)
        c.sweep = "custom";
    EXPECT_EQ(formatReports(r), "");
}

TEST(Reports, SkippedWhenTheReferenceColumnIsFilteredOut)
{
    setLogQuiet(true);
    // siwi-run --figure fig9 --machine SWI-3way: neither the
    // Baseline nor the SWI-full reference survives the filter.
    std::vector<SweepSpec> sweeps =
        test::benchSpec("fig9", SizeClass::Tiny);
    ASSERT_EQ(sweeps.size(), 2u);
    for (SweepSpec &s : sweeps) {
        s.filterMachines({"SWI-3way"});
        s.filterWorkloads({"BFS", "MatrixMul"});
    }
    RunOptions opts;
    opts.jobs = 2;
    Results res = runSweeps(sweeps, opts);
    ASSERT_FALSE(res.cells.empty());
    EXPECT_EQ(formatReports(res), "");

    // With its references present the same run reports.
    sweeps = test::benchSpec("fig9", SizeClass::Tiny);
    for (SweepSpec &s : sweeps) {
        s.filterMachines({"Baseline", "SWI-full", "SWI-3way"});
        s.filterWorkloads({"BFS", "MatrixMul"});
    }
    std::string text = formatReports(runSweeps(sweeps, opts));
    EXPECT_NE(text.find("=== fig9 report ==="), std::string::npos);
    EXPECT_NE(text.find("slowdown vs fully-associative"),
              std::string::npos)
        << text;
}

} // namespace
