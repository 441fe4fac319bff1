/**
 * @file
 * Self-test of the benchmark's statistics code: the percentile
 * rule, span self-time arithmetic, the seed determinism of the
 * serve_mixed request stream and the pace clock's bookkeeping.
 * Exit 0 when every check holds.
 * (The quartile spread used for bounds is Python; see
 * tests/test_spread.py.)
 */

#include <cstdio>

#include "pace.hh"
#include "stats.hh"
#include "stream.hh"
#include "trace.hh"

namespace {

int g_failures = 0;

void
check(bool ok, const char *what, int line)
{
    if (!ok) {
        ++g_failures;
        std::fprintf(stderr, "selftest.cc:%d: FAILED: %s\n", line, what);
    }
}

#define CHECK(cond) check((cond), #cond, __LINE__)

std::vector<double>
oneTo(size_t n)
{
    std::vector<double> v;
    for (size_t i = n; i >= 1; --i) // descending: percentile must sort
        v.push_back(double(i));
    return v;
}

void
testPercentileRule()
{
    using namespace perfbench;
    CHECK(median({3, 1, 2}) == 2);
    CHECK(median({4, 1, 3, 2}) == 2.5);
    CHECK(median({}) == 0);

    // Nearest rank: p50 of 1..10 is 5, p90 of 1..100 is 90, p99 of
    // 1..1000 is 990 (exact in integer tenths, no 989.99 rounding).
    CHECK(percentile(oneTo(10), 50) == 5);
    CHECK(percentile(oneTo(100), 90) == 90);
    CHECK(percentile(oneTo(1000), 99) == 990);
    CHECK(percentile(oneTo(1), 99) == 1);
    CHECK(percentile(oneTo(7), 100) == 7);

    CHECK(samplesBeyond(100, 90) == 10);
    CHECK(samplesBeyond(99, 90) == 9);
    CHECK(samplesBeyond(1000, 99) == 10);
    CHECK(samplesBeyond(0, 50) == 0);

    // Highest percentile with at least ten samples beyond it.
    CHECK(highestReportablePercentile(19) == 0);
    CHECK(highestReportablePercentile(20) == 50);
    CHECK(highestReportablePercentile(99) == 50);
    CHECK(highestReportablePercentile(100) == 90);
    CHECK(highestReportablePercentile(999) == 90);
    CHECK(highestReportablePercentile(1000) == 99);
    CHECK(highestReportablePercentile(10000) == 99.9);
}

void
testSelfTime()
{
    using namespace perfbench;
    // op [0,100) with children a [10,30), b [20,50) overlapping,
    // c [90,120) running past the parent; a has grandchild [12,15).
    std::vector<Span> s = {
        {"op", 0, 100, -1, 1},  {"a", 10, 30, 0, 1}, {"b", 20, 50, 0, 1},
        {"c", 90, 120, 0, 1},   {"g", 12, 15, 1, 1},
    };
    const std::vector<uint64_t> self = selfTimes(s);
    CHECK(self[0] == 100 - (50 - 10) - (100 - 90)); // union, clipped
    CHECK(self[1] == 20 - 3);
    CHECK(self[2] == 30);
    CHECK(self[3] == 30);
    CHECK(self[4] == 3);

    const auto totals = layerTotals(s);
    CHECK(totals.at("op").self_ns == 50);
    CHECK(totals.at("a").count == 1);

    // Two roots of one name sum; a child exactly covering its
    // parent leaves it zero self time.
    std::vector<Span> t = {{"x", 0, 10, -1, 1}, {"y", 0, 10, 0, 1},
                           {"x", 20, 25, -1, 2}};
    const auto tt = layerTotals(t);
    CHECK(tt.at("x").self_ns == 5);
    CHECK(tt.at("x").count == 2);
    CHECK(tt.at("y").self_ns == 10);
}

void
testStreamDeterminism()
{
    using namespace perfbench;
    StreamShape shape;
    shape.universe = 1260;
    const auto a = makeStream(shape, 42, 1000);
    const auto b = makeStream(shape, 42, 1000);
    const auto c = makeStream(shape, 43, 1000);
    CHECK(a == b);
    CHECK(a != c);
    CHECK(a.size() == 1000);

    size_t cells = 0;
    bool sound = true;
    for (const auto &sub : a) {
        cells += sub.size();
        sound &= !sub.empty() && sub.size() <= shape.max_cells_per_sub;
        for (size_t i = 0; i < sub.size(); ++i) {
            sound &= sub[i] < shape.universe;
            for (size_t j = 0; j < i; ++j)
                sound &= sub[i] != sub[j];
        }
    }
    CHECK(sound);
    CHECK(cells == 2500); // sizes cycle 1..4 over 1000 submissions

    // Every seed asks for the same multiset of cells.
    auto histogram = [](const std::vector<std::vector<size_t>> &s) {
        std::vector<size_t> h(1260);
        for (const auto &sub : s)
            for (size_t cell : sub)
                ++h[cell];
        return h;
    };
    CHECK(histogram(a) == histogram(c));

    // Skew: the most popular cell is drawn far more often than a
    // cell from the tail of the ranking.
    const std::vector<size_t> rank = popularityRanking(shape.universe);
    CHECK(rank == popularityRanking(shape.universe));
    size_t top = 0, tail = 0;
    for (const auto &sub : a) {
        for (size_t cell : sub) {
            top += cell == rank[0];
            tail += cell == rank[shape.universe - 1];
        }
    }
    CHECK(top > 10 * (tail + 1));

    CHECK(shuffledOrder(50, 7) == shuffledOrder(50, 7));
    CHECK(shuffledOrder(50, 7) != shuffledOrder(50, 8));
}

/** The pace clock ticks while the thread works, never runs
 *  backwards, and books the work at the probes' pace. */
void
testPaceClock()
{
    using namespace perfbench;
    PaceClock pace;
    const uint64_t real0 = nowNs(), nominal0 = pace.nowNs();
    uint64_t last = nominal0, x = 1;
    bool monotone = true;
    while (nowNs() - real0 < 20 * PaceClock::kTickNs) {
        for (int i = 0; i < 10000; ++i)
            x = x * 6364136223846793005ULL + 1;
        const uint64_t now = pace.nowNs();
        monotone &= now >= last;
        last = now;
    }
    const double real = double(nowNs() - real0);
    const double nominal = double(last - nominal0);
    const std::vector<double> probes = pace.probes();
    CHECK(x != 0);
    CHECK(monotone);
    CHECK(probes.size() >= 10);
    // Probe time is left out and the rest scaled by kNominalNs over
    // the probes: within a wide factor of the median probe's pace.
    const double expect = real * PaceClock::kNominalNs / median(probes);
    CHECK(nominal > 0.5 * expect && nominal < 2.0 * expect);
}

} // namespace

int
main()
{
    testPercentileRule();
    testSelfTime();
    testStreamDeterminism();
    testPaceClock();
    if (g_failures) {
        std::fprintf(stderr, "perfbench selftest: %d check(s) failed\n",
                     g_failures);
        return 1;
    }
    std::printf("perfbench selftest: all checks passed\n");
    return 0;
}
