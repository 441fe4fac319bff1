/**
 * @file
 * Statistics and span arithmetic of the benchmark. Kept free of
 * simulator types so the self-test can pin every rule on small
 * hand-checked inputs.
 */

#ifndef PERFBENCH_STATS_HH
#define PERFBENCH_STATS_HH

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/** @p num / @p den, or 0 when the base is empty. */
inline double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

/** Median of @p v (mean of the two middle values when even);
 *  0 when empty. */
double median(std::vector<double> v);

/**
 * Nearest-rank percentile: the smallest sample with at least
 * @p p percent of the samples at or below it. @p v must be
 * non-empty and 0 < p <= 100.
 */
double percentile(std::vector<double> v, double p);

/** Samples ranked strictly above the nearest-rank @p p-th
 *  percentile of @p n samples. */
size_t samplesBeyond(size_t n, double p);

/**
 * The highest of the percentiles 50, 90, 99 and 99.9 that leaves
 * at least ten samples beyond it in @p n samples, or 0 when even
 * the median does not. A tail percentile is only reported as a
 * measurement when this rule admits it.
 */
double highestReportablePercentile(size_t n);

/** One traced interval. parent is an index into the same span
 *  vector, -1 for a root. */
struct Span
{
    std::string name;
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
    int parent = -1;
    uint64_t op = 0; //!< operation the span belongs to
};

/**
 * Self time of every span: its duration minus the part of its
 * interval covered by the union of its direct children (clipped
 * to the parent, overlapping children counted once).
 */
std::vector<uint64_t> selfTimes(const std::vector<Span> &spans);

/** Summed self time and instance count per span name. */
struct LayerTotals
{
    uint64_t self_ns = 0;
    uint64_t count = 0;
};
std::map<std::string, LayerTotals> layerTotals(
    const std::vector<Span> &spans);

} // namespace perfbench

#endif // PERFBENCH_STATS_HH
