/**
 * @file
 * Shared types of the benchmark's workloads: options, the result
 * report, and the fixed metric catalogues that BENCHMARK.json
 * names (end_to_end for untraced runs, per_layer for traced ones).
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "runner/results.hh"

namespace perfbench {

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string root = ".";     //!< repository checkout
    std::string work_dir = "."; //!< scratch space inside the checkout
};

struct MetricDef
{
    const char *name;
    const char *unit;
};

/** Reported by every untraced run, in this order. */
extern const std::vector<MetricDef> kEndToEnd;
/** Reported by every traced run, in this order. */
extern const std::vector<MetricDef> kPerLayer;

struct Report
{
    bool correct = true;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::map<std::string, double> values;
    /** Sample count behind a value, printed beside it. */
    std::map<std::string, uint64_t> samples;

    void set(const std::string &name, double v, uint64_t n = 0)
    {
        values[name] = v;
        if (n)
            samples[name] = n;
    }
    /** Lines printed as comments before the figures. */
    std::vector<std::string> notes;

    /** Count a failed operation with a diagnostic on stderr. */
    void fail(const std::string &why);
    /** Add a printf-formatted note. */
    void note(const char *fmt, ...) __attribute__((format(printf, 2, 3)));
    /** Note how fast the host ran: the host-pace probes of the run
     *  against their nominal time. */
    void notePace(const std::vector<double> &probes_ns, double nominal_ns);
};

/** fig7_full and chip_banked. */
Report runSimWorkload(const Options &opt);
/** serve_mixed. */
Report runServeWorkload(const Options &opt);
/** Component ns/op figures for the traced run. */
void measureComponents(Report *r);

/**
 * Simulated counts summed over @p cells (one per cell of a pass),
 * with each cell's warp width for the lane-utilisation base.
 */
void reportSimCounts(const std::vector<siwi::runner::CellResult> &cells,
                     const std::vector<unsigned> &warp_width, Report *r);

/** IPC gmean of @p cells with the paper's TMD exclusion. */
double ipcGmean(const std::vector<siwi::runner::CellResult> &cells);

/** Peak resident set of this process, MiB. */
double peakRssMb();

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
