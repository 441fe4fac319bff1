/**
 * @file
 * Text table rendering for sweep results, shared by siwi-run, the
 * figure reports and the tests.
 */

#ifndef SIWI_RUNNER_TABLE_HH
#define SIWI_RUNNER_TABLE_HH

#include <string>
#include <vector>

#include "runner/results.hh"

namespace siwi::runner {

/**
 * Append printf-style formatted text to @p out (at most 255
 * bytes per call; the table and report lines are far shorter).
 */
void appendf(std::string &out, const char *fmt, ...)
#if defined(__GNUC__) || defined(__clang__)
    __attribute__((format(printf, 2, 3)))
#endif
    ;

/** One table row label plus its exclude-from-means flag. */
struct TableRow
{
    std::string name;
    bool excluded = false;
};

/**
 * Render rows x columns of IPC values, with a trailing Gmean row
 * honoring the paper's TMD-exclusion rule. Columns are parallel to
 * @p col_names; each column holds one value per row. Cells flagged
 * in the optional @p invalid mask (same shape as @p cols) render
 * "T/O" instead of their number — a truncated run has no
 * meaningful IPC — and are dropped from their column's Gmean.
 */
std::string formatIpcTable(
    const std::vector<TableRow> &rows,
    const std::vector<std::string> &col_names,
    const std::vector<std::vector<double>> &cols,
    const std::vector<std::vector<bool>> *invalid = nullptr);

/** Same layout with ratio formatting (speedups, slowdowns). */
std::string formatRatioTable(
    const std::vector<TableRow> &rows,
    const std::vector<std::string> &col_names,
    const std::vector<std::vector<double>> &cols,
    const std::vector<std::vector<bool>> *invalid = nullptr);

/** IPC table of one sweep of @p results (rows = workloads). */
std::string formatSweepTable(const Results &results,
                             const std::string &sweep);

/** Row labels of one sweep, in stored (workload) order. */
std::vector<TableRow> sweepRows(const Results &results,
                                const std::string &sweep);

/**
 * IPC column of one machine within one sweep, in workload order.
 */
std::vector<double> sweepColumn(const Results &results,
                                const std::string &sweep,
                                const std::string &machine);

/**
 * One machine's column with its per-cell timed-out mask — the one
 * filter shared by sweepColumn() and the table renderers, so the
 * mask can never misalign with the values.
 */
struct SweepColumnData
{
    std::vector<double> ipc;
    std::vector<bool> timed_out;
};
SweepColumnData sweepColumnData(const Results &results,
                                const std::string &sweep,
                                const std::string &machine);

/** Machine names of one sweep, in first-appearance order. */
std::vector<std::string> sweepMachines(const Results &results,
                                       const std::string &sweep);

} // namespace siwi::runner

#endif // SIWI_RUNNER_TABLE_HH
