/**
 * @file
 * Figure reports: the paper-reference lines and derived numbers
 * (speedups, ratios, efficiencies) each figure of the evaluation
 * reads off its IPC tables.
 *
 * A report is chosen by the sweep names a result set holds — a
 * run of bench/specs/fig9.json carries "fig9_regular" and
 * "fig9_irregular", so siwi-run prints the fig9 report after its
 * tables — never by a flag. Every number a report prints is
 * derived from the Results alone.
 */

#ifndef SIWI_RUNNER_REPORTS_HH
#define SIWI_RUNNER_REPORTS_HH

#include <string>

#include "runner/results.hh"

namespace siwi::runner {

/**
 * The text of every figure report whose sweeps appear in
 * @p results, each under a "=== <figure> report ===" header.
 * A report whose reference column (Baseline, Identity, the 1-SM
 * chip, ...) was filtered out of all its sweeps is skipped.
 * Empty when no report applies.
 */
std::string formatReports(const Results &results);

/**
 * gmean(@p machine) / gmean(@p ref) IPC over the rows of
 * @p sweep, TMD excluded (the paper's speedup summary). 0 when
 * either column is absent or has a zero mean.
 */
double gmeanRatio(const Results &results, const std::string &sweep,
                  const std::string &machine,
                  const std::string &ref);

} // namespace siwi::runner

#endif // SIWI_RUNNER_REPORTS_HH
