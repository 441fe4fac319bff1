/**
 * @file
 * Summary metrics shared by the tables, the figure reports and
 * the CI regression gate.
 */

#ifndef SIWI_RUNNER_METRICS_HH
#define SIWI_RUNNER_METRICS_HH

#include <vector>

namespace siwi::runner {

/**
 * Geometric mean of @p v.
 *
 * Edge cases are explicit rather than falling out of log()/exp():
 *  - empty vector: no data, returns 0.0;
 *  - any value <= 0 (a failed or zero-IPC cell): the geometric
 *    mean is not meaningful, returns 0.0 instead of -inf/NaN
 *    artifacts.
 */
double geomean(const std::vector<double> &v);

/**
 * Filter @p values down to the entries whose matching flag in
 * @p excluded is false — the paper's "TMD excluded from means"
 * rule (section 5.1), applied to any per-workload column. The two
 * vectors must be the same length.
 */
std::vector<double> excludeFromMeans(
    const std::vector<double> &values,
    const std::vector<bool> &excluded);

} // namespace siwi::runner

#endif // SIWI_RUNNER_METRICS_HH
