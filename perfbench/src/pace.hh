/**
 * @file
 * Pace clock: host time scaled to one fixed host speed.
 *
 * On a shared virtual machine each virtual CPU can speed up and
 * slow down by tens of percent, in steps that last from a tenth of
 * a second to minutes and that other virtual CPUs do not share
 * (README.md has measurements), so repetition inside a run does
 * not remove the drift. The pace clock therefore samples the speed of
 * the very CPU the benchmark runs on while it runs: a timer
 * interrupts the measuring thread every kTickNs and times a fixed
 * reference probe there, independent of the simulator. The time
 * up to the next tick counts at the nominal speed the probe
 * implies: real time × kNominalNs / probe time. Probe time itself
 * is left out.
 *
 * A faster simulator still reads faster, because the probe does
 * not change with it; a slow phase of the host slows both and
 * cancels out. The probe is built with its own fixed flags (see
 * CMakeLists.txt) so that changes to the library's build do not
 * change it.
 */

#ifndef PERFBENCH_PACE_HH
#define PERFBENCH_PACE_HH

#include <cstdint>
#include <vector>

namespace perfbench {

class PaceClock
{
  public:
    /**
     * Nominal time of one probe, ns: about its median on the
     * machine the benchmark was calibrated on (see README.md).
     * Fixed for good; changing it rescales every host-time metric.
     */
    static constexpr double kNominalNs = 40000.0;
    /** Real time between two probes. */
    static constexpr uint64_t kTickNs = 10000000;

    /** Start ticking on the calling thread, which must be the one
     *  that reads the clock. One clock per process at a time.
     *  Throws when the timer cannot be set up. */
    PaceClock();
    /** Stop ticking. */
    ~PaceClock();
    PaceClock(const PaceClock &) = delete;
    PaceClock &operator=(const PaceClock &) = delete;

    /** Nanoseconds of nominal host time since an arbitrary epoch:
     *  real time with probe time left out, scaled by the latest
     *  probe. */
    uint64_t nowNs() const;

    /** Every probe so far (the first 2^16), ns. */
    std::vector<double> probes() const;
};

} // namespace perfbench

#endif // PERFBENCH_PACE_HH
