/**
 * @file
 * Test fixture: the checked-in experiment specs
 * (bench/specs/<name>.json), loaded the way siwi-run --suite /
 * --figure loads them, optionally resized for unit-test speed.
 */

#ifndef SIWI_TESTS_BENCH_SPEC_HH
#define SIWI_TESTS_BENCH_SPEC_HH

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "runner/spec.hh"

namespace siwi::test {

/** Path of bench/specs/<file> in the source tree. */
inline std::string
benchSpecPath(const std::string &file)
{
    return std::string(SIWI_SOURCE_DIR) + "/bench/specs/" + file;
}

/**
 * The sweeps of bench/specs/<name>.json, every sweep's size
 * overridden by @p size when given. A load failure fails the
 * calling test and returns no sweeps.
 */
inline std::vector<runner::SweepSpec>
benchSpec(const std::string &name,
          std::optional<workloads::SizeClass> size = std::nullopt)
{
    runner::MachineRegistry reg;
    std::vector<runner::SweepSpec> sweeps;
    std::string label, err;
    if (!runner::loadSpecFile(benchSpecPath(name + ".json"), &reg,
                              &sweeps, &label, &err)) {
        ADD_FAILURE() << err;
        return {};
    }
    for (runner::SweepSpec &s : sweeps) {
        if (size)
            s.size = *size;
    }
    return sweeps;
}

} // namespace siwi::test

#endif // SIWI_TESTS_BENCH_SPEC_HH
