/**
 * @file
 * The serve_mixed request stream: which cells each submission
 * asks for. Pure functions of their arguments, so a seed always
 * yields the same stream (the self-test pins this).
 */

#ifndef PERFBENCH_STREAM_HH
#define PERFBENCH_STREAM_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/**
 * Shape of the cell universe and of the traffic over it. The
 * popularity ranking is part of the workload, fixed for every
 * seed.
 */
struct StreamShape
{
    size_t universe = 0;         //!< distinct cells
    double zipf_s = 1.0;         //!< popularity skew exponent
    size_t max_cells_per_sub = 4; //!< cells per submission: 1..max
};

/**
 * Universe indices ordered by popularity, most popular first: a
 * fixed pseudo-random permutation of [0, universe).
 */
std::vector<size_t> popularityRanking(size_t universe);

/**
 * @p submissions submissions for seed @p seed, each a list of
 * distinct universe indices. How often each cell is requested is
 * fixed: its Zipf(s) share, by popularityRanking() rank, of a
 * total that submission sizes cycling through 1..max give. The
 * seed orders those requests and groups them into submissions, so
 * seeds differ in arrival order, grouping, joins and evictions but
 * not in the mix of work.
 */
std::vector<std::vector<size_t>> makeStream(const StreamShape &shape,
                                            uint64_t seed,
                                            size_t submissions);

/** Fisher-Yates shuffle of [0, n) with seed @p seed. */
std::vector<size_t> shuffledOrder(size_t n, uint64_t seed);

} // namespace perfbench

#endif // PERFBENCH_STREAM_HH
