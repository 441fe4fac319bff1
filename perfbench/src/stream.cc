#include "stream.hh"

#include <algorithm>
#include <cmath>

#include "common/rng.hh"

namespace perfbench {

namespace {
/** Seed of the popularity ranking: a constant of the workload. */
constexpr uint64_t kRankingSeed = 0x51b0a7e5ull;
} // namespace

std::vector<size_t>
shuffledOrder(size_t n, uint64_t seed)
{
    std::vector<size_t> v(n);
    for (size_t i = 0; i < n; ++i)
        v[i] = i;
    siwi::Rng rng(seed);
    for (size_t i = n; i > 1; --i)
        std::swap(v[i - 1], v[rng.below(i)]);
    return v;
}

std::vector<size_t>
popularityRanking(size_t universe)
{
    return shuffledOrder(universe, kRankingSeed);
}

std::vector<std::vector<size_t>>
makeStream(const StreamShape &shape, uint64_t seed, size_t submissions)
{
    // Submission sizes cycle through 1..max, so the cell total is
    // the same for every seed; the seed shuffles them.
    std::vector<size_t> sizes(submissions);
    size_t total = 0;
    for (size_t j = 0; j < submissions; ++j) {
        sizes[j] = 1 + j % shape.max_cells_per_sub;
        total += sizes[j];
    }

    // Requests per cell: the Zipf share of the total, rounded by
    // largest remainder so the counts sum to it exactly.
    const std::vector<size_t> ranking = popularityRanking(shape.universe);
    std::vector<double> share(shape.universe);
    double sum = 0.0;
    for (size_t r = 0; r < shape.universe; ++r) {
        share[r] = 1.0 / std::pow(double(r + 1), shape.zipf_s);
        sum += share[r];
    }
    std::vector<size_t> count(shape.universe);
    std::vector<std::pair<double, size_t>> remainder;
    size_t assigned = 0;
    for (size_t r = 0; r < shape.universe; ++r) {
        const double exact = share[r] / sum * double(total);
        count[r] = std::min(size_t(exact), submissions);
        assigned += count[r];
        remainder.emplace_back(exact - double(count[r]), r);
    }
    std::stable_sort(remainder.begin(), remainder.end(),
                     [](const auto &a, const auto &b) {
                         return a.first > b.first;
                     });
    for (size_t i = 0; assigned < total && i < remainder.size(); ++i) {
        ++count[remainder[i].second];
        ++assigned;
    }

    std::vector<size_t> pool;
    for (size_t r = 0; r < shape.universe; ++r)
        pool.insert(pool.end(), count[r], ranking[r]);

    siwi::Rng rng(seed);
    for (size_t i = pool.size(); i > 1; --i)
        std::swap(pool[i - 1], pool[rng.below(i)]);
    for (size_t i = sizes.size(); i > 1; --i)
        std::swap(sizes[i - 1], sizes[rng.below(i)]);

    // Deal the shuffled requests out in order; a cell already in the
    // submission swaps with the next one that is not.
    std::vector<std::vector<size_t>> out(submissions);
    size_t pos = 0;
    for (size_t j = 0; j < submissions; ++j) {
        std::vector<size_t> &sub = out[j];
        while (sub.size() < sizes[j]) {
            size_t q = pos;
            while (q < pool.size() &&
                   std::find(sub.begin(), sub.end(), pool[q]) != sub.end())
                ++q;
            if (q == pool.size())
                break;
            std::swap(pool[pos], pool[q]);
            sub.push_back(pool[pos++]);
        }
    }
    return out;
}

} // namespace perfbench
