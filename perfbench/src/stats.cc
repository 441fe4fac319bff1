#include "stats.hh"

#include <algorithm>
#include <cmath>
#include <utility>

namespace perfbench {

namespace {

/** 1-based nearest rank of percentile @p p among @p n samples, in
 *  integer tenths of a percent so 99 of 1000 is exactly 990. */
size_t
nearestRank(size_t n, double p)
{
    const uint64_t tenths = uint64_t(std::llround(p * 10.0));
    const uint64_t rank = (tenths * n + 999) / 1000;
    return size_t(std::clamp<uint64_t>(rank, 1, n));
}

} // namespace

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t h = v.size() / 2;
    return v.size() % 2 ? v[h] : (v[h - 1] + v[h]) / 2.0;
}

double
percentile(std::vector<double> v, double p)
{
    std::sort(v.begin(), v.end());
    return v[nearestRank(v.size(), p) - 1];
}

size_t
samplesBeyond(size_t n, double p)
{
    return n ? n - nearestRank(n, p) : 0;
}

double
highestReportablePercentile(size_t n)
{
    for (double p : {99.9, 99.0, 90.0, 50.0}) {
        if (samplesBeyond(n, p) >= 10)
            return p;
    }
    return 0.0;
}

std::vector<uint64_t>
selfTimes(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::pair<uint64_t, uint64_t>>> kids(
        spans.size());
    for (const Span &s : spans) {
        if (s.parent >= 0 && size_t(s.parent) < spans.size())
            kids[size_t(s.parent)].emplace_back(s.start_ns, s.end_ns);
    }
    std::vector<uint64_t> out(spans.size());
    for (size_t i = 0; i < spans.size(); ++i) {
        const uint64_t lo = spans[i].start_ns;
        const uint64_t hi = std::max(lo, spans[i].end_ns);
        auto &iv = kids[i];
        std::sort(iv.begin(), iv.end());
        uint64_t covered = 0, cur_lo = 0, cur_hi = 0;
        bool open = false;
        for (auto [a, b] : iv) {
            a = std::clamp(a, lo, hi);
            b = std::clamp(b, lo, hi);
            if (open && a <= cur_hi) {
                cur_hi = std::max(cur_hi, b);
                continue;
            }
            if (open)
                covered += cur_hi - cur_lo;
            cur_lo = a;
            cur_hi = b;
            open = true;
        }
        if (open)
            covered += cur_hi - cur_lo;
        out[i] = (hi - lo) - covered;
    }
    return out;
}

std::map<std::string, LayerTotals>
layerTotals(const std::vector<Span> &spans)
{
    const std::vector<uint64_t> self = selfTimes(spans);
    std::map<std::string, LayerTotals> out;
    for (size_t i = 0; i < spans.size(); ++i) {
        LayerTotals &t = out[spans[i].name];
        t.self_ns += self[i];
        ++t.count;
    }
    return out;
}

} // namespace perfbench
