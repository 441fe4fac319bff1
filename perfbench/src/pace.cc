#include "pace.hh"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <ctime>
#include <stdexcept>
#include <unistd.h>

namespace perfbench {

namespace {

/** 256 KiB of links: larger than L1, inside a core's L2. */
constexpr uint32_t kRingSize = 1u << 16;
/** Steps of one chunk; the fastest of kChunks chunks is a probe. */
constexpr int kChunkSteps = 2500;
constexpr int kChunks = 2;
constexpr size_t kMaxProbes = size_t(1) << 16;
const int kSignal = SIGRTMIN + 3;

/** Everything the tick handler touches: static, so the handler
 *  never allocates. */
struct State
{
    uint32_t ring[kRingSize]; //!< one random cycle through every slot
    uint32_t pos = 0;
    uint64_t sink = 0;
    /** Odd while the handler updates the fields below. */
    std::atomic<unsigned> seq{0};
    double nominal_ns = 0; //!< nominal time up to last_end
    uint64_t last_end = 0; //!< real time the latest probe ended
    double scale = 1.0;    //!< kNominalNs / latest probe
    double probes[kMaxProbes];
    size_t n_probes = 0;
    timer_t timer{};
    bool running = false;
};
State g;

uint64_t
realNs()
{
    timespec ts;
    ::clock_gettime(CLOCK_MONOTONIC, &ts);
    return uint64_t(ts.tv_sec) * 1000000000u + uint64_t(ts.tv_nsec);
}

uint64_t
splitmix(uint64_t *s)
{
    uint64_t z = (*s += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** The reference work, like the simulator's own host code: loads
 *  that depend on the previous one from a table in L2, data-
 *  dependent branches and integer arithmetic. A linear sweep first
 *  brings the whole table back into the cache, so the probe does
 *  not depend on how much of it the simulator evicted since the
 *  last one; the fastest chunk counts. */
uint64_t
probe()
{
    uint64_t warm = 0;
    for (uint32_t i = 0; i < kRingSize; i += 16)
        warm += g.ring[i];
    g.sink += warm;
    uint64_t best = ~uint64_t(0);
    for (int c = 0; c < kChunks; ++c) {
        const uint64_t t0 = realNs();
        uint32_t p = g.pos;
        uint64_t acc = g.sink, x = g.sink | 1;
        for (int i = 0; i < kChunkSteps; ++i) {
            p = g.ring[p];
            switch (p & 3) {
            case 0:
                acc += p;
                break;
            case 1:
                acc ^= uint64_t(p) << 7;
                break;
            case 2:
                acc = acc * 31 + p;
                break;
            default:
                acc -= p >> 2;
                break;
            }
            x = x * 6364136223846793005ULL + 1442695040888963407ULL;
            if (x >> 63)
                acc += x >> 41;
        }
        g.pos = p;
        g.sink = acc;
        best = std::min(best, realNs() - t0);
    }
    return best;
}

/** Book the time since the previous probe at that probe's pace,
 *  then probe again. */
void
onTick(int)
{
    const int saved_errno = errno;
    g.seq.fetch_add(1, std::memory_order_relaxed);
    std::atomic_signal_fence(std::memory_order_seq_cst);
    g.nominal_ns += double(realNs() - g.last_end) * g.scale;
    const uint64_t p = probe();
    g.scale = PaceClock::kNominalNs / double(p);
    if (g.n_probes < kMaxProbes)
        g.probes[g.n_probes++] = double(p);
    g.last_end = realNs();
    std::atomic_signal_fence(std::memory_order_seq_cst);
    g.seq.fetch_add(1, std::memory_order_relaxed);
    errno = saved_errno;
}

} // namespace

PaceClock::PaceClock()
{
    if (g.running)
        throw std::logic_error("only one PaceClock at a time");
    // Sattolo's algorithm: a single cycle, so the chase never
    // settles into a short loop.
    for (uint32_t i = 0; i < kRingSize; ++i)
        g.ring[i] = i;
    uint64_t s = 0x5eed;
    for (uint32_t i = kRingSize - 1; i > 0; --i)
        std::swap(g.ring[i], g.ring[splitmix(&s) % i]);
    g.nominal_ns = 0;
    g.n_probes = 0;
    g.scale = kNominalNs / double(probe());
    g.last_end = realNs();

    struct sigaction sa{};
    sa.sa_handler = onTick;
    sa.sa_flags = SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigevent sev{};
    sev.sigev_notify = SIGEV_THREAD_ID;
    sev.sigev_signo = kSignal;
    sev._sigev_un._tid = ::gettid(); // sigev_notify_thread_id in newer libcs
    const itimerspec every{{0, long(kTickNs)}, {0, long(kTickNs)}};
    if (::sigaction(kSignal, &sa, nullptr) != 0)
        throw std::runtime_error("pace clock: sigaction failed");
    if (::timer_create(CLOCK_MONOTONIC, &sev, &g.timer) != 0)
        throw std::runtime_error("pace clock: timer_create failed");
    if (::timer_settime(g.timer, 0, &every, nullptr) != 0) {
        ::timer_delete(g.timer);
        throw std::runtime_error("pace clock: timer_settime failed");
    }
    g.running = true;
}

PaceClock::~PaceClock()
{
    ::timer_delete(g.timer);
    // Ignored, not reset to the default (which ends the process), in
    // case a last tick is still pending.
    ::signal(kSignal, SIG_IGN);
    g.running = false;
}

uint64_t
PaceClock::nowNs() const
{
    // The handler runs on this thread, so it either finished before
    // the reads or interrupted them and changed seq.
    for (;;) {
        const unsigned s = g.seq.load(std::memory_order_relaxed);
        std::atomic_signal_fence(std::memory_order_seq_cst);
        const double v =
            g.nominal_ns + double(realNs() - g.last_end) * g.scale;
        std::atomic_signal_fence(std::memory_order_seq_cst);
        if (s % 2 == 0 && s == g.seq.load(std::memory_order_relaxed))
            return uint64_t(v);
    }
}

std::vector<double>
PaceClock::probes() const
{
    std::vector<double> out;
    for (;;) {
        const unsigned s = g.seq.load(std::memory_order_relaxed);
        std::atomic_signal_fence(std::memory_order_seq_cst);
        out.assign(g.probes, g.probes + g.n_probes);
        std::atomic_signal_fence(std::memory_order_seq_cst);
        if (s % 2 == 0 && s == g.seq.load(std::memory_order_relaxed))
            return out;
    }
}

} // namespace perfbench
