/**
 * @file
 * serve_mixed: an in-process serve::Server on loopback with two
 * worker jobs, fed by two closed-loop client connections that
 * submit small Tiny-size specs. Each pass sets up from scratch (a
 * fresh cache directory, server start, cache keys, a pre-filled
 * hot set, a seeded local recompute) and then replays the run's
 * seeded request stream. Most cells are cache hits; a seeded share are
 * misses that simulate, store and, because the cache holds fewer
 * entries than the universe has cells, evict.
 */

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <unistd.h>

#include "bench.hh"
#include "runner/runner.hh"
#include "serve/cache_key.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "stats.hh"
#include "stream.hh"
#include "trace.hh"

namespace perfbench {

using namespace siwi;

namespace {

namespace fs = std::filesystem;

const char *const kMachines[] = {"Baseline", "SBI", "SWI", "SBI+SWI",
                                 "Warp64"};
const char *const kPolicies[] = {"oldest", "rr", "gto", "minpc"};
/** "set" variants: none, a smaller CCT, a smaller scoreboard. */
constexpr size_t kVariants = 3;

constexpr size_t kSubmissions = 1000; //!< per pass
constexpr size_t kClients = 2;
constexpr unsigned kServerJobs = 2;
constexpr size_t kHotCells = 256;     //!< pre-filled in set-up
constexpr u64 kCacheEntries = 384;    //!< below the cells the stream asks for
constexpr size_t kRecomputed = 8;     //!< keys recomputed locally
/** Popularity skew: about 480 distinct cells in a 2500-cell stream,
 *  so roughly one cell in eleven is a cold miss. */
constexpr double kZipfS = 1.2;

size_t
universeSize()
{
    return std::size(kMachines) * workloads::allWorkloads().size() *
           std::size(kPolicies) * kVariants;
}

/** The one-cell sweep of universe cell @p idx, named "u<idx>" so
 *  every copy of a cell serializes identically. */
Json
sweepJson(size_t idx)
{
    const size_t v = idx % kVariants;
    const size_t p = idx / kVariants % std::size(kPolicies);
    const size_t rest = idx / kVariants / std::size(kPolicies);
    const size_t nwl = workloads::allWorkloads().size();
    Json machines = Json::array();
    machines.push(Json(kMachines[rest / nwl]));
    Json wls = Json::array();
    wls.push(Json(workloads::allWorkloads()[rest % nwl]->name()));
    Json pols = Json::array();
    pols.push(Json(kPolicies[p]));
    Json s = Json::object();
    s.set("name", Json("u" + std::to_string(idx)));
    s.set("machines", std::move(machines));
    s.set("workloads", std::move(wls));
    s.set("size", Json("tiny"));
    s.set("policies", std::move(pols));
    if (v) {
        Json set = Json::object();
        set.set(v == 1 ? "cct_capacity" : "scoreboard_entries", Json(4));
        s.set("set", std::move(set));
    }
    return s;
}

Json
specJson(const std::vector<size_t> &cells)
{
    Json sweeps = Json::array();
    for (size_t idx : cells)
        sweeps.push(sweepJson(idx));
    Json spec = Json::object();
    spec.set("name", Json("serve_mixed"));
    spec.set("sweeps", std::move(sweeps));
    return spec;
}

/** Everything one pass knows after set-up. */
struct Pass
{
    std::string dir;
    std::vector<std::vector<size_t>> stream;
    std::vector<Json> specs;                 //!< one per submission
    std::vector<std::string> key;            //!< per universe cell
    std::vector<unsigned> warp_width;        //!< per universe cell
    std::map<std::string, std::string> reference; //!< key -> local bytes
    std::vector<unsigned> hot_width;
    serve::SubmitOutcome prefill;
    std::unique_ptr<serve::Server> server;
    std::thread server_thread;

    Pass() = default;
    Pass(const Pass &) = delete;
    Pass &operator=(const Pass &) = delete;

    ~Pass()
    {
        if (server) {
            server->stop();
            server_thread.join();
        }
    }
};

/** Counters of one stream replay. */
struct StreamTotals
{
    std::vector<double> op_ms;        //!< per submission, stream order
    std::vector<double> first_cell_ms;
    double cells = 0, sm_cycles = 0, hits = 0, misses = 0, joined = 0;
    uint64_t attempted = 0, failed = 0;
    std::map<std::string, std::string> first_copy; //!< key -> bytes
};

/** Cache directories of this run. They are deleted when the run
 *  ends, not between passes, so the file system's work for the
 *  unlinks does not land inside the next pass's timing. */
std::string
runDir(const Options &opt)
{
    return opt.work_dir + "/serve-" + std::to_string(::getpid());
}

bool
parseOne(const Json &spec, std::vector<runner::SweepSpec> *sweeps,
         std::string *err)
{
    runner::MachineRegistry reg;
    std::string label;
    return runner::sweepsFromSpecJson(spec, ".", &reg, sweeps, &label, err);
}

/** Fresh cache, keys, server, pre-fill and local recompute. */
bool
setUp(const Options &opt, uint64_t stream_seed, size_t pass_no, Tracer *t,
      Pass *p, std::string *err)
{
    p->dir = runDir(opt) + "/pass-" + std::to_string(pass_no);
    std::error_code ec;
    fs::remove_all(p->dir, ec);

    StreamShape shape;
    shape.universe = universeSize();
    shape.zipf_s = kZipfS;
    p->stream = makeStream(shape, stream_seed, kSubmissions);
    p->specs.clear();
    for (const std::vector<size_t> &sub : p->stream)
        p->specs.push_back(specJson(sub));

    p->key.assign(shape.universe, {});
    p->warp_width.assign(shape.universe, 0);
    for (size_t idx = 0; idx < shape.universe; ++idx) {
        std::vector<runner::SweepSpec> sweeps;
        std::vector<runner::CellSpec> cells;
        {
            Tracer::Scope sc(t, "runner.spec_expand", 0);
            if (!parseOne(specJson({idx}), &sweeps, err))
                return false;
            cells = runner::expandCells(sweeps);
        }
        Tracer::Scope sc(t, "serve.cache_key", 0);
        p->key[idx] = serve::cellCacheKey(sweeps[0], cells.at(0));
        p->warp_width[idx] = sweeps[0].machines[0].config.warp_width;
    }

    {
        Tracer::Scope sc(t, "serve.server_start", 0);
        p->server = std::make_unique<serve::Server>();
        serve::ServerOptions so;
        so.cache_dir = p->dir;
        so.jobs = kServerJobs;
        so.cache_max_entries = kCacheEntries;
        if (!p->server->start(so, err)) {
            p->server.reset();
            return false;
        }
        p->server_thread = std::thread([s = p->server.get()] { s->run(); });
    }

    std::vector<size_t> hot = popularityRanking(shape.universe);
    hot.resize(kHotCells);
    std::sort(hot.begin(), hot.end());
    {
        Tracer::Scope sc(t, "serve.prefill", 0);
        if (!serve::submitSpec("127.0.0.1", p->server->port(),
                               specJson(hot), &p->prefill, err))
            return false;
    }
    p->hot_width.clear();
    for (size_t idx : hot)
        p->hot_width.push_back(p->warp_width[idx]);

    // A seeded sample of the cells this stream asks for, computed
    // locally: every served copy of their keys must match.
    std::vector<size_t> drawn;
    for (const std::vector<size_t> &sub : p->stream)
        drawn.insert(drawn.end(), sub.begin(), sub.end());
    std::sort(drawn.begin(), drawn.end());
    drawn.erase(std::unique(drawn.begin(), drawn.end()), drawn.end());
    const std::vector<size_t> order =
        shuffledOrder(drawn.size(), stream_seed ^ 0x7ec0ull);
    p->reference.clear();
    for (size_t i = 0; i < kRecomputed && i < order.size(); ++i) {
        const size_t idx = drawn[order[i]];
        std::vector<runner::SweepSpec> sweeps;
        if (!parseOne(specJson({idx}), &sweeps, err))
            return false;
        Tracer::Scope sc(t, "serve.recompute", 0);
        runner::RunOptions ro;
        ro.jobs = 1;
        p->reference[p->key[idx]] =
            runner::cellToJson(runner::runSweeps(sweeps, ro).cells.at(0))
                .dump();
    }
    return true;
}

/** Check one served cell against the first copy and the local
 *  recompute of its key. @return a diagnostic, empty when sound. */
std::string
checkCopy(std::mutex *mu, StreamTotals *st, const Pass &p,
          const std::string &key, const std::string &bytes)
{
    auto ref = p.reference.find(key);
    if (ref != p.reference.end() && ref->second != bytes)
        return "served cell " + key + " differs from a local recompute";
    std::lock_guard<std::mutex> lock(*mu);
    auto [it, fresh] = st->first_copy.emplace(key, bytes);
    if (!fresh && it->second != bytes)
        return "served cell " + key + " differs from its first copy";
    return {};
}

void
replay(const Pass &p, Tracer *t, StreamTotals *st)
{
    const unsigned port = p.server->port();
    st->op_ms.assign(p.stream.size(), 0.0);
    std::mutex mu; // guards *st
    // The pre-fill's copies are the first ones seen of the hot set.
    for (const runner::CellResult &c : p.prefill.results.cells) {
        const size_t idx = std::stoul(c.sweep.substr(1));
        st->first_copy.emplace(p.key[idx], runner::cellToJson(c).dump());
    }
    auto client = [&](size_t first) {
        for (size_t j = first; j < p.stream.size(); j += kClients) {
            Tracer::Scope whole(t, "op", j + 1);
            serve::SubmitOutcome out;
            std::string err;
            double first_ms = -1;
            const uint64_t t0 = nowNs();
            const bool ok = serve::submitSpec(
                "127.0.0.1", port, p.specs[j], &out, &err,
                [&](size_t done, size_t, const runner::CellResult &, bool) {
                    if (done == 1)
                        first_ms = double(nowNs() - t0) * 1e-6;
                });
            const double ms = double(nowNs() - t0) * 1e-6;

            std::string why = ok ? "" : "submit failed: " + err;
            if (ok && (out.verify_failures || out.timeouts))
                why = "served cells unverified or timed out";
            if (ok && out.results.cells.size() != p.stream[j].size())
                why = "served cell count differs from the spec";
            double sm_cycles = 0;
            for (size_t i = 0; why.empty() && i < p.stream[j].size(); ++i) {
                const runner::CellResult &c = out.results.cells[i];
                std::string bytes;
                {
                    Tracer::Scope sc(t, "runner.cell_json", j + 1);
                    bytes = runner::cellToJson(c).dump();
                }
                why = checkCopy(&mu, st, p, p.key[p.stream[j][i]], bytes);
                sm_cycles += double(c.stats.cycles) * c.num_sms;
            }

            std::lock_guard<std::mutex> lock(mu);
            ++st->attempted;
            if (!why.empty()) {
                ++st->failed;
                std::fprintf(stderr, "perfbench: submission %zu: %s\n", j,
                             why.c_str());
            }
            st->op_ms[j] = ms;
            if (first_ms >= 0)
                st->first_cell_ms.push_back(first_ms);
            st->cells += double(out.cells);
            st->sm_cycles += sm_cycles;
            st->hits += double(out.hits);
            st->misses += double(out.misses);
            st->joined += double(out.joined);
        }
    };
    std::vector<std::thread> clients;
    for (size_t c = 0; c < kClients; ++c)
        clients.emplace_back(client, c);
    for (std::thread &c : clients)
        c.join();
}

/** Time ResultCache store and lookup directly on the hot cells. */
void
cacheOps(const Pass &p, Tracer *t)
{
    const std::string dir = p.dir + "-direct";
    serve::ResultCache cache;
    std::string err;
    if (!cache.open(dir, 0, &err)) {
        std::fprintf(stderr, "perfbench: %s\n", err.c_str());
        return;
    }
    std::vector<size_t> hot = popularityRanking(universeSize());
    hot.resize(kHotCells);
    std::sort(hot.begin(), hot.end());
    size_t lost = 0;
    for (size_t i = 0; i < hot.size(); ++i) {
        Tracer::Scope sc(t, "serve.cache_store", 0);
        lost += !cache.store(p.key[hot[i]], p.prefill.results.cells[i], &err);
    }
    for (size_t i = 0; i < hot.size(); ++i) {
        runner::CellResult c;
        Tracer::Scope sc(t, "serve.cache_lookup", 0);
        lost += !cache.lookup(p.key[hot[i]], &c);
    }
    if (lost)
        std::fprintf(stderr, "perfbench: %zu direct cache operations "
                             "failed\n", lost);
    std::error_code ec;
    fs::remove_all(dir, ec);
}

/** The run's stream seed, spread over 64 bits from --seed. */
uint64_t
streamSeed(uint64_t seed)
{
    Rng rng(seed * 0x9e3779b97f4a7c15ull + 1);
    return rng.next();
}

/** What one pass (set-up plus stream replay) measured. */
struct PassResult
{
    double setup_s = 0;
    StreamTotals stream;
    serve::SubmitOutcome prefill;
    std::vector<unsigned> hot_width;
    serve::ServerStatus status; //!< after the last submission
};

/** Status once the server has booked all @p submissions. */
serve::ServerStatus
settledStatus(const serve::Server &server, u64 submissions)
{
    serve::ServerStatus s = server.status();
    for (int i = 0; i < 200 && s.submissions < submissions; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        s = server.status();
    }
    return s;
}

void
runPass(const Options &opt, uint64_t stream_seed, size_t pass_no,
        Tracer *t, PassResult *out)
{
    Pass p;
    std::string err;
    const uint64_t s0 = nowNs();
    bool ok;
    {
        Tracer::Scope sc(t, "serve.setup", 0);
        ok = setUp(opt, stream_seed, pass_no, t, &p, &err);
    }
    if (!ok)
        throw std::runtime_error("serve set-up: " + err);
    out->setup_s = double(nowNs() - s0) * 1e-9;
    replay(p, t, &out->stream);
    out->status = settledStatus(*p.server, 1 + p.stream.size());
    out->prefill = p.prefill;
    out->hot_width = p.hot_width;
    if (t)
        cacheOps(p, t);
}

void
keepFastest(const std::vector<double> &ms, std::vector<double> *best)
{
    for (size_t j = 0; j < best->size() && j < ms.size(); ++j)
        (*best)[j] = std::min((*best)[j], ms[j]);
}

/** Seconds the closed-loop clients take at the given per-submission
 *  latencies: the busiest client's sum (submission j is client
 *  j mod kClients's). */
double
closedLoopWall(const std::vector<double> &ms)
{
    std::vector<double> per_client(kClients, 0.0);
    for (size_t j = 0; j < ms.size(); ++j)
        per_client[j % kClients] += ms[j] * 1e-3;
    return *std::max_element(per_client.begin(), per_client.end());
}

} // namespace

Report
runServeWorkload(const Options &opt)
{
    Report r;
    Tracer tracer;
    std::error_code ec;
    fs::create_directories(opt.work_dir, ec);

    std::vector<Tracer *> modes = {nullptr};
    if (opt.trace)
        modes.push_back(&tracer);

    // Every pass replays the same stream, and each submission keeps
    // its fastest repetition: the host's speed drifts by tens of
    // percent over tens of seconds, and the minimum is the figure
    // such drift disturbs least.
    const uint64_t stream_seed = streamSeed(opt.seed);
    std::vector<double> setup_s, first_ms;
    std::vector<double> best_ms(kSubmissions, HUGE_VAL);
    std::vector<double> best_traced_ms(kSubmissions, HUGE_VAL);
    double cells = 0, sm_cycles = 0;
    double traced_cells = 0, traced_hits = 0;
    size_t passes = 0, traced_passes = 0;
    std::vector<runner::CellResult> hot;
    std::vector<unsigned> hot_width;
    PassResult last_traced;

    const uint64_t start = nowNs();
    double last_iter = 0;
    for (;; ++passes) {
        const double elapsed = double(nowNs() - start) * 1e-9;
        if (passes > 0 && elapsed + last_iter > opt.seconds)
            break;
        const uint64_t iter0 = nowNs();
        // In a traced run a traced pass follows each untraced one.
        for (Tracer *t : modes) {
            PassResult pr;
            runPass(opt, stream_seed, 2 * passes + (t != nullptr), t, &pr);
            StreamTotals &st = pr.stream;
            r.attempted += 1 + st.attempted;
            r.failed += st.failed;
            if (pr.prefill.verify_failures || pr.prefill.timeouts)
                r.fail("pre-fill cells unverified or timed out");
            if (hot.empty()) {
                hot = pr.prefill.results.cells;
                hot_width = pr.hot_width;
                cells = st.cells;
                sm_cycles = st.sm_cycles;
            }
            if (t) {
                ++traced_passes;
                keepFastest(st.op_ms, &best_traced_ms);
                first_ms.insert(first_ms.end(), st.first_cell_ms.begin(),
                                st.first_cell_ms.end());
                traced_cells += st.cells;
                traced_hits += st.hits;
                last_traced = std::move(pr);
                continue;
            }
            setup_s.push_back(pr.setup_s);
            keepFastest(st.op_ms, &best_ms);
        }
        last_iter = double(nowNs() - iter0) * 1e-9;
    }
    r.correct = r.failed == 0;
    fs::remove_all(runDir(opt), ec);
    const double best_wall = closedLoopWall(best_ms);

    if (!opt.trace) {
        r.set("setup_s", median(setup_s), passes);
        r.set("wall_s", best_wall, passes);
        r.set("cells_per_s", cells / best_wall, passes);
        r.set("op_ms_p50", median(best_ms), kSubmissions);
        r.set("op_ms_p90", percentile(best_ms, 90), kSubmissions);
        r.set("op_ms_p99", percentile(best_ms, 99), kSubmissions);
        r.set("sim_cycles_per_s", sm_cycles / best_wall, passes);
        r.set("peak_rss_mb", peakRssMb());
        r.set("ipc_gmean", ipcGmean(hot), hot.size());
        return r;
    }

    reportSimCounts(hot, hot_width, &r);
    const std::map<std::string, LayerTotals> layers =
        layerTotals(tracer.spans());
    auto layer = [&](const char *name) {
        auto it = layers.find(name);
        return it == layers.end() ? LayerTotals{} : it->second;
    };
    auto mean_us = [&](const char *name) {
        const LayerTotals l = layer(name);
        return l.count ? double(l.self_ns) * 1e-3 / double(l.count) : 0.0;
    };
    const uint64_t ops = traced_passes * kSubmissions;
    r.set("runner.spec_expand_ms",
          double(layer("runner.spec_expand").self_ns) * 1e-6 /
              double(traced_passes),
          traced_passes);
    r.set("runner.cell_json_ms",
          double(layer("runner.cell_json").self_ns) * 1e-6 / double(ops),
          ops);
    r.set("bench.op_self_ms", double(layer("op").self_ns) * 1e-6 / double(ops),
          ops);
    r.set("serve.cells", traced_cells);
    r.set("serve.hit_ratio", ratio(traced_hits, traced_cells),
          uint64_t(traced_cells));
    r.set("serve.first_cell_ms", median(first_ms), first_ms.size());
    r.set("serve.cache_key_us", mean_us("serve.cache_key"),
          layer("serve.cache_key").count);
    r.set("serve.cache_lookup_us", mean_us("serve.cache_lookup"),
          layer("serve.cache_lookup").count);
    r.set("serve.cache_store_us", mean_us("serve.cache_store"),
          layer("serve.cache_store").count);

    // Client-observed counts beside the server's status counters,
    // both over the last traced pass (its pre-fill plus stream).
    const PassResult &lt = last_traced;
    const double client_hits = double(lt.prefill.hits) + lt.stream.hits;
    const double client_misses =
        double(lt.prefill.misses) + lt.stream.misses;
    const double client_joins = double(lt.prefill.joined) + lt.stream.joined;
    r.set("serve.client_hits", client_hits);
    r.set("serve.status_cells_hit", double(lt.status.cells_hit));
    r.set("serve.join_count", client_joins);
    r.set("serve.status_cells_joined", double(lt.status.cells_joined));
    r.set("serve.client_misses", client_misses);
    r.set("serve.status_cache_misses", double(lt.status.cache.misses));
    r.set("serve.status_miss_overcount",
          double(lt.status.cache.misses) - (client_misses + client_joins));
    r.set("serve.evictions", double(lt.status.cache.evictions));

    r.set("trace.overhead_s", closedLoopWall(best_traced_ms) - best_wall,
          traced_passes);
    r.set("trace.spans", double(tracer.spans().size()));
    if (!tracer.write(opt.work_dir + "/spans-" + opt.workload + ".jsonl"))
        std::fprintf(stderr, "perfbench: could not write the span file\n");
    return r;
}

} // namespace perfbench
