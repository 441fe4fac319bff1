/**
 * @file
 * siwi-perfbench: the repository benchmark. One workload per run:
 *
 *   siwi-perfbench --workload fig7_full|chip_banked|serve_mixed
 *                  --seed N --seconds S --trace 0|1
 *                  [--root DIR] [--work-dir DIR]
 *
 * Untraced runs (--trace 0) print every end-to-end metric; traced
 * runs (--trace 1) print every per-layer metric. The last stdout
 * line is one JSON object {correct, attempted, failed, metrics};
 * the lines before it are the same figures for people, with their
 * sample counts.
 */

#include <cerrno>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <sys/resource.h>

#include "bench.hh"
#include "common/json.hh"
#include "stats.hh"

namespace perfbench {

const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},
    {"wall_s", "s"},
    {"cells_per_s", "1/s"},
    {"op_ms_p50", "ms"},
    {"op_ms_p90", "ms"},
    {"op_ms_p99", "ms"},
    {"sim_cycles_per_s", "1/s"},
    {"peak_rss_mb", "MiB"},
    {"ipc_gmean", "thr_inst/cycle"},
};

const std::vector<MetricDef> kPerLayer = {
    {"runner.spec_expand_ms", "ms"},
    {"runner.cell_json_ms", "ms"},
    {"workloads.instance_ms", "ms"},
    {"cfg.compile_ms", "ms"},
    {"workloads.init_ms", "ms"},
    {"workloads.verify_ms", "ms"},
    {"core.gpu_build_ms", "ms"},
    {"core.launch_ms", "ms"},
    {"core.launch_ns_per_sm_cycle", "ns"},
    {"core.launch_ns_per_warp_inst", "ns"},
    {"core.skipped_cycle_share", "ratio"},
    {"core.sm_cycles", "count"},
    {"bench.op_self_ms", "ms"},
    {"frontend.secondary_issue_share", "ratio"},
    {"frontend.conflicts_squashed", "count"},
    {"frontend.sync_suspensions", "count"},
    {"divergence.warp_splits", "count"},
    {"divergence.merges", "count"},
    {"divergence.heap_full_stalls", "count"},
    {"divergence.cct_degraded_inserts", "count"},
    {"pipeline.warp_insts", "count"},
    {"pipeline.lane_util", "ratio"},
    {"pipeline.warp_sleep_share", "ratio"},
    {"pipeline.avg_runnable_warps", "warps"},
    {"mem.l1_accesses", "count"},
    {"mem.l1_hit_ratio", "ratio"},
    {"mem.l2_accesses", "count"},
    {"mem.l2_hit_ratio", "ratio"},
    {"mem.mshr_stalls", "count"},
    {"mem.dram_transactions", "count"},
    {"mem.dram_stall_tenths", "cycle/10"},
    {"mem.noc_stall_tenths", "cycle/10"},
    {"divergence.hct_insert_ns", "ns"},
    {"divergence.cct_insert_ns", "ns"},
    {"pipeline.mask_lookup_ns.sets1", "ns"},
    {"pipeline.mask_lookup_ns.sets2", "ns"},
    {"pipeline.mask_lookup_ns.sets8", "ns"},
    {"pipeline.mask_lookup_ns.sets16", "ns"},
    {"pipeline.scoreboard_check_ns", "ns"},
    {"mem.cache_access_ns", "ns"},
    {"serve.cells", "count"},
    {"serve.hit_ratio", "ratio"},
    {"serve.first_cell_ms", "ms"},
    {"serve.cache_key_us", "us"},
    {"serve.cache_lookup_us", "us"},
    {"serve.cache_store_us", "us"},
    {"serve.client_hits", "count"},
    {"serve.status_cells_hit", "count"},
    {"serve.join_count", "count"},
    {"serve.status_cells_joined", "count"},
    {"serve.client_misses", "count"},
    {"serve.status_cache_misses", "count"},
    {"serve.status_miss_overcount", "count"},
    {"serve.evictions", "count"},
    {"trace.overhead_s", "s"},
    {"trace.spans", "count"},
};

void
Report::fail(const std::string &why)
{
    ++failed;
    correct = false;
    std::fprintf(stderr, "perfbench: FAILED: %s\n", why.c_str());
}

void
Report::note(const char *fmt, ...)
{
    char buf[512];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buf, sizeof buf, fmt, ap);
    va_end(ap);
    notes.emplace_back(buf);
}

void
Report::notePace(const std::vector<double> &probes_ns, double nominal_ns)
{
    if (probes_ns.empty())
        return;
    note("pace clock: %zu probes, p10 %.4g us, median %.4g us, p90 %.4g us, "
         "nominal %.4g us; host times are at nominal pace",
         probes_ns.size(), percentile(probes_ns, 10) * 1e-3,
         median(probes_ns) * 1e-3, percentile(probes_ns, 90) * 1e-3,
         nominal_ns * 1e-3);
}

double
peakRssMb()
{
    struct rusage ru;
    ::getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB on Linux
}

namespace {

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "siwi-perfbench: %s\n"
                 "usage: siwi-perfbench --workload "
                 "fig7_full|chip_banked|serve_mixed --seed N "
                 "--seconds S --trace 0|1 [--root DIR] [--work-dir DIR]\n",
                 msg);
    std::exit(2);
}

bool
parseUnsigned(const char *s, uint64_t *out)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(s, &end, 10);
    if (errno || end == s || *end || s[0] == '-')
        return false;
    *out = v;
    return true;
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    o.work_dir = ".bench_build/perfbench-work";
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        const char *v = argv[++i];
        uint64_t n = 0;
        if (a == "--workload") {
            o.workload = v;
            have_workload = true;
        } else if (a == "--seed") {
            if (!parseUnsigned(v, &o.seed))
                usage("--seed takes a non-negative integer");
        } else if (a == "--seconds") {
            if (!parseUnsigned(v, &n) || n == 0 || n > 3600)
                usage("--seconds takes an integer in 1..3600");
            o.seconds = double(n);
        } else if (a == "--trace") {
            if (!parseUnsigned(v, &n) || n > 1)
                usage("--trace takes 0 or 1");
            o.trace = n == 1;
        } else if (a == "--root") {
            o.root = v;
        } else if (a == "--work-dir") {
            o.work_dir = v;
        } else {
            usage(("unknown option " + a).c_str());
        }
    }
    if (!have_workload)
        usage("--workload is required");
    if (o.workload != "fig7_full" && o.workload != "chip_banked" &&
        o.workload != "serve_mixed")
        usage(("unknown workload " + o.workload).c_str());
    return o;
}

/** Run the workload; a traced run adds the serve layer and the
 *  component figures. Throws on a set-up failure. */
Report
measure(const Options &opt)
{
    Report r = opt.workload == "serve_mixed" ? runServeWorkload(opt)
                                             : runSimWorkload(opt);
    if (opt.trace && opt.workload != "serve_mixed") {
        // serve_mixed is too disk- and scheduler-bound to time steadily
        // on a shared machine, so BENCHMARK.json does not list it; one
        // serve_mixed pass in every traced run keeps the serve layer's
        // figures measured.
        Options serve = opt;
        serve.workload = "serve_mixed";
        serve.seconds = 1;
        const Report s = runServeWorkload(serve);
        for (const auto &[name, v] : s.values) {
            if (name.rfind("serve.", 0) == 0)
                r.set(name, v, s.samples.count(name) ? s.samples.at(name) : 0);
        }
        r.attempted += s.attempted;
        r.failed += s.failed;
        r.correct = r.correct && s.correct;
    }
    if (opt.trace)
        measureComponents(&r);
    return r;
}

} // namespace

} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    const Options opt = parseArgs(argc, argv);

    Report r;
    try {
        r = measure(opt);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 2;
    }
    const std::vector<MetricDef> &defs = opt.trace ? kPerLayer : kEndToEnd;
    for (const auto &[name, v] : r.values) {
        bool known = false;
        for (const MetricDef &d : defs)
            known |= name == d.name;
        if (!known) {
            std::fprintf(stderr, "perfbench: metric %s is not catalogued\n",
                         name.c_str());
            return 3;
        }
    }

    for (const std::string &line : r.notes)
        std::printf("# %s\n", line.c_str());
    siwi::Json metrics = siwi::Json::object();
    for (const MetricDef &d : defs) {
        auto it = r.values.find(d.name);
        // Per-layer metrics a workload does not exercise read 0.
        double v = it == r.values.end() ? 0.0 : it->second;
        if (!std::isfinite(v)) {
            r.fail(std::string(d.name) + " is not finite");
            v = 0.0;
        }
        auto n = r.samples.find(d.name);
        std::string note;
        if (n != r.samples.end()) {
            note = " n=" + std::to_string(n->second);
            if (std::strncmp(d.name, "op_ms_p", 7) == 0)
                note += " beyond=" +
                        std::to_string(samplesBeyond(
                            n->second, std::atof(d.name + 7)));
        }
        std::printf("# %-34s %16.6g %-14s%s\n", d.name, v, d.unit,
                    note.c_str());
        siwi::Json m = siwi::Json::object();
        m.set("value", siwi::Json(v));
        m.set("unit", siwi::Json(d.unit));
        metrics.set(d.name, std::move(m));
    }
    if (!opt.trace && r.samples.count("op_ms_p50")) {
        const uint64_t ops = r.samples.at("op_ms_p50");
        char rule[32] = "no percentile";
        if (const double p = highestReportablePercentile(ops))
            std::snprintf(rule, sizeof rule, "up to p%g", p);
        std::printf("# ten samples beyond: %s of these %llu operations\n",
                    rule, (unsigned long long)ops);
    }
    std::printf("# workload %s seed %llu: %llu attempted, %llu failed\n",
                opt.workload.c_str(), (unsigned long long)opt.seed,
                (unsigned long long)r.attempted,
                (unsigned long long)r.failed);

    siwi::Json out = siwi::Json::object();
    out.set("correct", siwi::Json(r.correct && r.failed == 0));
    out.set("attempted", siwi::Json(siwi::u64(r.attempted)));
    out.set("failed", siwi::Json(siwi::u64(r.failed)));
    out.set("metrics", std::move(metrics));
    std::printf("%s\n", out.dump().c_str());
    return 0;
}
