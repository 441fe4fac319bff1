/**
 * @file
 * fig7_full and chip_banked: serial closed loops over a fixed
 * cell list, one cell per operation. The seed only shuffles the
 * cell order; every cell's data set is fixed by the library.
 *
 * Untraced operations call runner::runSweeps on a one-cell sweep,
 * exactly as a user of the runner would. Traced operations run the
 * same cell decomposed into the public calls workloads::runWorkload
 * makes (instance, compile, Gpu, init, launch, verify) with a span
 * around each, and must serialize byte-identically.
 *
 * The run repeats the whole cell list while time remains. Host
 * times are read from the pace clock (pace.hh), which scales them
 * to a fixed host speed, and each cell keeps the median of its
 * repetitions. wall_s is the sum of those medians, one pass over
 * every cell.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <malloc.h>
#include <memory>
#include <stdexcept>

#include "bench.hh"
#include "pace.hh"
#include "runner/runner.hh"
#include "stats.hh"
#include "stream.hh"
#include "trace.hh"

namespace perfbench {

using namespace siwi;

namespace {

/** Set-up repetitions per run; setup_s is their median. */
constexpr int kSetupReps = 2001;

/** One operation: a single-cell sweep and its canonical index. */
struct SimOp
{
    runner::SweepSpec sweep;
    size_t canon = 0;
};

/**
 * Load the workload's spec, expand it in canonical order and split
 * it into one-cell sweeps, then shuffle the order with the seed.
 */
bool
buildOps(const Options &opt, std::vector<SimOp> *out, std::string *err)
{
    runner::MachineRegistry reg;
    std::vector<runner::SweepSpec> sweeps;
    std::string label;
    if (opt.workload == "fig7_full") {
        if (!runner::loadSpecFile(opt.root + "/bench/specs/fig7.json",
                                  &reg, &sweeps, &label, err))
            return false;
    } else {
        std::vector<runner::SweepSpec> all;
        if (!runner::loadSpecFile(opt.root + "/bench/specs/scaling.json",
                                  &reg, &all, &label, err))
            return false;
        auto it = std::find_if(all.begin(), all.end(), [](const auto &s) {
            return s.name == "fig_scaling_banked";
        });
        if (it == all.end()) {
            *err = "scaling.json has no fig_scaling_banked sweep";
            return false;
        }
        // 64-SM BlackScholes (about 15 s alone) is left out to keep
        // a run short; MatrixMul carries the 64-SM chip.
        runner::SweepSpec chip16 = *it;
        chip16.filterMachines({"SBI+SWI"});
        chip16.sms = {16};
        runner::SweepSpec chip64 = chip16;
        chip64.filterWorkloads({"MatrixMul"});
        chip64.sms = {64};
        if (chip16.cellCount() != 5 || chip64.cellCount() != 1) {
            *err = "fig_scaling_banked no longer holds SBI+SWI over "
                   "the five chip-panel workloads";
            return false;
        }
        sweeps = {chip16, chip64};
    }
    for (runner::SweepSpec &s : sweeps)
        s.dedupeMachines();

    const std::vector<runner::CellSpec> cells = runner::expandCells(sweeps);
    std::vector<SimOp> canonical;
    for (size_t i = 0; i < cells.size(); ++i) {
        const runner::CellSpec &c = cells[i];
        const runner::SweepSpec &s = sweeps[c.sweep];
        SimOp op{s, i};
        op.sweep.machines = {s.machines[c.machine]};
        op.sweep.wls = {s.wls[c.wl]};
        op.sweep.sms = {s.smsAt(c.sms)};
        op.sweep.policies = {s.policyAt(c.policy)};
        canonical.push_back(std::move(op));
    }
    out->clear();
    for (size_t i : shuffledOrder(canonical.size(), opt.seed))
        out->push_back(canonical[i]);
    return true;
}

runner::CellResult
runUntraced(const SimOp &op)
{
    runner::RunOptions ro;
    ro.jobs = 1;
    runner::Results r = runner::runSweeps({op.sweep}, ro);
    return r.cells.at(0);
}

/** The cell decomposed into runWorkload's calls, one span each. */
struct TracedCell
{
    runner::CellResult cell;
    u64 skipped_cycles = 0;
    std::string json;
};

TracedCell
runTraced(const SimOp &op, Tracer *t, uint64_t id)
{
    Tracer::Scope whole(t, "op", id);
    const runner::SweepSpec &s = op.sweep;
    const workloads::Workload &w = *s.wls[0];
    const frontend::SchedPolicyKind pol = runner::effectivePolicy(s, 0, 0);
    const core::GpuConfig chip = runner::resolvedCellConfig(s, 0, 0, 0);

    const workloads::Instance inst = [&] {
        Tracer::Scope sc(t, "workloads.instance", id);
        return w.instance(s.size);
    }();
    const core::Kernel kernel = [&] {
        Tracer::Scope sc(t, "cfg.compile", id);
        return core::Kernel::compile(inst.raw, inst.compile);
    }();
    std::unique_ptr<core::Gpu> gpu;
    {
        Tracer::Scope sc(t, "core.gpu_build", id);
        gpu = std::make_unique<core::Gpu>(chip);
    }
    {
        Tracer::Scope sc(t, "workloads.init", id);
        w.init(gpu->memory(), s.size);
    }
    core::LaunchConfig lc;
    lc.grid_blocks = inst.grid_blocks;
    lc.block_threads = inst.block_threads;
    lc.cycle_skip = true;

    TracedCell out;
    runner::CellResult &c = out.cell;
    {
        Tracer::Scope sc(t, "core.launch", id);
        c.stats = gpu->launch(kernel, lc);
    }
    out.skipped_cycles = gpu->skippedCycles();
    {
        Tracer::Scope sc(t, "workloads.verify", id);
        c.verified = w.verify(gpu->memory(), s.size, &c.verify_msg);
    }
    // Field for field what runner::runCell fills in.
    c.sweep = s.name;
    c.machine = runner::cellMachineLabel(s.machines[0].name, pol,
                                         s.smsAt(0));
    c.num_sms = s.smsAt(0);
    c.policy = frontend::schedPolicyName(pol);
    c.workload = w.name();
    c.size = runner::sizeClassName(s.size);
    c.excluded_from_means = w.excludedFromMeans();
    c.timed_out = c.stats.timed_out;
    c.ipc = c.stats.ipc();
    {
        Tracer::Scope sc(t, "runner.cell_json", id);
        out.json = runner::cellToJson(c).dump();
    }
    return out;
}

u64
smCycles(const runner::CellResult &c)
{
    return u64(c.stats.cycles) * c.num_sms;
}

void
checkCell(const runner::CellResult &c, Report *r)
{
    ++r->attempted;
    if (!c.verified)
        r->fail(c.workload + " on " + c.machine + " unverified: " +
                c.verify_msg);
    else if (c.timed_out)
        r->fail(c.workload + " on " + c.machine + " timed out");
}

} // namespace

void
reportSimCounts(const std::vector<runner::CellResult> &cells,
                const std::vector<unsigned> &warp_width, Report *r)
{
    double instr = 0, thread_instr = 0, lanes = 0, secondary = 0;
    double squashed = 0, sync = 0, splits = 0, merges = 0, heap_full = 0;
    double degraded = 0, sleep = 0, runnable = 0, cycles = 0;
    double l1h = 0, l1m = 0, l2h = 0, l2m = 0, mshr = 0, dram = 0;
    double dram_stall = 0, noc_stall = 0;
    for (size_t i = 0; i < cells.size(); ++i) {
        const core::SimStats &s = cells[i].stats;
        instr += double(s.instructions);
        thread_instr += double(s.thread_instructions);
        lanes += double(s.instructions) * warp_width[i];
        secondary += double(s.secondary_issues);
        squashed += double(s.conflicts_squashed);
        sync += double(s.sync_suspensions);
        splits += double(s.warp_splits);
        merges += double(s.merges);
        heap_full += double(s.heap_full_stalls);
        degraded += double(s.cct_degraded_inserts);
        sleep += double(s.warp_sleep_cycles);
        runnable += double(s.runnable_warp_cycles);
        cycles += double(s.cycles);
        l1h += double(s.l1_hits);
        l1m += double(s.l1_misses);
        l2h += double(s.l2_hits);
        l2m += double(s.l2_misses);
        mshr += double(s.mshr_stalls);
        dram += double(s.dram_transactions);
        for (const mem::DramStats &d : s.dram_channels)
            dram_stall += double(d.stall_tenths);
        for (const mem::NocPortStats &p : s.noc_ports)
            noc_stall += double(p.stall_tenths);
    }
    r->set("pipeline.warp_insts", instr);
    r->set("frontend.secondary_issue_share", ratio(secondary, instr));
    r->set("frontend.conflicts_squashed", squashed);
    r->set("frontend.sync_suspensions", sync);
    r->set("divergence.warp_splits", splits);
    r->set("divergence.merges", merges);
    r->set("divergence.heap_full_stalls", heap_full);
    r->set("divergence.cct_degraded_inserts", degraded);
    r->set("pipeline.lane_util", ratio(thread_instr, lanes));
    r->set("pipeline.warp_sleep_share", ratio(sleep, sleep + runnable));
    r->set("pipeline.avg_runnable_warps", ratio(runnable, cycles));
    r->set("mem.l1_accesses", l1h + l1m);
    r->set("mem.l1_hit_ratio", ratio(l1h, l1h + l1m));
    r->set("mem.l2_accesses", l2h + l2m);
    r->set("mem.l2_hit_ratio", ratio(l2h, l2h + l2m));
    r->set("mem.mshr_stalls", mshr);
    r->set("mem.dram_transactions", dram);
    r->set("mem.dram_stall_tenths", dram_stall);
    r->set("mem.noc_stall_tenths", noc_stall);
}

double
ipcGmean(const std::vector<runner::CellResult> &cells)
{
    std::vector<double> ipc;
    std::vector<bool> excluded;
    for (const runner::CellResult &c : cells) {
        ipc.push_back(c.ipc);
        excluded.push_back(c.excluded_from_means);
    }
    return runner::geomean(runner::excludeFromMeans(ipc, excluded));
}

Report
runSimWorkload(const Options &opt)
{
    Report r;
    Tracer tracer;
    Tracer *t = opt.trace ? &tracer : nullptr;
    PaceClock pace;

    std::vector<SimOp> ops;
    std::vector<double> setup_s, raw_setup_s;
    for (int i = 0; i < kSetupReps; ++i) {
        std::string err;
        const uint64_t t0 = pace.nowNs(), raw0 = nowNs();
        bool ok;
        {
            Tracer::Scope sc(t, "runner.spec_expand", 0);
            ok = buildOps(opt, &ops, &err);
        }
        setup_s.push_back(double(pace.nowNs() - t0) * 1e-9);
        raw_setup_s.push_back(double(nowNs() - raw0) * 1e-9);
        if (!ok)
            throw std::runtime_error(err);
    }

    // First pass results in canonical order: ipc, counts, and the
    // reference bytes the traced pass must reproduce.
    const size_t n = ops.size();
    std::vector<runner::CellResult> canon(n);
    std::vector<std::string> canon_json(n);
    std::vector<unsigned> warp_width(n);
    for (const SimOp &op : ops)
        warp_width[op.canon] = op.sweep.machines[0].config.warp_width;

    // Every repetition of every cell at nominal host speed, untraced
    // and traced, and the fastest in real time for comparison.
    std::vector<std::vector<double>> reps_ms(n), traced_reps_ms(n);
    std::vector<double> raw_best_ms(n, HUGE_VAL);
    double traced_sm_cycles = 0, traced_insts = 0, traced_skipped = 0;
    uint64_t traced_ops = 0;
    int passes = 0;
    const uint64_t start = nowNs();
    double last_iter = 0;
    for (;; ++passes) {
        const double elapsed = double(nowNs() - start) * 1e-9;
        if (passes > 0 && elapsed + last_iter > opt.seconds)
            break;
        const uint64_t iter0 = nowNs();
        for (const SimOp &op : ops) {
            // Freed heap goes back to the system between cells, so the
            // peak resident set is the largest cell's, not a record of
            // how the seed's cell order fragmented the heap.
            ::malloc_trim(0);
            const uint64_t t0 = pace.nowNs(), raw0 = nowNs();
            runner::CellResult c = runUntraced(op);
            reps_ms[op.canon].push_back(double(pace.nowNs() - t0) * 1e-6);
            raw_best_ms[op.canon] = std::min(raw_best_ms[op.canon],
                                             double(nowNs() - raw0) * 1e-6);
            checkCell(c, &r);
            if (passes == 0) {
                canon_json[op.canon] = runner::cellToJson(c).dump();
                canon[op.canon] = std::move(c);
            }
        }
        for (size_t i = 0; t && i < n; ++i) {
            const SimOp &op = ops[i];
            ::malloc_trim(0);
            const uint64_t t0 = pace.nowNs();
            TracedCell tc = runTraced(op, t, ++traced_ops);
            traced_reps_ms[op.canon].push_back(double(pace.nowNs() - t0) *
                                               1e-6);
            checkCell(tc.cell, &r);
            if (tc.json != canon_json[op.canon])
                r.fail("traced " + tc.cell.workload + " on " +
                       tc.cell.machine + " differs from runner::runSweeps");
            traced_sm_cycles += double(smCycles(tc.cell));
            traced_insts += double(tc.cell.stats.instructions);
            traced_skipped += double(tc.skipped_cycles);
        }
        last_iter = double(nowNs() - iter0) * 1e-9;
    }

    std::vector<double> cell_ms(n);
    double wall_s = 0, raw_wall_s = 0, pass_cycles = 0;
    for (size_t i = 0; i < n; ++i) {
        cell_ms[i] = median(reps_ms[i]);
        wall_s += cell_ms[i] * 1e-3;
        raw_wall_s += raw_best_ms[i] * 1e-3;
        pass_cycles += double(smCycles(canon[i]));
    }
    const std::vector<double> probes = pace.probes();
    r.notePace(probes, PaceClock::kNominalNs);
    r.note("real time: setup_s %.6g (median), wall_s %.6g (sum of fastest "
           "repetitions)",
           median(raw_setup_s), raw_wall_s);
    if (!t) {
        r.set("setup_s", median(setup_s), setup_s.size());
        r.set("wall_s", wall_s, passes);
        r.set("cells_per_s", double(n) / wall_s, passes);
        r.set("op_ms_p50", median(cell_ms), n);
        r.set("op_ms_p90", percentile(cell_ms, 90), n);
        r.set("op_ms_p99", percentile(cell_ms, 99), n);
        r.set("sim_cycles_per_s", pass_cycles / wall_s, passes);
        r.set("peak_rss_mb", peakRssMb());
        r.set("ipc_gmean", ipcGmean(canon), n);
        return r;
    }

    reportSimCounts(canon, warp_width, &r);
    const std::map<std::string, LayerTotals> layers =
        layerTotals(tracer.spans());
    // Span times at nominal host speed, like every other host time.
    const double pace_scale = PaceClock::kNominalNs / median(probes);
    auto self_ns = [&](const char *name) {
        auto it = layers.find(name);
        return it == layers.end() ? 0.0
                                  : double(it->second.self_ns) * pace_scale;
    };
    const double per_op_ms = 1e-6 / double(traced_ops);
    r.set("runner.spec_expand_ms",
          self_ns("runner.spec_expand") * 1e-6 / kSetupReps, kSetupReps);
    for (const char *name :
         {"runner.cell_json", "workloads.instance", "cfg.compile",
          "workloads.init", "workloads.verify", "core.gpu_build",
          "core.launch"})
        r.set(std::string(name) + "_ms", self_ns(name) * per_op_ms,
              traced_ops);
    r.set("bench.op_self_ms", self_ns("op") * per_op_ms, traced_ops);
    r.set("core.sm_cycles", traced_sm_cycles);
    r.set("core.launch_ns_per_sm_cycle",
          ratio(self_ns("core.launch"), traced_sm_cycles));
    r.set("core.launch_ns_per_warp_inst",
          ratio(self_ns("core.launch"), traced_insts));
    r.set("core.skipped_cycle_share",
          ratio(traced_skipped, traced_sm_cycles));
    double traced_wall_s = 0;
    for (const std::vector<double> &ms : traced_reps_ms)
        traced_wall_s += median(ms) * 1e-3;
    r.set("trace.overhead_s", traced_wall_s - wall_s, passes);
    r.set("trace.spans", double(tracer.spans().size()));
    if (!tracer.write(opt.work_dir + "/spans-" + opt.workload + ".jsonl"))
        std::fprintf(stderr, "perfbench: could not write the span file\n");
    return r;
}

} // namespace perfbench
