#include "runner/reports.hh"

#include <algorithm>
#include <vector>

#include "frontend/sched_policy.hh"
#include "runner/metrics.hh"
#include "runner/table.hh"

namespace siwi::runner {

namespace {

bool
hasColumn(const Results &res, const std::string &sweep,
          const std::string &machine)
{
    std::vector<std::string> ms = sweepMachines(res, sweep);
    return std::find(ms.begin(), ms.end(), machine) != ms.end();
}

/** One ratio-table column: IPC of @c num over IPC of @c den. */
struct Ratio
{
    std::string name;
    std::string num;
    std::string den;
};

/**
 * Per-row IPC ratios of @p sweep as a ratio table (Gmean row TMD
 * excluded). A ratio over a timed-out cell, in either position,
 * renders T/O.
 */
std::string
ratioTable(const Results &res, const std::string &sweep,
           const std::vector<Ratio> &ratios)
{
    std::vector<std::string> names;
    std::vector<std::vector<double>> cols;
    std::vector<std::vector<bool>> invalid;
    for (const Ratio &r : ratios) {
        SweepColumnData num = sweepColumnData(res, sweep, r.num);
        SweepColumnData den = sweepColumnData(res, sweep, r.den);
        for (size_t i = 0; i < num.ipc.size(); ++i) {
            num.ipc[i] = den.ipc[i] != 0.0 ? num.ipc[i] / den.ipc[i]
                                           : 0.0;
            num.timed_out[i] = num.timed_out[i] || den.timed_out[i];
        }
        names.push_back(r.name);
        cols.push_back(std::move(num.ipc));
        invalid.push_back(std::move(num.timed_out));
    }
    return formatRatioTable(sweepRows(res, sweep), names, cols,
                            &invalid);
}

/** Every other column of @p sweep as a ratio over @p ref. */
std::vector<Ratio>
ratiosOver(const Results &res, const std::string &sweep,
           const std::string &ref,
           const std::vector<std::string> &skip = {})
{
    std::vector<Ratio> out;
    for (const std::string &m : sweepMachines(res, sweep)) {
        if (m != ref &&
            std::find(skip.begin(), skip.end(), m) == skip.end())
            out.push_back({m, m, ref});
    }
    return out;
}

/** "--- <sweep>: <title> ---" section header. */
std::string
section(const std::string &sweep, const std::string &title)
{
    return "\n--- " + sweep + ": " + title + " ---\n";
}

/**
 * Gmean speedup of every other column over @p ref, one line
 * each; empty when @p ref is absent or alone.
 */
std::string
speedupSection(const Results &res, const std::string &sweep,
               const std::string &ref, const std::string &title)
{
    if (!hasColumn(res, sweep, ref))
        return {};
    std::string lines;
    for (const Ratio &r : ratiosOver(res, sweep, ref)) {
        appendf(lines, "  %-12s %+6.1f%%\n", r.name.c_str(),
                100.0 * (gmeanRatio(res, sweep, r.num, ref) - 1.0));
    }
    return lines.empty() ? lines : section(sweep, title) + lines;
}

std::string
fig7Body(const Results &res, const std::string &sweep)
{
    return speedupSection(res, sweep, "Baseline",
                          "speedup vs Baseline (gmean, TMD "
                          "excluded)");
}

std::string
fig8aBody(const Results &res, const std::string &sweep)
{
    // Constraints ON ("<m>") vs OFF ("<m>-nc") pairs.
    std::vector<Ratio> pairs;
    for (const std::string &m : sweepMachines(res, sweep)) {
        if (hasColumn(res, sweep, m + "-nc"))
            pairs.push_back({m, m, m + "-nc"});
    }
    if (pairs.empty())
        return {};
    std::string out =
        section(sweep, "speedup of constraints ON vs OFF") +
        ratioTable(res, sweep, pairs);
    for (const Ratio &p : pairs) {
        out += section(sweep, "issued-instruction reduction from "
                              "constraints (" +
                                  p.name + ")");
        double sum = 0.0;
        size_t n = 0;
        for (const TableRow &r : sweepRows(res, sweep)) {
            const CellResult *on = res.find(sweep, p.num, r.name);
            const CellResult *off = res.find(sweep, p.den, r.name);
            double red = 1.0 - double(on->stats.instructions) /
                                   double(off->stats.instructions);
            appendf(out, "  %-22s %+6.2f%%\n", r.name.c_str(),
                    100.0 * red);
            sum += red;
            ++n;
        }
        appendf(out, "  %-22s %+6.2f%%\n", "mean",
                100.0 * sum / double(n));
    }
    return out;
}

std::string
fig8bBody(const Results &res, const std::string &sweep)
{
    if (!hasColumn(res, sweep, "Identity"))
        return {};
    std::vector<Ratio> ratios = ratiosOver(res, sweep, "Identity");
    if (ratios.empty())
        return {};
    return section(sweep, "speedup vs Identity") +
           ratioTable(res, sweep, ratios);
}

std::string
fig9Body(const Results &res, const std::string &sweep)
{
    std::string out;
    if (hasColumn(res, sweep, "SWI-full")) {
        std::vector<Ratio> ratios =
            ratiosOver(res, sweep, "SWI-full", {"Baseline"});
        if (!ratios.empty()) {
            out += section(sweep, "slowdown vs fully-associative");
            out += ratioTable(res, sweep, ratios);
        }
    }
    return out + speedupSection(res, sweep, "Baseline",
                                "SWI speedup vs Baseline by "
                                "associativity (gmean, TMD "
                                "excluded)");
}

std::string
policyBody(const Results &res, const std::string &sweep)
{
    std::string out;
    for (const std::string &base : sweepMachines(res, sweep)) {
        // Columns of one machine: "<m>" (its oldest-first run)
        // and "<m>/<policy>" for every other policy present.
        std::vector<std::string> names = {"oldest"};
        std::vector<Ratio> ratios;
        for (frontend::SchedPolicyKind k :
             frontend::allSchedPolicies()) {
            const char *name = frontend::schedPolicyName(k);
            std::string label = base + "/" + name;
            if (k == frontend::SchedPolicyKind::OldestFirst ||
                !hasColumn(res, sweep, label))
                continue;
            names.push_back(name);
            ratios.push_back({name, label, base});
        }
        if (ratios.empty())
            continue;
        std::vector<std::vector<double>> ipc;
        std::vector<std::vector<bool>> timed_out;
        SweepColumnData oldest = sweepColumnData(res, sweep, base);
        ipc.push_back(std::move(oldest.ipc));
        timed_out.push_back(std::move(oldest.timed_out));
        for (const Ratio &r : ratios) {
            SweepColumnData col = sweepColumnData(res, sweep, r.num);
            ipc.push_back(std::move(col.ipc));
            timed_out.push_back(std::move(col.timed_out));
        }
        out += section(sweep, base + ": IPC by policy");
        out += formatIpcTable(sweepRows(res, sweep), names, ipc,
                              &timed_out);
        out += section(sweep, base + ": speedup vs oldest");
        out += ratioTable(res, sweep, ratios);
    }
    return out;
}

std::string
scalingBody(const Results &res, const std::string &sweep)
{
    // The SM-count axis and the 1-SM columns, in cell order.
    std::vector<unsigned> sms;
    std::vector<std::string> bases;
    for (const CellResult *c : res.sweepCells(sweep)) {
        if (std::find(sms.begin(), sms.end(), c->num_sms) ==
            sms.end())
            sms.push_back(c->num_sms);
        if (c->num_sms == 1 &&
            std::find(bases.begin(), bases.end(), c->machine) ==
                bases.end())
            bases.push_back(c->machine);
    }
    std::string lines;
    for (const std::string &base : bases) {
        for (unsigned n : sms) {
            std::string label =
                base + "@" + std::to_string(n) + "sm";
            double r = gmeanRatio(res, sweep, label, base);
            if (n == 1 || r <= 0.0)
                continue;
            appendf(lines,
                    "  %-16s %5.2fx  (efficiency %5.1f%%)\n",
                    label.c_str(), r, 100.0 * r / double(n));
        }
    }
    return lines.empty()
               ? lines
               : section(sweep, "vs 1 SM (gmean IPC ratio)") + lines;
}

/** One figure's report: the sweeps it reads and how. */
struct Report
{
    const char *figure;
    std::vector<std::string> sweeps;
    const char *reference; //!< paper-reference lines
    std::string (*body)(const Results &, const std::string &);
};

const std::vector<Report> &
reports()
{
    static const std::vector<Report> v = {
        {"fig7",
         {"fig7_regular", "fig7_irregular"},
         "Reproduction of Figure 7 (Brunie, Collange, Diamos, "
         "ISCA 2012)\n"
         "Paper reference gmean speedups vs baseline:\n"
         "  regular:   SBI +15%, SWI +25%, SBI+SWI +23%\n"
         "  irregular: SBI +41%, SWI +33%, SBI+SWI +40%\n",
         fig7Body},
        {"fig8a",
         {"fig8a_regular", "fig8a_irregular"},
         "Reproduction of Figure 8(a): SBI reconvergence "
         "constraints\n"
         "Paper: <0.1% perf effect on SBI alone; SortingNetworks "
         "+2.4% on SBI+SWI;\n"
         "BFS/Histogram held back; issued instructions reduced "
         "1.3% (reg) / 5.5% (irr).\n",
         fig8aBody},
        {"fig8b",
         {"fig8b_regular", "fig8b_irregular"},
         "Reproduction of Figure 8(b): SWI lane-shuffle policies "
         "(Table 1), speedup vs Identity\n"
         "Paper gmean: +0.3% regular, +1.4% irregular; XorRev "
         "most consistent, up to +7.7% (Needleman-Wunsch).\n",
         fig8bBody},
        {"fig9",
         {"fig9_regular", "fig9_irregular"},
         "Reproduction of Figure 9: SWI lookup associativity\n"
         "(16 warps per pool: sets 1/2/8/16 stand in for the "
         "paper's full/11-way/3-way/direct)\n"
         "Paper: direct-mapped keeps >= 85% of fully-associative "
         "on irregular apps (96% on regular);\n"
         "direct-mapped SWI still speeds the baseline up by 26% "
         "(vs 34% fully associative).\n",
         fig9Body},
        {"policy",
         {"fig_policy_regular", "fig_policy_irregular"},
         "Scheduling-policy study: primary-scheduler policies "
         "across the Figure 7 applications\n"
         "(oldest = the paper's machines; rr / gto / minpc are "
         "beyond-the-paper variants)\n",
         policyBody},
        {"scaling",
         {"fig_scaling", "fig_scaling_banked"},
         "Multi-SM scaling study (legacy single-pipe chip vs "
         "banked memory system)\n",
         scalingBody},
    };
    return v;
}

} // namespace

double
gmeanRatio(const Results &results, const std::string &sweep,
           const std::string &machine, const std::string &ref)
{
    std::vector<bool> excluded;
    for (const TableRow &r : sweepRows(results, sweep))
        excluded.push_back(r.excluded);
    std::vector<double> num = sweepColumn(results, sweep, machine);
    std::vector<double> den = sweepColumn(results, sweep, ref);
    if (num.size() != excluded.size() ||
        den.size() != excluded.size())
        return 0.0;
    double d = geomean(excludeFromMeans(den, excluded));
    return d > 0.0 ? geomean(excludeFromMeans(num, excluded)) / d
                   : 0.0;
}

std::string
formatReports(const Results &results)
{
    const std::vector<std::string> present = results.sweepNames();
    std::string out;
    for (const Report &r : reports()) {
        std::string bodies;
        for (const std::string &s : r.sweeps) {
            if (std::find(present.begin(), present.end(), s) !=
                present.end())
                bodies += r.body(results, s);
        }
        if (bodies.empty())
            continue;
        out += "\n=== " + std::string(r.figure) + " report ===\n";
        out += r.reference;
        out += bodies;
    }
    return out;
}

} // namespace siwi::runner
