#include "runner/table.hh"

#include <algorithm>
#include <cstdarg>
#include <cstdio>

#include "common/log.hh"
#include "runner/metrics.hh"

namespace siwi::runner {

void
appendf(std::string &out, const char *fmt, ...)
{
    char buf[256];
    va_list ap;
    va_start(ap, fmt);
    int n = std::vsnprintf(buf, sizeof(buf), fmt, ap);
    va_end(ap);
    if (n > 0)
        out.append(buf, std::min(size_t(n), sizeof(buf) - 1));
}

namespace {

std::string
formatTable(const std::vector<TableRow> &rows,
            const std::vector<std::string> &col_names,
            const std::vector<std::vector<double>> &cols,
            const char *fmt,
            const std::vector<std::vector<bool>> *invalid = nullptr)
{
    siwi_assert(cols.size() == col_names.size(),
                "table: ", cols.size(), " columns vs ",
                col_names.size(), " names");
    for (const auto &col : cols) {
        siwi_assert(col.size() == rows.size(),
                    "table: column with ", col.size(),
                    " values vs ", rows.size(), " rows");
    }

    auto cellInvalid = [&](size_t c, size_t r) {
        return invalid && (*invalid)[c][r];
    };

    std::string out;
    appendf(out, "%-22s", "");
    for (const std::string &n : col_names)
        appendf(out, "%12s", n.c_str());
    out += '\n';

    bool any_invalid = false;
    for (size_t r = 0; r < rows.size(); ++r) {
        appendf(out, "%-22s", rows[r].name.c_str());
        for (size_t c = 0; c < cols.size(); ++c) {
            if (cellInvalid(c, r)) {
                // A truncated run has no meaningful IPC; never
                // print a plausible-looking number for it.
                appendf(out, "%12s", "T/O");
                any_invalid = true;
            } else {
                appendf(out, fmt, cols[c][r]);
            }
        }
        out += '\n';
    }

    // Geomean over non-excluded rows (paper: TMD not counted);
    // timed-out cells are dropped from their column's mean.
    appendf(out, "%-22s", "Gmean");
    for (size_t c = 0; c < cols.size(); ++c) {
        std::vector<bool> excluded;
        for (size_t r = 0; r < rows.size(); ++r)
            excluded.push_back(rows[r].excluded ||
                               cellInvalid(c, r));
        appendf(out, fmt,
                geomean(excludeFromMeans(cols[c], excluded)));
    }
    out += '\n';
    if (any_invalid)
        out += "(T/O = timed out at the cycle cap; excluded from "
               "Gmean)\n";
    return out;
}

} // namespace

std::string
formatIpcTable(const std::vector<TableRow> &rows,
               const std::vector<std::string> &col_names,
               const std::vector<std::vector<double>> &cols,
               const std::vector<std::vector<bool>> *invalid)
{
    return formatTable(rows, col_names, cols, "%12.2f", invalid);
}

std::string
formatRatioTable(const std::vector<TableRow> &rows,
                 const std::vector<std::string> &col_names,
                 const std::vector<std::vector<double>> &cols,
                 const std::vector<std::vector<bool>> *invalid)
{
    return formatTable(rows, col_names, cols, "%12.3f", invalid);
}

std::vector<TableRow>
sweepRows(const Results &results, const std::string &sweep)
{
    std::vector<TableRow> rows;
    for (const CellResult *c : results.sweepCells(sweep)) {
        if (std::none_of(rows.begin(), rows.end(),
                         [&](const TableRow &r) {
                             return r.name == c->workload;
                         }))
            rows.push_back({c->workload, c->excluded_from_means});
    }
    return rows;
}

std::vector<std::string>
sweepMachines(const Results &results, const std::string &sweep)
{
    std::vector<std::string> names;
    for (const CellResult *c : results.sweepCells(sweep)) {
        if (std::find(names.begin(), names.end(), c->machine) ==
            names.end())
            names.push_back(c->machine);
    }
    return names;
}

SweepColumnData
sweepColumnData(const Results &results, const std::string &sweep,
                const std::string &machine)
{
    SweepColumnData col;
    for (const CellResult *c : results.sweepCells(sweep)) {
        if (c->machine == machine) {
            col.ipc.push_back(c->ipc);
            col.timed_out.push_back(c->timed_out);
        }
    }
    return col;
}

std::vector<double>
sweepColumn(const Results &results, const std::string &sweep,
            const std::string &machine)
{
    return sweepColumnData(results, sweep, machine).ipc;
}

std::string
formatSweepTable(const Results &results, const std::string &sweep)
{
    std::vector<std::string> machines =
        sweepMachines(results, sweep);
    std::vector<std::vector<double>> cols;
    std::vector<std::vector<bool>> timed_out;
    for (const std::string &m : machines) {
        SweepColumnData col = sweepColumnData(results, sweep, m);
        cols.push_back(std::move(col.ipc));
        timed_out.push_back(std::move(col.timed_out));
    }
    return formatIpcTable(sweepRows(results, sweep), machines,
                          cols, &timed_out);
}

} // namespace siwi::runner
