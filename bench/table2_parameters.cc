/**
 * @file
 * Table 2 reproduction: micro-architecture parameters of each
 * simulated configuration. With --json PATH the parameters are
 * also written as a machine-readable document.
 */

#include <algorithm>
#include <cstdio>

#include "common/json.hh"
#include "core/siwi.hh"
#include "core/config_io.hh"
#include "runner/cli.hh"

using namespace siwi;
using pipeline::PipelineMode;

int
main(int argc, char **argv)
{
    runner::ArgList args(argc, argv);
    std::string json_path;
    args.option("--json", &json_path);
    if (!runner::finishArgs(args, "table2_parameters"))
        return 2;

    std::printf("Reproduction of Table 2: micro-architecture "
                "parameters\n");
    Json doc = Json::object();
    for (PipelineMode m :
         {PipelineMode::Baseline, PipelineMode::Warp64,
          PipelineMode::SBI, PipelineMode::SWI,
          PipelineMode::SBISWI}) {
        // The paper's single SM: its memory is the chip's DRAM
        // channel.
        core::GpuConfig c = core::GpuConfig::make(m, 1);
        std::printf("\n### %s\nmode:               %s\n%s"
                    "memory:             %g B/cycle, %u cycles\n",
                    pipelineModeName(m), pipelineModeName(m),
                    c.sm.summary().c_str(),
                    double(c.dram.bytes_per_cycle_x10) / 10.0,
                    c.dram.latency_cycles);
        // The full field-table dump (core/config_io.hh), so the
        // JSON form of Table 2 carries every knob a machine file
        // could override, plus the two Table 2 rows no knob
        // holds: the machine's name and its scheduler latency.
        auto member = [](Json::Object &o, std::string_view key) {
            return std::find_if(
                o.begin(), o.end(),
                [&](const Json::Member &f) { return f.first == key; });
        };
        Json j = core::gpuConfigToJson(c);
        Json::Object &sm = member(j.obj(), "sm")->second.obj();
        sm.insert(sm.begin(), {"mode", Json(pipelineModeName(m))});
        sm.insert(member(sm, "delivery_latency"),
                  {"scheduler_latency", Json(c.sm.schedulerLatency())});
        doc.set(pipelineModeName(m), std::move(j));
    }
    std::printf("\nPaper Table 2 reference:\n"
                "  Baseline: 32x32 warps, sched 1cyc, delivery "
                "0cyc\n"
                "  SBI: 16x64, sched 1cyc, delivery 1cyc\n"
                "  SWI: 16x64, sched 2cyc, delivery 1cyc\n"
                "  common: 1GHz, exec 8cyc, scoreboard 6/warp, L1 "
                "48K 6-way 128B 3cyc, mem 10GB/s 330ns\n");

    if (!json_path.empty()) {
        std::string err;
        if (!doc.writeFile(json_path, 2, &err)) {
            std::fprintf(stderr, "%s\n", err.c_str());
            return 1;
        }
    }
    return 0;
}
