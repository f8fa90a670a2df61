/**
 * @file
 * General-purpose simulator driver: run any SPEC 2000 analog (or micro
 * workload) under any configuration and print every harvested counter
 * of its SimResult.
 *
 * Usage:
 *   simulate <workload> [preset=NAME] [key=value ...]
 *
 * preset= accepts "baseline", "aggressive", or any name from the
 * ConfigPreset registry (lsq48x32, enf, notenf, agg_total, ...).
 *
 * Examples:
 *   simulate mcf preset=aggressive
 *   simulate bzip2 preset=lsq48x32
 *   simulate gzip memdep.mode=true scale=4
 */

#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "cpu/config_preset.hh"
#include "driver/runner.hh"
#include "sim/config.hh"
#include "sim/logging.hh"
#include "workloads/workloads.hh"

using namespace slf;

namespace
{

void
usage()
{
    std::printf("usage: simulate <workload> [preset=...] [key=value ...]\n"
                "workloads:");
    for (const auto &info : spec2000Analogs())
        std::printf(" %s", info.name);
    std::printf("\n");
}

/** Simulate @p info under the key=value @p args and print the result. */
void
simulate(const WorkloadInfo *info, const std::vector<std::string> &args)
{
    Config overrides;
    overrides.parseAssignments(args);

    WorkloadParams wp;
    wp.scale = overrides.getUInt("scale", 1);
    wp.seed = overrides.getUInt("wseed", 42);
    const Program prog = info->make(wp);

    const std::string preset = overrides.getString("preset", "baseline");
    CoreConfig cfg = preset == "baseline"    ? CoreConfig::baseline()
                     : preset == "aggressive" ? CoreConfig::aggressive()
                                              : presetByName(preset);
    applyOverrides(cfg,
                   stripKeys(overrides, {"preset", "scale", "wseed"}));

    std::printf("workload %s (%s): %s\n", info->name,
                info->cls == WorkloadClass::Int ? "int" : "fp",
                info->behaviour);

    const SimResult r = runWorkload(cfg, prog);

    std::printf("\ncycles %llu  insts %llu  IPC %.3f\n\n",
                (unsigned long long)r.cycles, (unsigned long long)r.insts,
                r.ipc);
#define SLF_PRINT_COUNTER(name)                                         \
    std::printf("%-28s %llu\n", #name, (unsigned long long)r.name);
    SLF_SIM_COUNTERS(SLF_PRINT_COUNTER)
#undef SLF_PRINT_COUNTER
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        usage();
        return 1;
    }
    const std::string name = argv[1];
    const WorkloadInfo *info = findWorkload(name);
    if (!info) {
        std::fprintf(stderr, "unknown workload '%s'\n", name.c_str());
        usage();
        return 1;
    }

    try {
        simulate(info, std::vector<std::string>(argv + 2, argv + argc));
    } catch (const std::invalid_argument &e) {
        // A malformed key=value number or boolean: a usage error.
        std::fprintf(stderr, "%s\n", e.what());
        return 2;
    } catch (const FatalError &e) {
        std::fprintf(stderr, "fatal: %s\n", e.what());
        return 1;
    }
    return 0;
}
