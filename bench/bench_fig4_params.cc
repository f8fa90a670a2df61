/**
 * @file
 * Figure 4 reproduction: print the simulator parameter table for the
 * baseline and aggressive superscalar configurations.
 */

#include <cstdio>

#include "cpu/core_config.hh"

using namespace slf;

namespace
{

void
printConfigColumn(const char *label, const CoreConfig &cfg)
{
    std::printf("%-24s %s\n", "Parameter", label);
    std::printf("%-24s %u instr/cycle\n", "Pipeline Width", cfg.width);
    std::printf("%-24s up to %u branches/cycle\n", "Fetch Bandwidth",
                cfg.max_branches_per_fetch);
    std::printf("%-24s %u-bit gshare + %.0f%% oracle-fixed mispredicts\n",
                "Branch Predictor", cfg.gshare_bits,
                cfg.oracle_fix_prob * 100);
    std::printf("%-24s %lluK-entry PT/CT, %lluK producer ids, "
                "%llu-entry LFPT\n",
                "Memory Dep. Predictor",
                (unsigned long long)cfg.memdep.table_entries / 1024,
                (unsigned long long)cfg.memdep.num_set_ids / 1024,
                (unsigned long long)cfg.memdep.lfpt_entries);
    std::printf("%-24s %llu cycles\n", "Misprediction Penalty",
                (unsigned long long)cfg.mispredict_penalty);
    std::printf("%-24s %lluK sets, %u-way set assoc., %uB granularity\n",
                "MDT", (unsigned long long)cfg.mdt.sets / 1024,
                cfg.mdt.assoc, cfg.mdt.granularity);
    std::printf("%-24s %llu sets, %u-way set assoc.\n", "SFC",
                (unsigned long long)cfg.sfc.sets, cfg.sfc.assoc);
    std::printf("%-24s %u checkpoints (per-slot rollback)\n", "Renamer",
                cfg.rob_entries);
    std::printf("%-24s %u entries\n", "Scheduling Window",
                cfg.sched_entries);
    std::printf("%-24s %lluKB, %u-way, %uB lines, %llu-cycle miss\n",
                "L1 I-Cache",
                (unsigned long long)cfg.l1i.size_bytes / 1024,
                cfg.l1i.assoc, cfg.l1i.line_bytes,
                (unsigned long long)cfg.l1i.miss_penalty);
    std::printf("%-24s %lluKB, %u-way, %uB lines, %llu-cycle miss\n",
                "L1 D-Cache",
                (unsigned long long)cfg.l1d.size_bytes / 1024,
                cfg.l1d.assoc, cfg.l1d.line_bytes,
                (unsigned long long)cfg.l1d.miss_penalty);
    std::printf("%-24s %lluKB, %u-way, %uB lines, %llu-cycle miss\n",
                "L2 Cache",
                (unsigned long long)cfg.l2.size_bytes / 1024, cfg.l2.assoc,
                cfg.l2.line_bytes,
                (unsigned long long)cfg.l2.miss_penalty);
    std::printf("%-24s %u entries\n", "Reorder Buffer", cfg.rob_entries);
    std::printf("%-24s %u identical fully pipelined units\n",
                "Function Units", cfg.num_fus);
    std::printf("\n");
}

} // namespace

int
main()
{
    std::printf("Figure 4: simulator parameters\n\n");
    printConfigColumn("Baseline", CoreConfig::baseline());
    printConfigColumn("Aggressive", CoreConfig::aggressive());
    return 0;
}
