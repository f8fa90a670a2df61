/**
 * @file
 * Figure 6 reproduction: the SPEC 2000 analogs on the 8-wide aggressive
 * superscalar with a 1024-entry window. For each benchmark we report
 * the IPC of an idealized 256x256 LSQ, a 48x32 LSQ and the MDT/SFC with
 * the total-ordering ENF predictor, all normalized to an idealized
 * 120x80 LSQ.
 *
 * Paper shapes to check: MDT/SFC ~9% below the 120x80 LSQ on specint
 * (dominated by the bzip2/mcf/vpr_route outliers), ~2% above on specfp;
 * the 48x32 LSQ trails on fp workloads.
 */

#include <cstdio>

#include "bench_util.hh"

using namespace slf;
using namespace slf::bench;

int
main(int argc, char **argv)
{
    const Config opts = parseArgs(argc, argv);
    const WorkloadParams wp = workloadParams(opts);

    printHeader(
        "Figure 6: aggressive 8-wide core (normalized to 120x80 LSQ)",
        {"lsq120x80", "lsq256", "lsq48", "ENF(tot)"});

    // Every column's per-class samples: [0] int, [1] fp.
    std::vector<double> cols[2][4];

    for (const auto &info : selectedWorkloads(opts)) {
        const Program prog = info.make(wp);

        const SimResult ref = runWorkload(presetByName("agg_lsq120x80"), prog);
        const SimResult big = runWorkload(presetByName("agg_lsq256x256"), prog);
        const SimResult small = runWorkload(presetByName("agg_lsq48x32"), prog);
        const SimResult enf = runWorkload(
            presetByName("agg_total"), prog);

        const double d = ref.ipc > 0 ? ref.ipc : 1;
        const std::vector<double> row = {ref.ipc, big.ipc / d,
                                         small.ipc / d, enf.ipc / d};
        printRow(info.name, row);

        auto &c = cols[info.cls == WorkloadClass::Int ? 0 : 1];
        for (std::size_t i = 0; i < row.size(); ++i)
            c[i].push_back(row[i]);
    }

    std::printf("\n");
    for (int k = 0; k < 2; ++k)
        printRow(k ? "fp avg" : "int avg",
                 {mean(cols[k][0]), mean(cols[k][1]), mean(cols[k][2]),
                  mean(cols[k][3])});
    std::printf("\npaper: ENF int avg ~0.91, fp avg ~1.02\n");
    return 0;
}
