/**
 * @file
 * Figure 5 reproduction: the SPEC 2000 analogs on the 4-wide baseline
 * superscalar. For each benchmark we report the absolute IPC of an
 * idealized 48x32 LSQ and the IPC of the MDT/SFC normalized to it, with
 * the producer-set predictor either enforcing predicted true, anti and
 * output dependences (ENF) or only true dependences (NOT-ENF).
 *
 * The config x workload cross-product runs on the parallel campaign
 * runner (jobs=N selects the worker count; the table is identical for
 * any N). Pass out=FILE to also dump the campaign JSON.
 *
 * Paper shapes to check: ENF within ~1% of the LSQ on average, NOT-ENF
 * within ~3%; the int and fp averages are printed last.
 */

#include <cstdio>

#include "bench_util.hh"
#include "campaign/result_sink.hh"
#include "campaign/sweeps.hh"

using namespace slf;
using namespace slf::bench;

int
main(int argc, char **argv)
{
    const Config opts = parseArgs(argc, argv);

    const campaign::Campaign c =
        campaign::makeFig5Campaign(sweepOptions(opts));
    const auto results = c.run(campaignOptions(opts));

    const std::string out = opts.getString("out");
    if (!out.empty())
        campaign::ResultSink::writeFileAtomic(
            out, campaign::ResultSink::toJson(c.name(), 1, results));

    printHeader("Figure 5: baseline 4-wide core (normalized to 48x32 LSQ)",
                {"lsq48x32", "ENF", "NOT-ENF"});

    // Every column's per-class samples: [0] int, [1] fp.
    std::vector<double> cols[2][3];

    for (const auto &info : selectedWorkloads(opts)) {
        const SimResult &lsq =
            findResult(results, "lsq48x32", info.name).result;
        const SimResult &enf = findResult(results, "enf", info.name).result;
        const SimResult &notenf =
            findResult(results, "notenf", info.name).result;

        const double enf_rel = lsq.ipc > 0 ? enf.ipc / lsq.ipc : 0;
        const double notenf_rel = lsq.ipc > 0 ? notenf.ipc / lsq.ipc : 0;
        const std::vector<double> row = {lsq.ipc, enf_rel, notenf_rel};
        printRow(info.name, row);

        auto &c = cols[info.cls == WorkloadClass::Int ? 0 : 1];
        for (std::size_t i = 0; i < row.size(); ++i)
            c[i].push_back(row[i]);
    }

    std::printf("\n");
    for (int k = 0; k < 2; ++k)
        printRow(k ? "fp avg" : "int avg",
                 {mean(cols[k][0]), mean(cols[k][1]), mean(cols[k][2])});
    std::printf("\npaper: ENF int/fp averages ~0.99-1.00; NOT-ENF ~0.97\n");
    return 0;
}
