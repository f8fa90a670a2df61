#include "bench_util.hh"

#include <cstdio>

namespace slf::bench
{

Config
parseArgs(int argc, char **argv)
{
    Config opts;
    opts.parseAssignments(std::vector<std::string>(argv + 1, argv + argc));
    return opts;
}

campaign::SweepOptions
sweepOptions(const Config &opts)
{
    campaign::SweepOptions so;
    so.scale = opts.getUInt("scale", so.scale);
    so.wseed = opts.getUInt("wseed", so.wseed);
    so.bench_filter = opts.getString("bench");
    so.fault_iters = opts.getUInt("iters", so.fault_iters);
    so.fault_rate = opts.getDouble("fault_rate", so.fault_rate);
    for (const std::string &key : opts.keys()) {
        // Bench-harness keys (out=FILE, corpus=DIR, jobs/retries) must
        // not leak into the per-job core-config overrides:
        // applyOverrides() rejects unknown keys loudly.
        if (key == "scale" || key == "wseed" || key == "bench" ||
            key == "iters" || key == "fault_rate" || key == "jobs" ||
            key == "retries" || key == "out" || key == "corpus" ||
            key == "reps")
            continue;
        so.overrides.set(key, opts.getString(key));
    }
    return so;
}

campaign::CampaignOptions
campaignOptions(const Config &opts)
{
    campaign::CampaignOptions co;
    co.jobs = static_cast<unsigned>(opts.getUInt("jobs", 1));
    co.max_retries =
        static_cast<unsigned>(opts.getUInt("retries", co.max_retries));
    return co;
}

void
printHeader(const std::string &title,
            const std::vector<std::string> &columns)
{
    std::string out;
    campaign::tableHeader(out, title, columns);
    std::fputs(out.c_str(), stdout);
}

void
printRow(const std::string &name, const std::vector<double> &cells)
{
    std::string out;
    campaign::tableRow(out, name, cells);
    std::fputs(out.c_str(), stdout);
    std::fflush(stdout);
}

} // namespace slf::bench
