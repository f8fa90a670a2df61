/**
 * @file
 * perfbench command line.
 *
 *   perfbench --workload base|wide|screen --seed N --seconds S
 *             [--trace] [--quick] [--inject-mismatch]
 *             [--scratch DIR] [--golden FILE]
 *   perfbench --probe --workload W --seed N [--scratch DIR]
 *
 * A measuring run prints one JSON object on its last stdout line: the
 * check tally, the timed pass count and every metric with its unit.
 * --probe builds the workload's campaign, starts Campaign::run on its
 * first job and prints the CLOCK_MONOTONIC time at which that job
 * started; the job itself runs a minimal program so the probe ends
 * quickly. run.py turns the probes into setup_s.
 */

#include <cstdio>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>

#include "bench.hh"
#include "sim/logging.hh"
#include "workloads/workloads.hh"

namespace perfbench
{
namespace
{

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload base|wide|screen --seed N "
                 "--seconds S [--trace] [--quick] [--inject-mismatch] "
                 "[--scratch DIR] [--golden FILE] | --probe ...\n");
    return 2;
}

/** JSON string literal (notes may carry error text). */
std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out + "\"";
}

int
probe(const Options &opts)
{
    const Workload w(opts);
    std::int64_t first_start = 0;
    Campaign c(w.campaign().name());
    JobSpec spec = w.campaign().jobs().at(0);
    spec.make_prog = [&first_start] {
        first_start = nowNs();
        return workloads::microAluLoop(1);
    };
    c.addJob(std::move(spec));
    const std::vector<JobResult> r = c.run(w.campaignOptions(0));
    if (r.size() != 1 || !r[0].ok() || first_start == 0)
        return 1;
    std::printf("{\"first_job_ns\": %lld}\n",
                static_cast<long long>(first_start));
    return 0;
}

int
measure(const Options &opts)
{
    const Workload w(opts);
    Metrics metrics;
    RunInfo info;
    const CheckTally tally = opts.trace ? runTraced(opts, w, metrics, info)
                                        : runUntraced(opts, w, metrics, info);

    std::ostringstream os;
    os << "{\"workload\":" << quoted(w.name()) << ",\"seed\":" << opts.seed
       << ",\"trace\":" << (opts.trace ? 1 : 0)
       << ",\"job_samples\":" << info.job_samples
       << ",\"timed_passes\":" << info.timed_passes
       << ",\"attempted\":" << tally.attempted
       << ",\"failed\":" << tally.failed
       << ",\"programs_digest\":" << quoted(programsDigest(w))
       << ",\"notes\":[";
    for (std::size_t i = 0; i < tally.notes.size(); ++i)
        os << (i ? "," : "") << quoted(tally.notes[i]);
    os << "],\"metrics\":{" << std::setprecision(17);
    const char *sep = "";
    for (const auto &[name, m] : metrics) {
        os << sep << quoted(name) << ":{\"value\":" << m.value
           << ",\"unit\":" << quoted(m.unit) << "}";
        sep = ",";
    }
    os << "}}";
    std::cout << os.str() << std::endl;
    return tally.failed ? 1 : 0;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    Options opts;
    bool probe_mode = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", a.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (a == "--workload")
            opts.workload = next();
        else if (a == "--seed")
            opts.seed = std::stoull(next());
        else if (a == "--seconds")
            opts.seconds = std::stod(next());
        else if (a == "--trace")
            opts.trace = true;
        else if (a == "--quick")
            opts.quick = true;
        else if (a == "--inject-mismatch")
            opts.inject_mismatch = true;
        else if (a == "--scratch")
            opts.scratch_dir = next();
        else if (a == "--golden")
            opts.golden_path = next();
        else if (a == "--probe")
            probe_mode = true;
        else
            return usage();
    }
    if (opts.workload.empty())
        return usage();
    try {
        return probe_mode ? probe(opts) : measure(opts);
    } catch (const slf::FatalError &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
