#include "sim_result.hh"

namespace slf
{

void
SimResult::mergeFrom(const SimResult &other)
{
    if (workload.empty())
        workload = other.workload;

    cycles += other.cycles;
    insts += other.insts;
    ipc = cycles ? double(insts) / double(cycles) : 0.0;

#define SLF_SIM_COUNTER_ADD(name) name += other.name;
    SLF_SIM_COUNTERS(SLF_SIM_COUNTER_ADD)
#undef SLF_SIM_COUNTER_ADD

    checker_enabled = checker_enabled || other.checker_enabled;
    checker_clean = checker_clean && other.checker_clean;
    check_retirements += other.check_retirements;
    check_failures += other.check_failures;
    check_store_commit_failures += other.check_store_commit_failures;
    for (const CheckFailure &f : other.check_reports) {
        if (check_reports.size() >= GoldenChecker::kMaxReports)
            break;
        check_reports.push_back(f);
    }

    occ.mergeFrom(other.occ);
    cpi.mergeFrom(other.cpi);
    blame.mergeFrom(other.blame);
}

} // namespace slf
