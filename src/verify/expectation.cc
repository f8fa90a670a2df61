#include "verify/expectation.hh"

#include <algorithm>
#include <map>
#include <sstream>

#include "arch/func_sim.hh"

namespace slf
{

namespace
{

using StatGetter = std::uint64_t (*)(const SimResult &);

/** Canonical counter names (the ResultSink JSON spelling) -> getters. */
const std::map<std::string, StatGetter, std::less<>> &
statTable()
{
    static const std::map<std::string, StatGetter, std::less<>> table = {
#define STAT(name) \
    {#name, [](const SimResult &r) { return std::uint64_t(r.name); }},
        STAT(cycles)
        STAT(insts)
        SLF_SIM_COUNTERS(STAT)
        STAT(checker_enabled)
        STAT(checker_clean)
        STAT(check_retirements)
        STAT(check_failures)
        STAT(check_store_commit_failures)
#undef STAT
    };
    return table;
}

} // namespace

std::optional<std::uint64_t>
lookupStat(const SimResult &res, std::string_view name)
{
    const auto it = statTable().find(name);
    if (it == statTable().end())
        return std::nullopt;
    return it->second(res);
}

const std::vector<std::string> &
statNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> out;
        for (const auto &[name, getter] : statTable())
            out.push_back(name);
        return out;
    }();
    return names;
}

std::string
ExpectFailure::toString() const
{
    std::ostringstream oss;
    if (!expect.config.empty())
        oss << '@' << expect.config << ' ';
    oss << expect.toString();
    if (unknown_stat)
        oss << "  [unknown stat name]";
    else
        oss << "  [actual " << actual << ']';
    if (expect.line)
        oss << "  (line " << expect.line << ')';
    return oss.str();
}

std::vector<ExpectFailure>
evaluateExpectations(const std::vector<AsmExpect> &expects,
                     std::string_view config_name, const SimResult &res,
                     const Program &prog, std::uint64_t max_insts)
{
    std::vector<ExpectFailure> failures;

    const bool needs_arch = std::any_of(
        expects.begin(), expects.end(), [&](const AsmExpect &e) {
            return e.kind != ExpectKind::Stat &&
                   (e.config.empty() || e.config == config_name);
        });
    std::optional<FuncSim> golden;
    if (needs_arch) {
        golden.emplace(prog);
        golden->run(max_insts);
    }

    for (const AsmExpect &e : expects) {
        if (!e.config.empty() && e.config != config_name)
            continue;
        std::uint64_t actual = 0;
        switch (e.kind) {
          case ExpectKind::Stat: {
            const auto v = lookupStat(res, e.stat);
            if (!v) {
                failures.push_back({e, 0, true});
                continue;
            }
            actual = *v;
            break;
          }
          case ExpectKind::Reg:
            actual = golden->readReg(e.reg);
            break;
          case ExpectKind::Mem:
            actual = golden->memory().readBytes(e.addr, e.size);
            break;
        }
        if (!expectCompare(e.cmp, actual, e.value))
            failures.push_back({e, actual, false});
    }
    return failures;
}

} // namespace slf
