#include "result_sink.hh"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <sstream>

#include "sim/json.hh"
#include "sim/logging.hh"

namespace slf::campaign
{

namespace
{

/** Write all of @p content to @p fd, retrying on EINTR.
 *  @return false on a write error. */
bool
writeAll(int fd, const std::string &content)
{
    std::size_t off = 0;
    while (off < content.size()) {
        const ssize_t w =
            ::write(fd, content.data() + off, content.size() - off);
        if (w < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        off += std::size_t(w);
    }
    return true;
}

/** Fixed %.6f rendering so output is platform- and locale-stable. */
std::string
jsonDouble(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6f", v);
    return buf;
}

void
emitCounters(std::ostringstream &os, const std::string &indent,
             const SimResult &r)
{
    os << indent << "\"cycles\": " << r.cycles << ",\n";
    os << indent << "\"insts\": " << r.insts << ",\n";
    os << indent << "\"ipc\": " << jsonDouble(r.ipc) << ",\n";
#define SLF_SINK_EMIT(name)                                             \
    os << indent << "\"" #name "\": " << r.name << ",\n";
    SLF_SIM_COUNTERS(SLF_SINK_EMIT)
#undef SLF_SINK_EMIT
    os << indent << "\"violation_rate\": "
       << jsonDouble(r.violationRate()) << ",\n";
    os << indent << "\"load_replay_rate\": "
       << jsonDouble(r.loadReplayRate()) << ",\n";
    os << indent << "\"store_replay_rate\": "
       << jsonDouble(r.storeReplayRate()) << ",\n";
    os << indent << "\"checker\": {"
       << "\"enabled\": " << (r.checker_enabled ? "true" : "false")
       << ", \"clean\": " << (r.checker_clean ? "true" : "false")
       << ", \"retirements\": " << r.check_retirements
       << ", \"failures\": " << r.check_failures
       << ", \"store_commit_failures\": " << r.check_store_commit_failures
       << "}";

    // Schema v2: occupancy distributions, only for runs that sampled
    // them. Omitting the section entirely (not emitting empty objects)
    // is what keeps unsampled campaigns byte-identical to schema v1.
    if (r.occ.enabled()) {
        os << ",\n" << indent << "\"obs\": {\"occupancy\": {";
        bool first = true;
        for (std::size_t i = 0; i < obs::kOccStatCount; ++i) {
            const auto s = static_cast<obs::OccStat>(i);
            const Distribution &d = r.occ.dist(s);
            if (d.count() == 0)
                continue;
            os << (first ? "" : ", ") << "\"" << obs::occStatName(s)
               << "\": {\"count\": " << d.count()
               << ", \"min\": " << d.min() << ", \"max\": " << d.max()
               << ", \"mean\": " << jsonDouble(d.mean()) << "}";
            first = false;
        }
        os << "}}";
    }

    // Schema v3: cycle attribution. Gated on classified cycles being
    // present so synthetic results (tests) keep rendering v1/v2
    // byte-identically; every real run classifies all its cycles.
    if (r.cpi.total() > 0) {
        os << ",\n" << indent << "\"cpi_stack\": {\"total\": "
           << r.cpi.total();
        for (std::size_t i = 0; i < obs::kCpiComponentCount; ++i) {
            const auto c = static_cast<obs::CpiComponent>(i);
            os << ", \"" << obs::cpiComponentName(c)
               << "\": " << r.cpi.value(c);
        }
        os << "},\n";
        os << indent << "\"blame\": {";
        for (std::size_t i = 0; i < obs::kFlushCauseCount; ++i) {
            const auto c = static_cast<obs::FlushCause>(i);
            const obs::BlameRecord &b = r.blame.record(c);
            os << (i ? ", " : "") << "\"" << obs::flushCauseName(c)
               << "\": {\"flushes\": " << b.flushes
               << ", \"squashed_insts\": " << b.squashed_insts
               << ", \"refetch_cycles\": " << b.refetch_cycles << "}";
        }
        os << "}";
    }
    os << "\n";
}

} // namespace

std::string
ResultSink::toJson(const std::string &campaign_name,
                   std::uint64_t root_seed,
                   const std::vector<JobResult> &results,
                   const ScreenInfo *screen)
{
    bool any_obs = false;
    bool any_cpi = false;
    bool any_failed = false;
    bool any_screening = screen != nullptr;
    for (const JobResult &jr : results) {
        any_obs = any_obs || jr.result.occ.enabled();
        any_cpi = any_cpi || jr.result.cpi.total() > 0;
        any_failed = any_failed || !jr.ok();
        any_screening =
            any_screening ||
            backendFor(jr.backend).fidelity() == Fidelity::Screening;
    }

    std::ostringstream os;
    os << "{\n";
    os << "  \"schema_version\": "
       << (any_screening ? kSchemaVersionMixed
           : any_failed  ? kSchemaVersionFailures
           : any_cpi     ? kSchemaVersionCpi
           : any_obs     ? kSchemaVersionObs
                         : kSchemaVersion)
       << ",\n";
    os << "  \"campaign\": \"" << jsonEscape(campaign_name) << "\",\n";
    os << "  \"root_seed\": " << root_seed << ",\n";

    // Schema v5: selection-rule provenance, rendered before the jobs so
    // a reader knows how to interpret the fidelity labels below.
    if (screen) {
        os << "  \"screen\": {\n";
        os << "    \"stat\": \"" << jsonEscape(screen->stat) << "\",\n";
        if (screen->top_k)
            os << "    \"rule\": \"top_k\",\n"
               << "    \"top_k\": " << screen->top_k << ",\n";
        else
            os << "    \"rule\": \"threshold\",\n"
               << "    \"threshold\": " << jsonDouble(screen->threshold)
               << ",\n";
        os << "    \"screened\": " << screen->screened << ",\n";
        os << "    \"reran\": " << screen->reran << "\n";
        os << "  },\n";
    }

    os << "  \"jobs\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
        const JobResult &jr = results[i];
        os << "    {\n";
        os << "      \"index\": " << jr.index << ",\n";
        os << "      \"config\": \"" << jsonEscape(jr.config_name)
           << "\",\n";
        os << "      \"workload\": \"" << jsonEscape(jr.workload)
           << "\",\n";
        if (any_screening) {
            const Backend &b = backendFor(jr.backend);
            os << "      \"backend\": \"" << b.name() << "\",\n";
            os << "      \"fidelity\": \"" << fidelityName(b.fidelity())
               << "\",\n";
        }
        os << "      \"status\": \"" << jobStatusName(jr.status)
           << "\",\n";
        os << "      \"attempts\": " << jr.attempts << ",\n";
        os << "      \"error\": \"" << jsonEscape(jr.error) << "\",\n";
        emitCounters(os, "      ", jr.result);
        os << "    }" << (i + 1 < results.size() ? "," : "") << "\n";
    }
    os << "  ],\n";

    // Per-config aggregates: every successful job's counters merged.
    // std::map keys keep the section sorted and deterministic. In v5
    // the key gains the backend so screening estimates never average
    // into exact numbers; in v1-v4 every job has the same (timing)
    // fidelity and the key degenerates to the config name, keeping the
    // section byte-identical to the pre-backend layout.
    std::map<std::pair<std::string, std::string>,
             std::pair<SimResult, std::size_t>>
        agg;
    for (const JobResult &jr : results) {
        if (!jr.ok())
            continue;
        const std::string bname =
            any_screening ? backendFor(jr.backend).name() : "";
        auto &slot = agg[{jr.config_name, bname}];
        slot.first.mergeFrom(jr.result);
        ++slot.second;
    }
    os << "  \"aggregates\": [\n";
    std::size_t n = 0;
    for (const auto &kv : agg) {
        os << "    {\n";
        os << "      \"config\": \"" << jsonEscape(kv.first.first)
           << "\",\n";
        if (any_screening) {
            const std::string &bname = kv.first.second;
            const auto kind = backendKindFromName(bname);
            os << "      \"backend\": \"" << jsonEscape(bname)
               << "\",\n";
            os << "      \"fidelity\": \""
               << fidelityName(backendFor(kind ? *kind
                                               : BackendKind::Timing)
                                   .fidelity())
               << "\",\n";
        }
        os << "      \"jobs\": " << kv.second.second << ",\n";
        emitCounters(os, "      ", kv.second.first);
        os << "    }" << (++n < agg.size() ? "," : "") << "\n";
    }
    os << "  ]";

    // Schema v4: the quarantine manifest. Job-index order (same as the
    // "jobs" array), one entry per job that exhausted its retries or
    // deadline, carrying everything offline reproduction needs. The
    // aggregates above deliberately exclude these jobs — partial
    // aggregates over clean results, never poisoned ones.
    if (any_failed) {
        std::size_t failed = 0;
        for (const JobResult &jr : results)
            failed += jr.ok() ? 0 : 1;
        os << ",\n  \"failures\": [\n";
        std::size_t f = 0;
        for (const JobResult &jr : results) {
            if (jr.ok())
                continue;
            os << "    {\n";
            os << "      \"index\": " << jr.index << ",\n";
            os << "      \"config\": \"" << jsonEscape(jr.config_name)
               << "\",\n";
            os << "      \"workload\": \"" << jsonEscape(jr.workload)
               << "\",\n";
            os << "      \"status\": \"" << jobStatusName(jr.status)
               << "\",\n";
            os << "      \"attempts\": " << jr.attempts << ",\n";
            os << "      \"error\": \"" << jsonEscape(jr.error)
               << "\",\n";
            os << "      \"core_seed\": " << jr.core_seed << ",\n";
            os << "      \"fault_seed\": " << jr.fault_seed << "\n";
            os << "    }" << (++f < failed ? "," : "") << "\n";
        }
        os << "  ]\n";
    } else {
        os << "\n";
    }
    os << "}\n";
    return os.str();
}

void
ResultSink::writeFileAtomic(const std::string &path,
                            const std::string &content)
{
    // A FIFO or device (/dev/null, a pipe someone drains) is written in
    // place: renaming over it would replace it with a regular file, and
    // neither atomicity nor durability means anything for it.
    struct stat st;
    if (::stat(path.c_str(), &st) == 0 && !S_ISREG(st.st_mode)) {
        const int fd = ::open(path.c_str(), O_WRONLY);
        if (fd < 0)
            fatal("ResultSink: cannot open '" + path + "' for writing");
        const bool ok = writeAll(fd, content);
        ::close(fd);
        if (!ok)
            fatal("ResultSink: short write to '" + path + "'");
        return;
    }

    const std::string tmp =
        path + ".tmp." + std::to_string(::getpid());

    const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                          0644);
    if (fd < 0)
        fatal("ResultSink: cannot open '" + tmp + "' for writing");

    if (!writeAll(fd, content)) {
        ::close(fd);
        ::unlink(tmp.c_str());
        fatal("ResultSink: short write to '" + tmp + "'");
    }

    // fsync BEFORE rename: once the new name is visible it must point
    // at durable bytes, or a crash right after rename can resurface an
    // empty/partial target on journaling filesystems.
    if (::fsync(fd) != 0) {
        ::close(fd);
        ::unlink(tmp.c_str());
        fatal("ResultSink: fsync failed on '" + tmp + "'");
    }
    ::close(fd);

    // Host-fault seam: crash between the durable tmp file and the
    // rename (the "mid-final-write" point of the recovery harness).
    if (const char *e = std::getenv("SLFWD_SINK_KILL_BEFORE_RENAME")) {
        if (*e && *e != '0')
            ::_exit(137);
    }

    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        ::unlink(tmp.c_str());
        fatal("ResultSink: cannot rename '" + tmp + "' over '" + path +
              "'");
    }

    // fsync the parent directory so the rename itself is durable.
    fsyncParentDir(path);
}

void
ResultSink::fsyncParentDir(const std::string &path)
{
    const std::size_t slash = path.find_last_of('/');
    const std::string dir =
        slash == std::string::npos ? "." : path.substr(0, slash + 1);
    const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (dfd >= 0) {
        ::fsync(dfd);
        ::close(dfd);
    }
}

} // namespace slf::campaign
