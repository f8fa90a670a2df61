#include "journal.hh"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "campaign/result_sink.hh"
#include "sim/json.hh"
#include "sim/logging.hh"

namespace slf::campaign
{

namespace
{

// ---------------------------------------------------------------------
// CRC32 (IEEE 802.3 polynomial, table-driven)
// ---------------------------------------------------------------------

const std::uint32_t *
crcTable()
{
    static std::uint32_t table[256];
    static bool init = false;
    if (!init) {
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
            table[i] = c;
        }
        init = true;
    }
    return table;
}

std::uint32_t
crc32(const char *data, std::size_t n)
{
    const std::uint32_t *t = crcTable();
    std::uint32_t c = 0xffffffffu;
    for (std::size_t i = 0; i < n; ++i)
        c = t[(c ^ static_cast<unsigned char>(data[i])) & 0xffu] ^
            (c >> 8);
    return c ^ 0xffffffffu;
}

// ---------------------------------------------------------------------
// JSON writing helpers (canonical: fixed field order, %.17g doubles so
// every double round-trips bit-exactly through the journal)
// ---------------------------------------------------------------------

std::string
roundTripDouble(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/** Close an open record body with its own CRC: crc32 of every byte
 *  written so far (i.e. of the line up to but excluding `,"crc"`). */
std::string
sealLine(std::string body)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), ",\"crc\":\"%08x\"}",
                  crc32(body.data(), body.size()));
    body += buf;
    return body;
}

// ---------------------------------------------------------------------
// Minimal JSON reader: just enough for the journal's own output
// (objects, arrays, strings with the escapes we emit, numbers, bools).
// Malformed input returns false rather than throwing — a torn tail is
// an expected input, not an error.
// ---------------------------------------------------------------------

struct Jv
{
    enum class T
    {
        Null,
        Bool,
        Num,
        Str,
        Obj,
        Arr
    };

    T t = T::Null;
    bool b = false;
    double num = 0.0;
    std::uint64_t u = 0;  ///< exact value when the token was integral
    bool integral = false;
    std::string str;
    std::vector<std::pair<std::string, Jv>> obj;
    std::vector<Jv> arr;

    const Jv *
    find(const char *key) const
    {
        for (const auto &kv : obj)
            if (kv.first == key)
                return &kv.second;
        return nullptr;
    }

    std::uint64_t asU64() const { return integral ? u : std::uint64_t(num); }
};

void
skipWs(const char *&p, const char *end)
{
    while (p < end && (*p == ' ' || *p == '\t'))
        ++p;
}

bool parseValue(const char *&p, const char *end, Jv &out);

bool
parseString(const char *&p, const char *end, std::string &out)
{
    if (p >= end || *p != '"')
        return false;
    ++p;
    out.clear();
    while (p < end && *p != '"') {
        if (*p == '\\') {
            if (p + 1 >= end)
                return false;
            ++p;
            switch (*p) {
              case '"':
                out += '"';
                break;
              case '\\':
                out += '\\';
                break;
              case 'n':
                out += '\n';
                break;
              case 'r':
                out += '\r';
                break;
              case 't':
                out += '\t';
                break;
              case 'u': {
                if (p + 4 >= end)
                    return false;
                char hex[5] = {p[1], p[2], p[3], p[4], 0};
                char *hend = nullptr;
                const unsigned long cp = std::strtoul(hex, &hend, 16);
                if (hend != hex + 4 || cp > 0xff)
                    return false;  // we only ever emit control bytes
                out += static_cast<char>(cp);
                p += 4;
                break;
              }
              default:
                return false;
            }
            ++p;
        } else {
            out += *p++;
        }
    }
    if (p >= end)
        return false;
    ++p;  // closing quote
    return true;
}

bool
parseNumber(const char *&p, const char *end, Jv &out)
{
    const char *start = p;
    if (p < end && *p == '-')
        ++p;
    bool integral = true;
    while (p < end &&
           (std::isdigit(static_cast<unsigned char>(*p)) || *p == '.' ||
            *p == 'e' || *p == 'E' || *p == '+' || *p == '-')) {
        if (*p == '.' || *p == 'e' || *p == 'E')
            integral = false;
        ++p;
    }
    if (p == start)
        return false;
    const std::string tok(start, p);
    out.t = Jv::T::Num;
    out.num = std::strtod(tok.c_str(), nullptr);
    out.integral = integral && tok[0] != '-';
    if (out.integral)
        out.u = std::strtoull(tok.c_str(), nullptr, 10);
    return true;
}

bool
parseObject(const char *&p, const char *end, Jv &out)
{
    ++p;  // '{'
    out.t = Jv::T::Obj;
    skipWs(p, end);
    if (p < end && *p == '}') {
        ++p;
        return true;
    }
    for (;;) {
        skipWs(p, end);
        std::string key;
        if (!parseString(p, end, key))
            return false;
        skipWs(p, end);
        if (p >= end || *p != ':')
            return false;
        ++p;
        Jv val;
        if (!parseValue(p, end, val))
            return false;
        out.obj.emplace_back(std::move(key), std::move(val));
        skipWs(p, end);
        if (p >= end)
            return false;
        if (*p == ',') {
            ++p;
            continue;
        }
        if (*p == '}') {
            ++p;
            return true;
        }
        return false;
    }
}

bool
parseArray(const char *&p, const char *end, Jv &out)
{
    ++p;  // '['
    out.t = Jv::T::Arr;
    skipWs(p, end);
    if (p < end && *p == ']') {
        ++p;
        return true;
    }
    for (;;) {
        Jv val;
        if (!parseValue(p, end, val))
            return false;
        out.arr.push_back(std::move(val));
        skipWs(p, end);
        if (p >= end)
            return false;
        if (*p == ',') {
            ++p;
            continue;
        }
        if (*p == ']') {
            ++p;
            return true;
        }
        return false;
    }
}

bool
parseValue(const char *&p, const char *end, Jv &out)
{
    skipWs(p, end);
    if (p >= end)
        return false;
    switch (*p) {
      case '{':
        return parseObject(p, end, out);
      case '[':
        return parseArray(p, end, out);
      case '"':
        out.t = Jv::T::Str;
        return parseString(p, end, out.str);
      case 't':
        if (end - p >= 4 && std::strncmp(p, "true", 4) == 0) {
            out.t = Jv::T::Bool;
            out.b = true;
            p += 4;
            return true;
        }
        return false;
      case 'f':
        if (end - p >= 5 && std::strncmp(p, "false", 5) == 0) {
            out.t = Jv::T::Bool;
            out.b = false;
            p += 5;
            return true;
        }
        return false;
      default:
        return parseNumber(p, end, out);
    }
}

/**
 * Validate one journal line: the trailing `,"crc":"xxxxxxxx"}` must
 * checksum the bytes before it, and the rest must parse as an object.
 */
bool
parseSealedLine(const std::string &line, Jv &out)
{
    static const char kSeal[] = ",\"crc\":\"";
    const std::size_t pos = line.rfind(kSeal);
    if (pos == std::string::npos)
        return false;
    const std::size_t hex_at = pos + sizeof(kSeal) - 1;
    if (line.size() != hex_at + 8 + 2 ||  // 8 hex digits + `"}`
        line[hex_at + 8] != '"' || line[hex_at + 9] != '}')
        return false;
    const std::uint32_t want =
        std::uint32_t(std::strtoul(line.substr(hex_at, 8).c_str(),
                                   nullptr, 16));
    if (crc32(line.data(), pos) != want)
        return false;
    // Re-close the object without the seal and parse it.
    const std::string body = line.substr(0, pos) + "}";
    const char *p = body.data();
    const char *end = body.data() + body.size();
    if (!parseValue(p, end, out) || out.t != Jv::T::Obj)
        return false;
    skipWs(p, end);
    return p == end;
}

// ---------------------------------------------------------------------
// SimResult <-> journal object
// ---------------------------------------------------------------------

void
emitResult(std::ostringstream &os, const SimResult &r)
{
    os << "{\"workload\":\"" << jsonEscape(r.workload) << "\""
       << ",\"cls\":" << unsigned(r.cls)
       << ",\"cycles\":" << r.cycles
       << ",\"insts\":" << r.insts
       << ",\"ipc\":" << roundTripDouble(r.ipc);

#define SLF_JOURNAL_EMIT(name) os << ",\"" #name "\":" << r.name;
    SLF_SIM_COUNTERS(SLF_JOURNAL_EMIT)
#undef SLF_JOURNAL_EMIT

    os << ",\"checker\":[" << (r.checker_enabled ? 1 : 0) << ","
       << (r.checker_clean ? 1 : 0) << "," << r.check_retirements << ","
       << r.check_failures << "," << r.check_store_commit_failures
       << "]";

    // Sections mirror the ResultSink's presence rules: omitted when
    // empty, so the journal stays compact for plain counter runs.
    bool any_occ = r.occ.enabled();
    for (std::size_t i = 0; !any_occ && i < obs::kOccStatCount; ++i)
        any_occ = r.occ.dist(static_cast<obs::OccStat>(i)).count() > 0;
    if (any_occ) {
        os << ",\"occ\":{\"on\":" << (r.occ.enabled() ? 1 : 0);
        for (std::size_t i = 0; i < obs::kOccStatCount; ++i) {
            const auto s = static_cast<obs::OccStat>(i);
            const Distribution &d = r.occ.dist(s);
            if (d.count() == 0)
                continue;
            os << ",\"" << obs::occStatName(s) << "\":[" << d.count()
               << "," << d.sum() << "," << d.min() << "," << d.max()
               << "]";
        }
        os << "}";
    }

    if (r.cpi.total() > 0) {
        os << ",\"cpi\":{";
        bool first = true;
        for (std::size_t i = 0; i < obs::kCpiComponentCount; ++i) {
            const auto c = static_cast<obs::CpiComponent>(i);
            if (r.cpi.value(c) == 0)
                continue;
            os << (first ? "" : ",") << "\"" << obs::cpiComponentName(c)
               << "\":" << r.cpi.value(c);
            first = false;
        }
        os << "}";
    }

    if (r.blame.totalFlushes() || r.blame.totalSquashed() ||
        r.blame.totalRefetchCycles()) {
        os << ",\"blame\":{";
        bool first = true;
        for (std::size_t i = 0; i < obs::kFlushCauseCount; ++i) {
            const auto c = static_cast<obs::FlushCause>(i);
            const obs::BlameRecord &b = r.blame.record(c);
            if (!b.flushes && !b.squashed_insts && !b.refetch_cycles)
                continue;
            os << (first ? "" : ",") << "\"" << obs::flushCauseName(c)
               << "\":[" << b.flushes << "," << b.squashed_insts << ","
               << b.refetch_cycles << "]";
            first = false;
        }
        os << "}";
    }
    os << "}";
}

bool
readResult(const Jv &v, SimResult &r)
{
    if (v.t != Jv::T::Obj)
        return false;
    auto u64 = [&](const char *k, std::uint64_t &dst) {
        if (const Jv *f = v.find(k))
            dst = f->asU64();
    };
    if (const Jv *f = v.find("workload"))
        r.workload = f->str;
    if (const Jv *f = v.find("cls"))
        r.cls = f->asU64() == 1 ? WorkloadClass::Fp : WorkloadClass::Int;
    u64("cycles", r.cycles);
    u64("insts", r.insts);
    if (const Jv *f = v.find("ipc"))
        r.ipc = f->integral ? double(f->u) : f->num;
#define SLF_JOURNAL_READ(name) u64(#name, r.name);
    SLF_SIM_COUNTERS(SLF_JOURNAL_READ)
#undef SLF_JOURNAL_READ

    if (const Jv *f = v.find("checker")) {
        if (f->t != Jv::T::Arr || f->arr.size() != 5)
            return false;
        r.checker_enabled = f->arr[0].asU64() != 0;
        r.checker_clean = f->arr[1].asU64() != 0;
        r.check_retirements = f->arr[2].asU64();
        r.check_failures = f->arr[3].asU64();
        r.check_store_commit_failures = f->arr[4].asU64();
    }

    if (const Jv *f = v.find("occ")) {
        if (f->t != Jv::T::Obj)
            return false;
        if (const Jv *on = f->find("on"))
            r.occ.setEnabled(on->asU64() != 0);
        for (std::size_t i = 0; i < obs::kOccStatCount; ++i) {
            const auto s = static_cast<obs::OccStat>(i);
            const Jv *d = f->find(obs::occStatName(s));
            if (!d)
                continue;
            if (d->t != Jv::T::Arr || d->arr.size() != 4)
                return false;
            r.occ.restoreDist(
                s, Distribution::fromParts(
                       d->arr[0].asU64(), d->arr[1].asU64(),
                       d->arr[2].asU64(), d->arr[3].asU64()));
        }
    }

    if (const Jv *f = v.find("cpi")) {
        if (f->t != Jv::T::Obj)
            return false;
        for (std::size_t i = 0; i < obs::kCpiComponentCount; ++i) {
            const auto c = static_cast<obs::CpiComponent>(i);
            if (const Jv *d = f->find(obs::cpiComponentName(c)))
                r.cpi.add(c, d->asU64());
        }
    }

    if (const Jv *f = v.find("blame")) {
        if (f->t != Jv::T::Obj)
            return false;
        for (std::size_t i = 0; i < obs::kFlushCauseCount; ++i) {
            const auto c = static_cast<obs::FlushCause>(i);
            const Jv *d = f->find(obs::flushCauseName(c));
            if (!d)
                continue;
            if (d->t != Jv::T::Arr || d->arr.size() != 3)
                return false;
            r.blame.restoreRecord(c, obs::BlameRecord{d->arr[0].asU64(),
                                                      d->arr[1].asU64(),
                                                      d->arr[2].asU64()});
        }
    }
    return true;
}

std::string
headerLine(const std::string &campaign_name, std::uint64_t root_seed,
           std::size_t job_count)
{
    std::ostringstream os;
    os << "{\"journal\":\"slf-campaign\",\"version\":2,\"campaign\":\""
       << jsonEscape(campaign_name) << "\",\"root_seed\":" << root_seed
       << ",\"jobs\":" << job_count;
    return sealLine(os.str());
}

JobStatus
statusFromName(const std::string &s, bool *ok)
{
    *ok = true;
    if (s == "ok")
        return JobStatus::Ok;
    if (s == "fatal")
        return JobStatus::Fatal;
    if (s == "timeout")
        return JobStatus::Timeout;
    *ok = false;
    return JobStatus::Fatal;
}

/** FNV-1a 64-bit, streamed. */
struct Fnv
{
    std::uint64_t h = 0xcbf29ce484222325ull;

    void
    bytes(const void *data, std::size_t n)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < n; ++i) {
            h ^= p[i];
            h *= 0x100000001b3ull;
        }
    }

    void str(const std::string &s)
    {
        bytes(s.data(), s.size() + 1);  // include NUL as separator
    }

    void
    u64(std::uint64_t v)
    {
        bytes(&v, sizeof(v));
    }

    void d(double v) { bytes(&v, sizeof(v)); }
};

} // namespace

// ---------------------------------------------------------------------
// JobJournal
// ---------------------------------------------------------------------

std::uint64_t
JobJournal::specDigest(const JobSpec &spec, std::size_t job_index,
                       std::uint64_t root_seed)
{
    Fnv f;
    f.str(spec.config_name);
    f.str(spec.workload);
    f.u64(job_index);
    f.u64(root_seed);
    f.u64(spec.derive_seeds ? 1 : 0);
    // Backend identity: a screening (func_batch) record must never
    // rehydrate into a timing job or vice versa — same labels, very
    // different numbers.
    f.u64(static_cast<std::uint64_t>(spec.backend));

    // Core-config identity: every CoreConfig field, so a record never
    // rehydrates into a job whose configuration differs in any of them.
    // The observability hook pointers are left out: campaign jobs run
    // with them nulled.
    const CoreConfig &c = spec.cfg;
    f.u64(c.width);
    f.u64(c.rob_entries);
    f.u64(c.sched_entries);
    f.u64(c.num_fus);
    f.u64(static_cast<std::uint64_t>(c.subsys));
    f.u64(static_cast<std::uint64_t>(c.memdep.mode));
    f.u64(c.lsq.lq_entries);
    f.u64(c.lsq.sq_entries);
    f.u64(c.sfc.sets);
    f.u64(c.sfc.assoc);
    f.u64(c.sfc.use_flush_endpoints ? 1 : 0);
    f.u64(c.mdt.sets);
    f.u64(c.mdt.assoc);
    f.u64(c.mdt.granularity);
    f.u64(c.max_insts);
    f.u64(c.max_cycles);
    f.u64(c.rng_seed);
    f.u64(c.validate ? 1 : 0);
    f.u64(c.stall_bits ? 1 : 0);
    f.u64(c.partial_match_merges ? 1 : 0);
    f.d(c.oracle_fix_prob);
    f.d(c.fault.sfc_mask_rate);
    f.d(c.fault.sfc_data_rate);
    f.d(c.fault.mdt_evict_rate);
    f.d(c.fault.fifo_payload_rate);
    f.u64(c.fault.seed);
    f.u64(c.max_branches_per_fetch);
    f.u64(c.fetch_queue_entries);
    for (const Cycle lat : {c.alu_latency, c.mul_latency, c.fp_latency,
                            c.load_latency, c.store_latency,
                            c.mispredict_penalty, c.replay_delay})
        f.u64(lat);
    f.u64(c.gshare_bits);
    f.u64(c.gshare_history_bits);
    f.u64(c.sfc.max_flush_ranges);
    f.u64(c.mdt.tagged ? 1 : 0);
    f.u64(c.mdt.optimized_true_recovery ? 1 : 0);
    f.u64(c.memdep.table_entries);
    f.u64(c.memdep.num_set_ids);
    f.u64(c.memdep.lfpt_entries);
    f.u64(c.memdep.num_tags);
    f.u64(c.sfc_store_extra_cycle ? 1 : 0);
    f.u64(c.mdt_violation_extra_penalty);
    f.u64(c.output_dep_marks_corrupt ? 1 : 0);
    f.u64(c.value_replay_filtered ? 1 : 0);
    for (const CacheGeometry *g : {&c.l1i, &c.l1d, &c.l2}) {
        f.str(g->name);
        f.u64(g->size_bytes);
        f.u64(g->assoc);
        f.u64(g->line_bytes);
        f.u64(g->miss_penalty);
    }
    f.u64(c.check_abort ? 1 : 0);
    f.u64(c.watchdog_retire_cycles);
    f.u64(c.watchdog_max_cycles);
    f.u64(c.deadline_ms);
    f.u64(c.obs.sample_occupancy ? 1 : 0);
    return f.h;
}

std::string
JobJournal::recordLine(const JobResult &jr, std::uint64_t digest)
{
    std::ostringstream os;
    char dig[24];
    std::snprintf(dig, sizeof(dig), "%016llx",
                  static_cast<unsigned long long>(digest));
    os << "{\"job\":" << jr.index << ",\"digest\":\"" << dig << "\""
       << ",\"backend\":\"" << backendKindName(jr.backend) << "\""
       << ",\"status\":\"" << jobStatusName(jr.status) << "\""
       << ",\"attempts\":" << jr.attempts
       << ",\"core_seed\":" << jr.core_seed
       << ",\"fault_seed\":" << jr.fault_seed
       << ",\"wall_ms\":" << jr.wall_ms
       << ",\"error\":\"" << jsonEscape(jr.error) << "\""
       << ",\"result\":";
    emitResult(os, jr.result);
    return sealLine(os.str());
}

std::vector<std::optional<JobResult>>
JobJournal::load(const std::string &path,
                 const std::string &campaign_name,
                 std::uint64_t root_seed,
                 const std::vector<JobSpec> &jobs, LoadStats *stats)
{
    std::vector<std::optional<JobResult>> out(jobs.size());
    LoadStats local;
    LoadStats &st = stats ? *stats : local;
    st = LoadStats{};

    std::ifstream in(path, std::ios::binary);
    if (!in)
        return out;
    std::string content((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());

    // Split into complete lines; a trailing fragment without '\n' is a
    // torn tail by definition.
    std::vector<std::string> lines;
    std::size_t start = 0;
    bool torn_fragment = false;
    while (start < content.size()) {
        const std::size_t nl = content.find('\n', start);
        if (nl == std::string::npos) {
            torn_fragment = true;
            break;
        }
        lines.push_back(content.substr(start, nl - start));
        start = nl + 1;
    }

    if (lines.empty()) {
        st.dropped = torn_fragment ? 1 : 0;
        return out;
    }

    // Header: torn/corrupt -> treat the whole file as unusable (the
    // caller starts fresh); valid but different identity -> fatal.
    Jv header;
    if (!parseSealedLine(lines[0], header)) {
        st.dropped = lines.size() + (torn_fragment ? 1 : 0);
        return out;
    }
    const Jv *magic = header.find("journal");
    const Jv *camp = header.find("campaign");
    const Jv *seed = header.find("root_seed");
    const Jv *njobs = header.find("jobs");
    if (!magic || magic->str != "slf-campaign" || !camp || !seed ||
        !njobs) {
        st.dropped = lines.size() + (torn_fragment ? 1 : 0);
        return out;
    }
    if (camp->str != campaign_name || seed->asU64() != root_seed ||
        njobs->asU64() != jobs.size()) {
        fatal("journal '" + path + "' belongs to campaign '" +
              camp->str + "' (root_seed " +
              std::to_string(seed->asU64()) + ", " +
              std::to_string(njobs->asU64()) + " jobs), not to '" +
              campaign_name + "' (root_seed " +
              std::to_string(root_seed) + ", " +
              std::to_string(jobs.size()) +
              " jobs); refusing to mix campaigns — delete the journal "
              "or pass a different --journal path");
    }
    st.header_valid = true;

    for (std::size_t li = 1; li < lines.size(); ++li) {
        Jv rec;
        if (!parseSealedLine(lines[li], rec)) {
            // Torn-tail rule: drop this line and everything after it.
            st.dropped = lines.size() - li + (torn_fragment ? 1 : 0);
            return out;
        }
        const Jv *job = rec.find("job");
        const Jv *dig = rec.find("digest");
        const Jv *status = rec.find("status");
        const Jv *attempts = rec.find("attempts");
        const Jv *error = rec.find("error");
        const Jv *result = rec.find("result");
        if (!job || !dig || !status || !attempts || !error || !result) {
            st.dropped = lines.size() - li + (torn_fragment ? 1 : 0);
            return out;
        }
        const std::size_t idx = job->asU64();
        char want[24];
        bool status_ok = false;
        JobResult jr;
        jr.status = statusFromName(status->str, &status_ok);
        if (idx >= jobs.size() || !status_ok) {
            ++st.mismatched;
            continue;
        }
        std::snprintf(want, sizeof(want), "%016llx",
                      static_cast<unsigned long long>(
                          specDigest(jobs[idx], idx, root_seed)));
        if (dig->str != want) {
            // Well-formed record for a different job spec (the sweep's
            // parameters changed): skip it, the job just re-runs.
            ++st.mismatched;
            continue;
        }
        jr.index = idx;
        jr.config_name = jobs[idx].config_name;
        jr.workload = jobs[idx].workload;
        // The digest covers the backend, so a match implies the
        // record's engine is the spec's engine.
        jr.backend = jobs[idx].backend;
        jr.attempts = unsigned(attempts->asU64());
        jr.error = error->str;
        if (const Jv *f = rec.find("core_seed"))
            jr.core_seed = f->asU64();
        if (const Jv *f = rec.find("fault_seed"))
            jr.fault_seed = f->asU64();
        // Optional since the field was introduced: records from older
        // journals simply rehydrate with wall_ms 0.
        if (const Jv *f = rec.find("wall_ms"))
            jr.wall_ms = f->asU64();
        jr.rehydrated = true;
        if (!readResult(*result, jr.result)) {
            st.dropped = lines.size() - li + (torn_fragment ? 1 : 0);
            return out;
        }
        out[idx] = std::move(jr);
        ++st.records;
    }
    if (torn_fragment)
        ++st.dropped;
    return out;
}

namespace
{

/**
 * Byte length of the valid line prefix of @p path: the header plus
 * every consecutive CRC-valid line after it (digest matching is a
 * load()-time concern; a sealed line is a safe append boundary either
 * way). 0 when the header itself is torn or corrupt.
 *
 * The resume constructor truncates to this length before appending:
 * without the truncation a fresh record would concatenate onto a torn
 * fragment and the combined line would fail the CRC on the *next*
 * load, silently discarding every record appended after the tear.
 */
std::size_t
validPrefixBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return 0;
    std::string content((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    std::size_t valid = 0;
    std::size_t start = 0;
    while (start < content.size()) {
        const std::size_t nl = content.find('\n', start);
        if (nl == std::string::npos)
            break;  // torn tail
        Jv v;
        if (!parseSealedLine(content.substr(start, nl - start), v))
            break;
        valid = nl + 1;
        start = nl + 1;
    }
    return valid;
}

void
writeFully(int fd, const char *data, std::size_t n,
           const std::string &path)
{
    std::size_t off = 0;
    while (off < n) {
        const ssize_t w = ::write(fd, data + off, n - off);
        if (w < 0) {
            if (errno == EINTR)
                continue;
            fatal("journal '" + path +
                  "': write failed: " + std::strerror(errno));
        }
        off += std::size_t(w);
    }
}

} // namespace

JobJournal::JobJournal(std::string path,
                       const std::string &campaign_name,
                       std::uint64_t root_seed, std::size_t job_count,
                       bool resume, const JournalHooks *hooks)
    : path_(std::move(path)), hooks_(hooks)
{
    if (const char *e = std::getenv("SLFWD_JOURNAL_KILL_AFTER"))
        kill_after_ = std::strtoull(e, nullptr, 10);
    if (const char *e = std::getenv("SLFWD_JOURNAL_KILL_TORN"))
        kill_torn_ = *e && *e != '0';

    // On resume, drop any torn/corrupt suffix before appending so a
    // fresh record always starts at a clean line boundary.
    const std::size_t keep = resume ? validPrefixBytes(path_) : 0;

    int flags = O_WRONLY | O_CREAT | O_APPEND;
    if (!resume)
        flags |= O_TRUNC;
    fd_ = ::open(path_.c_str(), flags, 0644);
    if (fd_ < 0)
        fatal("journal '" + path_ +
              "': cannot open: " + std::strerror(errno));

    struct stat sb;
    if (::fstat(fd_, &sb) != 0) {
        ::close(fd_);
        fd_ = -1;
        fatal("journal '" + path_ +
              "': cannot stat: " + std::strerror(errno));
    }
    if (resume && std::uint64_t(sb.st_size) > keep) {
        if (::ftruncate(fd_, off_t(keep)) != 0) {
            ::close(fd_);
            fd_ = -1;
            fatal("journal '" + path_ + "': cannot truncate torn tail: " +
                  std::strerror(errno));
        }
        sb.st_size = off_t(keep);
    }
    if (sb.st_size == 0) {
        const std::string hdr =
            headerLine(campaign_name, root_seed, job_count) + "\n";
        writeFully(fd_, hdr.data(), hdr.size(), path_);
        bytes_written_ += hdr.size();
        if (::fsync(fd_) != 0)
            fatal("journal '" + path_ + "': fsync failed");
    }
    // Make the journal's existence durable alongside its header.
    ResultSink::fsyncParentDir(path_);
}

JobJournal::~JobJournal()
{
    if (fd_ >= 0)
        ::close(fd_);
}

std::size_t
JobJournal::appended() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return appended_;
}

std::uint64_t
JobJournal::bytesWritten() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return bytes_written_;
}

void
JobJournal::writeLine(const std::string &line, bool torn)
{
    const std::size_t n = torn ? line.size() / 2 : line.size();
    writeFully(fd_, line.data(), n, path_);
    bytes_written_ += n;
    if (::fsync(fd_) != 0)
        fatal("journal '" + path_ + "': fsync failed");
}

void
JobJournal::append(const JobResult &jr, std::uint64_t digest)
{
    const std::string line = recordLine(jr, digest) + "\n";
    std::lock_guard<std::mutex> lock(mutex_);
    if (dead_)
        return;  // a prior torn append marked the crash point

    const std::size_t n = appended_;
    const bool env_kill = n == kill_after_;
    bool torn = env_kill && kill_torn_;
    if (hooks_ && hooks_->torn_append && hooks_->torn_append(n))
        torn = true;

    writeLine(line, torn);
    if (env_kill)
        ::_exit(137);  // SIGKILL-grade: no flushes, no destructors
    if (torn) {
        dead_ = true;  // simulated crash mid-append: record didn't land
        return;
    }

    ++appended_;
    if (hooks_ && hooks_->after_append)
        hooks_->after_append(n);
}

void
JobJournal::compact(const std::string &path,
                    const std::string &campaign_name,
                    std::uint64_t root_seed,
                    const std::vector<JobSpec> &jobs,
                    const std::vector<std::optional<JobResult>> &keep)
{
    std::string content =
        headerLine(campaign_name, root_seed, jobs.size()) + "\n";
    for (std::size_t i = 0; i < keep.size() && i < jobs.size(); ++i) {
        if (!keep[i])
            continue;
        content +=
            recordLine(*keep[i], specDigest(jobs[i], i, root_seed));
        content += "\n";
    }

    // tmp + fsync + rename: a death at any point leaves either the old
    // journal or the fully-written new one, never a mix.
    ResultSink::writeFileAtomic(path, content);
}

} // namespace slf::campaign
