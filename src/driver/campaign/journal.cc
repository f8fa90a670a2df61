#include "journal.hh"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string_view>
#include <type_traits>

#include "campaign/result_sink.hh"
#include "sim/json.hh"
#include "sim/logging.hh"

namespace slf::campaign
{

namespace
{

/** CRC32 (IEEE 802.3 polynomial, table-driven). */
std::uint32_t
crc32(const char *data, std::size_t n)
{
    // A magic static: recordLine() seals lines on pool workers, outside
    // the journal mutex, so the table must be built exactly once.
    static const std::array<std::uint32_t, 256> table = [] {
        std::array<std::uint32_t, 256> t{};
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
            t[i] = c;
        }
        return t;
    }();
    std::uint32_t c = 0xffffffffu;
    for (std::size_t i = 0; i < n; ++i)
        c = table[(c ^ static_cast<unsigned char>(data[i])) & 0xffu] ^
            (c >> 8);
    return c ^ 0xffffffffu;
}

// ---------------------------------------------------------------------
// The line grammar. header(), record() and result() below list every
// field of a line once, in line order; a Writer renders that list and
// a Reader parses it back. Each value type has one spelling, spell():
// canonical decimals, %.17g doubles (bit-exact round trip), strings
// through jsonEscape(). The Reader parses a token loosely and accepts
// it only if spelling the parsed value reproduces it byte for byte,
// so it accepts exactly what the Writer produces — fixed key order and
// the same presence rules for the optional sections included. Any
// other byte sequence fails the read: a torn tail is an expected
// input, not an error.
// ---------------------------------------------------------------------

template <class T>
    requires std::is_integral_v<T>
void
spell(std::string &out, T v)
{
    char buf[24];
    out.append(buf, std::to_chars(buf, buf + sizeof(buf),
                                  std::uint64_t(v)).ptr);
}

void
spell(std::string &out, double v)
{
    char buf[32];
    out.append(buf, std::snprintf(buf, sizeof(buf), "%.17g", v));
}

void
spell(std::string &out, const std::string &s)
{
    out += '"';
    out += jsonEscape(s);
    out += '"';
}

void spell(std::string &o, WorkloadClass c) { spell(o, unsigned(c)); }
void spell(std::string &o, BackendKind b) { spell(o, backendKindName(b)); }
void spell(std::string &o, JobStatus s) { spell(o, jobStatusName(s)); }

/** A job-identity digest, spelled as 16 quoted lowercase hex digits. */
enum class Digest : std::uint64_t {};

void
spell(std::string &out, Digest d)
{
    char buf[24];
    out.append(buf, std::snprintf(buf, sizeof(buf), "\"%016llx\"",
                                  static_cast<unsigned long long>(d)));
}

template <class T>
    requires std::is_integral_v<T>
void
parse(std::string_view tok, T &v)
{
    std::uint64_t u = 0;
    std::from_chars(tok.data(), tok.data() + tok.size(), u);
    v = T(u);
}

void
parse(std::string_view tok, Digest &d)
{
    std::uint64_t v = 0;
    if (!tok.empty())
        std::from_chars(tok.data() + 1, tok.data() + tok.size(), v, 16);
    d = Digest(v);
}

void
parse(std::string_view tok, double &v)
{
    v = std::strtod(std::string(tok).c_str(), nullptr);
}

void
parse(std::string_view tok, std::string &s)
{
    const std::string_view raw =
        tok.size() < 2 ? std::string_view() : tok.substr(1, tok.size() - 2);
    s.clear();
    for (std::size_t i = 0; i < raw.size(); ++i) {
        char c = raw[i];
        if (c == '\\' && i + 1 < raw.size() && raw[++i] == 'u') {
            unsigned cp = 0;
            std::from_chars(raw.data() + i + 1,
                            raw.data() + std::min(i + 5, raw.size()), cp,
                            16);
            c = char(cp);
            i += 4;
        } else if (c == '\\') {
            const std::size_t e = std::string_view("nrt").find(raw[i]);
            c = e == std::string_view::npos ? raw[i] : "\n\r\t"[e];
        }
        s += c;
    }
}

/**
 * The punctuation both directions share. IO::lit() appends a literal
 * (Writer) or consumes exactly that literal (Reader), so keys, commas,
 * brackets and the seal are spelled once, here.
 */
template <class IO>
class Syntax
{
  public:
    /** `"k":` (nothing for an array element), after a comma unless it
     *  opens its container. */
    void
    key(const char *k)
    {
        if (comma_)
            io().lit(",");
        comma_ = true;
        if (k) {
            io().lit("\"");
            io().lit(k);
            io().lit("\":");
        }
    }

    void
    open(const char *k, char bracket)
    {
        key(k);
        io().lit({&bracket, 1});
        comma_ = false;
    }

    void
    close(char bracket)
    {
        io().lit({&bracket, 1});
        comma_ = true;
    }

    /** A field whose value is always the literal @p token. */
    void
    constant(const char *k, const char *token)
    {
        key(k);
        io().lit(token);
    }

    /** Close the top-level object with `,"crc":"xxxxxxxx"}`, the CRC32
     *  of every byte before the comma. */
    void
    seal()
    {
        const std::string_view body = io().text();
        char buf[24];
        std::snprintf(buf, sizeof(buf), ",\"crc\":\"%08x\"}",
                      crc32(body.data(), body.size()));
        io().lit(buf);
    }

  private:
    IO &io() { return static_cast<IO &>(*this); }

    bool comma_ = false;
};

class Writer : public Syntax<Writer>
{
  public:
    static constexpr bool kReads = false;

    void lit(std::string_view s) { out_ += s; }
    std::string_view text() const { return out_; }
    std::string take() { return std::move(out_); }

    template <class T>
    void
    value(const char *k, const T &v)
    {
        key(k);
        spell(out_, v);
    }

    /** An enum field; @p last bounds it on read. */
    template <class E>
    void choice(const char *k, E e, E /*last*/) { value(k, e); }

    bool has(const char *, bool present) const { return present; }
    void require(bool) const {}

  private:
    std::string out_;
};

class Reader : public Syntax<Reader>
{
  public:
    static constexpr bool kReads = true;

    explicit Reader(std::string_view line) : in_(line) {}

    /** Every field read, and the seal ended the line. */
    bool ok() const { return ok_ && pos_ == in_.size(); }

    void
    lit(std::string_view s)
    {
        ok_ = ok_ && in_.substr(pos_, s.size()) == s;
        if (ok_)
            pos_ += s.size();
    }

    std::string_view text() const { return in_.substr(0, pos_); }

    template <class T>
    void
    value(const char *k, T &v)
    {
        key(k);
        const std::string_view tok = token();
        parse(tok, v);
        std::string want;
        spell(want, v);
        require(want == tok);
    }

    template <class E>
    void
    choice(const char *k, E &e, E last)
    {
        key(k);
        const std::string_view tok = token();
        for (unsigned i = 0; i <= unsigned(last); ++i) {
            std::string want;
            spell(want, E(i));
            if (want == tok) {
                e = E(i);
                return;
            }
        }
        ok_ = false;
    }

    /** Whether member @p k comes next (it is not consumed). */
    bool
    has(const char *k, bool)
    {
        Reader probe = *this;
        probe.key(k);
        return probe.ok_;
    }

    void require(bool cond) { ok_ = ok_ && cond; }

  private:
    /** The next value's bytes: a quoted string (escaped quotes
     *  skipped) or everything up to the next `,` `}` or `]`. */
    std::string_view
    token()
    {
        if (!ok_ || pos_ == in_.size())
            return {};
        std::size_t end = in_.find_first_of(",}]", pos_);
        if (in_[pos_] == '"') {
            for (end = pos_ + 1; end < in_.size() && in_[end] != '"';)
                end += in_[end] == '\\' ? 2 : 1;
            ++end;
        }
        end = std::min(end, in_.size());
        const std::string_view tok = in_.substr(pos_, end - pos_);
        pos_ = end;
        return tok;
    }

    std::string_view in_;
    std::size_t pos_ = 0;
    bool ok_ = true;
};

/** `"k":[v...]` */
template <class IO, class... T>
void
tuple(IO &io, const char *k, T &...v)
{
    io.open(k, '[');
    (io.value(nullptr, v), ...);
    io.close(']');
}

/**
 * An optional member, written exactly when @p present() holds. The
 * reader requires present() of what it read, so the presence rules
 * are part of the grammar: no line the writer could not have produced
 * reads back.
 */
template <class IO, class Present, class... T>
void
entry(IO &io, const char *k, Present present, T &...v)
{
    if (!io.has(k, present()))
        return;
    if constexpr (sizeof...(T) == 1)
        io.value(k, v...);
    else
        tuple(io, k, v...);
    io.require(present());
}

/** An optional object member under the same rule as entry(). */
template <class IO, class Present, class Body>
void
section(IO &io, const char *k, Present present, Body body)
{
    if (!io.has(k, present()))
        return;
    io.open(k, '{');
    body();
    io.close('}');
    io.require(present());
}

bool
anyOcc(const obs::OccupancySet &occ)
{
    bool any = occ.enabled();
    for (std::size_t i = 0; !any && i < obs::kOccStatCount; ++i)
        any = occ.dist(static_cast<obs::OccStat>(i)).count() > 0;
    return any;
}

/** Line 0: the campaign identity the journal belongs to. */
template <class IO>
void
header(IO &io, auto &campaign, auto &root_seed, auto &jobs)
{
    io.open(nullptr, '{');
    io.constant("journal", "\"slf-campaign\"");
    io.constant("version", "2");
    io.value("campaign", campaign);
    io.value("root_seed", root_seed);
    io.value("jobs", jobs);
    io.seal();
}

/** Every SimResult field the ResultSink renders. The sections mirror
 *  the sink's presence rules: omitted when empty, so the journal stays
 *  compact for plain counter runs. */
template <class IO>
void
result(IO &io, auto &r)
{
    io.open("result", '{');
    io.value("workload", r.workload);
    io.choice("cls", r.cls, WorkloadClass::Fp);
    io.value("cycles", r.cycles);
    io.value("insts", r.insts);
    io.value("ipc", r.ipc);
#define SLF_JOURNAL_FIELD(name) io.value(#name, r.name);
    SLF_SIM_COUNTERS(SLF_JOURNAL_FIELD)
#undef SLF_JOURNAL_FIELD
    tuple(io, "checker", r.checker_enabled, r.checker_clean,
          r.check_retirements, r.check_failures,
          r.check_store_commit_failures);

    section(io, "occ", [&] { return anyOcc(r.occ); }, [&] {
        bool on = r.occ.enabled();
        io.value("on", on);
        if constexpr (IO::kReads)
            r.occ.setEnabled(on);
        for (std::size_t i = 0; i < obs::kOccStatCount; ++i) {
            const auto s = static_cast<obs::OccStat>(i);
            const Distribution &d = r.occ.dist(s);
            std::uint64_t n = d.count(), sum = d.sum(), lo = d.min(),
                          hi = d.max();
            entry(io, obs::occStatName(s), [&] { return n != 0; }, n,
                  sum, lo, hi);
            if constexpr (IO::kReads)
                r.occ.restoreDist(s,
                                  Distribution::fromParts(n, sum, lo, hi));
        }
    });

    section(io, "cpi", [&] { return r.cpi.total() > 0; }, [&] {
        for (std::size_t i = 0; i < obs::kCpiComponentCount; ++i) {
            const auto c = static_cast<obs::CpiComponent>(i);
            std::uint64_t v = r.cpi.value(c);
            entry(io, obs::cpiComponentName(c), [&] { return v != 0; },
                  v);
            if constexpr (IO::kReads)
                r.cpi.add(c, v);
        }
    });

    const auto any_blame = [&] {
        return r.blame.totalFlushes() || r.blame.totalSquashed() ||
               r.blame.totalRefetchCycles();
    };
    section(io, "blame", any_blame, [&] {
        for (std::size_t i = 0; i < obs::kFlushCauseCount; ++i) {
            const auto c = static_cast<obs::FlushCause>(i);
            obs::BlameRecord b = r.blame.record(c);
            entry(io, obs::flushCauseName(c),
                  [&] {
                      return b.flushes || b.squashed_insts ||
                             b.refetch_cycles;
                  },
                  b.flushes, b.squashed_insts, b.refetch_cycles);
            if constexpr (IO::kReads)
                r.blame.restoreRecord(c, b);
        }
    });
    io.close('}');
}

/** One terminal JobResult. Labels are not journaled: load() takes them
 *  from the spec the digest matched. */
template <class IO>
void
record(IO &io, auto &jr, auto &digest)
{
    io.open(nullptr, '{');
    io.value("job", jr.index);
    io.value("digest", digest);
    io.choice("backend", jr.backend, BackendKind::Synthetic);
    io.choice("status", jr.status, JobStatus::Timeout);
    io.value("attempts", jr.attempts);
    io.value("core_seed", jr.core_seed);
    io.value("fault_seed", jr.fault_seed);
    io.value("wall_ms", jr.wall_ms);
    io.value("error", jr.error);
    result(io, jr.result);
    io.seal();
}

std::string
headerLine(const std::string &campaign_name, std::uint64_t root_seed,
           std::uint64_t job_count)
{
    Writer io;
    header(io, campaign_name, root_seed, job_count);
    return io.take();
}

/** What a journal file holds under the torn-tail rule: lines read in
 *  order, and the first one that does not read — a torn fragment
 *  without '\n' included — ends the replay. */
struct Replay
{
    std::string campaign;
    std::uint64_t root_seed = 0;
    std::uint64_t jobs = 0;
    std::vector<std::pair<JobResult, Digest>> records;
    std::size_t valid_bytes = 0;  ///< the lines that read, '\n' included
    std::size_t dropped = 0;      ///< the lines after them
};

Replay
replay(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    const std::string content((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
    const std::string_view text(content);
    Replay rp;
    for (std::size_t nl; (nl = text.find('\n', rp.valid_bytes)) !=
                         std::string_view::npos;
         rp.valid_bytes = nl + 1) {
        Reader io(text.substr(rp.valid_bytes, nl - rp.valid_bytes));
        JobResult jr;
        Digest digest{};
        if (rp.valid_bytes == 0)
            header(io, rp.campaign, rp.root_seed, rp.jobs);
        else
            record(io, jr, digest);
        if (!io.ok())
            break;
        if (rp.valid_bytes > 0)
            rp.records.emplace_back(std::move(jr), digest);
    }
    const std::string_view rest = text.substr(rp.valid_bytes);
    rp.dropped = std::size_t(std::count(rest.begin(), rest.end(), '\n')) +
                 (rest.empty() || rest.back() == '\n' ? 0 : 1);
    return rp;
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
    Writer io;
    const auto d = Digest(digest);
    record(io, jr, d);
    return io.take();
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

    Replay rp = replay(path);
    st.dropped = rp.dropped;
    // A torn or corrupt header: the caller starts a fresh journal. A
    // valid one naming a different identity is fatal.
    if (rp.valid_bytes == 0)
        return out;
    if (rp.campaign != campaign_name || rp.root_seed != root_seed ||
        rp.jobs != jobs.size()) {
        fatal("journal '" + path + "' belongs to campaign '" +
              rp.campaign + "' (root_seed " +
              std::to_string(rp.root_seed) + ", " +
              std::to_string(rp.jobs) + " jobs), not to '" +
              campaign_name + "' (root_seed " +
              std::to_string(root_seed) + ", " +
              std::to_string(jobs.size()) +
              " jobs); refusing to mix campaigns — delete the journal "
              "or pass a different --journal path");
    }
    st.header_valid = true;

    for (auto &[jr, digest] : rp.records) {
        const std::size_t idx = jr.index;
        if (idx >= jobs.size() || jr.backend != jobs[idx].backend ||
            digest != Digest(specDigest(jobs[idx], idx, root_seed))) {
            // Well-formed record for a different job spec (the sweep's
            // parameters changed): skip it, the job just re-runs. The
            // digest covers the backend, so a record naming another
            // engine is stale too.
            ++st.mismatched;
            continue;
        }
        jr.config_name = jobs[idx].config_name;
        jr.workload = jobs[idx].workload;
        jr.rehydrated = true;
        out[idx] = std::move(jr);
        ++st.records;
    }
    return out;
}

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

    // On resume, truncate to the prefix load() replays, or a fresh
    // record would land after (or onto) a torn line that load() stops
    // at, and every record appended after the tear would be lost.
    const std::size_t keep = resume ? replay(path_).valid_bytes : 0;

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
