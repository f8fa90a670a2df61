#include "telemetry.hh"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "sim/json.hh"
#include "sim/logging.hh"

namespace slf::obs
{

namespace
{

/**
 * Canonical number rendering for both exposition formats: integers
 * without a fraction, everything else %.6g (Prometheus is tolerant;
 * the goldens just need one fixed choice).
 */
std::string
renderNumber(double v)
{
    char buf[64];
    if (v == static_cast<double>(static_cast<std::int64_t>(v))) {
        std::snprintf(buf, sizeof(buf), "%" PRId64,
                      static_cast<std::int64_t>(v));
    } else {
        std::snprintf(buf, sizeof(buf), "%.6g", v);
    }
    return buf;
}

/** Split "name{label=\"x\"}" into base name and label body ("" when
 *  unlabeled). */
void
splitSeries(const std::string &series, std::string &base,
            std::string &labels)
{
    const std::size_t brace = series.find('{');
    if (brace == std::string::npos) {
        base = series;
        labels.clear();
        return;
    }
    base = series.substr(0, brace);
    // Keep the label *body* (no braces): "worker=\"3\"".
    labels = series.substr(brace + 1,
                           series.size() - brace -
                               (series.back() == '}' ? 2 : 1));
}

/** Re-assemble a series name with an extra label appended. */
std::string
withLabel(const std::string &base, const std::string &labels,
          const std::string &extra)
{
    std::string out = base + "{";
    if (!labels.empty())
        out += labels + ",";
    out += extra + "}";
    return out;
}

} // namespace

// ---------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)),
      buckets_(new std::atomic<std::uint64_t>[bounds_.size() + 1])
{
    for (std::size_t i = 0; i <= bounds_.size(); ++i)
        buckets_[i].store(0, std::memory_order_relaxed);
}

void
Histogram::observe(double v)
{
    const auto it =
        std::lower_bound(bounds_.begin(), bounds_.end(), v);
    buckets_[std::size_t(it - bounds_.begin())].fetch_add(
        1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    // C++20 atomic<double>::fetch_add is not universally lock-free;
    // a CAS loop keeps the type requirements minimal.
    double cur = sum_.load(std::memory_order_relaxed);
    while (!sum_.compare_exchange_weak(cur, cur + v,
                                       std::memory_order_relaxed)) {
    }
}

double
Histogram::sum() const
{
    return sum_.load(std::memory_order_relaxed);
}

const std::vector<double> &
Histogram::defaultTimeBoundsMs()
{
    static const std::vector<double> bounds = {
        1,    2,    5,    10,    20,    50,    100,  200,
        500,  1000, 2000, 5000,  10000, 20000, 60000};
    return bounds;
}

// ---------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------

Counter &
MetricsRegistry::counter(const std::string &name, const std::string &help)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Entry &e = entries_[name];
    if (e.gauge || e.histogram)
        fatal("telemetry metric '" + name +
              "' already registered with a different kind");
    if (!e.counter) {
        e.counter = std::make_unique<Counter>();
        e.help = help;
    }
    return *e.counter;
}

Gauge &
MetricsRegistry::gauge(const std::string &name, const std::string &help)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Entry &e = entries_[name];
    if (e.counter || e.histogram)
        fatal("telemetry metric '" + name +
              "' already registered with a different kind");
    if (!e.gauge) {
        e.gauge = std::make_unique<Gauge>();
        e.help = help;
    }
    return *e.gauge;
}

Histogram &
MetricsRegistry::histogram(const std::string &name,
                           std::vector<double> bounds,
                           const std::string &help)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Entry &e = entries_[name];
    if (e.counter || e.gauge)
        fatal("telemetry metric '" + name +
              "' already registered with a different kind");
    if (!e.histogram) {
        e.histogram = std::make_unique<Histogram>(std::move(bounds));
        e.help = help;
    }
    return *e.histogram;
}

std::size_t
MetricsRegistry::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
}

std::string
MetricsRegistry::toPrometheusText() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::ostringstream os;
    // One HELP/TYPE block per metric family. The map is sorted by
    // series name, so all series of one family are consecutive.
    std::string last_base;
    for (const auto &kv : entries_) {
        std::string base, labels;
        splitSeries(kv.first, base, labels);
        const Entry &e = kv.second;
        if (base != last_base) {
            if (!e.help.empty())
                os << "# HELP " << base << " " << e.help << "\n";
            os << "# TYPE " << base << " "
               << (e.counter ? "counter"
                   : e.gauge ? "gauge"
                             : "histogram")
               << "\n";
            last_base = base;
        }
        if (e.counter) {
            os << kv.first << " " << e.counter->value() << "\n";
        } else if (e.gauge) {
            os << kv.first << " " << e.gauge->value() << "\n";
        } else {
            const Histogram &h = *e.histogram;
            std::uint64_t cum = 0;
            for (std::size_t i = 0; i < h.bounds().size(); ++i) {
                cum += h.bucketCount(i);
                os << withLabel(base + "_bucket", labels,
                                "le=\"" + renderNumber(h.bounds()[i]) +
                                    "\"")
                   << " " << cum << "\n";
            }
            cum += h.bucketCount(h.bounds().size());
            os << withLabel(base + "_bucket", labels, "le=\"+Inf\"")
               << " " << cum << "\n";
            const std::string suffix =
                labels.empty() ? "" : "{" + labels + "}";
            os << base << "_sum" << suffix << " "
               << renderNumber(h.sum()) << "\n";
            os << base << "_count" << suffix << " " << h.count()
               << "\n";
        }
    }
    return os.str();
}

std::string
MetricsRegistry::toJson() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::ostringstream os;
    os << "{";
    bool first = true;
    for (const auto &kv : entries_) {
        os << (first ? "" : ",") << "\"" << jsonEscape(kv.first)
           << "\":";
        first = false;
        const Entry &e = kv.second;
        if (e.counter) {
            os << e.counter->value();
        } else if (e.gauge) {
            os << e.gauge->value();
        } else {
            const Histogram &h = *e.histogram;
            os << "{\"count\":" << h.count()
               << ",\"sum\":" << renderNumber(h.sum())
               << ",\"buckets\":[";
            std::uint64_t cum = 0;
            for (std::size_t i = 0; i < h.bounds().size(); ++i) {
                cum += h.bucketCount(i);
                os << (i ? "," : "") << "["
                   << renderNumber(h.bounds()[i]) << "," << cum << "]";
            }
            cum += h.bucketCount(h.bounds().size());
            os << (h.bounds().empty() ? "" : ",") << "[\"+Inf\"," << cum
               << "]]}";
        }
    }
    os << "}";
    return os.str();
}

// ---------------------------------------------------------------------
// Host health
// ---------------------------------------------------------------------

HostStats
readHostStats()
{
    HostStats hs;

    // /proc/self/statm: size resident shared text lib data dt (pages).
    if (std::ifstream statm("/proc/self/statm"); statm) {
        std::uint64_t size = 0, resident = 0;
        if (statm >> size >> resident) {
            const long page = ::sysconf(_SC_PAGESIZE);
            hs.rss_kb = resident * std::uint64_t(page > 0 ? page : 4096)
                        / 1024;
        }
    }

    // /proc/self/stat: field 2 is "(comm)" and may contain spaces —
    // skip past the closing paren, then count space-separated fields:
    // utime is field 14, stime 15, num_threads 20 (1-based).
    if (std::ifstream stat("/proc/self/stat"); stat) {
        std::string line;
        std::getline(stat, line);
        const std::size_t paren = line.rfind(')');
        if (paren != std::string::npos) {
            std::istringstream rest(line.substr(paren + 1));
            std::string tok;
            std::uint64_t utime = 0, stime = 0, threads = 0;
            // After ")": state is field 3; utime is field 14.
            for (int field = 3; rest >> tok; ++field) {
                if (field == 14)
                    utime = std::strtoull(tok.c_str(), nullptr, 10);
                else if (field == 15)
                    stime = std::strtoull(tok.c_str(), nullptr, 10);
                else if (field == 20) {
                    threads = std::strtoull(tok.c_str(), nullptr, 10);
                    break;
                }
            }
            const long hz = ::sysconf(_SC_CLK_TCK);
            const std::uint64_t tick_ms =
                1000 / std::uint64_t(hz > 0 ? hz : 100);
            hs.utime_ms = utime * tick_ms;
            hs.stime_ms = stime * tick_ms;
            hs.threads = threads;
        }
    }
    return hs;
}

// ---------------------------------------------------------------------
// SpanSink
// ---------------------------------------------------------------------

void
SpanSink::record(CampaignSpan span)
{
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
}

std::vector<CampaignSpan>
SpanSink::spans() const
{
    std::vector<CampaignSpan> out;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        out = spans_;
    }
    std::stable_sort(out.begin(), out.end(),
                     [](const CampaignSpan &a, const CampaignSpan &b) {
                         if (a.t0_us != b.t0_us)
                             return a.t0_us < b.t0_us;
                         if (a.job != b.job)
                             return a.job < b.job;
                         return static_cast<unsigned>(a.kind) <
                                static_cast<unsigned>(b.kind);
                     });
    return out;
}

std::size_t
SpanSink::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_.size();
}

std::size_t
SpanSink::countKind(SpanKind k) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::size_t n = 0;
    for (const CampaignSpan &s : spans_)
        n += s.kind == k ? 1 : 0;
    return n;
}

// ---------------------------------------------------------------------
// TelemetryThread
// ---------------------------------------------------------------------

TelemetryThread::TelemetryThread(MetricsRegistry &registry,
                                 TelemetryConfig cfg, ExtraFn extra,
                                 WriteFileFn write_file)
    : registry_(registry), cfg_(std::move(cfg)),
      extra_(std::move(extra)), write_file_(std::move(write_file)),
      start_(std::chrono::steady_clock::now())
{
    if (cfg_.interval_ms == 0)
        cfg_.interval_ms = 1;
    if (!cfg_.heartbeat_path.empty()) {
        fd_ = ::open(cfg_.heartbeat_path.c_str(),
                     O_WRONLY | O_CREAT | O_APPEND, 0644);
        if (fd_ < 0)
            fatal("telemetry: cannot open heartbeat file '" +
                  cfg_.heartbeat_path +
                  "': " + std::strerror(errno));
    }
    thread_ = std::thread([this] { loop(); });
}

TelemetryThread::~TelemetryThread()
{
    stop();
    if (fd_ >= 0)
        ::close(fd_);
}

void
TelemetryThread::stop()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (stopped_)
            return;
        stop_requested_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable())
        thread_.join();
    std::lock_guard<std::mutex> lock(mutex_);
    stopped_ = true;
}

void
TelemetryThread::loop()
{
    // Beat 0 lands immediately: even a campaign shorter than one
    // interval leaves a parseable heartbeat file behind.
    emitOnce(false);
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        cv_.wait_for(lock, std::chrono::milliseconds(cfg_.interval_ms),
                     [this] { return stop_requested_; });
        if (stop_requested_)
            break;
        lock.unlock();
        emitOnce(false);
        lock.lock();
    }
    lock.unlock();
    emitOnce(true);
}

void
TelemetryThread::emitOnce(bool final)
{
    const std::uint64_t elapsed_ms = std::uint64_t(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - start_)
            .count());
    const HostStats host = readHostStats();

    if (fd_ >= 0) {
        std::ostringstream os;
        os << "{\"hb\":\"slf-heartbeat\",\"version\":1,\"seq\":" << seq_
           << ",\"final\":" << (final ? "true" : "false")
           << ",\"elapsed_ms\":" << elapsed_ms
           << ",\"host\":{\"rss_kb\":" << host.rss_kb
           << ",\"utime_ms\":" << host.utime_ms
           << ",\"stime_ms\":" << host.stime_ms
           << ",\"threads\":" << host.threads << "}";
        if (extra_) {
            const std::string ex = extra_(final);
            if (!ex.empty())
                os << "," << ex;
        }
        os << ",\"metrics\":" << registry_.toJson() << "}\n";
        const std::string line = os.str();
        // One write(2) per record: a SIGKILL lands *between* records,
        // never inside one, so the tail is always parseable.
        std::size_t off = 0;
        while (off < line.size()) {
            const ssize_t w =
                ::write(fd_, line.data() + off, line.size() - off);
            if (w < 0) {
                if (errno == EINTR)
                    continue;
                break;  // telemetry never takes the campaign down
            }
            off += std::size_t(w);
        }
    }

    if (!cfg_.snapshot_path.empty() && write_file_) {
        try {
            write_file_(cfg_.snapshot_path,
                        registry_.toPrometheusText());
        } catch (const FatalError &e) {
            if (!warned_snapshot_) {
                warn(std::string("telemetry: metrics snapshot failed "
                                 "(suppressing further warnings): ") +
                     e.what());
                warned_snapshot_ = true;
            }
        }
    }

    ++seq_;
    beats_.fetch_add(1, std::memory_order_relaxed);
}

} // namespace slf::obs
