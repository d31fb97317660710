/**
 * @file
 * In-memory spans for the benchmark's traced run.
 *
 * The benchmark records a span around each call it makes into a
 * module's public functions: name ("<layer>.<call>"), start, end, the
 * span that caused it and, on serve, the request id. Spans are kept
 * in memory and written out when the run ends. A span's self time is
 * its duration minus the part of its interval covered by its
 * children (the union, so parallel children on a pool are not
 * counted twice); a layer's self time is the sum over its spans.
 * Nothing in the simulator itself is instrumented.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench
{

/** Monotonic nanoseconds (steady clock). */
std::int64_t nowNs();

/** One finished span. */
struct Span
{
    std::string name;
    std::int64_t start = 0; ///< ns
    std::int64_t end = 0;   ///< ns
    std::uint64_t id = 0;
    std::uint64_t parent = 0; ///< 0 = root
    std::uint64_t req = 0;    ///< request id (serve), else 0
};

/** Thread-safe span sink; a disabled tracer records nothing. */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_.load(); }
    void setEnabled(bool on) { enabled_.store(on); }

    std::uint64_t nextId() { return ids_.fetch_add(1) + 1; }
    void record(Span s);

    /** Snapshot of all finished spans. */
    std::vector<Span> spans() const;

    /** Write the spans as a JSON array; false on I/O failure. */
    bool writeJson(const std::string &path) const;

  private:
    std::atomic<bool> enabled_;
    std::atomic<std::uint64_t> ids_{0};
    mutable std::mutex mu_;
    std::vector<Span> spans_;
};

/**
 * RAII span. The parent defaults to the innermost open scope on this
 * thread; pass @p parent explicitly for work handed to another thread
 * (pool tasks). No-op when @p t is null or disabled.
 */
class Scope
{
  public:
    static constexpr std::uint64_t kCurrent = ~0ull;

    Scope(Tracer *t, const char *name, std::uint64_t req = 0,
          std::uint64_t parent = kCurrent);
    ~Scope();

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    /** This span's id (0 when not recording). */
    std::uint64_t id() const { return span_.id; }

  private:
    Tracer *t_ = nullptr;
    Span span_;
    std::uint64_t savedCurrent_ = 0;
};

/** Self time (ns) of every span, in the order of @p spans. */
std::vector<std::int64_t> selfTimes(const std::vector<Span> &spans);

/** Total self time in seconds per layer (name up to the first '.'). */
std::map<std::string, double> layerSelfSeconds(
    const std::vector<Span> &spans);

/** The spans in the subtrees of spans named @p root (roots included). */
std::vector<Span> subtree(const std::vector<Span> &spans,
                          const std::string &root);

/** Durations (seconds) of every span named @p name. */
std::vector<double> durations(const std::vector<Span> &spans,
                              const std::string &name);

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
