/**
 * @file
 * Sessions and the SessionRegistry: bounded-memory hosting of many
 * concurrent simulations.
 *
 * A session is one client's Machine: a workload spec (assembly
 * source, entry points, external-memory devices), the machine built
 * from it, and the session's execution trace. The registry keys
 * sessions by id and keeps at most `max_resident` machines in memory;
 * colder sessions are *parked* — serialized as a self-contained file
 * (spec + machine checkpoint + trace snapshot) in the state
 * directory — and transparently rebuilt on the next acquire(). A
 * parked file is self-describing, so a freshly started server can
 * re-register every session a previous process left behind
 * (restoreDir()) and continue each one bit-identically.
 *
 * Concurrency contract: map surgery and LRU bookkeeping take the
 * registry mutex; machine (re)construction, checkpoint serialization
 * and file I/O run under the per-session mutex only, so disjoint
 * sessions park and restore in parallel. A Lease pins its session
 * (pinned sessions are never evicted) and holds the session mutex,
 * making machine access exclusive for the lease's lifetime. The
 * resident bound is enforced after each release — a batch may
 * transiently pin more sessions than the bound, which then drains
 * back under it. Eviction only try-locks a victim's session mutex, so
 * a thread may hold several leases at once without a lock-order
 * deadlock against another thread's eviction.
 */

#ifndef DISC_SERVE_SESSION_HH
#define DISC_SERVE_SESSION_HH

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "arch/devices.hh"
#include "board/board.hh"
#include "serve/share_table.hh"
#include "sim/machine.hh"
#include "sim/trace.hh"

namespace disc::serve
{

/** Sessions trace with disc-run's capacity so digests line up. */
constexpr std::size_t kSessionTraceEntries = 65536;

/** One additional stream start (beyond stream 0 at the entry label). */
struct StreamStart
{
    StreamId stream = 0;
    std::string label;
};

/** One external memory device on the session's bus. */
struct ExtMemSpec
{
    Addr base = 0;
    Addr size = 0;
    std::uint16_t latency = 0;
};

/** Everything needed to (re)build a session's machine from scratch. */
struct SessionSpec
{
    std::string id;          ///< [A-Za-z0-9_.-]+, also the file stem
    TenantId tenant = 0;     ///< owner for share accounting
    std::string source;      ///< DISC1 assembly text
    std::string entry = "main"; ///< stream 0 entry label ("" = addr 0)
    std::vector<StreamStart> streams; ///< extra stream starts
    std::vector<ExtMemSpec> extmems;  ///< external memory devices
    std::string board;                ///< board spec text (may be "")
};

class SessionRegistry;

/** One hosted simulation (access it through a Lease). */
class Session
{
  public:
    const SessionSpec &spec() const { return spec_; }

    /** The machine; only valid while leased (always resident then). */
    Machine &machine() { return *machine_; }

    /** The session's retired-instruction trace. */
    ExecTrace &trace() { return trace_; }

    /** True when the machine is in memory (unsynchronized peek). */
    bool resident() const { return resident_.load(); }

  private:
    friend class SessionRegistry;
    friend class SessionLease;

    explicit Session(SessionSpec spec)
        : spec_(std::move(spec))
    {}

    SessionSpec spec_;
    std::unique_ptr<Machine> machine_;
    Board board_; ///< devices built from spec_.board + extmem sugar
    ExecTrace trace_{kSessionTraceEntries};

    std::mutex m_;                      ///< machine + park-file access
    std::atomic<int> pins_{0};          ///< leases + evictor probes
    std::atomic<bool> resident_{false}; ///< machine in memory
    std::atomic<std::uint64_t> lastUsed_{0}; ///< LRU clock stamp
};

/**
 * Exclusive, pinned access to one session. Move-only; releasing the
 * lease re-enforces the residency bound (possibly parking LRU
 * sessions, including this one).
 */
class SessionLease
{
  public:
    SessionLease(SessionLease &&other) noexcept;
    SessionLease &operator=(SessionLease &&) = delete;
    ~SessionLease();

    Session *operator->() { return session_; }
    Session &operator*() { return *session_; }

  private:
    friend class SessionRegistry;

    SessionLease(SessionRegistry *reg, Session *s)
        : registry_(reg), session_(s)
    {}

    SessionRegistry *registry_ = nullptr;
    Session *session_ = nullptr;
};

/** The session table; see the file comment for the design. */
class SessionRegistry
{
  public:
    /**
     * @param state_dir    directory for park files (created on demand).
     * @param max_resident residency bound (>= 1).
     */
    SessionRegistry(std::string state_dir, unsigned max_resident);
    ~SessionRegistry() = default;

    SessionRegistry(const SessionRegistry &) = delete;
    SessionRegistry &operator=(const SessionRegistry &) = delete;

    /**
     * Create a session: assemble the source, build the machine,
     * start its streams. fatal() on a duplicate or invalid id, or on
     * assembly errors.
     */
    void open(const SessionSpec &spec);

    /**
     * Pin @p id and return exclusive access, restoring the machine
     * from its park file first when necessary. fatal() on unknown id.
     */
    SessionLease acquire(const std::string &id);

    /**
     * Park @p id now if it is resident and unpinned.
     * @return true when the session was parked by this call.
     */
    bool evict(const std::string &id);

    /** Remove a session and its park file. fatal() if leased. */
    void close(const std::string &id);

    /** Park every resident session (graceful shutdown). */
    void parkAll();

    /**
     * Register every park file found in the state directory (a
     * previous server's sessions). Sessions stay parked until first
     * acquire. @return number of sessions registered.
     */
    std::size_t restoreDir();

    /** Park file path for @p id inside this registry's state dir. */
    std::string parkPath(const std::string &id) const;

    /**
     * Remove a parked, unpinned session from the registry, leaving
     * its park file on disk — the migration departure step.
     * @return the park file path, or "" when the session is unknown,
     *         resident, or pinned (the caller should abort the move).
     */
    std::string detach(const std::string &id);

    /**
     * Register a park file already renamed into this registry's state
     * dir — the migration landing step. The session stays parked
     * until first acquire. fatal() on a malformed file, a duplicate
     * id, or a file not at its home path. @return the session id.
     */
    std::string adoptFile(const std::string &path);

    /**
     * Ids of unpinned sessions, coldest LRU stamp first, at most
     * @p max — the rebalancer's migration candidates. Unsynchronized
     * snapshot: a candidate may be pinned again by the time the
     * caller acts, which makes the move abort gracefully.
     */
    std::vector<std::string> coldestIdle(std::size_t max) const;

    /** Test hook: stall every park() this long (models slow disks). */
    void setParkDelayForTest(unsigned ms) { parkDelayMs_.store(ms); }

    /** True when the session exists (resident or parked). */
    bool has(const std::string &id) const;

    /** All session ids, sorted. */
    std::vector<std::string> ids() const;

    /** Sessions currently in memory. */
    unsigned residentCount() const { return resident_.load(); }

    /** Sessions known to the registry. */
    std::size_t size() const;

    /** Total sessions parked to disk so far. */
    std::uint64_t evictedTotal() const { return evicted_.load(); }

    /** Total sessions restored from disk so far. */
    std::uint64_t restoredTotal() const { return restored_.load(); }

    /** The state directory. */
    const std::string &stateDir() const { return dir_; }

  private:
    friend class SessionLease;

    /** Park file path for a session id. */
    std::string filePath(const std::string &id) const;

    /** Build machine+devices from the spec; optionally start streams. */
    void build(Session &s, bool start_streams);

    /** Serialize and write the park file; drops the machine. Caller
     *  holds s.m_. */
    void park(Session &s);

    /** Rebuild the machine from the park file. Caller holds s.m_. */
    void unpark(Session &s);

    /**
     * Park LRU sessions until the residency bound holds. Never blocks
     * on a session mutex: pinned or busy sessions are skipped, and the
     * next release() re-enforces the bound.
     */
    void enforceResidency();

    /** Called by ~SessionLease: unpin and re-enforce the bound. */
    void release(Session &s);

    std::string dir_;
    unsigned maxResident_;

    mutable std::mutex mu_;
    std::map<std::string, std::unique_ptr<Session>> sessions_;
    std::atomic<std::uint64_t> clock_{0};
    std::atomic<unsigned> resident_{0};
    std::atomic<std::uint64_t> evicted_{0};
    std::atomic<std::uint64_t> restored_{0};
    std::atomic<unsigned> parkDelayMs_{0};
};

/**
 * The session's result fingerprint: machine checkpoint bytes + trace
 * text (sim/digest.hh). Call with the session leased.
 */
std::uint64_t sessionDigest(Session &s);

/**
 * Digest a park file without building a machine: the checkpoint blob
 * folded with the restored trace render — by construction equal to
 * sessionDigest() of the session once restored. fatal() on a
 * malformed file.
 */
std::uint64_t parkFileDigest(const std::string &path);

/** What migrateSession() reports. */
struct MigrationResult
{
    bool ok = false;
    std::uint64_t digest = 0; ///< pre-move park-file digest
    std::string error;        ///< why the move aborted (ok == false)
};

/**
 * Move session @p id from @p src to @p dst: park → detach → digest
 * the park file → rename into dst's state dir (atomic; a crash after
 * the rename leaves the file where dst's restoreDir() finds it) →
 * adopt → restore and digest-check against the pre-move digest.
 * A busy session (leased, or re-acquired mid-move) aborts the move
 * gracefully and stays where it was; a post-restore digest mismatch
 * reports ok == false with the session hosted by @p dst.
 */
MigrationResult migrateSession(SessionRegistry &src, SessionRegistry &dst,
                               const std::string &id);

} // namespace disc::serve

#endif // DISC_SERVE_SESSION_HH
