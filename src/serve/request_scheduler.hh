/**
 * @file
 * RequestScheduler: guaranteed-share batching of session requests
 * onto the worker pool.
 *
 * Admission and dispatch follow the paper's partition-with-
 * reallocation policy one level above the hardware: every tenant owns
 * a bounded FIFO queue and a static share of dispatch slots in 1/16
 * increments (serve/share_table.hh). The dispatcher gathers a batch —
 * at most one request per *session*, since a session's machine is
 * serial — by consuming share slots: each slot serves its owner's
 * queue head if backlogged, else is donated to the next backlogged
 * tenant. The batch then executes concurrently on the shared
 * lock-free ThreadPool (sessions are independent machines, so this is
 * race-free by construction).
 *
 * Robustness:
 *  - bounded queues: submit() refuses when the tenant's queue is full
 *    (the caller replies with explicit backpressure, the client backs
 *    off);
 *  - deadline shedding: a request that waited past its deadline is
 *    dropped at gather time, before any simulation work is spent on
 *    it — shedding can only ever happen to *queued* work, so an idle
 *    server never sheds;
 *  - draining: drainAndStop() refuses new work, runs every accepted
 *    request to completion, then stops the dispatcher — the graceful-
 *    shutdown half of the serving contract.
 */

#ifndef DISC_SERVE_REQUEST_SCHEDULER_HH
#define DISC_SERVE_REQUEST_SCHEDULER_HH

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/types.hh"
#include "serve/share_table.hh"

namespace disc::serve
{

/** Why a request was dropped without executing. */
enum class Drop : std::uint8_t
{
    Deadline = 1, ///< waited past its deadline (load shedding)
    Draining = 2, ///< server is shutting down
};

/** One queued unit of work. */
struct ServeJob
{
    TenantId tenant = 0;
    std::string session; ///< batch key: one in flight per session
    std::uint32_t deadlineMs = 0; ///< 0 = never shed
    std::chrono::steady_clock::time_point enqueued{};
    std::function<void()> run;          ///< pool thread; must not throw
    std::function<void(Drop)> dropped;  ///< shed/drain notice
};

/** Dispatch counters (relaxed atomics; exact under quiescence). */
struct SchedulerMetrics
{
    std::atomic<std::uint64_t> accepted{0};
    std::atomic<std::uint64_t> rejectedQueueFull{0};
    std::atomic<std::uint64_t> rejectedDraining{0};
    std::atomic<std::uint64_t> shedDeadline{0};
    std::atomic<std::uint64_t> completed{0};
    std::atomic<std::uint64_t> batches{0};
    std::atomic<std::uint64_t> batchedJobs{0};
    std::atomic<std::uint64_t> maxBatch{0};
    std::atomic<std::uint64_t> maxQueueDepth{0};
};

/** Share-policy batcher; see the file comment. */
class RequestScheduler
{
  public:
    /**
     * @param table     tenant share grants (copied).
     * @param queue_cap per-tenant queue bound (>= 1).
     * @param batch_max batch size cap; 0 = ThreadPool::global().size().
     */
    RequestScheduler(const ShareTable &table, unsigned queue_cap,
                     unsigned batch_max = 0);
    ~RequestScheduler();

    RequestScheduler(const RequestScheduler &) = delete;
    RequestScheduler &operator=(const RequestScheduler &) = delete;

    /** submit() outcome. */
    enum class Submit : std::uint8_t
    {
        Accepted,
        QueueFull, ///< tenant queue at its bound — back off
        Draining,  ///< shutting down — no new work
    };

    /**
     * Enqueue a job on its tenant's queue. On refusal job.dropped is
     * NOT called: the caller owns the backpressure reply.
     */
    Submit submit(ServeJob job);

    /** Start the dispatcher thread. */
    void start();

    /**
     * Refuse new work, execute everything already queued, then stop
     * the dispatcher. Jobs whose deadline passes while draining are
     * still executed — accepted work is never thrown away. Idempotent.
     */
    void drainAndStop();

    /**
     * Synchronously shed expired heads, gather one batch by the share
     * policy and execute it on the pool. Test hook (do not mix with a
     * start()ed dispatcher).
     * @return jobs executed in this batch.
     */
    std::size_t runBatchOnce();

    /** True when every queue is empty. */
    bool idle() const;

    /** Sum of queued jobs over all tenants. */
    std::size_t queuedTotal() const;

    /** Per-tenant queued-job depths (index = tenant id). */
    std::vector<std::size_t> queueDepths() const;

    /** Counters. */
    const SchedulerMetrics &metrics() const { return metrics_; }

    /** The share table (cursor advances as batches are gathered). */
    const ShareTable &table() const { return table_; }

  private:
    /** Pop expired queue heads; call their dropped() outside mu_. */
    void shedExpiredLocked(std::vector<ServeJob> &shed);

    /** Gather at most batchMax_ jobs, one per session. Caller holds
     *  mu_. */
    std::vector<ServeJob> gatherLocked();

    /** Execute a gathered batch on the pool and count it. */
    void execute(std::vector<ServeJob> &batch);

    void dispatcherLoop();

    ShareTable table_;
    unsigned queueCap_;
    unsigned batchMax_;

    mutable std::mutex mu_;
    std::condition_variable cv_;
    std::array<std::deque<ServeJob>, kMaxTenants> queues_;
    bool draining_ = false;
    bool running_ = false;
    std::thread dispatcher_;

    SchedulerMetrics metrics_;
};

} // namespace disc::serve

#endif // DISC_SERVE_REQUEST_SCHEDULER_HH
