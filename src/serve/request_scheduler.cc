#include "serve/request_scheduler.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/threadpool.hh"

namespace disc::serve
{

RequestScheduler::RequestScheduler(const ShareTable &table,
                                   unsigned queue_cap,
                                   unsigned batch_max)
    : table_(table), queueCap_(queue_cap),
      batchMax_(batch_max ? batch_max : ThreadPool::global().size())
{
    if (queueCap_ == 0)
        fatal("request scheduler needs queue_cap >= 1");
    if (batchMax_ == 0)
        batchMax_ = 1;
}

RequestScheduler::~RequestScheduler()
{
    drainAndStop();
}

RequestScheduler::Submit
RequestScheduler::submit(ServeJob job)
{
    if (job.tenant >= kMaxTenants)
        fatal("tenant %u out of range", job.tenant);
    if (job.enqueued == std::chrono::steady_clock::time_point{})
        job.enqueued = std::chrono::steady_clock::now();
    {
        std::lock_guard<std::mutex> g(mu_);
        if (draining_) {
            metrics_.rejectedDraining.fetch_add(1);
            return Submit::Draining;
        }
        std::deque<ServeJob> &q = queues_[job.tenant];
        if (q.size() >= queueCap_) {
            metrics_.rejectedQueueFull.fetch_add(1);
            return Submit::QueueFull;
        }
        q.push_back(std::move(job));
        metrics_.accepted.fetch_add(1);
        std::uint64_t depth = q.size();
        if (depth > metrics_.maxQueueDepth.load())
            metrics_.maxQueueDepth.store(depth);
    }
    cv_.notify_one();
    return Submit::Accepted;
}

void
RequestScheduler::shedExpiredLocked(std::vector<ServeJob> &shed)
{
    // Only queue heads are examined: within a tenant the queue is
    // FIFO, so reordering around an unexpired head is never allowed.
    // While draining, accepted work always executes — no shedding.
    if (draining_)
        return;
    auto now = std::chrono::steady_clock::now();
    for (std::deque<ServeJob> &q : queues_) {
        while (!q.empty()) {
            const ServeJob &head = q.front();
            if (head.deadlineMs == 0 ||
                now - head.enqueued <
                    std::chrono::milliseconds(head.deadlineMs))
                break;
            shed.push_back(std::move(q.front()));
            q.pop_front();
        }
    }
}

std::vector<ServeJob>
RequestScheduler::gatherLocked()
{
    std::vector<ServeJob> batch;
    std::vector<std::string> used; // sessions already in the batch
    while (batch.size() < batchMax_) {
        std::uint32_t mask = 0;
        for (unsigned t = 0; t < kMaxTenants; ++t) {
            if (queues_[t].empty())
                continue;
            const std::string &sess = queues_[t].front().session;
            if (std::find(used.begin(), used.end(), sess) == used.end())
                mask |= 1u << t;
        }
        if (!mask)
            break;
        TenantId t = table_.pick(mask);
        if (t == kNoTenant)
            break;
        ServeJob job = std::move(queues_[t].front());
        queues_[t].pop_front();
        used.push_back(job.session);
        batch.push_back(std::move(job));
    }
    return batch;
}

void
RequestScheduler::execute(std::vector<ServeJob> &batch)
{
    if (batch.empty())
        return;

    if (batch.size() == 1) {
        batch[0].run();
    } else {
        ThreadPool::global().parallelFor(
            batch.size(), [&](std::size_t i) { batch[i].run(); });
    }
    metrics_.batches.fetch_add(1);
    metrics_.batchedJobs.fetch_add(batch.size());
    std::uint64_t n = batch.size();
    if (n > metrics_.maxBatch.load())
        metrics_.maxBatch.store(n);
    metrics_.completed.fetch_add(n);
}

std::size_t
RequestScheduler::runBatchOnce()
{
    std::vector<ServeJob> shed;
    std::vector<ServeJob> batch;
    {
        std::lock_guard<std::mutex> g(mu_);
        shedExpiredLocked(shed);
        batch = gatherLocked();
    }
    for (ServeJob &s : shed) {
        metrics_.shedDeadline.fetch_add(1);
        if (s.dropped)
            s.dropped(Drop::Deadline);
    }
    execute(batch);
    return batch.size();
}

void
RequestScheduler::start()
{
    std::lock_guard<std::mutex> g(mu_);
    if (running_)
        return;
    running_ = true;
    dispatcher_ = std::thread([this] { dispatcherLoop(); });
}

void
RequestScheduler::dispatcherLoop()
{
    setLogTag("dispatch");
    std::unique_lock<std::mutex> lk(mu_);
    for (;;) {
        cv_.wait(lk, [this] {
            if (draining_)
                return true;
            for (const std::deque<ServeJob> &q : queues_)
                if (!q.empty())
                    return true;
            return false;
        });
        std::vector<ServeJob> shed;
        shedExpiredLocked(shed);
        std::vector<ServeJob> batch = gatherLocked();
        bool empty = std::all_of(
            queues_.begin(), queues_.end(),
            [](const std::deque<ServeJob> &q) { return q.empty(); });
        if (draining_ && batch.empty() && shed.empty() && empty)
            return;
        lk.unlock();
        for (ServeJob &s : shed) {
            metrics_.shedDeadline.fetch_add(1);
            if (s.dropped)
                s.dropped(Drop::Deadline);
        }
        execute(batch);
        lk.lock();
    }
}

void
RequestScheduler::drainAndStop()
{
    {
        std::lock_guard<std::mutex> g(mu_);
        draining_ = true;
    }
    cv_.notify_all();
    if (dispatcher_.joinable()) {
        dispatcher_.join();
        std::lock_guard<std::mutex> g(mu_);
        running_ = false;
    } else {
        // Never start()ed (unit tests): drain synchronously.
        while (runBatchOnce() > 0)
            ;
    }
}

bool
RequestScheduler::idle() const
{
    std::lock_guard<std::mutex> g(mu_);
    return std::all_of(
        queues_.begin(), queues_.end(),
        [](const std::deque<ServeJob> &q) { return q.empty(); });
}

std::size_t
RequestScheduler::queuedTotal() const
{
    std::lock_guard<std::mutex> g(mu_);
    std::size_t n = 0;
    for (const std::deque<ServeJob> &q : queues_)
        n += q.size();
    return n;
}

std::vector<std::size_t>
RequestScheduler::queueDepths() const
{
    std::lock_guard<std::mutex> g(mu_);
    std::vector<std::size_t> out(kMaxTenants);
    for (std::size_t i = 0; i < kMaxTenants; ++i)
        out[i] = queues_[i].size();
    return out;
}

} // namespace disc::serve
