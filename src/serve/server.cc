#include "serve/server.hh"

#include <arpa/inet.h>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <limits>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/hash.hh"
#include "common/logging.hh"

namespace disc::serve
{

ShareTable
makeShareTable(const ServerConfig &cfg)
{
    ShareTable table;
    if (!cfg.shares.empty())
        table.setShares(cfg.shares);
    else
        table.setEven(cfg.tenants);
    return table;
}

// --- ServeServer ------------------------------------------------------

ServeServer::ServeServer(const ServerConfig &cfg)
    : cfg_(cfg)
{
    if (cfg_.tenants == 0 || cfg_.tenants > kMaxTenants)
        fatal("tenant count %u out of range 1..%u", cfg_.tenants,
              kMaxTenants);
    if (cfg_.workers == 0)
        fatal("need at least one worker shard");
    for (unsigned i = 0; i < cfg_.workers; ++i) {
        auto sh = std::make_unique<Shard>();
        sh->registry = std::make_unique<SessionRegistry>(
            cfg_.stateDir + "/shard" + std::to_string(i),
            cfg_.maxResident);
        sh->sched = std::make_unique<RequestScheduler>(
            makeShareTable(cfg_), cfg_.queueCap, cfg_.batchMax);
        EventLoopConfig lc;
        lc.outBufSoft = cfg_.outBufSoft;
        lc.outBufHard = cfg_.outBufHard;
        sh->loop = std::make_unique<EventLoop>(lc);
        shards_.push_back(std::move(sh));
    }
}

ServeServer::~ServeServer()
{
    if (started_.load())
        requestStop();
}

unsigned
ServeServer::homeShard(const std::string &session) const
{
    return static_cast<unsigned>(fnv1a64(session) % cfg_.workers);
}

unsigned
ServeServer::shardOf(const std::string &session) const
{
    std::lock_guard<std::mutex> g(routeMu_);
    auto it = routes_.find(session);
    return it != routes_.end() ? it->second : homeShard(session);
}

void
ServeServer::rehomeFlatLayout()
{
    // A PR-5 server parked straight into stateDir; move those files
    // into their home shard's subdirectory so restoreDir() finds
    // them. Stale temp files from a crashed park are dropped.
    std::error_code ec;
    for (const auto &entry :
         std::filesystem::directory_iterator(cfg_.stateDir, ec)) {
        if (!entry.is_regular_file())
            continue;
        if (entry.path().extension() == ".tmp") {
            std::error_code rm_ec;
            std::filesystem::remove(entry.path(), rm_ec);
            continue;
        }
        if (entry.path().extension() != ".dsess")
            continue;
        std::string id = entry.path().stem().string();
        std::string target = shards_[homeShard(id)]->registry->parkPath(id);
        std::error_code mv_ec;
        std::filesystem::rename(entry.path(), target, mv_ec);
        if (mv_ec)
            warn("cannot rehome '%s': %s", entry.path().c_str(),
                 mv_ec.message().c_str());
    }
}

void
ServeServer::start()
{
    // Thousands of connections need thousands of fds.
    rlimit rl{};
    if (::getrlimit(RLIMIT_NOFILE, &rl) == 0 &&
        rl.rlim_cur < rl.rlim_max) {
        rl.rlim_cur = rl.rlim_max;
        ::setrlimit(RLIMIT_NOFILE, &rl);
    }

    rehomeFlatLayout();
    std::size_t resumed = 0;
    for (unsigned i = 0; i < cfg_.workers; ++i) {
        resumed += shards_[i]->registry->restoreDir();
        std::lock_guard<std::mutex> g(routeMu_);
        for (const std::string &id : shards_[i]->registry->ids())
            routes_[id] = i;
    }
    if (resumed > 0)
        inform("resumed %zu parked session(s) from %s", resumed,
               cfg_.stateDir.c_str());

    listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listenFd_ < 0)
        fatal("socket: %s", std::strerror(errno));
    int one = 1;
    ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one,
                 sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(cfg_.port);
    if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) < 0)
        fatal("bind port %u: %s", cfg_.port, std::strerror(errno));
    if (::listen(listenFd_, 1024) < 0)
        fatal("listen: %s", std::strerror(errno));
    socklen_t len = sizeof(addr);
    if (::getsockname(listenFd_, reinterpret_cast<sockaddr *>(&addr),
                      &len) < 0)
        fatal("getsockname: %s", std::strerror(errno));
    port_ = ntohs(addr.sin_port);

    for (unsigned i = 0; i < cfg_.workers; ++i) {
        shards_[i]->sched->start();
        shards_[i]->loop->start(strprintf("loop%u", i));
    }
    shards_[0]->loop->addListener(listenFd_,
                                  [this](int fd) { adoptConnection(fd); });

    if (cfg_.rebalanceMs > 0) {
        rebalanceStop_.store(false);
        rebalanceThread_ = std::thread([this] { rebalancerLoop(); });
    }
    started_.store(true);
}

void
ServeServer::adoptConnection(int fd)
{
    if (stopping_.load()) {
        ::close(fd);
        return;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    connections_.fetch_add(1);
    unsigned idx = nextLoop_.fetch_add(1) % cfg_.workers;
    shards_[idx]->loop->addConnection(
        fd,
        [this](const std::shared_ptr<EventConn> &conn,
               std::vector<std::uint8_t> &payload) {
            handle(conn, payload);
        },
        {},
        [this](const std::shared_ptr<EventConn> &conn,
               const std::string &err) {
            streamErrors_.fetch_add(1);
            Response resp;
            resp.type = MsgType::ErrorResp;
            resp.error = err;
            conn->sendFrame(encodeResponse(resp));
        });
}

void
ServeServer::handle(const std::shared_ptr<EventConn> &conn,
                    std::vector<std::uint8_t> &payload)
{
    Request req;
    try {
        req = decodeRequest(payload);
    } catch (const FatalError &e) {
        Response resp;
        resp.type = MsgType::ErrorResp;
        resp.error = e.what();
        conn->sendFrame(encodeResponse(resp));
        return;
    }

    if (req.type == MsgType::StatsReq) {
        Response resp;
        resp.type = MsgType::StatsResp;
        resp.seq = req.seq;
        resp.counters = metricsCounters();
        conn->sendFrame(encodeResponse(resp));
        return;
    }
    if (req.type == MsgType::ShutdownReq) {
        shutdownReq_.store(true);
        Response resp;
        resp.type = MsgType::ShutdownResp;
        resp.seq = req.seq;
        conn->sendFrame(encodeResponse(resp));
        return;
    }
    if (req.tenant >= cfg_.tenants) {
        Response resp;
        resp.type = MsgType::ErrorResp;
        resp.seq = req.seq;
        resp.error = strprintf("tenant %u out of range 0..%u",
                               req.tenant, cfg_.tenants - 1);
        conn->sendFrame(encodeResponse(resp));
        return;
    }

    ServeJob job;
    job.tenant = req.tenant;
    job.session = req.session;
    job.deadlineMs = req.deadlineMs;
    job.run = [this, conn, req] {
        setLogTag("sess " + req.session);
        conn->sendFrame(encodeResponse(execute(req)));
    };
    job.dropped = [conn, seq = req.seq](Drop d) {
        Response resp;
        resp.type = MsgType::BusyResp;
        resp.seq = seq;
        resp.busy = d == Drop::Deadline ? BusyReason::Deadline
                                        : BusyReason::Draining;
        resp.error = d == Drop::Deadline ? "shed: deadline exceeded"
                                         : "server draining";
        conn->sendFrame(encodeResponse(resp));
    };

    RequestScheduler &sched = *shards_[shardOf(req.session)]->sched;
    switch (sched.submit(std::move(job))) {
      case RequestScheduler::Submit::Accepted:
        return;
      case RequestScheduler::Submit::QueueFull: {
        Response resp;
        resp.type = MsgType::BusyResp;
        resp.seq = req.seq;
        resp.busy = BusyReason::QueueFull;
        resp.error = strprintf("tenant %u queue full (cap %u)",
                               req.tenant, cfg_.queueCap);
        conn->sendFrame(encodeResponse(resp));
        return;
      }
      case RequestScheduler::Submit::Draining: {
        Response resp;
        resp.type = MsgType::BusyResp;
        resp.seq = req.seq;
        resp.busy = BusyReason::Draining;
        resp.error = "server draining";
        conn->sendFrame(encodeResponse(resp));
        return;
      }
    }
}

void
ServeServer::beginMigration(const std::string &session)
{
    std::unique_lock<std::mutex> lk(routeMu_);
    routeCv_.wait(lk,
                  [&] { return migrating_.count(session) == 0; });
    migrating_.insert(session);
}

void
ServeServer::endMigration(const std::string &session)
{
    {
        std::lock_guard<std::mutex> g(routeMu_);
        migrating_.erase(session);
    }
    routeCv_.notify_all();
}

void
ServeServer::awaitMigration(const std::string &session)
{
    std::unique_lock<std::mutex> lk(routeMu_);
    if (migrating_.count(session) == 0)
        return;
    // Bounded: a wedged move must not wedge its requests forever —
    // after the timeout the request proceeds and reports whatever it
    // finds.
    routeCv_.wait_for(lk, std::chrono::seconds(5), [&] {
        return migrating_.count(session) == 0;
    });
}

Response
ServeServer::executeMigrate(const Request &req)
{
    beginMigration(req.session);
    Response resp;
    try {
        resp = doMigrate(req);
    } catch (...) {
        endMigration(req.session);
        throw;
    }
    endMigration(req.session);
    return resp;
}

Response
ServeServer::doMigrate(const Request &req)
{
    Response resp;
    resp.seq = req.seq;
    unsigned from = shardOf(req.session);
    unsigned to = req.targetShard;
    if (to == kAnyShard) {
        // Pick the least-queued other shard.
        std::size_t best = std::numeric_limits<std::size_t>::max();
        to = (from + 1) % cfg_.workers;
        for (unsigned i = 0; i < cfg_.workers; ++i) {
            if (i == from)
                continue;
            std::size_t q = shards_[i]->sched->queuedTotal();
            if (q < best) {
                best = q;
                to = i;
            }
        }
    }
    if (to >= cfg_.workers) {
        resp.type = MsgType::ErrorResp;
        resp.error = strprintf("shard %u out of range 0..%u", to,
                               cfg_.workers - 1);
        return resp;
    }
    if (to == from) {
        // Single-shard server or explicit no-op: report the digest.
        SessionLease lease = shards_[from]->registry->acquire(req.session);
        resp.type = MsgType::MigrateResp;
        resp.digest = sessionDigest(*lease);
        resp.shard = from;
        return resp;
    }
    MigrationResult r = migrateSession(*shards_[from]->registry,
                                       *shards_[to]->registry,
                                       req.session);
    if (!r.ok) {
        migrationsFailed_.fetch_add(1);
        resp.type = MsgType::ErrorResp;
        resp.error = r.error;
        return resp;
    }
    {
        std::lock_guard<std::mutex> g(routeMu_);
        routes_[req.session] = to;
    }
    migrationsOk_.fetch_add(1);
    resp.type = MsgType::MigrateResp;
    resp.digest = r.digest;
    resp.shard = to;
    return resp;
}

Response
ServeServer::execute(const Request &req)
{
    Response resp;
    resp.seq = req.seq;
    for (int attempt = 0;; ++attempt)
    try {
        // Resolve the registry when the job runs, not when it was
        // queued: a migration may have moved the session since — and
        // may be moving it right now, in which case it is registered
        // nowhere until the move lands. Wait that window out.
        awaitMigration(req.session);
        SessionRegistry &reg = *shards_[shardOf(req.session)]->registry;
        switch (req.type) {
          case MsgType::OpenReq: {
            SessionSpec spec;
            spec.id = req.session;
            spec.tenant = req.tenant;
            spec.source = req.source;
            spec.entry = req.entry;
            spec.streams = req.streams;
            spec.extmems = req.extmems;
            spec.board = req.board;
            {
                // A fresh open always lands on the home shard; drop
                // any stale route from a closed predecessor.
                std::lock_guard<std::mutex> g(routeMu_);
                routes_.erase(spec.id);
            }
            shards_[homeShard(spec.id)]->registry->open(spec);
            resp.type = MsgType::OpenResp;
            break;
          }
          case MsgType::RunReq: {
            SessionLease lease = reg.acquire(req.session);
            resp.ran = lease->machine().run(req.maxCycles,
                                            req.stopWhenIdle);
            resp.totalCycles = lease->machine().stats().cycles;
            resp.retired = lease->machine().stats().totalRetired;
            resp.idle = lease->machine().idle();
            resp.type = MsgType::RunResp;
            break;
          }
          case MsgType::StepReq: {
            SessionLease lease = reg.acquire(req.session);
            for (std::uint32_t i = 0; i < req.stepCycles; ++i)
                lease->machine().step();
            resp.ran = req.stepCycles;
            resp.totalCycles = lease->machine().stats().cycles;
            resp.retired = lease->machine().stats().totalRetired;
            resp.idle = lease->machine().idle();
            resp.type = MsgType::StepResp;
            break;
          }
          case MsgType::QueryReq: {
            SessionLease lease = reg.acquire(req.session);
            resp.digest = sessionDigest(*lease);
            resp.totalCycles = lease->machine().stats().cycles;
            resp.retired = lease->machine().stats().totalRetired;
            resp.idle = lease->machine().idle();
            resp.type = MsgType::QueryResp;
            break;
          }
          case MsgType::CloseReq:
            reg.close(req.session);
            {
                std::lock_guard<std::mutex> g(routeMu_);
                routes_.erase(req.session);
            }
            resp.type = MsgType::CloseResp;
            break;
          case MsgType::MigrateReq:
            resp = executeMigrate(req);
            break;
          default:
            resp.type = MsgType::ErrorResp;
            resp.error = "request type not servable";
            break;
        }
        return resp;
    } catch (const std::exception &e) {
        // A request can slip past awaitMigration() just before the
        // move detaches its session; if the session is registered
        // again once the dust settles, run it where it landed.
        if (attempt == 0 && req.type != MsgType::OpenReq &&
            req.type != MsgType::MigrateReq && !req.session.empty()) {
            awaitMigration(req.session);
            if (shards_[shardOf(req.session)]->registry->has(
                    req.session))
                continue;
        }
        // FatalError (bad program, unknown session) and PanicError
        // both surface to the client; the server stays up.
        resp.type = MsgType::ErrorResp;
        resp.error = e.what();
        return resp;
    }
}

bool
ServeServer::rebalanceOnce()
{
    if (cfg_.workers < 2)
        return false;
    unsigned hot = 0, cold = 0;
    std::size_t hot_q = 0;
    std::size_t cold_q = std::numeric_limits<std::size_t>::max();
    for (unsigned i = 0; i < cfg_.workers; ++i) {
        std::size_t q = shards_[i]->sched->queuedTotal();
        if (q > hot_q) {
            hot_q = q;
            hot = i;
        }
        if (q < cold_q) {
            cold_q = q;
            cold = i;
        }
    }
    if (hot == cold || hot_q <= cold_q + 1)
        return false; // nothing meaningfully hotter
    for (const std::string &id :
         shards_[hot]->registry->coldestIdle(4)) {
        beginMigration(id);
        MigrationResult r = migrateSession(*shards_[hot]->registry,
                                           *shards_[cold]->registry, id);
        if (!r.ok) {
            endMigration(id);
            migrationsFailed_.fetch_add(1);
            continue; // busy candidate; try the next-coldest
        }
        {
            std::lock_guard<std::mutex> g(routeMu_);
            routes_[id] = cold;
        }
        endMigration(id);
        migrationsOk_.fetch_add(1);
        rebalanced_.fetch_add(1);
        return true;
    }
    return false;
}

void
ServeServer::rebalancerLoop()
{
    setLogTag("rebalance");
    while (!rebalanceStop_.load()) {
        // Sleep in short slices so requestStop() is prompt.
        for (unsigned slept = 0;
             slept < cfg_.rebalanceMs && !rebalanceStop_.load();
             slept += 10)
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
        if (rebalanceStop_.load())
            return;
        try {
            rebalanceOnce();
        } catch (const std::exception &e) {
            warn("rebalance pass failed: %s", e.what());
        }
    }
}

void
ServeServer::requestStop()
{
    bool expected = false;
    if (!stopping_.compare_exchange_strong(expected, true))
        return;
    if (!started_.load())
        return;

    // 1. Stop the rebalancer: no new migrations.
    rebalanceStop_.store(true);
    if (rebalanceThread_.joinable())
        rebalanceThread_.join();

    // 2. Stop accepting.
    shards_[0]->loop->removeListener();
    ::close(listenFd_);
    listenFd_ = -1;

    // 3. Stop reading every connection: no new frames are delivered,
    //    so no new jobs are submitted; reply frames still flow out.
    for (auto &sh : shards_)
        sh->loop->stopReading();

    // 4. Drain: every accepted request executes, every reply is
    //    queued on its connection.
    for (auto &sh : shards_)
        sh->sched->drainAndStop();

    // 5. Wait for the queued replies to reach the sockets (bounded;
    //    a peer that never reads forfeits its replies).
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::seconds(5);
    for (;;) {
        bool all = true;
        for (auto &sh : shards_)
            if (!sh->loop->flushed())
                all = false;
        if (all || std::chrono::steady_clock::now() > deadline)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }

    // 6. Tear the loops (and their connections) down.
    for (auto &sh : shards_)
        sh->loop->stop();

    // 7. Park every live session so a restarted server can continue
    //    bit-identically.
    for (auto &sh : shards_)
        sh->registry->parkAll();
    started_.store(false);
}

std::vector<std::pair<std::string, std::uint64_t>>
ServeServer::metricsCounters() const
{
    std::vector<std::pair<std::string, std::uint64_t>> out;
    std::uint64_t accepted = 0, completed = 0, shed = 0, qfull = 0,
                  draining = 0, queued = 0, maxdepth = 0, batches = 0,
                  batched = 0, maxbatch = 0, sessions = 0,
                  resident = 0, evicted = 0, restored = 0;
    for (const auto &sh : shards_) {
        const SchedulerMetrics &m = sh->sched->metrics();
        accepted += m.accepted.load();
        completed += m.completed.load();
        shed += m.shedDeadline.load();
        qfull += m.rejectedQueueFull.load();
        draining += m.rejectedDraining.load();
        queued += sh->sched->queuedTotal();
        maxdepth = std::max(maxdepth, m.maxQueueDepth.load());
        batches += m.batches.load();
        batched += m.batchedJobs.load();
        maxbatch = std::max(maxbatch, m.maxBatch.load());
        sessions += sh->registry->size();
        resident += sh->registry->residentCount();
        evicted += sh->registry->evictedTotal();
        restored += sh->registry->restoredTotal();
    }
    out.emplace_back("connections", connections_.load());
    out.emplace_back("accepted", accepted);
    out.emplace_back("completed", completed);
    out.emplace_back("shed_deadline", shed);
    out.emplace_back("rejected_queue_full", qfull);
    out.emplace_back("rejected_draining", draining);
    out.emplace_back("queued", queued);
    out.emplace_back("max_queue_depth", maxdepth);
    out.emplace_back("batches", batches);
    out.emplace_back("batched_jobs", batched);
    out.emplace_back("max_batch", maxbatch);
    out.emplace_back("sessions", sessions);
    out.emplace_back("resident", resident);
    out.emplace_back("evicted", evicted);
    out.emplace_back("restored", restored);
    out.emplace_back("workers", cfg_.workers);
    out.emplace_back("stream_errors", streamErrors_.load());
    out.emplace_back("migrations_ok", migrationsOk_.load());
    out.emplace_back("migrations_failed", migrationsFailed_.load());
    out.emplace_back("rebalanced", rebalanced_.load());
    for (unsigned i = 0; i < cfg_.workers; ++i) {
        out.emplace_back(strprintf("shard%u_queued", i),
                         shards_[i]->sched->queuedTotal());
        out.emplace_back(strprintf("shard%u_sessions", i),
                         shards_[i]->registry->size());
        out.emplace_back(strprintf("shard%u_resident", i),
                         shards_[i]->registry->residentCount());
        out.emplace_back(strprintf("shard%u_conns", i),
                         shards_[i]->loop->connCount());
    }
    return out;
}

std::string
ServeServer::metricsText() const
{
    std::string out;
    for (const auto &[name, value] : metricsCounters())
        out += strprintf("serve: %s=%llu\n", name.c_str(),
                         static_cast<unsigned long long>(value));
    return out;
}

} // namespace disc::serve
