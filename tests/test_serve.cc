/**
 * @file
 * disc-serve subsystem tests: share-table policy against its oracle,
 * request-scheduler admission/shedding/draining, concurrent session
 * eviction+restore with bit-identical results, and an in-process
 * client/server round trip including restart-resume.
 */

#include <algorithm>
#include <arpa/inet.h>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <netinet/in.h>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "isa/assembler.hh"
#include "serve/proto.hh"
#include "serve/request_scheduler.hh"
#include "serve/server.hh"
#include "serve/session.hh"
#include "serve/share_table.hh"
#include "sim/digest.hh"
#include "sim/machine.hh"
#include "sim/trace.hh"

using namespace disc;
using namespace disc::serve;

namespace
{

/** An endless, never-idle workload with a per-session constant. */
std::string
loopSource(unsigned k)
{
    return strprintf(".org 0x20\n"
                     "main:\n"
                     "    ldi  r0, %u\n"
                     "    ldi  r1, 1\n"
                     "loop:\n"
                     "    add  r1, r1, r0\n"
                     "    mul  r2, r1, r0\n"
                     "    sub  r3, r2, r1\n"
                     "    jmp  loop\n",
                     3 + k);
}

SessionSpec
loopSpec(const std::string &id, TenantId tenant, unsigned k)
{
    SessionSpec spec;
    spec.id = id;
    spec.tenant = tenant;
    spec.source = loopSource(k);
    return spec;
}

/** The digest an offline machine reaches after @p cycles. */
std::uint64_t
offlineDigest(unsigned k, Cycle cycles)
{
    Program prog = assemble(loopSource(k));
    Machine m;
    m.load(prog);
    ExecTrace trace(kSessionTraceEntries);
    m.setExecTrace(&trace);
    m.startStream(0, prog.symbol("main"));
    m.run(cycles, false);
    return runDigest(m, trace);
}

/** A fresh, empty state directory for one test. */
std::string
freshDir(const std::string &name)
{
    std::string dir =
        (std::filesystem::temp_directory_path() / name).string();
    std::filesystem::remove_all(dir);
    return dir;
}

// --- ShareTable -------------------------------------------------------

TEST(ShareTable, EvenSplitCoversAllSlots)
{
    ShareTable t;
    t.setEven(4);
    std::array<unsigned, 4> count{};
    for (unsigned i = 0; i < kScheduleSlots; ++i) {
        ASSERT_LT(t.slot(i), 4u);
        ++count[t.slot(i)];
    }
    for (unsigned c : count)
        EXPECT_EQ(c, 4u);
}

TEST(ShareTable, StaticSharesHonouredUnderSaturation)
{
    ShareTable t;
    t.setShares({8, 4, 2, 2});
    std::uint32_t all = 0xf; // every tenant backlogged
    std::array<unsigned, 4> picked{};
    for (unsigned i = 0; i < kScheduleSlots; ++i) {
        TenantId who = t.pick(all);
        ASSERT_LT(who, 4u);
        ++picked[who];
    }
    // Under saturation every tenant gets exactly its static share.
    EXPECT_EQ(picked[0], 8u);
    EXPECT_EQ(picked[1], 4u);
    EXPECT_EQ(picked[2], 2u);
    EXPECT_EQ(picked[3], 2u);
}

TEST(ShareTable, IdleTenantSlotsReallocated)
{
    ShareTable t;
    t.setShares({8, 4, 2, 2});
    std::uint32_t mask = 0xf & ~1u; // tenant 0 has no backlog
    std::array<unsigned, 4> picked{};
    for (unsigned i = 0; i < kScheduleSlots; ++i) {
        TenantId who = t.pick(mask);
        ASSERT_LT(who, 4u);
        ++picked[who];
    }
    // Tenant 0's 8 slots were donated: nobody idles while others
    // wait, and every backlogged tenant still gets >= its own share.
    EXPECT_EQ(picked[0], 0u);
    EXPECT_EQ(picked[1] + picked[2] + picked[3], kScheduleSlots);
    EXPECT_GE(picked[1], 4u);
    EXPECT_GE(picked[2], 2u);
    EXPECT_GE(picked[3], 2u);
}

TEST(ShareTable, UnownedSlotsAlwaysDonated)
{
    ShareTable t;
    t.setShares({2, 2}); // 12 of 16 slots unowned
    std::array<unsigned, 2> picked{};
    for (unsigned i = 0; i < kScheduleSlots; ++i) {
        TenantId who = t.pick(0x3);
        ASSERT_LT(who, 2u);
        ++picked[who];
    }
    EXPECT_EQ(picked[0] + picked[1], kScheduleSlots);
    EXPECT_GE(picked[0], 2u);
    EXPECT_GE(picked[1], 2u);
}

TEST(ShareTable, PickMatchesReferenceOracle)
{
    ShareTable t;
    t.setShares({5, 3, 1, 4}); // 3 slots unowned
    std::uint32_t lcg = 12345;
    for (unsigned i = 0; i < 1000; ++i) {
        lcg = lcg * 1664525 + 1013904223;
        std::uint32_t mask = (lcg >> 8) & 0xf;
        unsigned cursor = t.cursor();
        TenantId expect = t.referencePick(cursor, mask);
        EXPECT_EQ(t.pick(mask), expect) << "cursor " << cursor
                                        << " mask " << mask;
    }
}

TEST(ShareTable, EmptyBacklogPicksNobody)
{
    ShareTable t;
    t.setEven(3);
    EXPECT_EQ(t.pick(0), kNoTenant);
}

// --- RequestScheduler -------------------------------------------------

ServeJob
countJob(TenantId tenant, const std::string &session,
         std::atomic<unsigned> &counter)
{
    ServeJob job;
    job.tenant = tenant;
    job.session = session;
    job.run = [&counter] { counter.fetch_add(1); };
    return job;
}

TEST(RequestScheduler, SharesHonouredAcrossAFrame)
{
    ShareTable t;
    t.setShares({8, 4, 2, 2});
    RequestScheduler sched(t, 64, kScheduleSlots);
    std::array<std::atomic<unsigned>, 4> ran{};
    // Every tenant saturated with distinct-session work.
    for (unsigned j = 0; j < 16; ++j)
        for (TenantId tn = 0; tn < 4; ++tn)
            ASSERT_EQ(sched.submit(countJob(
                          tn, strprintf("t%u-%u", tn, j), ran[tn])),
                      RequestScheduler::Submit::Accepted);
    // One full frame = 16 slots: the static shares exactly.
    EXPECT_EQ(sched.runBatchOnce(), kScheduleSlots);
    EXPECT_EQ(ran[0].load(), 8u);
    EXPECT_EQ(ran[1].load(), 4u);
    EXPECT_EQ(ran[2].load(), 2u);
    EXPECT_EQ(ran[3].load(), 2u);
    sched.drainAndStop();
}

TEST(RequestScheduler, IdleTenantBandwidthFlowsToBacklogged)
{
    ShareTable t;
    t.setShares({8, 4, 2, 2});
    RequestScheduler sched(t, 64, kScheduleSlots);
    std::atomic<unsigned> ran{0};
    // Only tenant 3 (share 2/16) has work.
    for (unsigned j = 0; j < 16; ++j)
        ASSERT_EQ(sched.submit(
                      countJob(3, strprintf("s%u", j), ran)),
                  RequestScheduler::Submit::Accepted);
    // It receives the whole frame, not just its static share.
    EXPECT_EQ(sched.runBatchOnce(), kScheduleSlots);
    EXPECT_EQ(ran.load(), 16u);
}

TEST(RequestScheduler, OneInFlightPerSession)
{
    ShareTable t;
    t.setEven(1);
    RequestScheduler sched(t, 64, kScheduleSlots);
    std::atomic<unsigned> ran{0};
    // Four requests for the SAME session: a machine is serial, so a
    // batch may take only one.
    for (unsigned j = 0; j < 4; ++j)
        sched.submit(countJob(0, "same", ran));
    EXPECT_EQ(sched.runBatchOnce(), 1u);
    EXPECT_EQ(ran.load(), 1u);
    EXPECT_EQ(sched.queuedTotal(), 3u);
    sched.drainAndStop();
    EXPECT_EQ(ran.load(), 4u);
}

TEST(RequestScheduler, BoundedQueueRefusesWhenFull)
{
    ShareTable t;
    t.setEven(1);
    RequestScheduler sched(t, 2, 4);
    std::atomic<unsigned> ran{0};
    EXPECT_EQ(sched.submit(countJob(0, "a", ran)),
              RequestScheduler::Submit::Accepted);
    EXPECT_EQ(sched.submit(countJob(0, "b", ran)),
              RequestScheduler::Submit::Accepted);
    EXPECT_EQ(sched.submit(countJob(0, "c", ran)),
              RequestScheduler::Submit::QueueFull);
    EXPECT_EQ(sched.metrics().rejectedQueueFull.load(), 1u);
    sched.drainAndStop();
    EXPECT_EQ(ran.load(), 2u);
}

TEST(RequestScheduler, ExpiredRequestsShedBeforeExecution)
{
    ShareTable t;
    t.setEven(1);
    RequestScheduler sched(t, 64, 4);
    std::atomic<unsigned> ran{0};
    std::atomic<unsigned> shed{0};
    for (unsigned j = 0; j < 3; ++j) {
        ServeJob job = countJob(0, strprintf("s%u", j), ran);
        job.deadlineMs = 1;
        job.dropped = [&shed](Drop d) {
            EXPECT_EQ(d, Drop::Deadline);
            shed.fetch_add(1);
        };
        ASSERT_EQ(sched.submit(std::move(job)),
                  RequestScheduler::Submit::Accepted);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    sched.runBatchOnce();
    EXPECT_EQ(ran.load(), 0u);
    EXPECT_EQ(shed.load(), 3u);
    EXPECT_EQ(sched.metrics().shedDeadline.load(), 3u);
}

TEST(RequestScheduler, DrainExecutesEverythingThenRefuses)
{
    ShareTable t;
    t.setEven(2);
    RequestScheduler sched(t, 64, 4);
    sched.start();
    std::atomic<unsigned> ran{0};
    for (unsigned j = 0; j < 20; ++j)
        sched.submit(countJob(static_cast<TenantId>(j % 2),
                              strprintf("s%u", j), ran));
    sched.drainAndStop();
    EXPECT_EQ(ran.load(), 20u);
    EXPECT_EQ(sched.submit(countJob(0, "late", ran)),
              RequestScheduler::Submit::Draining);
    EXPECT_EQ(ran.load(), 20u);
    EXPECT_EQ(sched.metrics().completed.load(), 20u);
}

// --- SessionRegistry --------------------------------------------------

TEST(SessionRegistry, EvictedSessionMatchesNeverEvictedControl)
{
    SessionRegistry reg(freshDir("disc_serve_test_evict"), 1);
    reg.open(loopSpec("a", 0, 0));
    reg.open(loopSpec("b", 0, 1));
    // Interleave the two sessions; with max_resident=1 every switch
    // parks one and restores the other.
    for (unsigned round = 0; round < 4; ++round) {
        for (const char *id : {"a", "b"}) {
            SessionLease lease = reg.acquire(id);
            lease->machine().run(250, false);
        }
    }
    EXPECT_GT(reg.evictedTotal(), 0u);
    EXPECT_GT(reg.restoredTotal(), 0u);
    {
        SessionLease lease = reg.acquire("a");
        EXPECT_EQ(sessionDigest(*lease), offlineDigest(0, 1000));
    }
    {
        SessionLease lease = reg.acquire("b");
        EXPECT_EQ(sessionDigest(*lease), offlineDigest(1, 1000));
    }
}

TEST(SessionRegistry, ConcurrentEvictRestoreStaysBitIdentical)
{
    constexpr unsigned kThreads = 8;
    constexpr unsigned kRounds = 6;
    constexpr Cycle kChunk = 200;
    SessionRegistry reg(freshDir("disc_serve_test_threads"), 2);
    for (unsigned i = 0; i < kThreads; ++i)
        reg.open(loopSpec(strprintf("w%u", i),
                          static_cast<TenantId>(i % 4), i));
    // N threads churn disjoint sessions through a 2-session residency
    // bound: parks and restores run concurrently on the session
    // mutexes.
    std::vector<std::thread> workers;
    for (unsigned i = 0; i < kThreads; ++i) {
        workers.emplace_back([&reg, i] {
            for (unsigned r = 0; r < kRounds; ++r) {
                SessionLease lease =
                    reg.acquire(strprintf("w%u", i));
                lease->machine().run(kChunk, false);
            }
        });
    }
    for (std::thread &w : workers)
        w.join();
    EXPECT_GT(reg.evictedTotal(), 0u);
    for (unsigned i = 0; i < kThreads; ++i) {
        SessionLease lease = reg.acquire(strprintf("w%u", i));
        EXPECT_EQ(sessionDigest(*lease),
                  offlineDigest(i, kRounds * kChunk))
            << "session w" << i;
        EXPECT_EQ(lease->machine().stats().cycles, kRounds * kChunk);
    }
}

TEST(BatchCheckpoint, ServeParkRestoreStaysBitIdentical)
{
    // disc-serve eviction with hot chunks: three sessions, two
    // resident slots, leases held pairwise in rotating order so every
    // round parks one session and restores another. Each pair is
    // acquired in id order: a cyclic lease order (a then b, b then c,
    // c then a) could deadlock three callers, whatever the registry
    // does. The offline control never parks; each session's digest
    // must reproduce it exactly.
    SessionRegistry reg(freshDir("disc_serve_test_pairwise"), 2);
    reg.open(loopSpec("a", 0, 2));
    reg.open(loopSpec("b", 0, 6));
    reg.open(loopSpec("c", 0, 9));
    std::uint64_t chunks = 0;
    bool hot_on = false;
    auto advance = [&](Machine &m) {
        std::uint64_t before = 0;
        for (std::uint64_t e : m.stats().hotExits)
            before += e;
        m.run(250, false);
        for (std::uint64_t e : m.stats().hotExits)
            chunks += e;
        chunks -= before;
        hot_on = m.batchExecEnabled();
    };
    const char *pairs[][2] = {{"a", "b"}, {"b", "c"}, {"a", "c"}};
    for (int round = 0; round < 2; ++round) {
        for (auto &pr : pairs) {
            SessionLease la = reg.acquire(pr[0]);
            SessionLease lb = reg.acquire(pr[1]);
            advance(la->machine());
            advance(lb->machine());
        }
    }
    EXPECT_GT(reg.evictedTotal(), 0u);
    EXPECT_GT(reg.restoredTotal(), 0u);
    if (hot_on) {
        EXPECT_GT(chunks, 0u);
    }
    // 2 rounds x 2 appearances x 250 cycles each.
    for (auto [id, k] : {std::pair{"a", 2u}, {"b", 6u}, {"c", 9u}}) {
        SessionLease lease = reg.acquire(id);
        EXPECT_EQ(sessionDigest(*lease), offlineDigest(k, 1000))
            << "session " << id;
    }
}

TEST(SessionRegistry, TwoLeaseHoldersNeverDeadlockOnEviction)
{
    // Each thread holds one lease while acquiring another, the pairs
    // rotating (a/b, b/c, c/a) and each taken in id order, under a
    // one-session residency bound. Every release of the second lease
    // evicts while the first is held — possibly a session the other
    // thread is about to pin before it waits for the one this thread
    // holds. Eviction must skip a busy victim rather than wait for
    // it. A deadlock cannot be unwound, so the watchdog aborts.
    constexpr unsigned kIters = 300;
    constexpr Cycle kChunk = 10;
    SessionRegistry reg(freshDir("disc_serve_test_lease_order"), 1);
    const char *ids[] = {"a", "b", "c"};
    for (unsigned k = 0; k < 3; ++k)
        reg.open(loopSpec(ids[k], 0, k));
    std::atomic<unsigned> done{0};
    std::vector<std::thread> workers;
    for (unsigned t = 0; t < 2; ++t) {
        workers.emplace_back([&reg, &ids, &done, t] {
            for (unsigned i = 0; i < kIters; ++i) {
                unsigned x = (i + t) % 3;
                unsigned y = (x + 1) % 3;
                SessionLease hold = reg.acquire(ids[std::min(x, y)]);
                SessionLease next = reg.acquire(ids[std::max(x, y)]);
                hold->machine().run(kChunk, false);
                next->machine().run(kChunk, false);
            }
            done.fetch_add(1);
        });
    }
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (done.load() < workers.size()) {
        if (std::chrono::steady_clock::now() > deadline) {
            std::fprintf(stderr, "lease holders deadlocked on eviction\n");
            std::abort();
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    for (std::thread &w : workers)
        w.join();
    // Every session took part in 2 of the 3 pairs of each rotation.
    for (unsigned k = 0; k < 3; ++k) {
        SessionLease lease = reg.acquire(ids[k]);
        EXPECT_EQ(sessionDigest(*lease),
                  offlineDigest(k, 2 * 2 * kIters / 3 * kChunk))
            << "session " << ids[k];
    }
}

TEST(SessionRegistry, RestoreDirResumesAcrossRegistries)
{
    std::string dir = freshDir("disc_serve_test_restoredir");
    {
        SessionRegistry reg(dir, 4);
        reg.open(loopSpec("x", 0, 7));
        {
            SessionLease lease = reg.acquire("x");
            lease->machine().run(500, false);
        }
        reg.parkAll();
    }
    SessionRegistry reg2(dir, 4);
    EXPECT_EQ(reg2.restoreDir(), 1u);
    ASSERT_TRUE(reg2.has("x"));
    SessionLease lease = reg2.acquire("x");
    lease->machine().run(500, false);
    EXPECT_EQ(sessionDigest(*lease), offlineDigest(7, 1000));
}

TEST(SessionRegistry, CloseRemovesSessionAndParkFile)
{
    std::string dir = freshDir("disc_serve_test_close");
    SessionRegistry reg(dir, 1);
    reg.open(loopSpec("gone", 0, 2));
    ASSERT_TRUE(reg.evict("gone"));
    ASSERT_TRUE(
        std::filesystem::exists(dir + "/gone.dsess"));
    reg.close("gone");
    EXPECT_FALSE(reg.has("gone"));
    EXPECT_FALSE(
        std::filesystem::exists(dir + "/gone.dsess"));
}

TEST(SessionRegistry, OpenProceedsDuringSlowPark)
{
    // Regression guard for the locking contract: park I/O runs under
    // the per-session mutex only, never the registry map lock, so a
    // slow disk parking one session must not stall unrelated opens
    // and acquires.
    SessionRegistry reg(freshDir("disc_serve_test_slowpark"), 2);
    reg.open(loopSpec("slow", 0, 0));
    {
        SessionLease lease = reg.acquire("slow");
        lease->machine().run(300, false);
    }
    reg.setParkDelayForTest(600);
    std::thread evictor([&reg] { EXPECT_TRUE(reg.evict("slow")); });
    // Let the evictor get into park() (which stalls 600 ms first).
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    auto t0 = std::chrono::steady_clock::now();
    reg.open(loopSpec("other", 1, 1));
    {
        SessionLease lease = reg.acquire("other");
        lease->machine().run(100, false);
    }
    auto elapsed =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - t0);
    evictor.join();
    reg.setParkDelayForTest(0);
    // The open+acquire finished while the park was still sleeping.
    EXPECT_LT(elapsed.count(), 400)
        << "registry lock held across park I/O";
    // Nobody was corrupted by the overlap.
    {
        SessionLease lease = reg.acquire("slow");
        EXPECT_EQ(sessionDigest(*lease), offlineDigest(0, 300));
    }
    {
        SessionLease lease = reg.acquire("other");
        EXPECT_EQ(sessionDigest(*lease), offlineDigest(1, 100));
    }
}

TEST(SessionRegistry, RejectsHostileSessionIds)
{
    SessionRegistry reg(freshDir("disc_serve_test_ids"), 1);
    EXPECT_THROW(reg.open(loopSpec("../escape", 0, 0)), FatalError);
    EXPECT_THROW(reg.open(loopSpec("", 0, 0)), FatalError);
    EXPECT_THROW(reg.open(loopSpec(".hidden", 0, 0)), FatalError);
    EXPECT_THROW(reg.open(loopSpec("a b", 0, 0)), FatalError);
}

// --- end-to-end over a real socket ------------------------------------

int
connectLoopback(std::uint16_t port)
{
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof(addr)),
              0);
    return fd;
}

Response
transact(int fd, Request req)
{
    static std::atomic<std::uint64_t> seq{1};
    req.seq = seq.fetch_add(1);
    writeFrame(fd, encodeRequest(req));
    std::vector<std::uint8_t> payload;
    EXPECT_TRUE(readFrame(fd, payload));
    Response resp = decodeResponse(payload);
    EXPECT_EQ(resp.seq, req.seq);
    return resp;
}

TEST(ServeServer, ServesRunsAndSurvivesRestartBitIdentically)
{
    std::string dir = freshDir("disc_serve_test_server");
    ServerConfig cfg;
    cfg.stateDir = dir;
    cfg.maxResident = 2;
    cfg.tenants = 2;
    std::uint16_t port;
    {
        ServeServer server(cfg);
        server.start();
        port = server.port();
        int fd = connectLoopback(port);
        for (unsigned s = 0; s < 4; ++s) {
            Request req;
            req.type = MsgType::OpenReq;
            req.tenant = static_cast<TenantId>(s % 2);
            req.session = strprintf("e%u", s);
            req.source = loopSource(s);
            EXPECT_EQ(transact(fd, req).type, MsgType::OpenResp);
        }
        for (unsigned round = 0; round < 3; ++round) {
            for (unsigned s = 0; s < 4; ++s) {
                Request req;
                req.type = MsgType::RunReq;
                req.tenant = static_cast<TenantId>(s % 2);
                req.session = strprintf("e%u", s);
                req.maxCycles = 300;
                req.stopWhenIdle = false;
                Response resp = transact(fd, req);
                ASSERT_EQ(resp.type, MsgType::RunResp);
                EXPECT_EQ(resp.ran, 300u);
            }
        }
        // Unknown sessions and foreign tenants are errors, not
        // crashes.
        Request bad;
        bad.type = MsgType::RunReq;
        bad.session = "nope";
        bad.maxCycles = 1;
        EXPECT_EQ(transact(fd, bad).type, MsgType::ErrorResp);
        bad.tenant = 9;
        EXPECT_EQ(transact(fd, bad).type, MsgType::ErrorResp);
        ::close(fd);
        server.requestStop();
    }
    // A second server on the same state dir resumes every session
    // and continues them bit-identically.
    {
        ServeServer server(cfg);
        server.start();
        int fd = connectLoopback(server.port());
        for (unsigned s = 0; s < 4; ++s) {
            Request run;
            run.type = MsgType::RunReq;
            run.tenant = static_cast<TenantId>(s % 2);
            run.session = strprintf("e%u", s);
            run.maxCycles = 100;
            run.stopWhenIdle = false;
            ASSERT_EQ(transact(fd, run).type, MsgType::RunResp);
            Request query;
            query.type = MsgType::QueryReq;
            query.tenant = static_cast<TenantId>(s % 2);
            query.session = strprintf("e%u", s);
            Response resp = transact(fd, query);
            ASSERT_EQ(resp.type, MsgType::QueryResp);
            EXPECT_EQ(resp.totalCycles, 1000u);
            EXPECT_EQ(resp.digest, offlineDigest(s, 1000))
                << "session e" << s;
        }
        Request stats;
        stats.type = MsgType::StatsReq;
        Response resp = transact(fd, stats);
        ASSERT_EQ(resp.type, MsgType::StatsResp);
        bool found = false;
        for (const auto &[name, value] : resp.counters)
            if (name == "sessions") {
                EXPECT_EQ(value, 4u);
                found = true;
            }
        EXPECT_TRUE(found);
        ::close(fd);
        server.requestStop();
    }
}

TEST(Proto, MalformedFramesAreRejectedNotUB)
{
    std::vector<std::uint8_t> junk = {1, 2, 3};
    EXPECT_THROW(decodeRequest(junk), FatalError);
    EXPECT_THROW(decodeResponse(junk), FatalError);
    Request req;
    req.type = MsgType::RunReq;
    req.session = "s";
    std::vector<std::uint8_t> good = encodeRequest(req);
    good.push_back(0xff); // trailing byte
    EXPECT_THROW(decodeRequest(good), FatalError);
    good.resize(good.size() - 2); // truncated
    EXPECT_THROW(decodeRequest(good), FatalError);
}

TEST(Proto, RequestResponseRoundTrip)
{
    Request req;
    req.type = MsgType::OpenReq;
    req.seq = 77;
    req.tenant = 3;
    req.deadlineMs = 250;
    req.session = "round-trip";
    req.source = loopSource(5);
    req.entry = "main";
    req.streams.push_back({2, "worker"});
    req.extmems.push_back({0x8000, 0x100, 4});
    Request back = decodeRequest(encodeRequest(req));
    EXPECT_EQ(back.seq, 77u);
    EXPECT_EQ(back.tenant, 3u);
    EXPECT_EQ(back.deadlineMs, 250u);
    EXPECT_EQ(back.session, "round-trip");
    EXPECT_EQ(back.source, req.source);
    ASSERT_EQ(back.streams.size(), 1u);
    EXPECT_EQ(back.streams[0].stream, 2u);
    EXPECT_EQ(back.streams[0].label, "worker");
    ASSERT_EQ(back.extmems.size(), 1u);
    EXPECT_EQ(back.extmems[0].base, 0x8000u);
    EXPECT_EQ(back.extmems[0].latency, 4u);

    Response resp;
    resp.type = MsgType::BusyResp;
    resp.seq = 78;
    resp.busy = BusyReason::Deadline;
    resp.error = "shed";
    Response rback = decodeResponse(encodeResponse(resp));
    EXPECT_EQ(rback.type, MsgType::BusyResp);
    EXPECT_EQ(rback.busy, BusyReason::Deadline);
    EXPECT_EQ(rback.error, "shed");
}

} // namespace
