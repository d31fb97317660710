/**
 * @file
 * Fault-injecting protocol tests for the epoll event loop: a raw
 * socket client feeds the server pathological byte streams — frames
 * delivered one byte at a time, length prefixes split across writes,
 * stalls mid-frame, half-closed sockets, floods sent without reading
 * replies — and every test asserts the loop neither blocks nor
 * corrupts a neighbouring session, and sheds load at the protocol
 * level (Busy/Error responses) instead of wedging.
 */

#include <arpa/inet.h>
#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <netinet/in.h>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "isa/assembler.hh"
#include "serve/event_loop.hh"
#include "serve/proto.hh"
#include "serve/server.hh"
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

/** Frame bytes as they go on the wire: 32-bit LE length + payload. */
std::vector<std::uint8_t>
wireFrame(const std::vector<std::uint8_t> &payload)
{
    std::vector<std::uint8_t> out(4 + payload.size());
    std::uint32_t len = static_cast<std::uint32_t>(payload.size());
    std::memcpy(out.data(), &len, 4);
    std::memcpy(out.data() + 4, payload.data(), payload.size());
    return out;
}

/** send() all of [data, data+size), failing the test on error. */
void
sendAll(int fd, const std::uint8_t *data, std::size_t size)
{
    std::size_t off = 0;
    while (off < size) {
        ssize_t n = ::send(fd, data + off, size - off, MSG_NOSIGNAL);
        ASSERT_GT(n, 0) << "send failed: " << std::strerror(errno);
        off += static_cast<std::size_t>(n);
    }
}

/**
 * Send a frame in @p chunk -byte slices with a pause between slices —
 * the slow-reader / fragmented-TCP failure injection.
 */
void
sendSliced(int fd, const std::vector<std::uint8_t> &payload,
           std::size_t chunk, unsigned pause_us)
{
    std::vector<std::uint8_t> wire = wireFrame(payload);
    for (std::size_t off = 0; off < wire.size(); off += chunk) {
        std::size_t n = std::min(chunk, wire.size() - off);
        sendAll(fd, wire.data() + off, n);
        if (pause_us)
            std::this_thread::sleep_for(
                std::chrono::microseconds(pause_us));
    }
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

Request
openReq(const std::string &id, TenantId tenant, unsigned k)
{
    Request req;
    req.type = MsgType::OpenReq;
    req.tenant = tenant;
    req.session = id;
    req.source = loopSource(k);
    return req;
}

Request
runReq(const std::string &id, TenantId tenant, Cycle cycles)
{
    Request req;
    req.type = MsgType::RunReq;
    req.tenant = tenant;
    req.session = id;
    req.maxCycles = cycles;
    req.stopWhenIdle = false;
    return req;
}

/** One live sharded server per test. */
struct Harness
{
    explicit Harness(const std::string &dir_name, unsigned workers = 2)
    {
        cfg.stateDir = freshDir(dir_name);
        cfg.maxResident = 4;
        cfg.tenants = 2;
        cfg.workers = workers;
        server = std::make_unique<ServeServer>(cfg);
        server->start();
    }

    ~Harness() { server->requestStop(); }

    ServerConfig cfg;
    std::unique_ptr<ServeServer> server;
};

// --- slow and fragmented senders --------------------------------------

TEST(ServeEpoll, ByteAtATimeFrameIsServed)
{
    Harness h("disc_epoll_test_bytewise");
    int fd = connectLoopback(h.server->port());

    // The whole Open frame — length prefix included — arrives one
    // byte per write.
    Request open = openReq("b0", 0, 0);
    open.seq = 1;
    sendSliced(fd, encodeRequest(open), 1, 0);
    std::vector<std::uint8_t> payload;
    ASSERT_TRUE(readFrame(fd, payload));
    EXPECT_EQ(decodeResponse(payload).type, MsgType::OpenResp);

    Request run = runReq("b0", 0, 500);
    run.seq = 2;
    sendSliced(fd, encodeRequest(run), 1, 0);
    ASSERT_TRUE(readFrame(fd, payload));
    Response resp = decodeResponse(payload);
    EXPECT_EQ(resp.type, MsgType::RunResp);
    EXPECT_EQ(resp.ran, 500u);

    Request query;
    query.type = MsgType::QueryReq;
    query.session = "b0";
    Response q = transact(fd, query);
    ASSERT_EQ(q.type, MsgType::QueryResp);
    EXPECT_EQ(q.digest, offlineDigest(0, 500));
    ::close(fd);
}

TEST(ServeEpoll, LengthPrefixSplitAcrossWrites)
{
    Harness h("disc_epoll_test_split");
    int fd = connectLoopback(h.server->port());

    Request open = openReq("s0", 0, 1);
    open.seq = 1;
    std::vector<std::uint8_t> wire = wireFrame(encodeRequest(open));
    // 2 bytes of the length prefix, pause, the remaining 2, pause,
    // then the payload in two halves.
    sendAll(fd, wire.data(), 2);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    sendAll(fd, wire.data() + 2, 2);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    std::size_t half = 4 + (wire.size() - 4) / 2;
    sendAll(fd, wire.data() + 4, half - 4);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    sendAll(fd, wire.data() + half, wire.size() - half);

    std::vector<std::uint8_t> payload;
    ASSERT_TRUE(readFrame(fd, payload));
    EXPECT_EQ(decodeResponse(payload).type, MsgType::OpenResp);
    ::close(fd);
}

TEST(ServeEpoll, MidFrameStallDoesNotBlockNeighbours)
{
    Harness h("disc_epoll_test_stall");
    int stalled = connectLoopback(h.server->port());
    int neighbour = connectLoopback(h.server->port());

    ASSERT_EQ(transact(neighbour, openReq("n0", 0, 2)).type,
              MsgType::OpenResp);

    // The stalled connection sends half an Open frame and goes quiet.
    Request open = openReq("z0", 1, 3);
    open.seq = 99;
    std::vector<std::uint8_t> wire = wireFrame(encodeRequest(open));
    std::size_t half = wire.size() / 2;
    sendAll(stalled, wire.data(), half);

    // The neighbour must keep getting service at interactive latency
    // while the other connection is wedged mid-frame.
    auto t0 = std::chrono::steady_clock::now();
    for (unsigned i = 0; i < 20; ++i) {
        Response resp = transact(neighbour, runReq("n0", 0, 50));
        ASSERT_EQ(resp.type, MsgType::RunResp);
    }
    auto elapsed =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - t0);
    EXPECT_LT(elapsed.count(), 5000)
        << "neighbour starved behind a stalled connection";

    // Completing the stalled frame still works: no state was lost.
    sendAll(stalled, wire.data() + half, wire.size() - half);
    std::vector<std::uint8_t> payload;
    ASSERT_TRUE(readFrame(stalled, payload));
    Response resp = decodeResponse(payload);
    EXPECT_EQ(resp.type, MsgType::OpenResp);
    EXPECT_EQ(resp.seq, 99u);

    // And the neighbour's session was never corrupted.
    Request query;
    query.type = MsgType::QueryReq;
    query.session = "n0";
    Response q = transact(neighbour, query);
    ASSERT_EQ(q.type, MsgType::QueryResp);
    EXPECT_EQ(q.digest, offlineDigest(2, 20 * 50));
    ::close(stalled);
    ::close(neighbour);
}

// --- protocol-level shedding ------------------------------------------

TEST(ServeEpoll, HostileLengthPrefixGetsErrorThenClose)
{
    Harness h("disc_epoll_test_hostile");
    int victim = connectLoopback(h.server->port());
    int neighbour = connectLoopback(h.server->port());
    ASSERT_EQ(transact(neighbour, openReq("n1", 0, 4)).type,
              MsgType::OpenResp);

    // A 4 GiB length prefix: unrecoverable for a length-prefixed
    // stream. The server must answer with a final ErrorResp and close
    // — shedding per protocol, not wedging or crashing.
    std::uint8_t evil[4] = {0xff, 0xff, 0xff, 0xff};
    sendAll(victim, evil, sizeof(evil));
    std::vector<std::uint8_t> payload;
    ASSERT_TRUE(readFrame(victim, payload));
    Response resp = decodeResponse(payload);
    EXPECT_EQ(resp.type, MsgType::ErrorResp);
    EXPECT_FALSE(resp.error.empty());
    EXPECT_FALSE(readFrame(victim, payload)); // then EOF
    ::close(victim);

    // The error is counted, and the neighbour never noticed.
    Request stats;
    stats.type = MsgType::StatsReq;
    Response s = transact(neighbour, stats);
    ASSERT_EQ(s.type, MsgType::StatsResp);
    std::uint64_t stream_errors = 0;
    for (const auto &[name, value] : s.counters)
        if (name == "stream_errors")
            stream_errors = value;
    EXPECT_EQ(stream_errors, 1u);
    EXPECT_EQ(transact(neighbour, runReq("n1", 0, 100)).type,
              MsgType::RunResp);
    ::close(neighbour);
}

TEST(ServeEpoll, GarbagePayloadIsAnErrorNotACrash)
{
    Harness h("disc_epoll_test_garbage");
    int fd = connectLoopback(h.server->port());

    // A well-framed payload of junk: decode fails, the server replies
    // ErrorResp and keeps the connection (framing is still intact).
    std::vector<std::uint8_t> junk = {0xde, 0xad, 0xbe, 0xef, 0x00};
    std::vector<std::uint8_t> wire = wireFrame(junk);
    sendAll(fd, wire.data(), wire.size());
    std::vector<std::uint8_t> payload;
    ASSERT_TRUE(readFrame(fd, payload));
    EXPECT_EQ(decodeResponse(payload).type, MsgType::ErrorResp);

    // The same connection still serves valid requests afterwards.
    EXPECT_EQ(transact(fd, openReq("g0", 0, 5)).type,
              MsgType::OpenResp);
    ::close(fd);
}

// --- half-close and abrupt death --------------------------------------

TEST(ServeEpoll, HalfCloseDeliversPendingRepliesThenEof)
{
    Harness h("disc_epoll_test_halfclose");
    int fd = connectLoopback(h.server->port());
    ASSERT_EQ(transact(fd, openReq("h0", 0, 6)).type,
              MsgType::OpenResp);

    // Pipeline three runs, then half-close the write side before
    // reading anything. The server owes three replies and must flush
    // all of them before closing its end.
    for (unsigned i = 0; i < 3; ++i) {
        Request run = runReq("h0", 0, 100);
        run.seq = 1000 + i;
        writeFrame(fd, encodeRequest(run));
    }
    ASSERT_EQ(::shutdown(fd, SHUT_WR), 0);

    std::vector<std::uint8_t> payload;
    for (unsigned i = 0; i < 3; ++i) {
        ASSERT_TRUE(readFrame(fd, payload)) << "reply " << i;
        Response resp = decodeResponse(payload);
        EXPECT_EQ(resp.type, MsgType::RunResp);
        EXPECT_EQ(resp.seq, 1000u + i);
    }
    EXPECT_FALSE(readFrame(fd, payload)); // all debts paid: EOF
    ::close(fd);
}

TEST(ServeEpoll, AbruptCloseMidFrameLeavesServerHealthy)
{
    Harness h("disc_epoll_test_abrupt");
    int neighbour = connectLoopback(h.server->port());
    ASSERT_EQ(transact(neighbour, openReq("n2", 0, 7)).type,
              MsgType::OpenResp);

    // A client dies mid-frame, RST and all: half a frame, SO_LINGER
    // zero, close. The loop must just clean up.
    for (unsigned i = 0; i < 8; ++i) {
        int fd = connectLoopback(h.server->port());
        Request open = openReq("dead", 1, 0);
        std::vector<std::uint8_t> wire =
            wireFrame(encodeRequest(open));
        sendAll(fd, wire.data(), wire.size() / 2);
        struct linger lin = {1, 0};
        ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &lin, sizeof(lin));
        ::close(fd);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));

    // Neighbour unharmed; fresh connections still accepted.
    EXPECT_EQ(transact(neighbour, runReq("n2", 0, 100)).type,
              MsgType::RunResp);
    int fresh = connectLoopback(h.server->port());
    EXPECT_EQ(transact(fresh, openReq("alive", 0, 8)).type,
              MsgType::OpenResp);
    ::close(fresh);
    ::close(neighbour);
}

// --- flood without reading --------------------------------------------

TEST(ServeEpoll, FloodWithoutReadingShedsPerProtocolNotByWedging)
{
    Harness h("disc_epoll_test_flood");
    int flooder = connectLoopback(h.server->port());
    int neighbour = connectLoopback(h.server->port());
    ASSERT_EQ(transact(flooder, openReq("f0", 0, 9)).type,
              MsgType::OpenResp);
    ASSERT_EQ(transact(neighbour, openReq("n3", 1, 10)).type,
              MsgType::OpenResp);

    // Pipeline far more one-session runs than the per-tenant queue
    // holds, reading nothing back. One-in-flight-per-session plus the
    // bounded queue means the overflow must come back as BusyResp —
    // explicit backpressure — while everything accepted completes.
    constexpr unsigned kFlood = 400;
    std::thread sender([&] {
        for (unsigned i = 0; i < kFlood; ++i) {
            Request run = runReq("f0", 0, 10);
            run.seq = 5000 + i;
            writeFrame(flooder, encodeRequest(run));
        }
    });

    // The neighbour stays responsive under the flood.
    for (unsigned i = 0; i < 10; ++i)
        ASSERT_EQ(transact(neighbour, runReq("n3", 1, 50)).type,
                  MsgType::RunResp);
    sender.join();

    // Every request is answered: RunResp or BusyResp, nothing lost,
    // nothing wedged.
    unsigned ran = 0, shed = 0;
    std::vector<std::uint8_t> payload;
    for (unsigned i = 0; i < kFlood; ++i) {
        ASSERT_TRUE(readFrame(flooder, payload)) << "reply " << i;
        Response resp = decodeResponse(payload);
        if (resp.type == MsgType::RunResp)
            ++ran;
        else if (resp.type == MsgType::BusyResp) {
            EXPECT_EQ(resp.busy, BusyReason::QueueFull);
            ++shed;
        } else
            FAIL() << "unexpected reply type "
                   << static_cast<int>(resp.type);
    }
    EXPECT_EQ(ran + shed, kFlood);
    EXPECT_GT(ran, 0u);

    // The flooded session's state is exactly the accepted runs — and
    // the neighbour's digest proves its session was never touched.
    Request query;
    query.type = MsgType::QueryReq;
    query.session = "f0";
    Response q = transact(flooder, query);
    ASSERT_EQ(q.type, MsgType::QueryResp);
    EXPECT_EQ(q.totalCycles, static_cast<Cycle>(ran) * 10);
    EXPECT_EQ(q.digest, offlineDigest(9, ran * 10));

    query.session = "n3";
    Response qn = transact(neighbour, query);
    ASSERT_EQ(qn.type, MsgType::QueryResp);
    EXPECT_EQ(qn.digest, offlineDigest(10, 10 * 50));
    ::close(flooder);
    ::close(neighbour);
}

// --- cross-shard service ----------------------------------------------

TEST(ServeEpoll, AnyConnectionReachesAnyShard)
{
    Harness h("disc_epoll_test_xshard", 3);
    int fd = connectLoopback(h.server->port());

    // Sessions hash across three shards; one connection must be able
    // to drive all of them and a MigrateReq moves one explicitly.
    for (unsigned s = 0; s < 6; ++s)
        ASSERT_EQ(
            transact(fd, openReq(strprintf("x%u", s), 0, s)).type,
            MsgType::OpenResp);
    for (unsigned s = 0; s < 6; ++s)
        ASSERT_EQ(
            transact(fd, runReq(strprintf("x%u", s), 0, 200)).type,
            MsgType::RunResp);

    unsigned before = h.server->shardOf("x0");
    Request mig;
    mig.type = MsgType::MigrateReq;
    mig.session = "x0";
    mig.targetShard = kAnyShard;
    Response moved = transact(fd, mig);
    ASSERT_EQ(moved.type, MsgType::MigrateResp);
    EXPECT_NE(moved.shard, before);
    EXPECT_EQ(moved.shard, h.server->shardOf("x0"));
    EXPECT_EQ(moved.digest, offlineDigest(0, 200));

    // The migrated session keeps serving through the same connection.
    Response resp = transact(fd, runReq("x0", 0, 300));
    ASSERT_EQ(resp.type, MsgType::RunResp);
    Request query;
    query.type = MsgType::QueryReq;
    query.session = "x0";
    Response q = transact(fd, query);
    ASSERT_EQ(q.type, MsgType::QueryResp);
    EXPECT_EQ(q.digest, offlineDigest(0, 500));
    ::close(fd);
}

// --- cross-thread task posting ----------------------------------------

TEST(ServeEpoll, ConcurrentPostsEachRunExactlyOnce)
{
    // Four threads post() into a running loop while it drains its
    // queue; every task must run exactly once, on the loop thread.
    constexpr unsigned kThreads = 4;
    constexpr unsigned kPerThread = 1000;
    EventLoop loop;
    loop.start("post-test");
    std::vector<unsigned> runs(kThreads * kPerThread, 0); // loop thread
    std::atomic<unsigned> ran{0};
    std::vector<std::thread> posters;
    for (unsigned t = 0; t < kThreads; ++t) {
        posters.emplace_back([&, t] {
            for (unsigned i = 0; i < kPerThread; ++i) {
                loop.post([&, id = t * kPerThread + i] {
                    ++runs[id];
                    ran.fetch_add(1);
                });
            }
        });
    }
    for (std::thread &p : posters)
        p.join();
    // Tasks run in post order, so this returns after all of the above.
    loop.runSync([] {});
    loop.stop();
    EXPECT_EQ(ran.load(), kThreads * kPerThread);
    for (unsigned id = 0; id < runs.size(); ++id)
        ASSERT_EQ(runs[id], 1u) << "task " << id;
}

} // namespace
