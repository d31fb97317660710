/**
 * @file
 * Workload `serve`: start the real disc-serve (2 shards, fresh state
 * dir) and drive it open-loop from one generator thread over 4
 * connections at a fixed ladder of rates, timing each request from
 * its scheduled send.
 *
 * Why: most of a request's latency is spent outside the simulator, so
 * the wire protocol, the event loop, the scheduler and the session
 * registry do most of the work here. Sessions are a seeded mix of
 * disc-loadgen-style arithmetic loops and engine_controller board
 * sessions: a hot set that fits the server's residency gets most
 * requests (the resident path), and a cold tail that does not fit
 * gets the rest, so a steady share of requests unparks one session
 * and parks another (the park-file write/read path).
 *
 * Threads: 2 server shards with a 2-thread server pool, plus the
 * generator and the client event loop, all confined to one CPU. A
 * request then hands over between threads by context switch on that
 * CPU, never by waking another vCPU, whose cost on a VM depends on the
 * hypervisor more than on the program (README.md, "One CPU for serve").
 *
 * Checks: every reply must be a RunResp; afterwards every session's
 * served digest must equal an offline replay of the same inputs for
 * the served cycle count (the disc-loadgen --check rule), and the
 * server must shut down cleanly.
 */

#include <algorithm>
#include <arpa/inet.h>
#include <cerrno>
#include <condition_variable>
#include <csignal>
#include <cstring>
#include <fcntl.h>
#include <filesystem>
#include <mutex>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <optional>
#include <poll.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <unordered_map>

#include "bench.hh"
#include "board/board.hh"
#include "common/hash.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "isa/assembler.hh"
#include "serve/event_loop.hh"
#include "serve/proto.hh"
#include "serve/session.hh"
#include "sim/digest.hh"
#include "sim/machine.hh"

using namespace disc;
using namespace disc::serve;
namespace fs = std::filesystem;

namespace perfbench
{

namespace
{

constexpr unsigned kShards = 2;
constexpr unsigned kServerThreads = 2;
constexpr unsigned kConns = 4;
constexpr unsigned kTenants = 4;
constexpr unsigned kHotPerShard = 4;
constexpr unsigned kColdPerShard = 8;
constexpr unsigned kResidentPerShard = 6; ///< hot set + 2 cold slots
constexpr unsigned kBoardHotPerShard = 1;
constexpr unsigned kBoardColdPerShard = 2;
constexpr double kColdShare = 0.1;
constexpr Cycle kCyclesPerRequest = 500;
constexpr unsigned kBaseRate = 400; ///< req/s; ladder doubles it
constexpr unsigned kLadderSteps = 4;
constexpr double kSloLimitUs = 20000; ///< tail latency limit for slo_rps
constexpr int kSetups = 11;
/** Host-speed probe between sends: a tenth of a full probe, about
 *  0.5 ms, in the middle of every kProbeEvery-th gap of the base rate. */
constexpr std::uint64_t kGapProbeSteps = kProbeSteps / 10;
constexpr unsigned kProbeEvery = 4;

/** One generated session. */
struct SessionInput
{
    std::string id;
    TenantId tenant = 0;
    bool hot = false;
    std::string source;
    std::string board; ///< empty for loop sessions
    std::uint64_t completed = 0; ///< RunResp replies received
};

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
                     k);
}

/** Hot and cold sessions, balanced over the shards by home hash. */
std::vector<SessionInput>
makeSessions(const Options &opt, Rng &rng)
{
    std::string base = opt.repoRoot + "/examples/boards/engine_controller";
    std::string ec_source = readText(base + ".s");
    std::string ec_board = readText(base + ".board");
    std::vector<SessionInput> v;
    for (unsigned shard = 0; shard < kShards; ++shard) {
        for (unsigned i = 0; i < kHotPerShard + kColdPerShard; ++i) {
            bool hot = i < kHotPerShard;
            bool board = hot ? i < kBoardHotPerShard
                             : i - kHotPerShard < kBoardColdPerShard;
            SessionInput s;
            do {
                s.id = strprintf("%s%u-%llx", hot ? "hot" : "cold", i,
                                 static_cast<unsigned long long>(
                                     rng.next64() & 0xffffff));
            } while (fnv1a64(s.id) % kShards != shard);
            s.hot = hot;
            s.tenant = static_cast<TenantId>(v.size() % kTenants);
            s.source = board ? ec_source
                             : loopSource(3 + static_cast<unsigned>(
                                                  rng.below(1000)));
            s.board = board ? ec_board : "";
            v.push_back(std::move(s));
        }
    }
    return v;
}

/**
 * Confine this process, and the server it will start, to the highest
 * numbered CPU it may use (threads and children inherit the mask).
 */
void
pinToOneCpu()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (::sched_getaffinity(0, sizeof(set), &set) != 0)
        throw std::runtime_error("serve: sched_getaffinity failed");
    int cpu = -1;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set))
            cpu = c;
    }
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    if (cpu < 0 || ::sched_setaffinity(0, sizeof(set), &set) != 0)
        throw std::runtime_error("serve: sched_setaffinity failed");
}

/** A pipelined client connection on a shared EventLoop. */
class Conn
{
  public:
    using Handler = std::function<void(const Response &)>;

    explicit Conn(EventLoop &loop) : loop_(&loop) {}

    bool
    connect(std::uint16_t port)
    {
        int fd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd < 0)
            return false;
        int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port = htons(port);
        if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr)) < 0) {
            ::close(fd);
            return false;
        }
        ec_ = loop_->addConnection(
            fd,
            [this](const std::shared_ptr<EventConn> &,
                   std::vector<std::uint8_t> &payload) { onFrame(payload); },
            [this](const std::shared_ptr<EventConn> &) { onClosed(); });
        return true;
    }

    void
    send(const Request &req, Handler h)
    {
        {
            std::lock_guard<std::mutex> g(mu_);
            if (!dead_) {
                handlers_.emplace(req.seq, std::move(h));
                ec_->sendFrame(encodeRequest(req));
                return;
            }
        }
        h(closedResponse(req.seq));
    }

    Response
    transact(const Request &req)
    {
        std::mutex m;
        std::condition_variable cv;
        bool done = false;
        Response out;
        send(req, [&](const Response &r) {
            std::lock_guard<std::mutex> g(m);
            out = r;
            done = true;
            cv.notify_one();
        });
        std::unique_lock<std::mutex> lk(m);
        cv.wait(lk, [&] { return done; });
        return out;
    }

  private:
    static Response
    closedResponse(std::uint64_t seq)
    {
        Response r;
        r.type = MsgType::ErrorResp;
        r.seq = seq;
        r.error = "connection closed";
        return r;
    }

    void
    onFrame(std::vector<std::uint8_t> &payload)
    {
        Response resp;
        try {
            resp = decodeResponse(payload);
        } catch (const FatalError &) {
            return;
        }
        Handler h;
        {
            std::lock_guard<std::mutex> g(mu_);
            auto it = handlers_.find(resp.seq);
            if (it == handlers_.end())
                return;
            h = std::move(it->second);
            handlers_.erase(it);
        }
        h(resp);
    }

    void
    onClosed()
    {
        std::unordered_map<std::uint64_t, Handler> orphans;
        {
            std::lock_guard<std::mutex> g(mu_);
            dead_ = true;
            orphans.swap(handlers_);
        }
        for (auto &[seq, h] : orphans)
            h(closedResponse(seq));
    }

    EventLoop *loop_;
    std::shared_ptr<EventConn> ec_;
    std::mutex mu_;
    bool dead_ = false;
    std::unordered_map<std::uint64_t, Handler> handlers_;
};

/** A disc-serve child process; killed and reaped if still running. */
class ServerProc
{
  public:
    ServerProc() = default;
    ServerProc(const ServerProc &) = delete;
    ServerProc &operator=(const ServerProc &) = delete;
    ~ServerProc() { kill(); }

    /** Spawn and wait for the port handshake; false on failure. */
    bool
    start(const Options &opt, const std::string &state_dir,
          const std::string &log_path)
    {
        int out[2];
        if (::pipe(out) != 0)
            return false;
        std::vector<std::string> args = {
            opt.serveBin,
            "--workers", std::to_string(kShards),
            "--state-dir", state_dir,
            "--max-resident", std::to_string(kResidentPerShard),
            "--tenants", std::to_string(kTenants),
            "--queue-cap", "4096",
        };
        pid_ = ::fork();
        if (pid_ < 0) {
            ::close(out[0]);
            ::close(out[1]);
            return false;
        }
        if (pid_ == 0) {
            // The server must not outlive the benchmark, however the
            // benchmark ends.
            ::prctl(PR_SET_PDEATHSIG, SIGKILL);
            ::dup2(out[1], 1);
            int log = ::open(log_path.c_str(),
                             O_WRONLY | O_CREAT | O_APPEND, 0644);
            if (log >= 0)
                ::dup2(log, 2);
            ::close(out[0]);
            ::close(out[1]);
            ::setenv("DISC_THREADS", std::to_string(kServerThreads).c_str(),
                     1);
            std::vector<char *> argv;
            for (std::string &a : args)
                argv.push_back(a.data());
            argv.push_back(nullptr);
            ::execv(argv[0], argv.data());
            ::_exit(127);
        }
        ::close(out[1]);
        outFd_ = out[0];
        std::string line;
        Clock::time_point t0 = Clock::now();
        while (secondsSince(t0) < 20) {
            pollfd p{outFd_, POLLIN, 0};
            if (::poll(&p, 1, 100) <= 0)
                continue;
            char c;
            if (::read(outFd_, &c, 1) != 1)
                return false;
            if (c != '\n') {
                line += c;
                continue;
            }
            unsigned port = 0;
            if (std::sscanf(line.c_str(),
                            "disc-serve: listening on 127.0.0.1:%u",
                            &port) == 1) {
                port_ = static_cast<std::uint16_t>(port);
                return true;
            }
            line.clear();
        }
        return false;
    }

    std::uint16_t port() const { return port_; }
    int pid() const { return pid_; }

    /** Wait for exit; true when it exited 0 within @p seconds. */
    bool
    waitClean(double seconds)
    {
        Clock::time_point t0 = Clock::now();
        while (pid_ > 0) {
            int status = 0;
            pid_t r = ::waitpid(pid_, &status, WNOHANG);
            if (r == pid_) {
                pid_ = -1;
                closeOut();
                return WIFEXITED(status) && WEXITSTATUS(status) == 0;
            }
            if (secondsSince(t0) > seconds)
                break;
            // Drain the metrics text so the server never blocks on it.
            char buf[4096];
            pollfd p{outFd_, POLLIN, 0};
            if (outFd_ >= 0 && ::poll(&p, 1, 10) > 0)
                (void)!::read(outFd_, buf, sizeof(buf));
        }
        kill();
        return false;
    }

    void
    kill()
    {
        if (pid_ > 0) {
            ::kill(pid_, SIGKILL);
            ::waitpid(pid_, nullptr, 0);
            pid_ = -1;
        }
        closeOut();
    }

  private:
    void
    closeOut()
    {
        if (outFd_ >= 0)
            ::close(outFd_);
        outFd_ = -1;
    }

    pid_t pid_ = -1;
    int outFd_ = -1;
    std::uint16_t port_ = 0;
};

/** The client side of one server instance. */
struct Client
{
    EventLoop loop;
    std::vector<std::unique_ptr<Conn>> conns;
    std::uint64_t seq = 1;

    bool
    connect(std::uint16_t port)
    {
        loop.start("client");
        for (unsigned c = 0; c < kConns; ++c) {
            conns.push_back(std::make_unique<Conn>(loop));
            if (!conns.back()->connect(port))
                return false;
        }
        return true;
    }

    ~Client() { loop.stop(); }
};

/** Failure tally of the network run. */
struct Failures
{
    std::uint64_t queueFull = 0, deadline = 0, draining = 0; ///< BusyResp
    std::uint64_t error = 0, noReply = 0, digest = 0;
    std::uint64_t
    total() const
    {
        return queueFull + deadline + draining + error + noReply + digest;
    }
};

/** One rate step's samples. */
struct Rung
{
    unsigned rate = 0;
    std::vector<double> latUs, latUsTraced, lagUs;
    std::vector<double> probeSec; ///< gap probes, scaled to kProbeSteps
    std::uint64_t sent = 0, completed = 0;
    double drainSec = 0;   ///< last send -> last reply
    double serverCpu = 0;  ///< server CPU seconds during the step
};

/**
 * Open-loop step at @p rate for @p seconds (see file comment). With
 * @p probe, the host-speed probe runs in the middle of every
 * kProbeEvery-th gap between sends, when the previous request has
 * nearly always been answered.
 */
Rung
runRung(Client &cl, std::vector<SessionInput> &ss, unsigned rate,
        double seconds, Rng &rng, int server_pid, bool alternate_trace,
        bool probe, Tracer &tr, Failures &fail, std::uint64_t &attempted)
{
    std::vector<std::size_t> hot, cold;
    for (std::size_t i = 0; i < ss.size(); ++i)
        (ss[i].hot ? hot : cold).push_back(i);
    Rung r;
    r.rate = rate;
    std::mutex mu;
    std::condition_variable cv;
    std::uint64_t outstanding = 0;
    Clock::time_point lastReply{};
    auto interval = std::chrono::nanoseconds(1000000000ull / rate);
    const std::uint64_t n =
        static_cast<std::uint64_t>(seconds * static_cast<double>(rate));
    double cpu0 = pidCpuSeconds(server_pid);
    Clock::time_point start = Clock::now() + std::chrono::milliseconds(1);
    for (std::uint64_t i = 0; i < n; ++i) {
        if (probe && i > 0 && i % kProbeEvery == 0) {
            std::this_thread::sleep_until(start + i * interval - interval / 2);
            r.probeSec.push_back(
                hostProbeSeconds(kGapProbeSteps, kProbeWordsL1) *
                (kProbeSteps / kGapProbeSteps));
        }
        std::size_t si = rng.uniform() < kColdShare
                             ? cold[rng.below(cold.size())]
                             : hot[rng.below(hot.size())];
        Clock::time_point due = start + i * interval;
        // Sleep to just short of the due time and spin the rest:
        // kernel sleeps overshoot, and the overshoot would land in
        // every latency measured from `due`. The spin yields, so a
        // request still in flight on the shared CPU goes first.
        constexpr auto kSlack = std::chrono::microseconds(200);
        if (due - Clock::now() > kSlack)
            std::this_thread::sleep_until(due - kSlack);
        while (Clock::now() < due)
            ::sched_yield();
        Request req;
        req.type = MsgType::RunReq;
        req.seq = cl.seq++;
        req.tenant = ss[si].tenant;
        req.session = ss[si].id;
        req.maxCycles = kCyclesPerRequest;
        req.stopWhenIdle = false;
        bool traced = alternate_trace && i % 2 == 1;
        {
            std::lock_guard<std::mutex> g(mu);
            ++outstanding;
            r.lagUs.push_back(
                std::chrono::duration<double, std::micro>(Clock::now() - due)
                    .count());
        }
        ++r.sent;
        ++attempted;
        cl.conns[i % kConns]->send(req, [&, due, si, traced,
                                         id = req.seq](const Response &resp) {
            Clock::time_point now = Clock::now();
            double us =
                std::chrono::duration<double, std::micro>(now - due).count();
            if (traced && tr.enabled()) {
                Span sp;
                sp.name = "serve.rpc";
                sp.id = tr.nextId();
                sp.req = id;
                sp.start = std::chrono::duration_cast<std::chrono::nanoseconds>(
                               due.time_since_epoch())
                               .count();
                sp.end = std::chrono::duration_cast<std::chrono::nanoseconds>(
                             now.time_since_epoch())
                             .count();
                tr.record(sp);
            }
            std::lock_guard<std::mutex> g(mu);
            if (resp.type == MsgType::RunResp) {
                ++r.completed;
                ++ss[si].completed;
                (traced ? r.latUsTraced : r.latUs).push_back(us);
            } else if (resp.type == MsgType::BusyResp) {
                ++(resp.busy == BusyReason::QueueFull  ? fail.queueFull
                   : resp.busy == BusyReason::Deadline ? fail.deadline
                                                       : fail.draining);
            } else {
                ++fail.error;
            }
            lastReply = now;
            --outstanding;
            cv.notify_one();
        });
    }
    Clock::time_point lastSend = Clock::now();
    {
        std::unique_lock<std::mutex> lk(mu);
        if (!cv.wait_for(lk, std::chrono::seconds(30),
                         [&] { return outstanding == 0; })) {
            // Replies that never came. Stop the client loop so no late
            // handler touches this frame, and abandon the run.
            fail.noReply += outstanding;
            lk.unlock();
            cl.loop.stop();
            throw std::runtime_error("serve: requests left without reply");
        }
        r.drainSec = std::chrono::duration<double>(lastReply - lastSend)
                         .count();
    }
    r.serverCpu = pidCpuSeconds(server_pid) - cpu0;
    return r;
}

/** Open every session; true when all opens succeeded. */
bool
openSessions(Client &cl, const std::vector<SessionInput> &ss)
{
    for (std::size_t i = 0; i < ss.size(); ++i) {
        Request req;
        req.type = MsgType::OpenReq;
        req.seq = cl.seq++;
        req.tenant = ss[i].tenant;
        req.session = ss[i].id;
        req.source = ss[i].source;
        req.board = ss[i].board;
        if (cl.conns[i % kConns]->transact(req).type != MsgType::OpenResp)
            return false;
    }
    return true;
}

/** Offline replay timings (per-layer isa/board on this workload). */
struct ReplayTimes
{
    std::vector<double> assembleUs, loadUs, composeUs;
};

/** The disc-loadgen --check rule: replay offline, compare digests. */
std::uint64_t
replayDigest(const SessionInput &s, Cycle cycles, ReplayTimes &t,
             Tracer &tr)
{
    Clock::time_point t0 = Clock::now();
    Program prog;
    {
        Scope sp(&tr, "isa.assemble");
        prog = assemble(s.source);
    }
    t.assembleUs.push_back(secondsSince(t0) * 1e6);
    Machine m;
    t0 = Clock::now();
    Board board;
    {
        Scope sp(&tr, "board.compose");
        board = buildBoard(parseBoardSpec(s.board, s.id));
        board.attachTo(m);
    }
    if (!s.board.empty())
        t.composeUs.push_back(secondsSince(t0) * 1e6);
    t0 = Clock::now();
    {
        Scope sp(&tr, "isa.load");
        m.load(prog);
    }
    t.loadUs.push_back(secondsSince(t0) * 1e6);
    ExecTrace trace(kSessionTraceEntries);
    m.setExecTrace(&trace);
    m.startStream(0, prog.hasSymbol("main") ? prog.symbol("main") : 0);
    board.startStreams(m, prog);
    m.run(cycles, false);
    return runDigest(m, trace);
}

/**
 * Traced in-process pass over one shard's sessions: the server's
 * request path (decode, acquire, run, encode, release with eviction)
 * called directly, one span per call, one request id per request.
 */
void
inProcessTrace(const Options &opt, const std::vector<SessionInput> &all,
               Rng &rng, double seconds, Tracer &tr, MetricTable &L,
               double req_p50_us)
{
    std::string dir = opt.workDir + "/inproc-state-" +
                      std::to_string(opt.seed);
    fs::remove_all(dir);
    std::vector<const SessionInput *> ss;
    for (const SessionInput &s : all) {
        if (fnv1a64(s.id) % kShards == 0)
            ss.push_back(&s);
    }
    std::vector<double> enc, dec, acqRes, acqPark, evict, run;
    std::uint64_t requests = 0;
    {
        SessionRegistry reg(dir, kResidentPerShard);
        for (const SessionInput *s : ss) {
            SessionSpec spec;
            spec.id = s->id;
            spec.tenant = s->tenant;
            spec.source = s->source;
            spec.board = s->board;
            reg.open(spec);
        }
        std::vector<const SessionInput *> hot, cold;
        for (const SessionInput *s : ss)
            (s->hot ? hot : cold).push_back(s);
        auto us = [](std::int64_t a, std::int64_t b) {
            return static_cast<double>(b - a) * 1e-3;
        };
        Clock::time_point start = Clock::now();
        while (secondsSince(start) < seconds || requests < 200) {
            const SessionInput *s = rng.uniform() < kColdShare
                                        ? cold[rng.below(cold.size())]
                                        : hot[rng.below(hot.size())];
            Request req;
            req.type = MsgType::RunReq;
            req.seq = ++requests;
            req.tenant = s->tenant;
            req.session = s->id;
            req.maxCycles = kCyclesPerRequest;
            req.stopWhenIdle = false;
            std::vector<std::uint8_t> wire = encodeRequest(req);

            Scope root(&tr, "serve.request", req.seq);
            std::int64_t t0 = nowNs();
            Request got;
            {
                Scope sp(&tr, "serve.decode", req.seq);
                got = decodeRequest(wire);
            }
            std::int64_t t1 = nowNs();
            dec.push_back(us(t0, t1));
            std::uint64_t evicted0 = reg.evictedTotal();
            {
                std::uint64_t restored0 = reg.restoredTotal();
                std::int64_t a0 = nowNs();
                std::optional<SessionLease> lease;
                {
                    Scope sp(&tr, "serve.acquire", req.seq);
                    lease.emplace(reg.acquire(got.session));
                }
                std::int64_t a1 = nowNs();
                (reg.restoredTotal() > restored0 ? acqPark : acqRes)
                    .push_back(us(a0, a1));
                Response resp;
                {
                    Scope sp(&tr, "sim.run", req.seq);
                    Machine &m = (*lease)->machine();
                    std::int64_t r0 = nowNs();
                    resp.ran = m.run(got.maxCycles, got.stopWhenIdle);
                    run.push_back(us(r0, nowNs()));
                    resp.totalCycles = m.stats().cycles;
                    resp.retired = m.stats().totalRetired;
                }
                resp.type = MsgType::RunResp;
                resp.seq = got.seq;
                {
                    Scope sp(&tr, "serve.encode", req.seq);
                    std::int64_t e0 = nowNs();
                    std::vector<std::uint8_t> out = encodeResponse(resp);
                    enc.push_back(us(e0, nowNs()));
                }
                std::int64_t l0 = nowNs();
                {
                    Scope sp(&tr, "serve.release", req.seq);
                    lease.reset();
                }
                if (reg.evictedTotal() > evicted0)
                    evict.push_back(us(l0, nowNs()));
            }
        }
    }
    std::vector<double> park_bytes;
    for (const auto &e : fs::recursive_directory_iterator(dir)) {
        if (e.is_regular_file())
            park_bytes.push_back(static_cast<double>(e.file_size()));
    }
    fs::remove_all(dir);

    const double n = static_cast<double>(requests);
    L.set("proto.encode_us", median(enc), "us");
    L.set("proto.decode_us", median(dec), "us");
    L.set("session.acquire_us.resident", median(acqRes), "us");
    L.set("session.acquire_us.parked", median(acqPark), "us");
    L.set("session.evict_us", median(evict), "us");
    L.set("session.park_bytes", median(park_bytes), "bytes");
    L.set("session.run_us", median(run), "us");
    L.set("serve.unattributed_share",
          1.0 - (median(enc) + median(dec) + median(acqRes) + median(run)) /
                    req_p50_us,
          "share");
    std::vector<Span> spans = subtree(tr.spans(), "serve.request");
    std::map<std::string, double> self = layerSelfSeconds(spans);
    for (const std::string &l : layerNames()) {
        if (l == "serve" || l == "sim")
            L.set("self_ms." + l, self[l] / n * 1e3, "ms");
    }
}

} // namespace

void
runServeWorkload(const Options &opt, Tracer &tr, Outcome &out)
{
    if (opt.serveBin.empty())
        throw std::runtime_error("serve: --serve-bin is required");
    std::signal(SIGPIPE, SIG_IGN);
    pinToOneCpu();
    Rng rng(opt.seed * 0x9e3779b97f4a7c15ULL + 0x73657276ULL);
    std::vector<SessionInput> ss = makeSessions(opt, rng);
    Failures fail;

    // Set-up, several times, each on a fresh state dir (a leftover dir
    // would make the server resume its sessions and the Opens fail):
    // server start, handshake, connections, session opens. The last
    // instance is the one measured.
    std::vector<double> setups;
    std::unique_ptr<ServerProc> server;
    std::unique_ptr<Client> client;
    const std::string log = opt.workDir + "/disc-serve.log";
    std::string state;
    for (int rep = 0; rep < kSetups; ++rep) {
        if (server) {
            Request shut;
            shut.type = MsgType::ShutdownReq;
            shut.seq = client->seq++;
            client->conns[0]->transact(shut);
            client.reset();
            if (!server->waitClean(30))
                out.clean = false;
            server.reset();
            fs::remove_all(state);
        }
        state = opt.workDir + "/serve-state-" + std::to_string(opt.seed) +
                "-" + std::to_string(rep);
        fs::remove_all(state);
        Clock::time_point t0 = Clock::now();
        server = std::make_unique<ServerProc>();
        if (!server->start(opt, state, log))
            throw std::runtime_error("serve: disc-serve did not start");
        client = std::make_unique<Client>();
        if (!client->connect(server->port()))
            throw std::runtime_error("serve: cannot connect");
        if (!openSessions(*client, ss))
            throw std::runtime_error("serve: session open failed");
        setups.push_back(secondsSince(t0));
    }

    // Warm-up at the base rate (caches, park files for the cold tail).
    Rng sched(rng.next64());
    std::uint64_t attempted = 0;
    runRung(*client, ss, kBaseRate, std::min(1.0, opt.seconds * 0.1), sched,
            server->pid(), false, false, tr, fail, attempted);

    // Untraced runs spend the whole time at the base rate (the
    // end-to-end numbers). The traced run spends half of it there and
    // the rest on the doubled rates of the ladder, stopping at the
    // first step that misses the limit.
    std::vector<Rung> rungs;
    double slo_rps = 0;
    const unsigned steps = opt.trace ? kLadderSteps : 1;
    for (unsigned step = 0; step < steps; ++step) {
        unsigned rate = kBaseRate << step;
        double secs = !opt.trace ? opt.seconds
                      : step == 0 ? opt.seconds * 0.5
                                  : opt.seconds * 0.5 / (kLadderSteps - 1);
        rungs.push_back(runRung(*client, ss, rate, secs, sched,
                                server->pid(), opt.trace && step == 0,
                                step == 0, tr, fail, attempted));
        const Rung &r = rungs.back();
        Tail tail = supportedTail(r.latUs, {50, 90, 95, 99, 99.9});
        bool ok = r.completed == r.sent && tail.pct > 0 &&
                  tail.value <= kSloLimitUs &&
                  r.drainSec * 1e6 <= kSloLimitUs;
        std::fprintf(stderr,
                     "discbench: serve rate=%u sent=%llu completed=%llu "
                     "p50=%.1fus p%g=%.0fus (n=%zu) drain=%.0fus "
                     "server_cpu=%.3fs probe=%.3fms %s\n",
                     rate, static_cast<unsigned long long>(r.sent),
                     static_cast<unsigned long long>(r.completed),
                     median(r.latUs), tail.pct, tail.value, tail.samples,
                     r.drainSec * 1e6, r.serverCpu,
                     r.probeSec.empty() ? 0.0 : median(r.probeSec) * 1e3,
                     ok ? "meets limit" : "misses limit");
        if (!ok)
            break;
        slo_rps = rate;
    }

    // Server counters, digest check, clean shutdown.
    Request st;
    st.type = MsgType::StatsReq;
    st.seq = client->seq++;
    Response stats = client->conns[0]->transact(st);
    auto counter = [&](const char *name) {
        for (const auto &[k, v] : stats.counters) {
            if (k == name)
                return static_cast<double>(v);
        }
        return 0.0;
    };
    ReplayTimes rt;
    for (std::size_t i = 0; i < ss.size(); ++i) {
        Request q;
        q.type = MsgType::QueryReq;
        q.seq = client->seq++;
        q.tenant = ss[i].tenant;
        q.session = ss[i].id;
        Response resp = client->conns[i % kConns]->transact(q);
        ++attempted;
        std::uint64_t want = replayDigest(ss[i], resp.totalCycles, rt, tr);
        if (opt.corruptReference)
            want ^= 1;
        if (resp.type != MsgType::QueryResp || resp.digest != want ||
            resp.totalCycles != ss[i].completed * kCyclesPerRequest)
            ++fail.digest;
    }
    double rss = peakRssMb(server->pid());
    Request shut;
    shut.type = MsgType::ShutdownReq;
    shut.seq = client->seq++;
    client->conns[0]->transact(shut);
    client.reset();
    if (!server->waitClean(30)) {
        std::fprintf(stderr, "discbench: disc-serve did not exit cleanly\n");
        out.clean = false;
    }
    server.reset();
    fs::remove_all(state);

    out.attempted = attempted;
    out.failed = fail.total();
    const Rung &base = rungs.front();
    // End-to-end times are scaled to the reference host speed (see
    // bench.hh) by the probes taken between the base-rate sends.
    const double speed = kProbeNominalSeconds / median(base.probeSec);
    out.e2e.set("setup_s", median(setups) * speed, "s");
    out.e2e.set("peak_rss_mb", peakRssMb() + rss, "MB");
    out.e2e.set("sim_mcps",
                static_cast<double>(base.completed * kCyclesPerRequest) /
                    base.serverCpu / 1e6 / speed,
                "Mcycles/s");
    out.e2e.set("op_p50_ms", median(base.latUs) / 1e3 * speed, "ms");
    if (!opt.trace)
        return;

    MetricTable &L = out.layer;
    double p50 = median(base.latUs);
    Tail tail = supportedTail(base.latUs, {50, 90, 95, 99, 99.9});
    L.set("host.probe_ms", median(base.probeSec) * 1e3, "ms");
    L.set("serve.attempted", static_cast<double>(attempted), "count");
    L.set("serve.failed", static_cast<double>(fail.total()), "count");
    L.set("serve.failed.busy_queue_full", static_cast<double>(fail.queueFull),
          "count");
    L.set("serve.failed.busy_deadline", static_cast<double>(fail.deadline),
          "count");
    L.set("serve.failed.busy_draining", static_cast<double>(fail.draining),
          "count");
    L.set("serve.failed.error", static_cast<double>(fail.error), "count");
    L.set("serve.failed.no_reply", static_cast<double>(fail.noReply),
          "count");
    L.set("serve.failed.digest", static_cast<double>(fail.digest), "count");
    L.set("serve.gen_lag_us.p99", quantile(base.lagUs, 0.99), "us");
    L.set("serve.req_p50_us", p50, "us");
    L.set("serve.req_tail_us", tail.value, "us");
    L.set("serve.req_tail_pct", tail.pct, "%");
    L.set("serve.req_samples", static_cast<double>(tail.samples), "count");
    L.set("serve.slo_rps", slo_rps, "1/s");
    double reqs = counter("completed");
    L.set("serve.restored_per_req", counter("restored") / reqs, "share");
    L.set("serve.evicted_per_req", counter("evicted") / reqs, "share");
    L.set("serve.max_queue_depth", counter("max_queue_depth"), "count");
    L.set("serve.machines_per_dispatch",
          counter("batched_machines") /
              std::max(1.0, counter("batch_dispatches")),
          "count");
    L.set("isa.assemble_us", median(rt.assembleUs), "us");
    L.set("isa.load_us", median(rt.loadUs), "us");
    L.set("board.compose_us", median(rt.composeUs), "us");
    L.set("trace.overhead_share",
          median(base.latUsTraced) / median(base.latUs) - 1, "share");
    inProcessTrace(opt, ss, sched, std::min(2.0, opt.seconds * 0.2), tr, L,
                   p50);
}

} // namespace perfbench
