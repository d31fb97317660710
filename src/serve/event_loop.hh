/**
 * @file
 * EventLoop: one epoll-driven I/O thread multiplexing many
 * nonblocking framed-protocol connections.
 *
 * The per-connection blocking-reader-thread model tops out at a few
 * dozen clients; this loop serves thousands. One thread owns an epoll
 * set; connections are nonblocking; reads feed a FrameReader so a
 * frame may arrive in any number of slices (length prefix split
 * across writes, byte-at-a-time senders, stalls mid-frame — none of
 * them can block the loop or each other). Completed frames are handed
 * to the connection's frame callback on the loop thread; replies may
 * be sent from any thread (sendFrame() appends to the connection's
 * output buffer and wakes the loop via an eventfd).
 *
 * Write backpressure is bounded and explicit: output is buffered per
 * connection and flushed as EPOLLOUT allows; a connection whose
 * buffered output exceeds `outBufSoft` stops being *read* (so a
 * client that floods requests without consuming replies throttles
 * itself against TCP, not against server memory), and one that
 * exceeds `outBufHard` — only possible through replies to requests
 * already accepted — is dropped. Half-close is honoured: after read
 * EOF the connection stays open until every reply owed to frames it
 * delivered has been flushed.
 *
 * The loop never parses payloads and never simulates; everything
 * slow runs elsewhere and posts back. post() is the only way other
 * threads touch loop-owned state.
 */

#ifndef DISC_SERVE_EVENT_LOOP_HH
#define DISC_SERVE_EVENT_LOOP_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "serve/proto.hh"

namespace disc::serve
{

class EventLoop;

/** Buffer bounds and framing limits for a loop's connections. */
struct EventLoopConfig
{
    /** Stop reading a connection once this much output is buffered. */
    std::size_t outBufSoft = 1u << 20;

    /** Drop a connection once this much output is buffered. */
    std::size_t outBufHard = 8u << 20;

    /** Frame payload bound handed to each FrameReader. */
    std::uint32_t maxFrame = kMaxFrameBytes;
};

/**
 * One nonblocking connection owned by an EventLoop. Created via
 * EventLoop::addConnection(); shared_ptr-managed so replies produced
 * after the peer vanished land in a safe object instead of a freed
 * one.
 */
class EventConn : public std::enable_shared_from_this<EventConn>
{
  public:
    /**
     * Queue one length-prefixed frame for writing and wake the loop.
     * Thread-safe; silently drops the frame once the connection is
     * closed (the peer is gone — its session state is unaffected).
     */
    void sendFrame(const std::vector<std::uint8_t> &payload);

    /** Stop reading, flush buffered output, then close. Thread-safe. */
    void closeAfterFlush();

    /** Loop-assigned connection id (stable, for log tags). */
    std::uint64_t id() const { return id_; }

    /** Bytes buffered for write but not yet flushed. */
    std::size_t pendingOut() const;

    /** True once the connection has been torn down. */
    bool closed() const { return closed_.load(); }

    /** Frames delivered to the frame callback so far. */
    std::uint64_t framesIn() const { return framesIn_.load(); }

    /** Frames queued for write so far. */
    std::uint64_t framesOut() const { return framesOut_.load(); }

  private:
    friend class EventLoop;

    EventConn(EventLoop *loop, int fd, std::uint64_t id)
        : loop_(loop), fd_(fd), id_(id)
    {}

    EventLoop *loop_;
    int fd_;
    std::uint64_t id_;

    // Output buffer: shared between sendFrame() callers and the loop
    // thread's flush; guarded by omu_. out_[outOff_..] is unflushed.
    mutable std::mutex omu_;
    std::vector<std::uint8_t> out_;
    std::size_t outOff_ = 0;
    bool killRequested_ = false; ///< hard-cap overflow: drop it

    // Loop-thread-only state.
    FrameReader reader_{kMaxFrameBytes};
    bool readPaused_ = false;  ///< backpressure: EPOLLIN dropped
    bool readStopped_ = false; ///< drain mode: never read again
    bool readClosed_ = false;  ///< peer half-closed (EOF seen)
    bool wantWrite_ = false;   ///< EPOLLOUT armed
    bool closeAfterFlush_ = false;

    std::atomic<std::uint64_t> framesIn_{0};
    std::atomic<std::uint64_t> framesOut_{0};
    std::atomic<bool> closed_{false};
};

/** The epoll loop; see the file comment. */
class EventLoop
{
  public:
    /**
     * Called on the loop thread for every complete frame. The
     * payload buffer is reused; copy what must outlive the call.
     */
    using FrameFn = std::function<void(const std::shared_ptr<EventConn> &,
                                       std::vector<std::uint8_t> &)>;

    /** Called on the loop thread when the connection is torn down. */
    using ClosedFn = std::function<void(const std::shared_ptr<EventConn> &)>;

    /**
     * Called on the loop thread when the inbound byte stream turns
     * unrecoverable (hostile length prefix). The callee may send one
     * last frame; the connection is then flushed and closed. When
     * unset the connection is just dropped.
     */
    using StreamErrFn = std::function<void(
        const std::shared_ptr<EventConn> &, const std::string &)>;

    /**
     * Called on the loop thread with each accepted fd (already
     * nonblocking); the callee decides which loop adopts it.
     */
    using AcceptFn = std::function<void(int fd)>;

    explicit EventLoop(EventLoopConfig cfg = {});
    ~EventLoop();

    EventLoop(const EventLoop &) = delete;
    EventLoop &operator=(const EventLoop &) = delete;

    /** Start the loop thread; @p tag names it in the logs. */
    void start(const std::string &tag);

    /** Ask the loop to exit, join it, close every connection. */
    void stop();

    /** Run @p fn on the loop thread; thread-safe, FIFO. */
    void post(std::function<void()> fn);

    /** post() and wait for @p fn to finish (never from the loop). */
    void runSync(const std::function<void()> &fn);

    /**
     * Watch a listening socket; readable events invoke @p on_accept
     * once per accepted connection. One listener per loop.
     */
    void addListener(int listen_fd, AcceptFn on_accept);

    /** Stop watching (and forget) the listener added above. */
    void removeListener();

    /**
     * Adopt @p fd (made nonblocking here) as a framed connection.
     * Thread-safe: registration happens on the loop thread.
     */
    std::shared_ptr<EventConn> addConnection(int fd, FrameFn on_frame,
                                             ClosedFn on_closed = {},
                                             StreamErrFn on_err = {});

    /**
     * Drain mode: stop reading every current connection (buffered
     * partial frames are abandoned), so no new frames are delivered.
     * Thread-safe.
     */
    void stopReading();

    /** Connections currently registered. */
    std::size_t connCount() const { return connCount_.load(); }

    /** Sum of pending output over live connections. Thread-safe. */
    std::size_t pendingOutTotal() const;

    /** True when every live connection owes no replies and has no
     *  buffered output (quiesced after a drain). Thread-safe. */
    bool flushed() const;

  private:
    friend class EventConn;

    struct ConnState
    {
        std::shared_ptr<EventConn> conn;
        FrameFn onFrame;
        ClosedFn onClosed;
        StreamErrFn onErr;
    };

    void loopMain(std::string tag);
    void wake();
    /** Run every task post()ed so far (loop thread only). */
    void drainPosted();
    void handleReadable(ConnState &cs);
    void flushConn(const std::shared_ptr<EventConn> &conn);
    void closeConn(const std::shared_ptr<EventConn> &conn);
    void updateInterest(EventConn &conn);
    void maybeFinish(const std::shared_ptr<EventConn> &conn);
    /** Replies owed: frames delivered minus frames sent. */
    static bool owesReplies(const EventConn &conn);

    EventLoopConfig cfg_;
    int epollFd_ = -1;
    int wakeFd_ = -1;
    int listenFd_ = -1;
    AcceptFn onAccept_;

    std::thread thread_;
    std::atomic<bool> running_{false};
    std::atomic<bool> stopRequested_{false};

    std::mutex postMu_;
    std::vector<std::function<void()>> posted_;
    std::atomic<bool> wakePending_{false};

    // Loop-thread-owned connection table (fd -> state). The mutex
    // only guards cross-thread reads for the aggregate accessors.
    mutable std::mutex connMu_;
    std::unordered_map<int, ConnState> conns_;
    std::atomic<std::size_t> connCount_{0};
    std::uint64_t nextConnId_ = 0;
};

} // namespace disc::serve

#endif // DISC_SERVE_EVENT_LOOP_HH
