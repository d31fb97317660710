#include "serve/event_loop.hh"

#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <fcntl.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/logging.hh"

namespace disc::serve
{

namespace
{

void
setNonblocking(int fd)
{
    int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0)
        fatal("fcntl O_NONBLOCK: %s", std::strerror(errno));
}

} // namespace

// --- EventConn --------------------------------------------------------

void
EventConn::sendFrame(const std::vector<std::uint8_t> &payload)
{
    if (closed_.load())
        return; // peer is gone; dropping the reply is safe
    bool first = false;
    {
        std::lock_guard<std::mutex> g(omu_);
        std::uint32_t len = static_cast<std::uint32_t>(payload.size());
        first = out_.size() == outOff_;
        out_.reserve(out_.size() + 4 + payload.size());
        out_.push_back(static_cast<std::uint8_t>(len));
        out_.push_back(static_cast<std::uint8_t>(len >> 8));
        out_.push_back(static_cast<std::uint8_t>(len >> 16));
        out_.push_back(static_cast<std::uint8_t>(len >> 24));
        out_.insert(out_.end(), payload.begin(), payload.end());
        // The hard cap can only be hit by replies to requests that
        // were already read and accepted; a connection this far
        // behind is not worth the memory.
        if (out_.size() - outOff_ > loop_->cfg_.outBufHard)
            killRequested_ = true;
    }
    framesOut_.fetch_add(1);
    if (first || killRequested_) {
        auto self = shared_from_this();
        loop_->post([self] { self->loop_->flushConn(self); });
    }
}

void
EventConn::closeAfterFlush()
{
    if (closed_.load())
        return;
    auto self = shared_from_this();
    loop_->post([self] {
        self->closeAfterFlush_ = true;
        self->readStopped_ = true;
        self->loop_->updateInterest(*self);
        self->loop_->flushConn(self);
    });
}

std::size_t
EventConn::pendingOut() const
{
    std::lock_guard<std::mutex> g(omu_);
    return out_.size() - outOff_;
}

// --- EventLoop --------------------------------------------------------

EventLoop::EventLoop(EventLoopConfig cfg)
    : cfg_(cfg)
{
    epollFd_ = ::epoll_create1(EPOLL_CLOEXEC);
    if (epollFd_ < 0)
        fatal("epoll_create1: %s", std::strerror(errno));
    wakeFd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (wakeFd_ < 0)
        fatal("eventfd: %s", std::strerror(errno));
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = wakeFd_;
    if (::epoll_ctl(epollFd_, EPOLL_CTL_ADD, wakeFd_, &ev) < 0)
        fatal("epoll_ctl wakefd: %s", std::strerror(errno));
}

EventLoop::~EventLoop()
{
    if (running_.load())
        stop();
    if (wakeFd_ >= 0)
        ::close(wakeFd_);
    if (epollFd_ >= 0)
        ::close(epollFd_);
}

void
EventLoop::start(const std::string &tag)
{
    if (running_.exchange(true))
        return;
    stopRequested_.store(false);
    thread_ = std::thread([this, tag] { loopMain(tag); });
}

void
EventLoop::stop()
{
    if (!running_.load())
        return;
    stopRequested_.store(true);
    wake();
    if (thread_.joinable())
        thread_.join();
    running_.store(false);
}

void
EventLoop::wake()
{
    if (wakePending_.exchange(true))
        return;
    std::uint64_t one = 1;
    [[maybe_unused]] ssize_t n = ::write(wakeFd_, &one, sizeof(one));
}

void
EventLoop::post(std::function<void()> fn)
{
    {
        std::lock_guard<std::mutex> g(postMu_);
        posted_.push_back(std::move(fn));
    }
    wake();
}

void
EventLoop::drainPosted()
{
    // Only the swap happens under the lock: a task may post() again.
    std::vector<std::function<void()>> tasks;
    {
        std::lock_guard<std::mutex> g(postMu_);
        tasks.swap(posted_);
    }
    for (auto &t : tasks)
        t();
}

void
EventLoop::runSync(const std::function<void()> &fn)
{
    if (std::this_thread::get_id() == thread_.get_id()) {
        fn();
        return;
    }
    std::mutex m;
    std::condition_variable cv;
    bool done = false;
    post([&] {
        fn();
        std::lock_guard<std::mutex> g(m);
        done = true;
        cv.notify_one();
    });
    std::unique_lock<std::mutex> lk(m);
    cv.wait(lk, [&] { return done; });
}

void
EventLoop::addListener(int listen_fd, AcceptFn on_accept)
{
    setNonblocking(listen_fd);
    runSync([this, listen_fd, on_accept = std::move(on_accept)] {
        listenFd_ = listen_fd;
        onAccept_ = on_accept;
        epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.fd = listen_fd;
        if (::epoll_ctl(epollFd_, EPOLL_CTL_ADD, listen_fd, &ev) < 0)
            fatal("epoll_ctl listener: %s", std::strerror(errno));
    });
}

void
EventLoop::removeListener()
{
    runSync([this] {
        if (listenFd_ < 0)
            return;
        ::epoll_ctl(epollFd_, EPOLL_CTL_DEL, listenFd_, nullptr);
        listenFd_ = -1;
        onAccept_ = {};
    });
}

std::shared_ptr<EventConn>
EventLoop::addConnection(int fd, FrameFn on_frame, ClosedFn on_closed,
                         StreamErrFn on_err)
{
    setNonblocking(fd);
    std::shared_ptr<EventConn> conn;
    {
        std::lock_guard<std::mutex> g(connMu_);
        conn = std::shared_ptr<EventConn>(
            new EventConn(this, fd, nextConnId_++));
        conn->reader_ = FrameReader(cfg_.maxFrame);
    }
    runSync([this, fd, conn, on_frame = std::move(on_frame),
             on_closed = std::move(on_closed),
             on_err = std::move(on_err)]() mutable {
        {
            std::lock_guard<std::mutex> g(connMu_);
            conns_[fd] = ConnState{conn, std::move(on_frame),
                                   std::move(on_closed),
                                   std::move(on_err)};
        }
        connCount_.fetch_add(1);
        epoll_event ev{};
        ev.events = EPOLLIN | EPOLLRDHUP;
        ev.data.fd = fd;
        if (::epoll_ctl(epollFd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
            warn("epoll_ctl conn: %s", std::strerror(errno));
            closeConn(conn);
        }
    });
    return conn;
}

void
EventLoop::stopReading()
{
    runSync([this] {
        std::vector<std::shared_ptr<EventConn>> all;
        {
            std::lock_guard<std::mutex> g(connMu_);
            for (auto &[fd, cs] : conns_)
                all.push_back(cs.conn);
        }
        for (const auto &conn : all) {
            conn->readStopped_ = true;
            updateInterest(*conn);
        }
    });
}

std::size_t
EventLoop::pendingOutTotal() const
{
    std::lock_guard<std::mutex> g(connMu_);
    std::size_t total = 0;
    for (const auto &[fd, cs] : conns_)
        total += cs.conn->pendingOut();
    return total;
}

bool
EventLoop::owesReplies(const EventConn &conn)
{
    return conn.framesIn_.load() > conn.framesOut_.load();
}

bool
EventLoop::flushed() const
{
    std::lock_guard<std::mutex> g(connMu_);
    for (const auto &[fd, cs] : conns_)
        if (cs.conn->pendingOut() != 0 || owesReplies(*cs.conn))
            return false;
    return true;
}

void
EventLoop::updateInterest(EventConn &conn)
{
    if (conn.closed_.load())
        return;
    epoll_event ev{};
    ev.data.fd = conn.fd_;
    ev.events = EPOLLRDHUP;
    if (!conn.readPaused_ && !conn.readStopped_ && !conn.readClosed_)
        ev.events |= EPOLLIN;
    if (conn.wantWrite_)
        ev.events |= EPOLLOUT;
    if (::epoll_ctl(epollFd_, EPOLL_CTL_MOD, conn.fd_, &ev) < 0)
        warn("epoll_ctl mod: %s", std::strerror(errno));
}

void
EventLoop::maybeFinish(const std::shared_ptr<EventConn> &conn)
{
    if (conn->closed_.load())
        return;
    bool drained;
    {
        std::lock_guard<std::mutex> g(conn->omu_);
        drained = conn->out_.size() == conn->outOff_;
    }
    if (!drained)
        return;
    if (conn->closeAfterFlush_ ||
        (conn->readClosed_ && !owesReplies(*conn)))
        closeConn(conn);
}

void
EventLoop::flushConn(const std::shared_ptr<EventConn> &conn)
{
    if (conn->closed_.load())
        return;
    bool drained = false;
    bool fail = false;
    {
        std::lock_guard<std::mutex> g(conn->omu_);
        if (conn->killRequested_)
            fail = true;
        while (!fail && conn->outOff_ < conn->out_.size()) {
            ssize_t n = ::write(conn->fd_,
                                conn->out_.data() + conn->outOff_,
                                conn->out_.size() - conn->outOff_);
            if (n > 0) {
                conn->outOff_ += static_cast<std::size_t>(n);
                continue;
            }
            if (n < 0 && errno == EINTR)
                continue;
            if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
                break;
            fail = true; // EPIPE/ECONNRESET: peer is gone
        }
        if (conn->outOff_ == conn->out_.size()) {
            conn->out_.clear();
            conn->outOff_ = 0;
            drained = true;
        }
    }
    if (fail) {
        closeConn(conn);
        return;
    }
    bool want_write = !drained;
    if (want_write != conn->wantWrite_) {
        conn->wantWrite_ = want_write;
        updateInterest(*conn);
    }
    if (drained && conn->readPaused_ && !conn->readStopped_ &&
        !conn->readClosed_) {
        conn->readPaused_ = false;
        updateInterest(*conn);
    }
    maybeFinish(conn);
}

void
EventLoop::handleReadable(ConnState &cs)
{
    const std::shared_ptr<EventConn> &conn = cs.conn;
    std::uint8_t buf[65536];
    bool eof = false;
    bool fail = false;
    for (;;) {
        ssize_t n = ::read(conn->fd_, buf, sizeof(buf));
        if (n > 0) {
            conn->reader_.feed(buf, static_cast<std::size_t>(n));
            // Keep one read's worth bounded: parse what we have
            // before pulling more off the socket.
            if (static_cast<std::size_t>(n) < sizeof(buf))
                break;
            continue;
        }
        if (n == 0) {
            eof = true;
            break;
        }
        if (errno == EINTR)
            continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            break;
        fail = true;
        break;
    }
    if (fail) {
        closeConn(conn);
        return;
    }

    std::vector<std::uint8_t> payload;
    for (;;) {
        FrameReader::Status st = conn->reader_.next(payload);
        if (st == FrameReader::Status::NeedMore)
            break;
        if (st == FrameReader::Status::Error) {
            // Unrecoverable framing: give the protocol one chance to
            // say why, then drop the connection.
            warn("conn%llu: %s",
                 static_cast<unsigned long long>(conn->id_),
                 conn->reader_.error().c_str());
            if (cs.onErr)
                cs.onErr(conn, conn->reader_.error());
            conn->closeAfterFlush_ = true;
            conn->readStopped_ = true;
            updateInterest(*conn);
            flushConn(conn);
            return;
        }
        conn->framesIn_.fetch_add(1);
        if (cs.onFrame)
            cs.onFrame(conn, payload);
        if (conn->closed_.load())
            return;
    }

    // Backpressure: a connection flooding requests without draining
    // replies stops being read until its output drains.
    if (!conn->readPaused_ &&
        conn->pendingOut() > cfg_.outBufSoft) {
        conn->readPaused_ = true;
        updateInterest(*conn);
    }

    if (eof && !conn->readClosed_) {
        conn->readClosed_ = true;
        updateInterest(*conn);
        maybeFinish(conn);
    }
}

void
EventLoop::closeConn(const std::shared_ptr<EventConn> &conn)
{
    if (conn->closed_.exchange(true))
        return;
    ::epoll_ctl(epollFd_, EPOLL_CTL_DEL, conn->fd_, nullptr);
    ::close(conn->fd_);
    ClosedFn on_closed;
    {
        std::lock_guard<std::mutex> g(connMu_);
        auto it = conns_.find(conn->fd_);
        if (it != conns_.end() && it->second.conn == conn) {
            on_closed = std::move(it->second.onClosed);
            conns_.erase(it);
        }
    }
    connCount_.fetch_sub(1);
    if (on_closed)
        on_closed(conn);
}

void
EventLoop::loopMain(std::string tag)
{
    setLogTag(tag);
    constexpr int kMaxEvents = 128;
    epoll_event events[kMaxEvents];
    while (!stopRequested_.load()) {
        int n = ::epoll_wait(epollFd_, events, kMaxEvents, 200);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            warn("epoll_wait: %s", std::strerror(errno));
            break;
        }
        for (int i = 0; i < n && !stopRequested_.load(); ++i) {
            int fd = events[i].data.fd;
            std::uint32_t ev = events[i].events;
            if (fd == wakeFd_) {
                std::uint64_t junk;
                while (::read(wakeFd_, &junk, sizeof(junk)) > 0) {
                }
                wakePending_.store(false);
                drainPosted();
                continue;
            }
            if (fd == listenFd_) {
                for (;;) {
                    int cfd = ::accept4(listenFd_, nullptr, nullptr,
                                        SOCK_NONBLOCK | SOCK_CLOEXEC);
                    if (cfd < 0)
                        break;
                    if (onAccept_)
                        onAccept_(cfd);
                    else
                        ::close(cfd);
                }
                continue;
            }
            // conns_ is only mutated on this thread; copy the state
            // because callbacks below may erase the entry.
            auto it = conns_.find(fd);
            if (it == conns_.end())
                continue; // closed earlier in this batch
            ConnState cs = it->second;
            if (ev & (EPOLLERR | EPOLLHUP)) {
                closeConn(cs.conn);
                continue;
            }
            if (ev & EPOLLOUT)
                flushConn(cs.conn);
            if (cs.conn->closed_.load())
                continue;
            if (ev & (EPOLLIN | EPOLLRDHUP))
                handleReadable(cs);
        }
        // Posted tasks may have arrived while dispatching.
        drainPosted();
    }
    // Tear down every connection on the way out.
    std::vector<std::shared_ptr<EventConn>> all;
    {
        std::lock_guard<std::mutex> g(connMu_);
        for (auto &[fd, cs] : conns_)
            all.push_back(cs.conn);
    }
    for (const auto &conn : all)
        closeConn(conn);
}

} // namespace disc::serve
