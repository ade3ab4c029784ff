#include "net/socket_server.hpp"

#ifndef _WIN32

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cstring>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "obs/metrics.hpp"
#include "serve/protocol.hpp"
#include "util/thread_annotations.hpp"

namespace spgcmp::net {

namespace {

using Clock = std::chrono::steady_clock;

/// Upper bound on one poll: a stop flag raised without a signal (a test's
/// atomic, or a signal landing just before poll) is seen this promptly.
constexpr int kPollIntervalMs = 200;

/// While draining, a connection whose write buffer has taken no byte for
/// this long is dropped with its unwritten answers: a peer that never
/// reads cannot hold the drain, and so the daemon's exit, forever.
constexpr int kDrainStallMs = 1000;

/// No pollfd entry this cycle.
constexpr std::size_t kNoEntry = static_cast<std::size_t>(-1);

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/// Whether a write to `fd` can go ahead at once (or fail at once: an
/// error or hang-up is reported too, and the write then returns it).
bool writable_now(int fd) {
  pollfd p{fd, POLLOUT, 0};
  int rc = 0;
  do {
    rc = ::poll(&p, 1, 0);
  } while (rc < 0 && errno == EINTR);
  return rc > 0;
}

int ms_between(Clock::time_point from, Clock::time_point to) {
  return static_cast<int>(
      std::chrono::duration_cast<std::chrono::milliseconds>(to - from).count());
}

/// One connection: an accepted socket (in_fd == out_fd, nonblocking,
/// closed by the loop) or a stream (inherited fds, left as they are).
/// Owned by the loop thread; `ready`, `wbuf` and what follows from
/// writing it are also touched by engine completion callbacks, always
/// under Loop::mutex.
struct Conn {
  int in_fd = -1;
  int out_fd = -1;
  bool socket = true;
  bool log_lines = true;
  std::string rbuf;   ///< partial-frame accumulator
  std::string wbuf;   ///< bytes waiting for the peer to accept them
  std::uint64_t next_submit = 0;  ///< per-connection request sequence
  std::uint64_t next_emit = 0;    ///< next sequence to append to wbuf
  std::map<std::uint64_t, serve::Engine::Result> ready;  ///< out-of-order done
  std::size_t inflight = 0;  ///< accepted, response not yet fully written
  /// Last read or write, or the moment wbuf last became non-empty.
  Clock::time_point last_activity;
  bool read_closed = false;  ///< EOF seen (or reading abandoned at drain)
  bool discarding = false;   ///< oversize frame: skip until next newline
  bool backlog = false;      ///< complete frames held back by a bound
  bool dead = false;         ///< peer gone or idle: remove next cycle
  std::size_t read_entry = kNoEntry;   ///< this cycle's POLLIN pollfd
  std::size_t write_entry = kNoEntry;  ///< this cycle's POLLOUT pollfd
};

obs::Gauge& inflight_gauge() {
  static auto& g = obs::Registry::instance().gauge("serve.inflight");
  return g;
}

obs::Gauge& open_sockets_gauge() {
  static auto& g = obs::Registry::instance().gauge("net.open_connections");
  return g;
}

/// Everything shared between the poll-loop thread and engine completion
/// callbacks on pool workers, under one loop-wide mutex.
struct Loop {
  Loop(serve::Engine& eng, const SocketServerOptions& o,
       const std::atomic<bool>* st, int wfd)
      : engine(eng),
        opt(o),
        stop(st),
        wake_fd(wfd),
        limit(o.max_inflight != 0 ? o.max_inflight : 4 * eng.threads()) {}

  serve::Engine& engine;
  const SocketServerOptions& opt;
  const std::atomic<bool>* stop;
  const int wake_fd;        ///< write end of the self-pipe (immutable)
  const std::size_t limit;  ///< resolved in-flight bounds (immutable)

  util::Mutex mutex;
  std::map<std::uint64_t, std::unique_ptr<Conn>> conns SPGCMP_GUARDED_BY(mutex);
  std::uint64_t next_conn_id SPGCMP_GUARDED_BY(mutex) = 0;
  std::size_t sockets SPGCMP_GUARDED_BY(mutex) = 0;  ///< open socket conns
  /// Requests handed to the engine whose completion callback has not
  /// fired yet, over all connections (the global bound).  Callbacks
  /// reference this struct, so run() only returns once this reaches zero
  /// — even for requests whose connection died.
  std::size_t engine_inflight SPGCMP_GUARDED_BY(mutex) = 0;
  SocketSummary summary SPGCMP_GUARDED_BY(mutex);

  /// Wake the poll loop: a completion may have freed a bound, written a
  /// connection's last answer or left bytes the peer did not take yet.
  void wake() const {
    const char b = 0;
    // A full pipe already guarantees a pending wakeup.
    [[maybe_unused]] const ssize_t rc = ::write(wake_fd, &b, 1);
  }

  void add(std::unique_ptr<Conn> conn) SPGCMP_REQUIRES(mutex) {
    conn->last_activity = Clock::now();
    if (conn->socket) ++sockets;
    conns.emplace(++next_conn_id, std::move(conn));
  }

  /// Forget a connection; its unanswered requests leave the bound.
  /// Returns the next connection.
  auto remove(std::map<std::uint64_t, std::unique_ptr<Conn>>::iterator it)
      SPGCMP_REQUIRES(mutex) {
    Conn& c = *it->second;
    inflight_gauge().add(-static_cast<std::int64_t>(c.inflight));
    if (c.socket) {
      ::close(c.in_fd);
      --sockets;
      open_sockets_gauge().add(-1);
    }
    return conns.erase(it);
  }

  /// Move in-order completed responses into the connection's write buffer.
  void drain_ready(Conn& c) SPGCMP_REQUIRES(mutex) {
    while (true) {
      const auto it = c.ready.find(c.next_emit);
      if (it == c.ready.end()) break;
      // Start the stall clock when answers start waiting for the peer.
      if (c.wbuf.empty()) c.last_activity = Clock::now();
      c.wbuf += it->second.line;
      c.wbuf += '\n';
      serve::count_response(it->second.kind, summary.serve);
      c.ready.erase(it);
      ++c.next_emit;
    }
  }

  /// `n` bytes left the front of `c.wbuf`: every response whose newline
  /// went with them is written and leaves the in-flight count.
  void wrote(Conn& c, std::size_t n) SPGCMP_REQUIRES(mutex) {
    const auto lines = static_cast<std::size_t>(
        std::count(c.wbuf.begin(), c.wbuf.begin() + static_cast<std::ptrdiff_t>(n), '\n'));
    c.wbuf.erase(0, n);
    c.last_activity = Clock::now();
    c.inflight -= lines;
    inflight_gauge().add(-static_cast<std::int64_t>(lines));
  }

  /// Whether both bounds let `c` take another request.
  [[nodiscard]] bool can_submit(const Conn& c) const SPGCMP_REQUIRES(mutex) {
    return engine_inflight < limit && c.inflight < limit;
  }

  /// Take the next sequence slot of `c` for a request.
  std::uint64_t take_slot(Conn& c) SPGCMP_REQUIRES(mutex) {
    ++c.inflight;
    inflight_gauge().add(1);
    return c.next_submit++;
  }

  /// Submit one framed line to the engine.
  void submit_line(std::uint64_t conn_id, Conn& c, const std::string& line)
      SPGCMP_REQUIRES(mutex) {
    const std::uint64_t s = take_slot(c);
    ++engine_inflight;
    ++summary.serve.accepted;
    engine.submit(line, c.log_lines, stop,
                  [this, conn_id, s](serve::Engine::Result result) {
                    const util::MutexLock lk(mutex);
                    const auto it = conns.find(conn_id);
                    // A vanished client's answer has no destination.
                    if (it != conns.end() && !it->second->dead) {
                      Conn& c = *it->second;
                      c.ready.emplace(s, std::move(result));
                      drain_ready(c);
                      // Answer without a hop through the loop when the
                      // peer takes it now; the loop writes the rest.
                      if (!flush(c)) c.dead = true;
                    }
                    // Still under the lock: once engine_inflight reads 0,
                    // run() may return and tear down the loop and its pipe.
                    wake();
                    --engine_inflight;
                  });
  }

  /// Answer a transport-level error (oversize frame) in order without
  /// touching the engine: it occupies a sequence slot like any request.
  void submit_error(Conn& c, std::string line) SPGCMP_REQUIRES(mutex) {
    const std::uint64_t s = take_slot(c);
    c.ready.emplace(s, serve::Engine::Result{std::move(line),
                                             serve::ResponseKind::Error});
    drain_ready(c);
  }

  /// Frame and submit the complete lines in the read accumulator while
  /// the in-flight bound allows; the rest wait in rbuf (`backlog`).  At
  /// EOF a torn trailing frame is submitted as a line of its own.
  void frame(std::uint64_t conn_id, Conn& c) SPGCMP_REQUIRES(mutex) {
    c.backlog = false;
    std::size_t start = 0;
    while (true) {
      const auto nl = c.rbuf.find('\n', start);
      if (nl == std::string::npos) break;
      if (!can_submit(c)) {
        c.backlog = true;
        break;
      }
      if (c.discarding) {
        c.discarding = false;  // oversize frame ends here; resync
      } else if (nl > start) {
        submit_line(conn_id, c, c.rbuf.substr(start, nl - start));
      }
      start = nl + 1;
    }
    c.rbuf.erase(0, start);
    if (c.backlog) return;
    if (!c.discarding && opt.max_frame_bytes != 0 &&
        c.rbuf.size() > opt.max_frame_bytes) {
      submit_error(c, serve::render_error(
                          "null", 2,
                          "request line exceeds " +
                              std::to_string(opt.max_frame_bytes) + " bytes"));
      c.rbuf.clear();
      c.discarding = true;
    }
    if (c.read_closed && !c.rbuf.empty()) {
      if (!can_submit(c)) {
        c.backlog = true;
        return;
      }
      if (!c.discarding) submit_line(conn_id, c, c.rbuf);
      c.rbuf.clear();
      c.discarding = false;
    }
  }

  /// Write what the connection's peer accepts without blocking: a
  /// (nonblocking) socket until it would block; a stream at most PIPE_BUF
  /// bytes at a time, while a zero-timeout poll reports it writable.
  /// Returns false when the peer is gone.
  bool flush(Conn& c) SPGCMP_REQUIRES(mutex) {
    while (!c.wbuf.empty()) {
      if (!c.socket && !writable_now(c.out_fd)) return true;
      const ssize_t n =
          c.socket ? ::send(c.out_fd, c.wbuf.data(), c.wbuf.size(), MSG_NOSIGNAL)
                   : ::write(c.out_fd, c.wbuf.data(),
                             std::min<std::size_t>(c.wbuf.size(), PIPE_BUF));
      if (n > 0) {
        wrote(c, static_cast<std::size_t>(n));
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      // EAGAIN: the socket is full, retry once poll says so.  Anything
      // else (EPIPE, ECONNRESET): the peer disconnected without reading
      // its answers.
      return n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
    }
    return true;
  }
};

}  // namespace

SocketServer::SocketServer(serve::Engine& engine, SocketServerOptions opt,
                           Listener* listener, int in_fd, int out_fd,
                           bool log_stream)
    : engine_(engine),
      opt_(opt),
      listener_(listener),
      in_fd_(in_fd),
      out_fd_(out_fd),
      log_stream_(log_stream) {}

SocketSummary SocketServer::run(const std::atomic<bool>* stop,
                                const std::function<void()>& on_wake) {
  static auto& m_conns = obs::Registry::instance().counter("net.connections");
  static auto& m_refused =
      obs::Registry::instance().counter("net.refused_connections");
  static auto& m_idle = obs::Registry::instance().counter("net.idle_closed");

  // Self-pipe: engine completions run on pool workers; a byte here wakes
  // the poll loop to flush freshly completed responses.
  int wake[2] = {-1, -1};
  if (::pipe(wake) != 0) throw NetError("cannot create self-pipe");
  set_nonblocking(wake[0]);
  set_nonblocking(wake[1]);

  Loop loop{engine_, opt_, stop, wake[1]};
  if (in_fd_ >= 0) {
    auto conn = std::make_unique<Conn>();
    conn->in_fd = in_fd_;
    conn->out_fd = out_fd_;
    conn->socket = false;
    conn->log_lines = log_stream_;
    const util::MutexLock lk(loop.mutex);
    loop.add(std::move(conn));
  }
  bool draining = false;

  std::vector<pollfd> fds;
  char buf[1 << 16];

  while (true) {
    const bool stopping =
        stop != nullptr && stop->load(std::memory_order_relaxed);
    if (stopping && !draining) {
      draining = true;
      // Reading stops here: partial and held-back frames are abandoned,
      // exactly like input unread past the signal.  In-flight requests
      // drain through the engine (code-3 refusals for fresh solves).
      const util::MutexLock lk(loop.mutex);
      for (auto& [id, c] : loop.conns) {
        c->read_closed = true;
        c->backlog = false;
        c->rbuf.clear();
      }
    }
    const bool listening = listener_ != nullptr && !draining;

    // Build the poll set and find the nearest idle deadline.
    fds.clear();
    fds.push_back({wake[0], POLLIN, 0});
    if (listening) fds.push_back({listener_->fd(), POLLIN, 0});
    int timeout = kPollIntervalMs;
    {
      const util::MutexLock lk(loop.mutex);
      const auto now = Clock::now();
      for (auto it = loop.conns.begin(); it != loop.conns.end();) {
        const auto id = it->first;
        Conn* c = it->second.get();
        if (c->backlog && loop.can_submit(*c)) loop.frame(id, *c);
        if (draining && !c->wbuf.empty() &&
            ms_between(c->last_activity, now) >= kDrainStallMs) {
          c->dead = true;  // its peer stopped reading; drop it
        }
        if (c->dead ||
            (c->read_closed && c->rbuf.empty() && c->inflight == 0)) {
          it = loop.remove(it);  // dead, or drained: every answer written
          continue;
        }
        ++it;
        c->read_entry = c->write_entry = kNoEntry;
        if (!c->read_closed && !c->backlog && loop.can_submit(*c)) {
          c->read_entry = fds.size();
          fds.push_back({c->in_fd, POLLIN, 0});
        }
        if (!c->wbuf.empty()) {
          c->write_entry = fds.size();
          fds.push_back({c->out_fd, POLLOUT, 0});
        }
        if (c->socket && opt_.idle_timeout_ms > 0 && !c->read_closed) {
          const int left =
              opt_.idle_timeout_ms - ms_between(c->last_activity, now);
          timeout = std::min(timeout, std::max(left, 0));
        }
      }
      if (!listening && loop.conns.empty() && loop.engine_inflight == 0) break;
    }

    const int rc = ::poll(fds.data(), static_cast<nfds_t>(fds.size()), timeout);
    if (rc < 0 && errno != EINTR) {
      throw NetError(std::string("poll failed: ") + std::strerror(errno));
    }
    if (on_wake) on_wake();

    // Drain the wakeup pipe.
    if (rc > 0 && (fds[0].revents & POLLIN) != 0) {
      while (::read(wake[0], buf, sizeof buf) > 0) {
      }
    }

    // Accept new connections (fds[1] is the listener while listening).
    if (listening && rc > 0 && (fds[1].revents & POLLIN) != 0) {
      while (true) {
        const int cfd = listener_->accept_one();
        if (cfd < 0) break;
        bool refused = false;
        {
          const util::MutexLock lk(loop.mutex);
          if (opt_.max_connections != 0 &&
              loop.sockets >= opt_.max_connections) {
            ++loop.summary.refused_connections;
            refused = true;
          } else {
            set_nonblocking(cfd);
            auto conn = std::make_unique<Conn>();
            conn->in_fd = conn->out_fd = cfd;
            loop.add(std::move(conn));
            ++loop.summary.connections;
          }
        }
        if (refused) {
          // In-band refusal: the same code-3 class as the drain refusal,
          // so clients can tell "busy" from a protocol mistake.
          const std::string line =
              serve::render_error("null", 3,
                                  "server at connection capacity (" +
                                      std::to_string(opt_.max_connections) +
                                      "); retry later") +
              "\n";
          [[maybe_unused]] const ssize_t wr =
              ::send(cfd, line.data(), line.size(), MSG_NOSIGNAL);
          ::close(cfd);
          m_refused.inc();
          continue;
        }
        m_conns.inc();
        open_sockets_gauge().add(1);
      }
    }

    // Per-connection I/O; dead and drained connections go next cycle.
    {
      const util::MutexLock lk(loop.mutex);
      for (auto& [id, cp] : loop.conns) {
        Conn& c = *cp;
        short rev = 0;
        short wev = 0;
        if (rc > 0 && c.read_entry != kNoEntry) rev = fds[c.read_entry].revents;
        if (rc > 0 && c.write_entry != kNoEntry) wev = fds[c.write_entry].revents;
        if (((rev | wev) & POLLNVAL) != 0) c.dead = true;

        if (!c.dead && (rev & (POLLIN | POLLHUP | POLLERR)) != 0) {
          // One read per readiness report: a stream fd is blocking, and
          // poll only promised that this first read returns at once.
          const ssize_t n = ::read(c.in_fd, buf, sizeof buf);
          if (n > 0) {
            c.rbuf.append(buf, static_cast<std::size_t>(n));
            c.last_activity = Clock::now();
            // Frame per chunk so an endless unterminated blast hits the
            // oversize answer instead of growing the accumulator.
            loop.frame(id, c);
          } else if (n == 0 || (errno != EINTR && errno != EAGAIN &&
                                errno != EWOULDBLOCK)) {
            // EOF, or a read error a later write will confirm.
            c.read_closed = true;
            loop.frame(id, c);
          }
        }

        // Write what the peer takes now: what a completion left behind,
        // and in-band errors answered by this cycle's framing.
        if (!c.dead && !loop.flush(c)) {
          c.dead = true;  // still-solving requests find it gone, discarded
        }

        if (!c.dead && c.socket && opt_.idle_timeout_ms > 0 &&
            !c.read_closed && c.inflight == 0 &&
            ms_between(c.last_activity, Clock::now()) >= opt_.idle_timeout_ms) {
          ++loop.summary.idle_closed;
          m_idle.inc();
          c.dead = true;
        }
      }
    }
  }
  ::close(wake[0]);
  ::close(wake[1]);

  const util::MutexLock lk(loop.mutex);
  SocketSummary summary = loop.summary;
  summary.serve.interrupted =
      stop != nullptr && stop->load(std::memory_order_relaxed);
  summary.serve.cache = engine_.cache().stats();
  return summary;
}

serve::ServerSummary replay_log(serve::Engine& engine, const std::string& path,
                                const SocketServerOptions& opt) {
  struct Fd {
    int fd;
    ~Fd() {
      if (fd >= 0) ::close(fd);
    }
  };
  const Fd in{::open(path.c_str(), O_RDONLY | O_CLOEXEC)};
  if (in.fd < 0) throw std::runtime_error("cannot open request log " + path);
  const Fd out{::open("/dev/null", O_WRONLY | O_CLOEXEC)};
  if (out.fd < 0) throw std::runtime_error("cannot open /dev/null");
  SocketServer loop(engine, opt, nullptr, in.fd, out.fd, /*log_stream=*/false);
  return loop.run(nullptr).serve;
}

}  // namespace spgcmp::net

#endif  // !_WIN32
