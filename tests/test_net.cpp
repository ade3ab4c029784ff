// Tests for the daemon's poll loop: address parsing, concurrent socket
// clients with per-connection response ordering and a shared cache, a
// stream connection and a socket sharing one loop, sockets served while a
// FIFO stream has no writer yet, oversized and torn frames answered
// in-band with code 2 through every door, mid-request disconnects that
// must not wedge the daemon, a client that stops reading holding back
// only its own connection, the connection cap's code-3 refusal, idle
// timeouts, the stats scrape document, the serve.inflight gauge, and the
// drain-on-stop contract (every accepted request answered, connections
// closed, run() returns interrupted — within a bound even when one peer
// never reads).

#include <gtest/gtest.h>

#ifndef _WIN32

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <future>
#include <initializer_list>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>

#include "net/net.hpp"
#include "net/socket_server.hpp"
#include "obs/metrics.hpp"
#include "serve/engine.hpp"
#include "util/json.hpp"

namespace {

using namespace spgcmp;
namespace fs = std::filesystem;

/// A generator-form request for a small solvable instance (mirrors
/// test_serve.cpp's shared instance).
std::string gen_request(int id, std::uint64_t seed,
                        const std::string& solver = "greedy") {
  std::ostringstream os;
  util::JsonWriter w(os, /*indent=*/-1);
  w.begin_object();
  w.kv("id", static_cast<std::int64_t>(id));
  w.key("generator");
  w.begin_object();
  w.kv("n", static_cast<std::int64_t>(12));
  w.kv("ymax", static_cast<std::int64_t>(3));
  w.kv("seed", static_cast<std::int64_t>(seed));
  w.kv("ccr", 1.0);
  w.end_object();
  w.key("topology");
  w.begin_object();
  w.kv("rows", 3);
  w.kv("cols", 3);
  w.end_object();
  w.kv("solver", solver);
  w.kv("period", 1.0);
  w.end_object();
  return os.str();
}

/// The raw "report":{...} tail of a response (byte-identity checks).
std::string report_tail(const std::string& line) {
  const auto pos = line.find("\"report\":");
  EXPECT_NE(pos, std::string::npos) << line;
  return pos == std::string::npos ? std::string() : line.substr(pos);
}

/// The ways a request reaches the loop: an accepted socket, or the
/// stdin/--in byte stream — a pipe, or a FIFO handed to the loop before
/// any writer opened it (spgcmp_serve --in=FIFO --listen).
enum class Door { Socket, Stream, Fifo };

std::string door_name(const ::testing::TestParamInfo<Door>& info) {
  switch (info.param) {
    case Door::Socket: return "Socket";
    case Door::Stream: return "Stream";
    case Door::Fifo: return "Fifo";
  }
  return "";
}

/// A blocking line-framed client over a write fd and a read fd (one
/// socket, or the far ends of a stream's two pipes).  Reads time out
/// after 30 s, so a wedged daemon fails the test instead of hanging it.
class Client {
 public:
  explicit Client(const std::string& path)
      : wfd_(net::connect_to(net::parse_address(path))), rfd_(wfd_) {}
  Client(int wfd, int rfd) : wfd_(wfd), rfd_(rfd) {}
  ~Client() { close_now(); }

  void send(const std::string& text) {
    std::size_t off = 0;
    while (off < text.size()) {
      const ssize_t n =
          socket() ? ::send(wfd_, text.data() + off, text.size() - off,
                            MSG_NOSIGNAL)
                   : ::write(wfd_, text.data() + off, text.size() - off);
      if (n < 0 && errno == EINTR) continue;
      ASSERT_GT(n, 0) << "send failed: " << std::strerror(errno);
      off += static_cast<std::size_t>(n);
    }
  }

  /// Half-close: the daemon reads EOF, answers stay readable.
  void shutdown_write() {
    if (socket()) {
      ::shutdown(wfd_, SHUT_WR);
    } else if (wfd_ >= 0) {
      ::close(wfd_);
      wfd_ = -1;
    }
  }

  /// Next response line, or nullopt on EOF/timeout.
  std::optional<std::string> recv_line() {
    while (true) {
      const auto nl = buf_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return line;
      }
      pollfd p{rfd_, POLLIN, 0};
      const int rc = ::poll(&p, 1, 30000);
      if (rc < 0 && errno == EINTR) continue;
      if (rc <= 0) return std::nullopt;
      char tmp[4096];
      const ssize_t n = ::read(rfd_, tmp, sizeof tmp);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return std::nullopt;
      buf_.append(tmp, static_cast<std::size_t>(n));
    }
  }

  void close_now() {
    if (wfd_ >= 0) ::close(wfd_);
    if (rfd_ >= 0 && rfd_ != wfd_) ::close(rfd_);
    wfd_ = rfd_ = -1;
  }

 private:
  [[nodiscard]] bool socket() const { return rfd_ == wfd_; }

  int wfd_ = -1;
  int rfd_ = -1;
  std::string buf_;
};

/// A serve daemon's poll loop on a background thread, with the doors
/// asked for: a listener on a fresh Unix socket, and/or one stream
/// connection reading a pipe or a writerless FIFO and writing a pipe.
/// finish() ends the loop and hands back what it did.
class SocketDaemon {
 public:
  explicit SocketDaemon(net::SocketServerOptions opt = {},
                        std::size_t threads = 2,
                        std::initializer_list<Door> doors = {Door::Socket})
      : path_((fs::temp_directory_path() /
               ("spgcmp_net_" + std::to_string(::getpid()) + "_" +
                std::to_string(next_id_++) + ".sock"))
                  .string()),
        engine_(serve::EngineOptions{threads, /*cache_capacity=*/1024,
                                     /*log_path=*/{}}) {
    // A stream client that stops reading must surface as EPIPE, as in
    // spgcmp_serve, not kill the test binary.
    std::signal(SIGPIPE, SIG_IGN);
    for (const Door d : doors) {
      if (d == Door::Socket) listener_.emplace(net::parse_address(path_));
      if (d == Door::Stream) {
        EXPECT_EQ(::pipe(in_), 0);
      }
      if (d == Door::Fifo) {
        fifo_ = path_ + ".fifo";
        EXPECT_EQ(::mkfifo(fifo_.c_str(), 0600), 0);
        // Like spgcmp_serve with --listen: opened without waiting for a
        // writer, which connect(Door::Fifo) opens later.
        in_[0] = ::open(fifo_.c_str(), O_RDONLY | O_NONBLOCK | O_CLOEXEC);
        EXPECT_GE(in_[0], 0);
      }
      if (d != Door::Socket) {
        EXPECT_EQ(::pipe(out_), 0);
      }
    }
    sock_.emplace(engine_, opt, listener_ ? &*listener_ : nullptr, in_[0],
                  out_[1]);
    thread_ = std::thread([this] {
      summary_ = sock_->run(&stop_);
      // Like the daemon exiting: the stream's reader sees EOF.
      if (out_[1] >= 0) ::close(out_[1]);
      out_[1] = -1;
    });
  }

  ~SocketDaemon() {
    (void)finish();
    if (in_[0] >= 0) ::close(in_[0]);
    if (!fifo_.empty()) ::unlink(fifo_.c_str());
  }

  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] serve::Engine& engine() { return engine_; }

  /// A client through `door`: a fresh socket connection, or the one
  /// stream's far ends (the client owns them; take it once).  A FIFO's
  /// write end is opened here: the FIFO's first writer.
  [[nodiscard]] std::unique_ptr<Client> connect(Door door) {
    if (door == Door::Socket) return std::make_unique<Client>(path_);
    if (door == Door::Fifo) in_[1] = ::open(fifo_.c_str(), O_WRONLY | O_CLOEXEC);
    auto c = std::make_unique<Client>(in_[1], out_[0]);
    in_[1] = out_[0] = -1;
    return c;
  }

  /// Raise the stop flag, join the loop, return its summary (idempotent).
  net::SocketSummary finish() {
    stop_.store(true, std::memory_order_relaxed);
    if (thread_.joinable()) thread_.join();
    return summary_;
  }

 private:
  static std::atomic<int> next_id_;
  std::string path_;
  serve::Engine engine_;
  std::optional<net::Listener> listener_;
  std::optional<net::SocketServer> sock_;
  std::string fifo_;       ///< the FIFO's path (Door::Fifo)
  int in_[2] = {-1, -1};   ///< stream input: loop reads [0], client writes [1]
  int out_[2] = {-1, -1};  ///< stream output: loop writes [1], client reads [0]
  std::atomic<bool> stop_{false};
  net::SocketSummary summary_;
  std::thread thread_;
};

std::atomic<int> SocketDaemon::next_id_{0};

// -------------------------------------------------------------- parsing --

TEST(NetAddress, ParsesUnixAndTcpSpellings) {
  const auto unix_abs = net::parse_address("/tmp/spgcmp.sock");
  EXPECT_EQ(unix_abs.kind, net::Address::Kind::Unix);
  EXPECT_EQ(unix_abs.path, "/tmp/spgcmp.sock");
  EXPECT_EQ(net::parse_address("serve.sock").kind, net::Address::Kind::Unix);

  const auto tcp = net::parse_address("127.0.0.1:7777");
  EXPECT_EQ(tcp.kind, net::Address::Kind::Tcp);
  EXPECT_EQ(tcp.host, "127.0.0.1");
  EXPECT_EQ(tcp.port, 7777);
  const auto any = net::parse_address(":7777");
  EXPECT_EQ(any.kind, net::Address::Kind::Tcp);
  EXPECT_TRUE(any.host.empty());

  EXPECT_THROW((void)net::parse_address(""), net::NetError);
  EXPECT_THROW((void)net::parse_address("host:"), net::NetError);
  EXPECT_THROW((void)net::parse_address("host:0"), net::NetError);
  EXPECT_THROW((void)net::parse_address("host:99999"), net::NetError);
  EXPECT_THROW((void)net::parse_address("host:80x"), net::NetError);
}

// ------------------------------------------------------------- protocol --

TEST(SocketServer, TwoClientsInterleaveInOrderAndShareTheCache) {
  SocketDaemon daemon;
  Client a(daemon.path());
  Client b(daemon.path());

  // Interleaved submissions over two connections; the same two problems
  // from each side, so the second connection's answers are cache hits.
  a.send(gen_request(1, 5) + "\n");
  b.send(gen_request(3, 5) + "\n");
  a.send(gen_request(2, 9) + "\n");
  b.send(gen_request(4, 9) + "\n");

  const auto a1 = a.recv_line(), a2 = a.recv_line();
  const auto b1 = b.recv_line(), b2 = b.recv_line();
  ASSERT_TRUE(a1 && a2 && b1 && b2);

  // Per-connection response order is request order.
  EXPECT_EQ(util::parse_json(*a1).at("id").as_number("id"), 1.0);
  EXPECT_EQ(util::parse_json(*a2).at("id").as_number("id"), 2.0);
  EXPECT_EQ(util::parse_json(*b1).at("id").as_number("id"), 3.0);
  EXPECT_EQ(util::parse_json(*b2).at("id").as_number("id"), 4.0);
  for (const auto* line : {&*a1, &*a2, &*b1, &*b2}) {
    EXPECT_EQ(util::parse_json(*line).at("status").as_string("status"), "ok");
  }

  // One cache across connections: byte-identical report payloads.
  EXPECT_EQ(report_tail(*a1), report_tail(*b1));
  EXPECT_EQ(report_tail(*a2), report_tail(*b2));
  EXPECT_NE(report_tail(*a1), report_tail(*a2));

  a.close_now();
  b.close_now();
  const auto summary = daemon.finish();
  EXPECT_EQ(summary.connections, 2u);
  EXPECT_EQ(summary.serve.accepted, 4u);
  EXPECT_EQ(summary.serve.answered, 4u);
  EXPECT_EQ(summary.serve.ok, 4u);
  EXPECT_GE(summary.serve.hits, 2u);  // b's two answers at minimum
}

TEST(SocketServer, StatsScrapeSharesTheStatsDocumentShape) {
  SocketDaemon daemon;
  Client c(daemon.path());
  c.send(gen_request(1, 5) + "\n" + R"({"id":2,"stats":true})" + "\n");
  const auto solve = c.recv_line();
  const auto stats_line = c.recv_line();
  ASSERT_TRUE(solve && stats_line);

  const auto doc = util::parse_json(*stats_line);
  EXPECT_EQ(doc.at("status").as_string("status"), "ok");
  EXPECT_EQ(doc.at("id").as_number("id"), 2.0);
  // The embedded document is the same shape --stats-out and the client
  // scrape emit: summary / cache / metrics / deltas.
  const auto& body = doc.at("stats");
  EXPECT_GE(body.at("summary").at("ok").as_number("ok"), 1.0);
  EXPECT_EQ(body.at("cache").at("misses").as_number("misses"), 1.0);
  EXPECT_NE(body.at("metrics").find("counters"), nullptr);
  EXPECT_NE(body.at("deltas").find("window_seconds"), nullptr);
}

/// The frame rules hold whichever door a request comes through.
class FrameRules : public ::testing::TestWithParam<Door> {};

TEST_P(FrameRules, OversizedFrameAnsweredCode2AndConnectionResyncs) {
  net::SocketServerOptions opt;
  opt.max_frame_bytes = 256;
  SocketDaemon daemon(opt, /*threads=*/2, {GetParam()});
  const auto client = daemon.connect(GetParam());
  Client& c = *client;

  // A 1 KiB blast with no newline: answered code 2 without waiting for
  // the newline, the over-long frame's remainder discarded.
  c.send(std::string(1024, 'x'));
  const auto err = c.recv_line();
  ASSERT_TRUE(err.has_value());
  const auto doc = util::parse_json(*err);
  EXPECT_EQ(doc.at("status").as_string("status"), "error");
  EXPECT_EQ(doc.at("code").as_number("code"), 2.0);
  EXPECT_NE(doc.at("error").as_string("error").find("exceeds 256 bytes"),
            std::string::npos);

  // The newline ends the oversize frame; the connection resyncs and the
  // next request is served normally.
  c.send("\n" + gen_request(7, 5) + "\n");
  const auto ok = c.recv_line();
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(util::parse_json(*ok).at("status").as_string("status"), "ok");
  EXPECT_EQ(util::parse_json(*ok).at("id").as_number("id"), 7.0);
}

TEST_P(FrameRules, TornFinalFrameAnsweredCode2ThenEof) {
  SocketDaemon daemon({}, /*threads=*/2, {GetParam()});
  const auto client = daemon.connect(GetParam());
  Client& c = *client;
  // Input ends mid-line: the torn frame is processed like any other
  // line — malformed JSON, code 2.
  c.send(R"({"solver": "greedy", "per)");
  c.shutdown_write();
  const auto err = c.recv_line();
  ASSERT_TRUE(err.has_value());
  const auto doc = util::parse_json(*err);
  EXPECT_EQ(doc.at("status").as_string("status"), "error");
  EXPECT_EQ(doc.at("code").as_number("code"), 2.0);
  // The drained connection is closed from the server side.
  EXPECT_FALSE(c.recv_line().has_value());
}

INSTANTIATE_TEST_SUITE_P(Doors, FrameRules,
                         ::testing::Values(Door::Socket, Door::Stream,
                                           Door::Fifo),
                         door_name);

TEST(SocketServer, StreamAndSocketShareOneLoopAndOneCache) {
  SocketDaemon daemon({}, /*threads=*/2, {Door::Socket, Door::Stream});
  const auto stream = daemon.connect(Door::Stream);
  const auto sock = daemon.connect(Door::Socket);

  // The same request through both doors: one cold solve, one free hit
  // with the byte-identical report.
  stream->send(gen_request(1, 5) + "\n");
  const auto cold = stream->recv_line();
  sock->send(gen_request(2, 5) + "\n");
  const auto hit = sock->recv_line();
  ASSERT_TRUE(cold && hit);
  EXPECT_EQ(util::parse_json(*cold).at("cache").as_string("cache"), "miss");
  EXPECT_EQ(util::parse_json(*hit).at("cache").as_string("cache"), "hit");
  EXPECT_EQ(util::parse_json(*hit).at("request_evals").as_number("evals"), 0.0);
  EXPECT_EQ(report_tail(*cold), report_tail(*hit));

  // The stream's EOF leaves the listener serving.
  stream->shutdown_write();
  sock->send(gen_request(3, 9) + "\n");
  const auto later = sock->recv_line();
  ASSERT_TRUE(later.has_value());
  EXPECT_EQ(util::parse_json(*later).at("status").as_string("status"), "ok");

  sock->close_now();
  const auto summary = daemon.finish();
  EXPECT_EQ(summary.connections, 1u);  // the stream is not an accepted socket
  EXPECT_EQ(summary.serve.accepted, 3u);
  EXPECT_EQ(summary.serve.answered, 3u);
  EXPECT_EQ(summary.serve.hits, 1u);
  EXPECT_EQ(summary.serve.cache.misses, 2u);
}

TEST(SocketServer, SocketAnsweredWhileTheFifoHasNoWriter) {
  SocketDaemon daemon({}, /*threads=*/2, {Door::Socket, Door::Fifo});
  Client sock(daemon.path());
  sock.send(gen_request(1, 5) + "\n");
  const auto cold = sock.recv_line();  // no FIFO writer has appeared yet
  ASSERT_TRUE(cold.has_value());
  EXPECT_EQ(util::parse_json(*cold).at("cache").as_string("cache"), "miss");

  // The FIFO's first writer is then served as usual, from the same cache,
  // and its close ends the stream.
  const auto fifo = daemon.connect(Door::Fifo);
  fifo->send(gen_request(2, 5) + "\n");
  const auto hit = fifo->recv_line();
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(util::parse_json(*hit).at("cache").as_string("cache"), "hit");
  EXPECT_EQ(report_tail(*cold), report_tail(*hit));
  fifo->shutdown_write();

  sock.close_now();
  const auto summary = daemon.finish();
  EXPECT_EQ(summary.serve.accepted, 2u);
  EXPECT_EQ(summary.serve.answered, 2u);
}

TEST(SocketServer, StalledReaderHoldsBackOnlyItsOwnConnection) {
  net::SocketServerOptions opt;
  opt.max_inflight = 2;
  SocketDaemon daemon(opt, /*threads=*/2);

  Client warm(daemon.path());
  warm.send(gen_request(1, 5) + "\n");
  ASSERT_TRUE(warm.recv_line().has_value());  // the problem is now cached

  // A client that pipelines cache hits and never reads: once its answers
  // fill the socket buffers and its unwritten cap, the daemon stops
  // reading it, and its sends stop going through.
  const int stalled = net::connect_to(net::parse_address(daemon.path()));
  // Closed on every exit, so the daemon's drain can drop the connection.
  const std::unique_ptr<const int, void (*)(const int*)> closer(
      &stalled, [](const int* fd) { ::close(*fd); });
  std::string burst;
  for (int i = 0; i < 64; ++i) burst += gen_request(2, 5) + "\n";
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  bool jammed = false;
  while (!jammed && std::chrono::steady_clock::now() < deadline) {
    const ssize_t n =
        ::send(stalled, burst.data(), burst.size(), MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n >= 0 || errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
      pollfd p{stalled, POLLOUT, 0};
      jammed = ::poll(&p, 1, 500) == 0;  // no room for half a second
    } else {
      FAIL() << "send failed: " << std::strerror(errno);
    }
  }
  ASSERT_TRUE(jammed);

  // Every other connection is still read and answered.
  Client other(daemon.path());
  other.send(gen_request(3, 5) + "\n");
  const auto ok = other.recv_line();
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(util::parse_json(*ok).at("status").as_string("status"), "ok");
  EXPECT_EQ(util::parse_json(*ok).at("id").as_number("id"), 3.0);

  other.close_now();
  warm.close_now();
}

TEST(SocketServer, DrainDropsAPeerThatNeverReads) {
  const obs::Gauge& gauge = obs::Registry::instance().gauge("serve.inflight");
  net::SocketServerOptions opt;
  opt.max_inflight = 4;
  SocketDaemon daemon(opt, /*threads=*/1);

  Client warm(daemon.path());
  warm.send(gen_request(1, 5) + "\n");
  ASSERT_TRUE(warm.recv_line().has_value());  // the problem is now cached

  // A client that pipelines cache hits and never reads, until its answers
  // fill the socket buffers and the daemon holds unwritten bytes for it.
  const int stalled = net::connect_to(net::parse_address(daemon.path()));
  const std::unique_ptr<const int, void (*)(const int*)> closer(
      &stalled, [](const int* fd) { ::close(*fd); });
  std::string burst;
  for (int i = 0; i < 64; ++i) burst += gen_request(2, 5) + "\n";
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  bool jammed = false;
  while (!jammed && std::chrono::steady_clock::now() < deadline) {
    const ssize_t n =
        ::send(stalled, burst.data(), burst.size(), MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n >= 0 || errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
      pollfd p{stalled, POLLOUT, 0};
      jammed = ::poll(&p, 1, 500) == 0;  // no room for half a second
    } else {
      FAIL() << "send failed: " << std::strerror(errno);
    }
  }
  ASSERT_TRUE(jammed);

  // Hold the engine's only worker, so a second client's requests are
  // accepted but still unanswered when the stop flag rises.
  std::promise<void> holding;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  daemon.engine().submit(R"({"stats":true})", /*log_line=*/false, nullptr,
                         [&holding, released](serve::Engine::Result) {
                           holding.set_value();
                           released.wait();
                         });
  holding.get_future().wait();
  const std::int64_t before = gauge.value();
  Client other(daemon.path());
  other.send(gen_request(3, 5) + "\n" + gen_request(4, 5) + "\n" +
             gen_request(5, 5) + "\n");
  while (gauge.value() < before + 3 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(gauge.value(), before + 3);  // all three accepted

  const auto t0 = std::chrono::steady_clock::now();
  auto finished = std::async(std::launch::async, [&daemon] { return daemon.finish(); });
  release.set_value();
  if (finished.wait_for(std::chrono::seconds(10)) != std::future_status::ready) {
    ::shutdown(stalled, SHUT_RDWR);  // unwedge the loop so the test can end
    FAIL() << "the drain waited on a peer that never reads";
  }
  const auto summary = finished.get();
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(5));
  EXPECT_TRUE(summary.serve.interrupted);

  // The other connection got every answer (cache hits), then EOF.
  std::size_t lines = 0;
  while (const auto line = other.recv_line()) {
    ++lines;
    EXPECT_EQ(util::parse_json(*line).at("status").as_string("status"), "ok");
  }
  EXPECT_EQ(lines, 3u);
  EXPECT_EQ(gauge.value(), 0);
}

TEST(SocketServer, InflightGaugeCountsASlowRequestUntilWritten) {
  const obs::Gauge& gauge = obs::Registry::instance().gauge("serve.inflight");
  SocketDaemon daemon({}, /*threads=*/1);

  // Hold the engine's only worker, so the socket request queues behind it.
  std::promise<void> holding;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  daemon.engine().submit(R"({"stats":true})", /*log_line=*/false, nullptr,
                         [&holding, released](serve::Engine::Result) {
                           holding.set_value();
                           released.wait();
                         });
  holding.get_future().wait();

  Client c(daemon.path());
  c.send(gen_request(1, 5) + "\n");
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (gauge.value() < 1 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(gauge.value(), 1);  // accepted, not yet written
  release.set_value();

  const auto ok = c.recv_line();
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(util::parse_json(*ok).at("status").as_string("status"), "ok");
  c.close_now();
  (void)daemon.finish();
  EXPECT_EQ(gauge.value(), 0);
}

TEST(SocketServer, DisconnectMidRequestDoesNotWedgeTheDaemon) {
  SocketDaemon daemon;
  {
    Client gone(daemon.path());
    gone.send(gen_request(1, 11) + "\n");
    gone.close_now();  // vanishes without reading its answer
  }
  // The daemon keeps serving other clients.
  Client c(daemon.path());
  c.send(gen_request(2, 5) + "\n");
  const auto ok = c.recv_line();
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(util::parse_json(*ok).at("status").as_string("status"), "ok");
  c.close_now();
  // And its drain still terminates (no stuck in-flight accounting).
  const auto summary = daemon.finish();
  EXPECT_EQ(summary.connections, 2u);
  EXPECT_EQ(summary.serve.accepted, 2u);
}

TEST(SocketServer, OverCapConnectionRefusedInBandWithCode3) {
  net::SocketServerOptions opt;
  opt.max_connections = 1;
  SocketDaemon daemon(opt);

  Client holder(daemon.path());
  holder.send(R"({"stats":true})" + std::string("\n"));
  ASSERT_TRUE(holder.recv_line().has_value());  // slot provably taken

  Client refused(daemon.path());
  const auto line = refused.recv_line();
  ASSERT_TRUE(line.has_value());
  const auto doc = util::parse_json(*line);
  EXPECT_EQ(doc.at("status").as_string("status"), "error");
  EXPECT_EQ(doc.at("code").as_number("code"), 3.0);
  EXPECT_NE(doc.at("error").as_string("error").find("connection capacity"),
            std::string::npos);
  EXPECT_FALSE(refused.recv_line().has_value());  // closed after the answer

  holder.close_now();
  const auto summary = daemon.finish();
  EXPECT_EQ(summary.connections, 1u);
  EXPECT_EQ(summary.refused_connections, 1u);
}

TEST(SocketServer, IdleConnectionsAreClosedQuietly) {
  net::SocketServerOptions opt;
  opt.idle_timeout_ms = 100;
  SocketDaemon daemon(opt);
  Client c(daemon.path());
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(c.recv_line().has_value());  // EOF, not a 30 s timeout
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(10));
  const auto summary = daemon.finish();
  EXPECT_EQ(summary.idle_closed, 1u);
}

TEST(SocketServer, DrainOnStopAnswersAcceptedRequestsThenCloses) {
  SocketDaemon daemon({}, /*threads=*/1);
  Client c(daemon.path());
  c.send(gen_request(1, 5) + "\n" + gen_request(2, 9) + "\n" +
         gen_request(3, 13) + "\n");
  // Give the loop a moment to read the burst, then pull the plug.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  const auto summary = daemon.finish();
  EXPECT_TRUE(summary.serve.interrupted);
  // The drain contract: every accepted request was answered (ok from the
  // cache/in-flight solves, or a clean code-3 refusal), never dropped.
  EXPECT_EQ(summary.serve.answered, summary.serve.accepted);

  std::size_t lines = 0;
  while (const auto line = c.recv_line()) {
    ++lines;
    const auto doc = util::parse_json(*line);
    const std::string status = doc.at("status").as_string("status");
    if (status == "error") {
      EXPECT_EQ(doc.at("code").as_number("code"), 3.0);
    } else {
      EXPECT_EQ(status, "ok");
    }
  }
  EXPECT_EQ(lines, summary.serve.answered);  // then EOF: connection closed
}

}  // namespace

#endif  // !_WIN32
