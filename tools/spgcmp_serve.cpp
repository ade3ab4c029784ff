// spgcmp_serve — memoizing mapping-as-a-service daemon.
//
//   spgcmp_serve [--in=PATH] [--listen=ADDR] [--threads=N] [--cache=N]
//                [--max-inflight=N] [--log=FILE] [--replay=FILE]
//                [--max-conns=N] [--idle-timeout-ms=N] [--max-frame-bytes=N]
//                [--list-solvers] [--trace=FILE] [--metrics=FILE]
//                [--stats-out=FILE]
//
// Reads newline-delimited JSON solve requests (see src/serve/protocol.hpp
// for the schema) from --in (a file or FIFO) or stdin, and writes one JSON
// response per request to stdout, in request order.  Solves are batched
// onto a thread pool and memoized by canonical problem key: a repeated or
// re-seeded-identical request answers with "cache": "hit", zero evaluator
// calls, and a report payload byte-identical to the cold solve.
//
// --listen=ADDR (POSIX only) additionally serves the same protocol over a
// socket — a Unix-domain path (contains '/' or no ':') or HOST:PORT TCP
// endpoint.  One poll loop on the main thread (net::SocketServer) serves
// every connection: the stdin/--in stream is one more connection next to
// the sockets, with the same framing, ordering, backpressure and drain.
// All connections share one cache, request log and coalescing order, so
// a hit is byte-identical whichever door the request came through.  Per
// connection, responses leave in that connection's request order.
// --listen may coexist with --in; with --listen alone stdin is left
// untouched, and with a listener the daemon runs until SIGINT/SIGTERM
// even after the stream's EOF.  Without --listen a FIFO --in is opened
// before serving starts (the open waits for a writer); with --listen it
// is opened without waiting, so sockets are served while the FIFO still
// has no writer.  --max-conns caps concurrent socket connections (excess
// ones are answered with one code-3 error line and closed),
// --idle-timeout-ms closes idle socket connections, --max-frame-bytes
// bounds a request line on every connection (oversized frames answer
// code 2 and the connection resyncs at the next newline), and
// --max-inflight bounds both the requests being solved, over all
// connections, and per connection the requests accepted but not yet
// written (default 4x the pool size).
//
// --log=FILE appends every accepted request line verbatim to an
// append-only JSONL log; --replay=FILE feeds such a log back through the
// same loop before serving, rebuilding the memo cache after a restart.
// With --replay and no explicit --in or --listen the daemon exits after
// the replay.
//
// SIGINT/SIGTERM stop the intake and drain: running solves finish and
// answer normally, queued requests answer from the cache when possible
// and are otherwise refused with a code-3 error.  A reader that closes
// stdout early (`spgcmp_serve < reqs | head -n 1`) is treated like a
// socket client that disconnected: SIGPIPE is ignored, the stream is
// dropped at its first failed write, its unanswered requests are
// discarded, and the daemon prints its summary and writes --stats-out as
// at EOF.  Exit codes: 0 = EOF reached (also after such an early close),
// 3 = stopped by a signal (after the drain), 2 = usage or configuration
// error, 1 = internal error.  Per-request failures are answered in-band
// and do not affect the exit code.
//
// Observability: --trace=FILE records a Chrome trace-event timeline,
// --metrics=FILE writes the metrics-registry snapshot at exit, and
// --stats-out=FILE atomically (tmp+fsync+rename) writes a final
// summary/cache/metrics document on both the clean-EOF and signal-drain
// exits.  A live snapshot is available in-band via a `{"stats":true}`
// request line, and SIGUSR1 dumps the metrics snapshot to stderr without
// disturbing the daemon.

#ifndef _WIN32

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>

#include <fcntl.h>
#include <unistd.h>

#include "net/net.hpp"
#include "net/socket_server.hpp"
#include "obs/obs.hpp"
#include "serve/engine.hpp"
#include "tool_common.hpp"
#include "util/cli.hpp"
#include "util/stop_signal.hpp"

namespace {

using namespace spgcmp;

/// SIGUSR1 requests a live metrics dump to stderr.  No SA_RESTART, so the
/// signal interrupts the loop's poll and the dump happens at once.
std::atomic<bool> g_usr1{false};

void on_usr1(int) { g_usr1.store(true, std::memory_order_relaxed); }

void install_usr1_handler() {
  struct sigaction sa = {};
  sa.sa_handler = on_usr1;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;
  sigaction(SIGUSR1, &sa, nullptr);
}

void maybe_dump_metrics() {
  if (!g_usr1.exchange(false, std::memory_order_relaxed)) return;
  std::fputs((obs::Registry::instance().snapshot_json(-1) + "\n").c_str(),
             stderr);
}

/// Open a request input, retrying the (FIFO-blocking) open on EINTR until
/// the stop flag is raised.  Returns -1 when stopped before a writer
/// appeared.  `wait_for_writer = false` opens a FIFO at once (O_NONBLOCK;
/// the loop then waits for the writer's data in poll).
int open_request_input(const std::string& path, const std::atomic<bool>& stop,
                       bool wait_for_writer) {
  const int flags = O_RDONLY | O_CLOEXEC | (wait_for_writer ? 0 : O_NONBLOCK);
  for (;;) {
    const int fd = ::open(path.c_str(), flags);
    if (fd >= 0) return fd;
    if (errno == EINTR) {
      if (stop.load(std::memory_order_relaxed)) return -1;
      continue;
    }
    throw std::runtime_error("cannot open request input " + path + ": " +
                             std::strerror(errno));
  }
}

void print_summary(const char* what, const serve::ServerSummary& s) {
  std::fprintf(stderr,
               "[serve] %s: %llu accepted, %llu answered (%llu ok, %llu from "
               "cache, %llu errors, %llu refused); cache %llu/%llu hit/miss, "
               "%llu evicted, %zu/%zu entries\n",
               what, static_cast<unsigned long long>(s.accepted),
               static_cast<unsigned long long>(s.answered),
               static_cast<unsigned long long>(s.ok),
               static_cast<unsigned long long>(s.hits),
               static_cast<unsigned long long>(s.errors),
               static_cast<unsigned long long>(s.shutdown_refused),
               static_cast<unsigned long long>(s.cache.hits),
               static_cast<unsigned long long>(s.cache.misses),
               static_cast<unsigned long long>(s.cache.evictions),
               s.cache.size, s.cache.capacity);
}

int serve_main(const util::Args& args) {
  const auto obs_files = obs::ScopedFiles::from_args(args);
  serve::EngineOptions eopt;
  eopt.threads =
      static_cast<std::size_t>(args.get_int("threads", "REPRO_THREADS", 0));
  eopt.cache_capacity =
      static_cast<std::size_t>(args.get_int("cache", "", 1024));
  eopt.log_path = args.get_string("log", "", "");
  serve::Engine engine(eopt);

  net::SocketServerOptions sopt;
  sopt.max_connections =
      static_cast<std::size_t>(args.get_int("max-conns", "", 64));
  sopt.max_inflight =
      static_cast<std::size_t>(args.get_int("max-inflight", "", 0));
  sopt.max_frame_bytes =
      static_cast<std::size_t>(args.get_int("max-frame-bytes", "", 1 << 20));
  sopt.idle_timeout_ms = static_cast<int>(args.get_int("idle-timeout-ms", "", 0));

  util::install_stop_handlers();
  install_usr1_handler();
  // A reader that closes stdout is a client that disconnected: its
  // writes fail with EPIPE and the loop drops the stream.
  std::signal(SIGPIPE, SIG_IGN);
  const std::atomic<bool>& stop = util::stop_flag();

  // Final summary/cache/metrics/deltas snapshot, installed durably at
  // exit on both the clean-EOF and the signal-drain paths.  Same document
  // shape as the in-band {"stats":true} answer and the
  // spgcmp_serve_client --stats scrape.
  const std::string stats_out = args.get_string("stats-out", "", "");
  const auto write_stats = [&](const serve::ServerSummary& s) {
    if (stats_out.empty()) return;
    obs::write_text_file_durable(
        stats_out,
        serve::render_stats_document(s, obs::Registry::instance().snapshot_json(-1),
                                     engine.deltas().sample(), -1) +
            "\n");
  };

  const std::string replay = args.get_string("replay", "", "");
  if (!replay.empty()) {
    print_summary("replayed", net::replay_log(engine, replay, sopt));
  }

  const std::string listen = args.get_string("listen", "", "");
  const std::string in_path = args.get_string("in", "", "");
  if (listen.empty() && in_path.empty() && !replay.empty()) {
    write_stats(serve::ServerSummary{});  // replay-only run
    return 0;
  }

  std::optional<net::Listener> listener;
  if (!listen.empty()) {
    listener.emplace(net::parse_address(listen));
    std::fprintf(stderr, "[serve] listening on %s\n",
                 listener->address().to_string().c_str());
  }

  // A FIFO blocks open() until a writer appears; opened fresh here so the
  // daemon can be started before its first client.  Stopped before one
  // appeared, the loop starts draining with nothing to drain.  With a
  // listener the open must not wait: sockets are served meanwhile.
  int in_fd = -1;
  if (!in_path.empty()) {
    in_fd = open_request_input(in_path, stop, /*wait_for_writer=*/!listener);
  } else if (listen.empty()) {
    in_fd = STDIN_FILENO;
  }
  net::SocketServer loop(engine, sopt, listener ? &*listener : nullptr, in_fd,
                         in_fd >= 0 ? STDOUT_FILENO : -1);
  const net::SocketSummary summary = loop.run(&stop, maybe_dump_metrics);
  if (!in_path.empty() && in_fd >= 0) ::close(in_fd);
  if (listener) {
    std::fprintf(stderr,
                 "[serve] socket: %llu connections (%llu refused, %llu "
                 "idle-closed)\n",
                 static_cast<unsigned long long>(summary.connections),
                 static_cast<unsigned long long>(summary.refused_connections),
                 static_cast<unsigned long long>(summary.idle_closed));
  }
  print_summary("served", summary.serve);
  write_stats(summary.serve);
  return summary.serve.interrupted ? 3 : 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: spgcmp_serve [--in=PATH] [--listen=ADDR] [--threads=N]\n"
               "                    [--cache=N] [--max-inflight=N] [--log=FILE]\n"
               "                    [--replay=FILE] [--max-conns=N]\n"
               "                    [--idle-timeout-ms=N] [--max-frame-bytes=N]\n"
               "                    [--trace=FILE] [--metrics=FILE] [--stats-out=FILE]\n"
               "  --listen serves the protocol over a Unix socket PATH or a\n"
               "  HOST:PORT TCP endpoint (may coexist with --in)\n"
               "  --list-solvers lists the solver registry\n"
               "  --trace/--metrics record a Chrome trace / metrics snapshot;\n"
               "  --stats-out writes a final summary+cache+metrics+deltas document;\n"
               "  a {\"stats\":true} request answers live stats in-band and\n"
               "  SIGUSR1 dumps the metrics snapshot to stderr\n"
               "see the header of tools/spgcmp_serve.cpp for the protocol\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  if (args.has("help")) return usage();
  return tools::run_tool("spgcmp_serve", [&]() -> int {
    if (tools::handle_list_solvers(args)) return 0;
    try {
      return serve_main(args);
    } catch (const net::NetError& e) {
      // Bad --listen address or an unbindable endpoint is a configuration
      // mistake, same exit class as a bad solver spec.
      std::fprintf(stderr, "spgcmp_serve: %s\n", e.what());
      return 2;
    }
  });
}

#else  // _WIN32

#include <cstdio>

int main() {
  std::fprintf(stderr, "spgcmp_serve: not supported on this platform\n");
  return 2;
}

#endif  // !_WIN32
