#pragma once

// The serve daemon's one transport: a poll(2) event loop carrying the
// newline-delimited JSON request protocol to a serve::Engine, over the
// sockets a net::Listener (Unix or TCP) accepts and over one optional byte
// stream — stdin/stdout, an --in file or FIFO, a request log being
// replayed.  Every connection, socket or stream, goes through the same
// framing, ordering, in-flight bound and drain code.
//
// One thread runs the loop; solves happen on the engine's pool.  Per
// connection the loop keeps a read accumulator (partial frames survive
// short reads), a write buffer (short writes survive full kernel buffers),
// and a reorder map so responses leave in that connection's request order
// — the one place a request's sequence number meets its response.  A
// completion writes what its connection's peer accepts right away, from
// the pool worker, and wakes the loop through a self-pipe for the rest.
//
// Protocol edges, all answered in-band:
//   - a frame longer than max_frame_bytes is answered with a code-2 error
//     and the connection resyncs at the next newline;
//   - a torn final frame (EOF mid-line) is processed like any other line
//     — malformed JSON answers code 2;
//   - a socket over the max_connections cap is answered with one code-3
//     error line and closed;
//   - a peer that stops reading (a closed socket, EPIPE on a stream) is
//     dropped like a disconnect: its unanswered requests are discarded;
//   - when the stop flag rises the loop stops accepting and reading,
//     queued requests drain through the engine (cache hits answer, fresh
//     solves are refused code 3), write buffers flush, and run() returns
//     with `interrupted` set.  A connection whose peer takes no byte of
//     its write buffer for a fixed bound (one second) during the drain is
//     dropped, so a client that never reads cannot hold the drain open.
//
// Backpressure, two bounds of max_inflight requests each: requests handed
// to the engine and not yet completed, summed over all connections; and,
// per connection, requests accepted but whose responses are not yet
// written out.  Past the first the loop stops reading every connection
// until a solve completes; past the second it stops reading that one
// connection until its peer takes an answer — a slow head-of-line request
// or a peer that stops reading holds back its own input, not the other
// connections', and no buffer grows without bound.  The `serve.inflight`
// gauge counts accepted-but-unwritten requests over all connections.
//
// Stream fds are used as inherited: the loop never sets O_NONBLOCK on
// them, reads once per POLLIN, and writes at most PIPE_BUF bytes at a time
// and only while a zero-timeout poll reports the fd writable, so neither
// call blocks on a pipe or a file.  A stream whose reader went away
// surfaces as EPIPE only where SIGPIPE is ignored, as spgcmp_serve does.
// A FIFO may be handed over before any writer opened it (opened with
// O_NONBLOCK): the loop waits for the writer's data and its EOF.
//
// Idle socket connections (no activity for idle_timeout_ms, nothing in
// flight) are closed quietly, so a forgotten client cannot hold a
// connection slot forever.  Streams are never idle-closed.

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>

#include "net/net.hpp"
#include "serve/engine.hpp"

namespace spgcmp::net {

#ifndef _WIN32

struct SocketServerOptions {
  std::size_t max_connections = 64;  ///< concurrent socket clients; 0 = unlimited
  /// Max requests handed to the engine and not yet completed (all
  /// connections), and max requests accepted but not yet written out (per
  /// connection); 0 = 4x the engine's pool size.
  std::size_t max_inflight = 0;
  std::size_t max_frame_bytes = 1 << 20;  ///< request line length cap
  int idle_timeout_ms = 0;  ///< close idle socket connections; 0 = never
};

struct SocketSummary {
  serve::ServerSummary serve;           ///< responses written, all connections
  std::uint64_t connections = 0;        ///< accepted (served) socket connections
  std::uint64_t refused_connections = 0;  ///< over-cap, answered code 3
  std::uint64_t idle_closed = 0;        ///< closed by the idle timeout
};

class SocketServer {
 public:
  /// `listener` (may be null) is accepted from until the stop flag rises.
  /// `in_fd`/`out_fd` (-1 = none) are served as one stream connection:
  /// request lines are read from `in_fd` and responses written to
  /// `out_fd`.  Their flags stay as they are and the loop never closes
  /// them.  The stream is neither counted in `connections` nor capped by
  /// max_connections.  `log_stream = false` keeps its lines out of the
  /// request log (a replay).
  SocketServer(serve::Engine& engine, SocketServerOptions opt,
               Listener* listener = nullptr, int in_fd = -1, int out_fd = -1,
               bool log_stream = true);

  /// Run the loop until the stop flag rises or, without a listener, the
  /// stream has reached EOF and drained; see the header comment.  Returns
  /// after every accepted request was answered and every write buffer
  /// flushed (or its connection died).  `on_wake` (may be empty) runs on
  /// the loop thread after every poll return, a signal's EINTR included.
  SocketSummary run(const std::atomic<bool>* stop,
                    const std::function<void()>& on_wake = {});

 private:
  serve::Engine& engine_;
  SocketServerOptions opt_;
  Listener* listener_;
  int in_fd_;
  int out_fd_;
  bool log_stream_;
};

/// Feed a request log (as written via serve::EngineOptions::log_path) back
/// through `engine` as a stream connection, discarding the responses — a
/// cache warm-up after a restart.  The replayed lines are not re-logged;
/// a torn final line surfaces as one discarded code-2 answer.  Throws
/// std::runtime_error when the log cannot be opened.
serve::ServerSummary replay_log(serve::Engine& engine, const std::string& path,
                                const SocketServerOptions& opt = {});

#endif  // !_WIN32

}  // namespace spgcmp::net
