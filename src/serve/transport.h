// The serving stack's transport layer: a non-blocking, level-triggered
// epoll event loop owning every socket and every per-connection buffer.
// This is the only translation unit in the repository allowed to issue raw
// socket / epoll syscalls (enforced by tools/lint.sh); everything above it
// sees connections as two byte buffers and a handler callback.
//
// Responsibilities, and nothing else:
//   - accept loopback TCP connections (up to TransportOptions::
//     max_connections; beyond the cap a connection gets a best-effort
//     refusal payload and an immediate close — the 503 of this protocol),
//   - read available bytes into the connection's input buffer and hand
//     them to its ConnectionHandler (the session layer),
//   - flush the handler's output buffer, registering for EPOLLOUT only
//     while bytes are actually pending,
//   - reap connections idle longer than idle_timeout_ms,
//   - wake up and drain cleanly when Shutdown() is called from any thread
//     (an eventfd is part of the epoll set precisely for this).
//
// Threading model: Run() executes the entire loop — accepts, reads,
// handler callbacks (and therefore engine batches), writes — on the
// calling thread. Parallelism comes from the engine's own ThreadPool
// inside a batch, not from per-connection threads; that is what lets the
// transport hold thousands of mostly-idle connections at a fixed cost of
// two buffers each. Shutdown() is the only member callable from other
// threads; the counts live in the registry, whose metrics any thread may
// read.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>

#include "src/common/status.h"
#include "src/obs/metrics.h"

namespace pane {
namespace serve {

/// Move-only owner of a file descriptor: the fd is closed exactly once, on
/// destruction or reset, never leaked on an error path, and never usable
/// after a moved-from state (get() returns -1). Replaces the bare
/// `int listen_fd_ = -1` whose ListenTcp/AcceptLoop/Shutdown ordering was
/// only documented, not enforced.
class OwnedFd {
 public:
  OwnedFd() = default;
  explicit OwnedFd(int fd) : fd_(fd) {}
  ~OwnedFd() { reset(); }

  OwnedFd(OwnedFd&& other) noexcept : fd_(other.release()) {}
  OwnedFd& operator=(OwnedFd&& other) noexcept {
    if (this != &other) reset(other.release());
    return *this;
  }
  OwnedFd(const OwnedFd&) = delete;
  OwnedFd& operator=(const OwnedFd&) = delete;

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }

  /// Relinquishes ownership without closing.
  int release() {
    const int fd = fd_;
    fd_ = -1;
    return fd;
  }

  /// Closes the held fd (if any) and adopts `fd`.
  void reset(int fd = -1);

 private:
  int fd_ = -1;
};

/// What the transport asks of each connection's protocol layer. Handlers
/// are created per connection and only ever called from the loop thread.
class ConnectionHandler {
 public:
  enum class Action : int8_t {
    kKeepOpen,  ///< keep reading
    kClose,     ///< flush pending output, then close
  };

  virtual ~ConnectionHandler() = default;

  /// New bytes were appended to *input (which may still hold an earlier
  /// partial message). Consume what is complete — erasing consumed bytes
  /// from the front — and append any wire-format response bytes to
  /// *output.
  virtual Action OnData(std::string* input, std::string* output) = 0;

  /// The peer finished sending (read returned 0). Handle any trailing
  /// partial message in *input; the connection closes once *output
  /// drains.
  virtual void OnEof(std::string* input, std::string* output) = 0;
};

/// Blocking outbound client connection — the router's side of a shard hop.
/// Lives here because transport.cc is the only translation unit allowed to
/// issue raw socket syscalls (connect / poll / send / recv included).
/// Every call takes an absolute deadline in NowMs() time, so one request's
/// budget spans connect, send, and however many RecvSome calls the
/// response needs. Move-only; a failed call leaves the connection closed
/// so the owner can reconnect.
class ShardConnection {
 public:
  ShardConnection() = default;
  ShardConnection(ShardConnection&&) = default;
  ShardConnection& operator=(ShardConnection&&) = default;
  ShardConnection(const ShardConnection&) = delete;
  ShardConnection& operator=(const ShardConnection&) = delete;

  /// Connects to "host:port" (numeric IPv4 host, e.g. "127.0.0.1:7077"),
  /// waiting at most `timeout_ms`. The socket stays blocking after the
  /// non-blocking connect handshake; per-call deadlines come from
  /// readiness waits on the fd.
  Status Connect(const std::string& address, int64_t timeout_ms);

  bool connected() const { return fd_.valid(); }
  void Close() { fd_.reset(); }

  /// Writes all of `bytes` before `deadline_ms` (absolute, NowMs clock).
  Status SendAll(std::string_view bytes, int64_t deadline_ms);

  /// Appends at least one received byte to *buffer before `deadline_ms`;
  /// EOF from the peer is an error (a shard never half-closes mid-reply).
  Status RecvSome(std::string* buffer, int64_t deadline_ms);

  /// The monotonic clock the deadlines are measured in.
  static int64_t NowMs();

 private:
  OwnedFd fd_;
};

struct TransportOptions {
  /// Connections at or above the cap are refused: `refusal` is written
  /// best-effort and the socket closed.
  int64_t max_connections = 256;
  /// Connections with no read/write activity for this long are reaped by
  /// the idle sweep; 0 disables the sweep entirely.
  int64_t idle_timeout_ms = 0;
  /// Payload written to a refused connection before the close.
  std::string refusal;
  /// Bytes per read() call in the drain loop.
  int64_t read_chunk_bytes = 64 << 10;
  /// Registry for the accept / refusal / idle-reap counts and the
  /// read, write and connection-lifetime metrics (pane_transport_*).
  /// Required; it must outlive the transport.
  obs::MetricsRegistry* metrics = nullptr;
};

class EpollTransport {
 public:
  using HandlerFactory = std::function<std::unique_ptr<ConnectionHandler>()>;

  EpollTransport(HandlerFactory factory, TransportOptions options);
  ~EpollTransport();

  EpollTransport(const EpollTransport&) = delete;
  EpollTransport& operator=(const EpollTransport&) = delete;

  /// Binds a non-blocking loopback listening socket (`port` 0 picks an
  /// ephemeral port), creates the epoll set and the shutdown eventfd, and
  /// returns the bound port.
  Result<int> Listen(int port);

  bool listening() const { return listen_fd_.valid(); }

  /// Runs the event loop on the calling thread until Shutdown(). Returns
  /// immediately (with a warning) if Listen() has not succeeded — calling
  /// out of order is a no-op, not a crash. All connections are closed on
  /// the way out.
  void Run();

  /// Thread-safe: flips the shutdown flag and pokes the eventfd so a
  /// blocked epoll_wait wakes. Safe to call at any time, including before
  /// Listen() or after Run() returned.
  void Shutdown();

 private:
  struct Connection {
    OwnedFd fd;
    std::unique_ptr<ConnectionHandler> handler;
    std::string input;
    std::string output;
    size_t sent = 0;  ///< prefix of `output` already written
    int64_t created_ms = 0;  ///< accept time, for the lifetime histogram
    int64_t last_active_ms = 0;
    bool draining = false;  ///< close as soon as `output` drains
    bool wants_write = false;  ///< EPOLLOUT currently registered
  };

  // All private state below is touched only by the loop thread (plus
  // Listen(), which must precede Run()); shutdown_ is the one cross-thread
  // member.
  void AcceptReady();
  void HandleReadable(Connection* conn);
  void HandleWritable(Connection* conn);
  /// Writes output[sent..]; returns false on a fatal socket error.
  bool FlushOutput(Connection* conn);
  /// Reconciles EPOLLOUT interest and the draining flag; closes the
  /// connection when it is drained or broken. Returns true if the
  /// connection survived.
  bool UpdateConnection(Connection* conn);
  void CloseConnection(int fd, bool timed_out);
  void SweepIdle(int64_t now_ms);
  static int64_t NowMs();

  HandlerFactory factory_;
  TransportOptions options_;

  OwnedFd listen_fd_;
  OwnedFd epoll_fd_;
  OwnedFd wake_fd_;  ///< eventfd in the epoll set; Shutdown() writes it
  std::atomic<bool> shutdown_{false};
  std::unordered_map<int, std::unique_ptr<Connection>> connections_;

  // Metric handles resolved once at construction. Counter/Gauge/Histogram
  // are themselves thread-safe, though only the loop thread records here.
  obs::Counter* accepted_total_ = nullptr;
  obs::Counter* rejected_total_ = nullptr;
  obs::Counter* timeouts_total_ = nullptr;
  obs::Counter* read_bytes_total_ = nullptr;
  obs::Counter* write_bytes_total_ = nullptr;
  obs::Gauge* active_gauge_ = nullptr;
  obs::Histogram* read_us_ = nullptr;
  obs::Histogram* write_us_ = nullptr;
  obs::Histogram* lifetime_ms_ = nullptr;
};

}  // namespace serve
}  // namespace pane
