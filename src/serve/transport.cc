#include "src/serve/transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>
#include <vector>

#include "src/common/logging.h"
#include "src/common/timer.h"

namespace pane {
namespace serve {
namespace {

/// Reads drained per EPOLLIN wakeup before yielding back to the loop, so
/// one flooding connection cannot starve the rest (level-triggered epoll
/// re-reports the fd immediately if bytes remain).
constexpr int kMaxReadsPerWakeup = 8;

Status Errno(const char* what) {
  return Status::IOError(std::string(what) + ": " + std::strerror(errno));
}

/// Turns Nagle off (best effort). Each response, and each shard hop's
/// request, leaves in one send when it is ready; with Nagle on, a send
/// while the previous one is unacked waits for the peer's delayed ACK
/// (up to 40 ms on Linux) or its next request.
void SetNoDelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

void OwnedFd::reset(int fd) {
  if (fd_ >= 0) ::close(fd_);
  fd_ = fd;
}

Status ShardConnection::Connect(const std::string& address,
                                int64_t timeout_ms) {
  Close();
  const size_t colon = address.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 >= address.size()) {
    return Status::InvalidArgument("shard address must be host:port, got " +
                                   address);
  }
  const std::string host = address.substr(0, colon);
  int port = 0;
  for (size_t i = colon + 1; i < address.size(); ++i) {
    const char c = address[i];
    if (c < '0' || c > '9') {
      return Status::InvalidArgument("bad port in shard address " + address);
    }
    port = port * 10 + (c - '0');
    if (port > 65535) {
      return Status::InvalidArgument("bad port in shard address " + address);
    }
  }
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (host == "localhost") {
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  } else if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("shard host must be a numeric IPv4 "
                                   "address or localhost, got " + host);
  }

  // Non-blocking connect so the handshake honors timeout_ms, then back to
  // blocking: per-call deadlines are enforced with poll() in SendAll /
  // RecvSome, not with O_NONBLOCK bookkeeping.
  OwnedFd fd(::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                      0));
  if (!fd.valid()) return Errno("socket");
  SetNoDelay(fd.get());
  if (::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    if (errno != EINPROGRESS) return Errno("connect");
    pollfd pfd = {fd.get(), POLLOUT, 0};
    const int ready =
        ::poll(&pfd, 1, static_cast<int>(std::max<int64_t>(1, timeout_ms)));
    if (ready <= 0) {
      return Status::IOError("connect to " + address + " timed out");
    }
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(fd.get(), SOL_SOCKET, SO_ERROR, &err, &len) != 0 ||
        err != 0) {
      return Status::IOError("connect to " + address + ": " +
                             std::strerror(err != 0 ? err : errno));
    }
  }
  const int flags = ::fcntl(fd.get(), F_GETFL);
  if (flags < 0 ||
      ::fcntl(fd.get(), F_SETFL, flags & ~O_NONBLOCK) != 0) {
    return Errno("fcntl");
  }
  fd_ = std::move(fd);
  return Status::OK();
}

int64_t ShardConnection::NowMs() { return MonotonicMillis(); }

namespace {

/// Shared deadline gate: polls fd for `events` until ready or deadline.
Status AwaitReady(int fd, short events, int64_t deadline_ms,
                  const char* what) {
  while (true) {
    const int64_t budget = deadline_ms - ShardConnection::NowMs();
    if (budget <= 0) {
      return Status::IOError(std::string(what) + " deadline exceeded");
    }
    pollfd pfd = {fd, events, 0};
    const int ready = ::poll(&pfd, 1, static_cast<int>(budget));
    if (ready > 0) return Status::OK();
    if (ready == 0) {
      return Status::IOError(std::string(what) + " deadline exceeded");
    }
    if (errno != EINTR) return Errno("poll");
  }
}

}  // namespace

Status ShardConnection::SendAll(std::string_view bytes, int64_t deadline_ms) {
  if (!connected()) return Status::IOError("shard connection is closed");
  size_t sent = 0;
  while (sent < bytes.size()) {
    PANE_RETURN_NOT_OK(AwaitReady(fd_.get(), POLLOUT, deadline_ms, "send"));
    const ssize_t n = ::send(fd_.get(), bytes.data() + sent,
                             bytes.size() - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EINTR || errno == EAGAIN ||
                  errno == EWOULDBLOCK)) {
      continue;
    }
    Close();
    return Errno("send");
  }
  return Status::OK();
}

Status ShardConnection::RecvSome(std::string* buffer, int64_t deadline_ms) {
  if (!connected()) return Status::IOError("shard connection is closed");
  char chunk[16 << 10];
  while (true) {
    PANE_RETURN_NOT_OK(AwaitReady(fd_.get(), POLLIN, deadline_ms, "recv"));
    const ssize_t n = ::recv(fd_.get(), chunk, sizeof(chunk), 0);
    if (n > 0) {
      buffer->append(chunk, static_cast<size_t>(n));
      return Status::OK();
    }
    if (n == 0) {
      Close();
      return Status::IOError("shard closed the connection mid-reply");
    }
    if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
    Close();
    return Errno("recv");
  }
}

EpollTransport::EpollTransport(HandlerFactory factory,
                               TransportOptions options)
    : factory_(std::move(factory)), options_(std::move(options)) {
  PANE_CHECK(factory_ != nullptr);
  PANE_CHECK(options_.max_connections > 0);
  PANE_CHECK(options_.read_chunk_bytes > 0);
  PANE_CHECK(options_.metrics != nullptr);
  obs::MetricsRegistry* reg = options_.metrics;
  accepted_total_ = reg->GetCounter("pane_transport_accepted_total");
  rejected_total_ = reg->GetCounter("pane_transport_rejected_total");
  timeouts_total_ = reg->GetCounter("pane_transport_timeouts_total");
  read_bytes_total_ = reg->GetCounter("pane_transport_read_bytes_total");
  write_bytes_total_ = reg->GetCounter("pane_transport_write_bytes_total");
  active_gauge_ = reg->GetGauge("pane_transport_connections_active");
  read_us_ = reg->GetHistogram("pane_transport_read_us");
  write_us_ = reg->GetHistogram("pane_transport_write_us");
  lifetime_ms_ = reg->GetHistogram("pane_transport_conn_lifetime_ms");
}

EpollTransport::~EpollTransport() {
  Shutdown();
  connections_.clear();  // OwnedFd closes every socket
}

int64_t EpollTransport::NowMs() { return MonotonicMillis(); }

Result<int> EpollTransport::Listen(int port) {
  PANE_CHECK(!listen_fd_.valid()) << "Listen() called twice";
  OwnedFd fd(::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                      0));
  if (!fd.valid()) return Errno("socket");
  const int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return Errno("bind");
  }
  if (::listen(fd.get(), 128) != 0) return Errno("listen");
  socklen_t len = sizeof(addr);
  if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&addr), &len) !=
      0) {
    return Errno("getsockname");
  }

  OwnedFd epoll_fd(::epoll_create1(EPOLL_CLOEXEC));
  if (!epoll_fd.valid()) return Errno("epoll_create1");
  OwnedFd wake_fd(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC));
  if (!wake_fd.valid()) return Errno("eventfd");

  epoll_event event;
  std::memset(&event, 0, sizeof(event));
  event.events = EPOLLIN;
  event.data.fd = fd.get();
  if (::epoll_ctl(epoll_fd.get(), EPOLL_CTL_ADD, fd.get(), &event) != 0) {
    return Errno("epoll_ctl(listen)");
  }
  event.data.fd = wake_fd.get();
  if (::epoll_ctl(epoll_fd.get(), EPOLL_CTL_ADD, wake_fd.get(), &event) !=
      0) {
    return Errno("epoll_ctl(eventfd)");
  }

  // Commit all three fds only after every step succeeded; any earlier
  // return unwinds the OwnedFds without leaking a descriptor.
  listen_fd_ = std::move(fd);
  epoll_fd_ = std::move(epoll_fd);
  wake_fd_ = std::move(wake_fd);
  return static_cast<int>(ntohs(addr.sin_port));
}

void EpollTransport::Run() {
  if (!listening()) {
    PANE_LOG(WARNING) << "EpollTransport::Run() without a successful "
                         "Listen(); returning";
    return;
  }
  std::vector<epoll_event> events(64);
  while (!shutdown_.load(std::memory_order_acquire)) {
    int timeout_ms = -1;
    if (options_.idle_timeout_ms > 0) {
      // Wake at least twice per idle window so a reap is never late by
      // more than half the timeout.
      timeout_ms = static_cast<int>(
          std::max<int64_t>(10, std::min<int64_t>(
                                    options_.idle_timeout_ms / 2, 500)));
    }
    const int n = ::epoll_wait(epoll_fd_.get(), events.data(),
                               static_cast<int>(events.size()), timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      PANE_LOG(ERROR) << "epoll_wait: " << std::strerror(errno);
      break;
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[static_cast<size_t>(i)].data.fd;
      const uint32_t mask = events[static_cast<size_t>(i)].events;
      if (fd == wake_fd_.get()) {
        uint64_t token = 0;
        while (::read(wake_fd_.get(), &token, sizeof(token)) > 0) {
        }
        continue;
      }
      if (fd == listen_fd_.get()) {
        AcceptReady();
        continue;
      }
      // An earlier event in this batch may have closed the connection;
      // re-resolve instead of trusting a stale pointer.
      const auto it = connections_.find(fd);
      if (it == connections_.end()) continue;
      Connection* conn = it->second.get();
      if ((mask & (EPOLLIN | EPOLLHUP | EPOLLERR)) != 0) {
        HandleReadable(conn);
        if (connections_.find(fd) == connections_.end()) continue;
      }
      if ((mask & EPOLLOUT) != 0) HandleWritable(conn);
    }
    if (options_.idle_timeout_ms > 0) SweepIdle(NowMs());
  }
  // Drain on the way out: the loop owns every connection, so closing here
  // is race-free.
  std::vector<int> open;
  open.reserve(connections_.size());
  for (const auto& [fd, conn] : connections_) open.push_back(fd);
  for (const int fd : open) CloseConnection(fd, /*timed_out=*/false);
}

void EpollTransport::Shutdown() {
  shutdown_.store(true, std::memory_order_release);
  if (wake_fd_.valid()) {
    const uint64_t token = 1;
    // Best-effort: a full eventfd counter still wakes the loop.
    [[maybe_unused]] const ssize_t ignored =
        ::write(wake_fd_.get(), &token, sizeof(token));
  }
}

void EpollTransport::AcceptReady() {
  while (true) {
    const int raw =
        ::accept4(listen_fd_.get(), nullptr, nullptr,
                  SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (raw < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN: accepted everything pending
    }
    OwnedFd fd(raw);
    SetNoDelay(fd.get());
    if (static_cast<int64_t>(connections_.size()) >=
        options_.max_connections) {
      // The 503 path: one best-effort refusal payload, then close. The
      // socket never joins the epoll set, so a refused flood costs one
      // accept + one send each.
      if (!options_.refusal.empty()) {
        [[maybe_unused]] const ssize_t ignored =
            ::send(fd.get(), options_.refusal.data(),
                   options_.refusal.size(), MSG_NOSIGNAL);
      }
      rejected_total_->Add();
      continue;
    }
    auto conn = std::make_unique<Connection>();
    conn->fd = std::move(fd);
    conn->handler = factory_();
    conn->created_ms = NowMs();
    conn->last_active_ms = conn->created_ms;
    epoll_event event;
    std::memset(&event, 0, sizeof(event));
    event.events = EPOLLIN;
    event.data.fd = conn->fd.get();
    if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, conn->fd.get(),
                    &event) != 0) {
      PANE_LOG(ERROR) << "epoll_ctl(conn): " << std::strerror(errno);
      continue;  // conn's OwnedFd closes the socket
    }
    const int key = conn->fd.get();
    connections_.emplace(key, std::move(conn));
    accepted_total_->Add();
    active_gauge_->Set(static_cast<int64_t>(connections_.size()));
  }
}

void EpollTransport::HandleReadable(Connection* conn) {
  std::string chunk(static_cast<size_t>(options_.read_chunk_bytes), '\0');
  bool eof = false;
  bool fatal = false;
  bool got_bytes = false;
  uint64_t bytes_read = 0;
  const int64_t read_start_us = MonotonicMicros();
  for (int reads = 0; reads < kMaxReadsPerWakeup; ++reads) {
    const ssize_t n = ::read(conn->fd.get(), chunk.data(), chunk.size());
    if (n > 0) {
      got_bytes = true;
      bytes_read += static_cast<uint64_t>(n);
      if (conn->draining) continue;  // discard: the session already quit
      conn->input.append(chunk.data(), static_cast<size_t>(n));
      continue;
    }
    if (n == 0) {
      eof = true;
    } else if (errno == EINTR) {
      continue;
    } else if (errno != EAGAIN && errno != EWOULDBLOCK) {
      fatal = true;
    }
    break;
  }
  if (got_bytes) {
    read_us_->Record(MonotonicMicros() - read_start_us);
    read_bytes_total_->Add(bytes_read);
  }
  if (fatal) {
    CloseConnection(conn->fd.get(), /*timed_out=*/false);
    return;
  }
  if (got_bytes || eof) conn->last_active_ms = NowMs();
  if (!conn->draining && !conn->input.empty()) {
    if (conn->handler->OnData(&conn->input, &conn->output) ==
        ConnectionHandler::Action::kClose) {
      conn->draining = true;
    }
  }
  if (eof) {
    if (!conn->draining) {
      conn->handler->OnEof(&conn->input, &conn->output);
    }
    conn->draining = true;
  }
  UpdateConnection(conn);
}

void EpollTransport::HandleWritable(Connection* conn) {
  conn->last_active_ms = NowMs();
  UpdateConnection(conn);
}

bool EpollTransport::FlushOutput(Connection* conn) {
  if (conn->sent >= conn->output.size()) {
    conn->output.clear();
    conn->sent = 0;
    return true;
  }
  const size_t sent_before = conn->sent;
  const int64_t write_start_us = MonotonicMicros();
  bool ok = true;
  while (conn->sent < conn->output.size()) {
    const ssize_t n =
        ::send(conn->fd.get(), conn->output.data() + conn->sent,
               conn->output.size() - conn->sent, MSG_NOSIGNAL);
    if (n > 0) {
      conn->sent += static_cast<size_t>(n);
      conn->last_active_ms = NowMs();
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    ok = false;  // peer gone mid-response
    break;
  }
  if (conn->sent > sent_before) {
    write_us_->Record(MonotonicMicros() - write_start_us);
    write_bytes_total_->Add(conn->sent - sent_before);
  }
  if (ok && conn->sent >= conn->output.size()) {
    conn->output.clear();
    conn->sent = 0;
  }
  return ok;
}

bool EpollTransport::UpdateConnection(Connection* conn) {
  const int fd = conn->fd.get();
  if (!FlushOutput(conn)) {
    CloseConnection(fd, /*timed_out=*/false);
    return false;
  }
  if (conn->draining && conn->sent >= conn->output.size()) {
    CloseConnection(fd, /*timed_out=*/false);
    return false;
  }
  const bool wants_write = conn->sent < conn->output.size();
  if (wants_write != conn->wants_write) {
    epoll_event event;
    std::memset(&event, 0, sizeof(event));
    event.events = EPOLLIN | (wants_write ? EPOLLOUT : 0u);
    event.data.fd = fd;
    if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_MOD, fd, &event) != 0) {
      CloseConnection(fd, /*timed_out=*/false);
      return false;
    }
    conn->wants_write = wants_write;
  }
  return true;
}

void EpollTransport::CloseConnection(int fd, bool timed_out) {
  const auto it = connections_.find(fd);
  if (it == connections_.end()) return;
  ::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_DEL, fd, nullptr);
  lifetime_ms_->Record(NowMs() - it->second->created_ms);
  // Counted before the socket closes, so a peer that sees EOF also sees
  // the close in the counters.
  if (timed_out) timeouts_total_->Add();
  active_gauge_->Set(static_cast<int64_t>(connections_.size()) - 1);
  connections_.erase(it);  // OwnedFd closes the socket
}

void EpollTransport::SweepIdle(int64_t now_ms) {
  std::vector<int> idle;
  for (const auto& [fd, conn] : connections_) {
    if (now_ms - conn->last_active_ms >= options_.idle_timeout_ms) {
      idle.push_back(fd);
    }
  }
  for (const int fd : idle) CloseConnection(fd, /*timed_out=*/true);
}

}  // namespace serve
}  // namespace pane
