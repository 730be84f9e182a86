// Tests for the epoll transport layer through a real PaneServer over real
// loopback sockets: line and frame conversations over TCP, byte-at-a-time
// request delivery across epoll wakeups, the max-connection refusal path,
// idle-connection reaping, transport counters surfaced through `stats`,
// lifecycle safety (Shutdown before Listen, AcceptLoop without Listen — the
// old PANE_CHECK ordering trap), and Nagle off on both ends of the
// transport's connections.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/matrix/dense_matrix.h"
#include "src/serve/frame_protocol.h"
#include "src/serve/protocol.h"
#include "src/serve/query_engine.h"
#include "src/serve/server.h"
#include "src/serve/transport.h"

namespace pane {
namespace {

serve::QueryEngine SmallEngine() {
  static const DenseMatrix xf{{0.5, 0.1}, {0.2, 0.7}, {0.9, 0.3},
                              {0.4, 0.4}, {0.1, 0.8}, {0.6, 0.2}};
  static const DenseMatrix xb{{0.3, 0.6}, {0.8, 0.1}, {0.2, 0.5},
                              {0.7, 0.2}, {0.5, 0.9}, {0.1, 0.4}};
  static const DenseMatrix y{{0.4, 0.9}, {0.6, 0.3}, {0.2, 0.8}, {0.7, 0.5}};
  auto engine =
      serve::QueryEngine::Create(xf.View(), xb.View(), y.View(), {});
  EXPECT_TRUE(engine.ok()) << engine.status();
  return engine.MoveValueUnsafe();
}

int ConnectLoopback(int port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  EXPECT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0)
      << std::strerror(errno);
  return fd;
}

void WriteAll(int fd, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = write(fd, data.data() + sent, data.size() - sent);
    ASSERT_GT(n, 0) << std::strerror(errno);
    sent += static_cast<size_t>(n);
  }
}

/// Reads until the server closes the connection.
std::string ReadUntilEof(int fd) {
  std::string out;
  char buf[4096];
  ssize_t got = 0;
  while ((got = read(fd, buf, sizeof(buf))) > 0) {
    out.append(buf, static_cast<size_t>(got));
  }
  return out;
}

/// Reads until `out` ends with `suffix` (for probing a still-open
/// connection that will not EOF).
std::string ReadUntilSuffix(int fd, const std::string& suffix) {
  std::string out;
  char buf[4096];
  while (out.size() < suffix.size() ||
         out.compare(out.size() - suffix.size(), suffix.size(), suffix) !=
             0) {
    const ssize_t got = read(fd, buf, sizeof(buf));
    if (got <= 0) break;
    out.append(buf, static_cast<size_t>(got));
  }
  return out;
}

/// The socket in this process whose peer is `peer` (loopback connections
/// have both ends here), or -1.
int SocketWithPeer(const sockaddr_in& peer) {
  for (int fd = 0; fd < 1024; ++fd) {
    sockaddr_in addr;
    socklen_t len = sizeof(addr);
    if (getpeername(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0 &&
        len == sizeof(addr) && addr.sin_family == AF_INET &&
        addr.sin_port == peer.sin_port &&
        addr.sin_addr.s_addr == peer.sin_addr.s_addr) {
      return fd;
    }
  }
  return -1;
}

bool NoDelay(int fd) {
  int value = 0;
  socklen_t len = sizeof(value);
  EXPECT_EQ(getsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &value, &len), 0)
      << std::strerror(errno);
  return value != 0;
}

/// A server running its transport loop on a background thread.
class RunningServer {
 public:
  RunningServer(const serve::QueryEngine* engine,
                const serve::ServerOptions& options)
      : server_(engine, options) {
    const auto port = server_.ListenTcp(0);
    EXPECT_TRUE(port.ok()) << port.status();
    port_ = *port;
    loop_ = std::thread([this] { server_.AcceptLoop(); });
  }

  ~RunningServer() {
    server_.Shutdown();
    loop_.join();
  }

  int port() const { return port_; }
  serve::PaneServer& server() { return server_; }

 private:
  serve::PaneServer server_;
  int port_ = 0;
  std::thread loop_;
};

TEST(EpollTransportTest, LineConversationMatchesServeStreamBytes) {
  const serve::QueryEngine engine = SmallEngine();
  const std::string script =
      "attr 2 3\nlink 1 2\npattr 0 1\npair 4 5\nnonsense\nquit\n";

  // Golden transcript via the stream path over the same engine.
  serve::ServerOptions options;
  serve::PaneServer stream_server(&engine, options);
  std::istringstream in(script);
  std::ostringstream golden;
  stream_server.ServeStream(in, golden);

  RunningServer running(&engine, options);
  const int fd = ConnectLoopback(running.port());
  WriteAll(fd, script);
  const std::string response = ReadUntilEof(fd);
  close(fd);
  EXPECT_EQ(response, golden.str());
}

TEST(EpollTransportTest, FrameConversationOverTcp) {
  const serve::QueryEngine engine = SmallEngine();
  serve::ServerOptions options;
  RunningServer running(&engine, options);

  std::string wire;
  serve::AppendFrame("attr 2 3", &wire);
  serve::AppendFrame("quit", &wire);
  const int fd = ConnectLoopback(running.port());
  WriteAll(fd, wire);
  const std::string response = ReadUntilEof(fd);
  close(fd);

  serve::FrameCodec codec;
  std::vector<std::string> payloads;
  size_t pos = 0;
  while (pos < response.size()) {
    std::string_view payload;
    std::string error;
    ASSERT_EQ(codec.Decode(response, &pos, &payload, &error),
              serve::ProtocolCodec::Decoded::kMessage)
        << error;
    payloads.emplace_back(payload);
  }
  ASSERT_EQ(payloads.size(), 2u);
  EXPECT_EQ(payloads[0].rfind("attr 2 ok", 0), 0u);
  EXPECT_EQ(payloads[1], "bye");
  EXPECT_EQ(running.server().counters().frames, 2u);
}

TEST(EpollTransportTest, ByteAtATimeRequestsAcrossWakeups) {
  const serve::QueryEngine engine = SmallEngine();
  serve::ServerOptions options;
  RunningServer running(&engine, options);

  const int fd = ConnectLoopback(running.port());
  const int one = 1;
  // Defeat client-side coalescing so the loop really sees partial reads.
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  const std::string request = "attr 3 2\nquit\n";
  for (const char byte : request) {
    WriteAll(fd, std::string(1, byte));
  }
  const std::string response = ReadUntilEof(fd);
  close(fd);
  EXPECT_EQ(response.rfind("attr 3 ok", 0), 0u) << response;
  EXPECT_NE(response.find("\nbye\n"), std::string::npos) << response;
}

TEST(EpollTransportTest, MaxConnectionsRefusesGracefullyAndCounts) {
  const serve::QueryEngine engine = SmallEngine();
  serve::ServerOptions options;
  options.max_connections = 1;
  RunningServer running(&engine, options);

  const int held = ConnectLoopback(running.port());
  // A served request proves `held` is admitted before the second connect.
  WriteAll(held, "attr 0 1\n");
  ReadUntilSuffix(held, "\n");

  const int refused = ConnectLoopback(running.port());
  EXPECT_EQ(ReadUntilEof(refused), "err server busy\n");
  close(refused);

  // The refusal is visible both through counters() and the stats request.
  EXPECT_EQ(running.server().counters().rejected, 1u);
  WriteAll(held, "stats\n");
  const std::string stats = ReadUntilSuffix(held, "\n");
  EXPECT_NE(stats.find(" rejected=1"), std::string::npos) << stats;
  close(held);
}

TEST(EpollTransportTest, IdleConnectionsAreReaped) {
  const serve::QueryEngine engine = SmallEngine();
  serve::ServerOptions options;
  options.idle_timeout_ms = 50;
  RunningServer running(&engine, options);

  const int fd = ConnectLoopback(running.port());
  // Send nothing: the sweep must close the connection (EOF on our side)
  // without the client ever completing a request.
  EXPECT_EQ(ReadUntilEof(fd), "");
  close(fd);
  EXPECT_EQ(running.server().counters().timeouts, 1u);

  // An active connection with the same timeout still gets answered.
  const int active = ConnectLoopback(running.port());
  WriteAll(active, "attr 1 2\nquit\n");
  const std::string response = ReadUntilEof(active);
  close(active);
  EXPECT_EQ(response.rfind("attr 1 ok", 0), 0u) << response;
}

TEST(EpollTransportTest, LifecycleIsSafeInAnyOrder) {
  const serve::QueryEngine engine = SmallEngine();
  serve::ServerOptions options;
  {
    // AcceptLoop without ListenTcp: a warning and a return, not a crash.
    serve::PaneServer server(&engine, options);
    server.AcceptLoop();
  }
  {
    // Shutdown before ListenTcp, then a loop that exits immediately.
    serve::PaneServer server(&engine, options);
    server.Shutdown();
    const auto port = server.ListenTcp(0);
    ASSERT_TRUE(port.ok()) << port.status();
    server.AcceptLoop();
  }
  {
    // Double shutdown and shutdown-while-running are both fine.
    serve::PaneServer server(&engine, options);
    const auto port = server.ListenTcp(0);
    ASSERT_TRUE(port.ok()) << port.status();
    std::thread loop([&server] { server.AcceptLoop(); });
    server.Shutdown();
    server.Shutdown();
    loop.join();
  }
}

TEST(EpollTransportTest, ManySequentialConnections) {
  const serve::QueryEngine engine = SmallEngine();
  serve::ServerOptions options;
  RunningServer running(&engine, options);
  for (int i = 0; i < 20; ++i) {
    const int fd = ConnectLoopback(running.port());
    WriteAll(fd, "pair 0 1\nquit\n");
    const std::string response = ReadUntilEof(fd);
    close(fd);
    EXPECT_EQ(response.rfind("pair 0 1 ok", 0), 0u) << response;
  }
  EXPECT_EQ(running.server().counters().requests, 40u);
}

// Nagle would hold a response sent while the previous one is unacked until
// the client's delayed ACK or next request: the lockstep that left served
// responses in the send queue for one request interval. Whether Nagle
// actually holds a send depends on ACK timing the test cannot pin down, so
// the option itself is checked, on the socket the server accepted (found by
// its peer, the client's address) and on a ShardConnection's socket.
TEST(EpollTransportTest, AcceptedSocketsSendWithoutNagle) {
  const serve::QueryEngine engine = SmallEngine();
  serve::ServerOptions options;
  RunningServer running(&engine, options);
  const int fd = ConnectLoopback(running.port());
  WriteAll(fd, "attr 0 1\n");
  ReadUntilSuffix(fd, "\n");  // the server has accepted and answered
  sockaddr_in client;
  socklen_t len = sizeof(client);
  ASSERT_EQ(getsockname(fd, reinterpret_cast<sockaddr*>(&client), &len), 0);
  const int accepted = SocketWithPeer(client);
  ASSERT_GE(accepted, 0);
  EXPECT_TRUE(NoDelay(accepted));
  close(fd);
}

TEST(ShardConnectionTest, SendsWithoutNagle) {
  const serve::QueryEngine engine = SmallEngine();
  serve::ServerOptions options;
  RunningServer running(&engine, options);
  serve::ShardConnection connection;
  ASSERT_TRUE(connection
                  .Connect("127.0.0.1:" + std::to_string(running.port()),
                           /*timeout_ms=*/1000)
                  .ok());
  sockaddr_in server;
  std::memset(&server, 0, sizeof(server));
  server.sin_family = AF_INET;
  server.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  server.sin_port = htons(static_cast<uint16_t>(running.port()));
  const int fd = SocketWithPeer(server);
  ASSERT_GE(fd, 0);
  EXPECT_TRUE(NoDelay(fd));
}

}  // namespace
}  // namespace pane
