// Tests for the length-prefixed binary frame codec: exact wire bytes,
// round-trips for every request type, hostile-input rejection (garbage
// magic, zero / oversized / saturated length fields, wrong version,
// truncation at every byte boundary), byte-at-a-time reassembly across
// simulated epoll wakeups, codec auto-detection from the first byte,
// frame-vs-line conversation equality through a real PaneServer, and the
// server's and router's refusal of a frame bound outside the protocol's.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "src/matrix/dense_matrix.h"
#include "src/obs/metrics.h"
#include "src/serve/frame_protocol.h"
#include "src/serve/line_protocol.h"
#include "src/serve/protocol.h"
#include "src/serve/query_engine.h"
#include "src/serve/router.h"
#include "src/serve/server.h"

namespace pane {
namespace {

using serve::FrameCodec;
using serve::ProtocolCodec;

std::string Frame(const std::string& payload) {
  std::string out;
  serve::AppendFrame(payload, &out);
  return out;
}

/// Decodes every complete frame in `wire` into *payloads, failing the test
/// on a framing error.
void DecodeAll(const std::string& wire, std::vector<std::string>* payloads) {
  FrameCodec codec;
  payloads->clear();
  size_t pos = 0;
  while (true) {
    std::string_view payload;
    std::string error;
    const auto decoded = codec.Decode(wire, &pos, &payload, &error);
    if (decoded == ProtocolCodec::Decoded::kNeedMore) break;
    ASSERT_EQ(decoded, ProtocolCodec::Decoded::kMessage) << error;
    payloads->emplace_back(payload);
  }
  EXPECT_EQ(pos, wire.size()) << "trailing partial frame";
}

TEST(FrameCodecTest, WireBytesAreExactlyAsDocumented) {
  const std::string wire = Frame("stats");
  ASSERT_EQ(wire.size(), serve::kFrameHeaderSize + 5);
  const auto* bytes = reinterpret_cast<const unsigned char*>(wire.data());
  EXPECT_EQ(bytes[0], serve::kFrameMagic);
  EXPECT_EQ(bytes[1], 'P');
  EXPECT_EQ(bytes[2], 'F');
  EXPECT_EQ(bytes[3], serve::kFrameVersion);
  EXPECT_EQ(bytes[4], 5u);  // length, little-endian
  EXPECT_EQ(bytes[5], 0u);
  EXPECT_EQ(bytes[6], 0u);
  EXPECT_EQ(bytes[7], 0u);
  EXPECT_EQ(wire.substr(serve::kFrameHeaderSize), "stats");
}

TEST(FrameCodecTest, RoundTripsEveryRequestType) {
  const std::vector<std::string> requests = {"attr 3 5", "link 3 5",
                                             "pattr 0 1", "pair 0 1",
                                             "stats",    "quit"};
  std::string wire;
  for (const std::string& r : requests) wire += Frame(r);
  std::vector<std::string> decoded;
  ASSERT_NO_FATAL_FAILURE(DecodeAll(wire, &decoded));
  EXPECT_EQ(decoded, requests);
  // Every round-tripped payload still parses as the request it was.
  for (const std::string& r : requests) {
    EXPECT_TRUE(serve::ParseRequestLine(r).ok()) << r;
  }
}

TEST(FrameCodecTest, TruncationAtEveryBoundaryNeedsMoreNeverErrs) {
  const std::string wire = Frame("attr 3 5");
  FrameCodec codec;
  for (size_t cut = 0; cut < wire.size(); ++cut) {
    const std::string prefix = wire.substr(0, cut);
    size_t pos = 0;
    std::string_view payload;
    std::string error;
    // Every proper prefix of a valid frame is just an incomplete frame:
    // kNeedMore with pos untouched, never an error, never a message.
    EXPECT_EQ(codec.Decode(prefix, &pos, &payload, &error),
              ProtocolCodec::Decoded::kNeedMore)
        << "cut at " << cut;
    EXPECT_EQ(pos, 0u);
    if (cut > 0) {
      // ...but at end of input it is a framing error, not a request.
      EXPECT_FALSE(codec.DecodeFinal(prefix, &payload, &error));
      EXPECT_NE(error.find("truncated"), std::string::npos);
    }
  }
}

TEST(FrameCodecTest, GarbageMagicIsRejectedFromTheFirstWrongByte) {
  FrameCodec codec;
  // A line-protocol stream fed to a frame codec: wrong magic.
  for (const std::string& wire :
       {std::string("attr 3 5\n"), std::string(1, '\0'),
        std::string({static_cast<char>(serve::kFrameMagic), 'X'}),
        std::string({static_cast<char>(serve::kFrameMagic), 'P', 'X'})}) {
    size_t pos = 0;
    std::string_view payload;
    std::string error;
    EXPECT_EQ(codec.Decode(wire, &pos, &payload, &error),
              ProtocolCodec::Decoded::kError);
    EXPECT_EQ(error, "bad frame magic");
  }
}

TEST(FrameCodecTest, WrongVersionIsRejected) {
  std::string wire = Frame("stats");
  wire[3] = 0x02;
  size_t pos = 0;
  std::string_view payload;
  std::string error;
  FrameCodec codec;
  EXPECT_EQ(codec.Decode(wire, &pos, &payload, &error),
            ProtocolCodec::Decoded::kError);
  EXPECT_NE(error.find("unsupported frame version 2"), std::string::npos);
}

TEST(FrameCodecTest, HostileLengthFieldsAreRejectedBeforeAllocation) {
  FrameCodec codec;
  const auto with_length = [](uint32_t length) {
    std::string wire = Frame("x");
    wire[4] = static_cast<char>(length & 0xFF);
    wire[5] = static_cast<char>((length >> 8) & 0xFF);
    wire[6] = static_cast<char>((length >> 16) & 0xFF);
    wire[7] = static_cast<char>((length >> 24) & 0xFF);
    return wire;
  };
  {
    size_t pos = 0;
    std::string_view payload;
    std::string error;
    EXPECT_EQ(codec.Decode(with_length(0), &pos, &payload, &error),
              ProtocolCodec::Decoded::kError);
    EXPECT_EQ(error, "zero-length frame");
  }
  for (const uint32_t hostile :
       {static_cast<uint32_t>(serve::kMaxFramePayload + 1), 0xFFFFFFFFu}) {
    size_t pos = 0;
    std::string_view payload;
    std::string error;
    // Only 9 bytes are buffered; a decoder that trusted the length and
    // waited for 4 GiB (or allocated for it) would hang or blow up here.
    EXPECT_EQ(codec.Decode(with_length(hostile), &pos, &payload, &error),
              ProtocolCodec::Decoded::kError)
        << hostile;
    EXPECT_NE(error.find("oversized frame length"), std::string::npos);
  }
}

TEST(FrameCodecTest, ByteAtATimeReassemblyAcrossWakeups) {
  const std::vector<std::string> requests = {"attr 1 3", "pair 0 1", "stats"};
  std::string wire;
  for (const std::string& r : requests) wire += Frame(r);

  // Simulate the session's buffer discipline over single-byte reads: append
  // one byte, decode what is complete, erase the consumed prefix.
  FrameCodec codec;
  std::string buffer;
  std::vector<std::string> decoded;
  for (const char byte : wire) {
    buffer.push_back(byte);
    size_t pos = 0;
    while (true) {
      std::string_view payload;
      std::string error;
      const auto result = codec.Decode(buffer, &pos, &payload, &error);
      if (result != ProtocolCodec::Decoded::kMessage) {
        ASSERT_EQ(result, ProtocolCodec::Decoded::kNeedMore) << error;
        break;
      }
      decoded.emplace_back(payload);
    }
    buffer.erase(0, pos);
  }
  EXPECT_TRUE(buffer.empty());
  EXPECT_EQ(decoded, requests);
}

TEST(FrameCodecTest, AutoDetectionPicksCodecFromFirstByte) {
  EXPECT_STREQ(serve::MakeCodec(serve::kFrameMagic)->name(), "frame");
  EXPECT_STREQ(serve::MakeCodec('a')->name(), "line");
}

// ---- Frame conversations through a real server --------------------------

/// Tiny hand-built factors: enough for the server to answer every request
/// type, with no training involved.
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

std::string ServeWire(const serve::QueryEngine& engine,
                      const std::string& wire,
                      obs::MetricsRegistry* registry = nullptr) {
  serve::ServerOptions options;
  options.metrics = registry;
  serve::PaneServer server(&engine, options);
  std::istringstream in(wire);
  std::ostringstream out;
  server.ServeStream(in, out);
  return out.str();
}

TEST(FrameServingTest, FrameAndLineConversationsDecodeIdentically) {
  const serve::QueryEngine engine = SmallEngine();
  const std::vector<std::string> requests = {
      "attr 2 3", "link 2 3", "pattr 1 2", "pair 0 5",
      "attr 99 3",  // out of range: errors must frame too
      "quit"};
  std::string line_wire, frame_wire;
  for (const std::string& r : requests) {
    line_wire += r + "\n";
    frame_wire += Frame(r);
  }

  const std::string line_out = ServeWire(engine, line_wire);
  obs::MetricsRegistry registry;
  const std::string frame_out = ServeWire(engine, frame_wire, &registry);

  // Line responses, stripped of their framing ('\n'), must equal frame
  // payloads, stripped of theirs.
  std::vector<std::string> line_payloads;
  std::istringstream lines(line_out);
  std::string line;
  while (std::getline(lines, line)) line_payloads.push_back(line);
  std::vector<std::string> frame_payloads;
  ASSERT_NO_FATAL_FAILURE(DecodeAll(frame_out, &frame_payloads));
  EXPECT_EQ(frame_payloads, line_payloads);
  EXPECT_EQ(frame_payloads.back(), "bye");
  // Auto-detection picked the frame codec and counted the decoded frames.
  EXPECT_EQ(registry.GetCounter("pane_server_frames_total")->value(),
            requests.size());
}

TEST(FrameServingTest, FramingErrorAnswersDecodedRequestsThenCloses) {
  const serve::QueryEngine engine = SmallEngine();
  obs::MetricsRegistry registry;
  std::string wire = Frame("attr 2 3");
  wire += "garbage that is not a frame header";
  const std::string out = ServeWire(engine, wire, &registry);
  std::vector<std::string> payloads;
  ASSERT_NO_FATAL_FAILURE(DecodeAll(out, &payloads));
  ASSERT_EQ(payloads.size(), 2u);
  EXPECT_EQ(payloads[0].rfind("attr 2 ok", 0), 0u);
  EXPECT_EQ(payloads[1], "err bad frame magic");
  EXPECT_EQ(registry.GetCounter("pane_server_errors_total")->value(), 1u);
  EXPECT_EQ(registry.GetCounter("pane_server_requests_total")->value(), 1u);
}

TEST(FrameServingTest, TruncatedFinalFrameIsAnErrorNotARequest) {
  const serve::QueryEngine engine = SmallEngine();
  std::string wire = Frame("attr 2 3");
  const std::string full = Frame("pair 0 1");
  wire += full.substr(0, full.size() - 3);  // cut mid-payload
  const std::string out = ServeWire(engine, wire);
  std::vector<std::string> payloads;
  ASSERT_NO_FATAL_FAILURE(DecodeAll(out, &payloads));
  ASSERT_EQ(payloads.size(), 2u);
  EXPECT_EQ(payloads[0].rfind("attr 2 ok", 0), 0u);
  EXPECT_EQ(payloads[1], "err truncated frame at end of input");
}

TEST(FrameServingDeathTest, FrameBoundOutsideTheProtocolRangeIsRejected) {
  // A negative bound, cast to size_t, would switch the codec's length check
  // off; one past kMaxFramePayload would lift the protocol's own limit.
  const serve::QueryEngine engine = SmallEngine();
  const int64_t max = static_cast<int64_t>(serve::kMaxFramePayload);
  for (const int64_t bytes : {int64_t{-1}, -(int64_t{1} << 20), max + 1}) {
    serve::ServerOptions options;
    options.max_frame_bytes = bytes;
    EXPECT_DEATH(serve::PaneServer(&engine, options), "max_frame_bytes")
        << bytes;
    serve::RouterOptions router_options;
    router_options.max_frame_bytes = bytes;
    EXPECT_DEATH(serve::RemoteShard("127.0.0.1:1", router_options),
                 "max_frame_bytes")
        << bytes;
  }
  for (const int64_t bytes : {int64_t{0}, max}) {
    serve::ServerOptions options;
    options.max_frame_bytes = bytes;
    const serve::PaneServer server(&engine, options);
    EXPECT_EQ(server.options().max_frame_bytes, bytes);
  }
}

}  // namespace
}  // namespace pane
