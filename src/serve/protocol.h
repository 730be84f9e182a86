// The serving stack's codec seam. A ProtocolCodec turns the byte stream of
// one connection into request payloads and wraps response payloads back
// into wire bytes; everything between those two calls (parsing, batching,
// dedup, cache, engine) is payload-format-agnostic. Two implementations
// exist:
//
//   LineCodec   (line_protocol.h)   one request per '\n'-terminated line;
//                                   a blank line is an explicit batch-flush
//                                   marker. The human-debuggable default.
//   FrameCodec  (frame_protocol.h)  length-prefixed binary frames (magic +
//                                   version + u32 length + payload), the
//                                   cheap-to-delimit format for shard hops
//                                   and high-throughput clients.
//
// The payload itself is identical in both codecs — the request / response
// text of line_protocol.h — so the two wire formats decode to byte-equal
// conversations and the differential harness can diff them against one
// golden transcript.
//
// Which codec a connection speaks is decided once, from its first byte
// (MakeCodec): a frame stream always begins with the non-ASCII frame magic
// 0xAB, and no line request can start with that byte.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>

namespace pane {
namespace serve {

class ProtocolCodec {
 public:
  enum class Decoded : int8_t {
    kMessage,   ///< one request payload extracted, *pos advanced past it
    kFlush,     ///< an explicit batch-flush marker (line codec blank line)
    kNeedMore,  ///< no complete message buffered; wait for more bytes
    kError,     ///< unrecoverable framing error; close after answering
  };

  virtual ~ProtocolCodec() = default;

  virtual const char* name() const = 0;

  /// Examines buffer[*pos..). On kMessage fills *payload (a view into
  /// `buffer` — valid only until the buffer mutates) and advances *pos; on
  /// kFlush just advances *pos; on kError fills *error. Never reads past
  /// buffer.size(): every length field is validated against the bytes
  /// actually buffered before anything is trusted.
  virtual Decoded Decode(std::string_view buffer, size_t* pos,
                         std::string_view* payload, std::string* error) = 0;

  /// Appends one response payload, wrapped in this codec's wire format,
  /// to *out.
  virtual void Encode(std::string_view payload, std::string* out) = 0;

  /// End-of-input with a nonempty undecodable remainder. Line treats the
  /// trailing unterminated text as a final request (getline semantics) and
  /// returns true with *payload set; frame reports a truncated frame and
  /// returns false with *error set.
  virtual bool DecodeFinal(std::string_view remainder,
                           std::string_view* payload, std::string* error) = 0;
};

/// Codec for a connection whose first byte is `first`: the frame magic
/// selects FrameCodec, anything else LineCodec. `max_frame_payload` bounds
/// inbound frame lengths for the frame codec (0 = the protocol default,
/// kMaxFramePayload).
std::unique_ptr<ProtocolCodec> MakeCodec(unsigned char first,
                                         size_t max_frame_payload = 0);

}  // namespace serve
}  // namespace pane
