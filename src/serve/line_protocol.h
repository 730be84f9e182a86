// The pane_server wire format: one request per line, one response line per
// request, answered in request order (batching never reorders output).
// Shared by the server, the scripted CI client, and the offline pane_topk
// reference tool, so their outputs diff cleanly.
//
// Requests:
//   attr <node> <k>     top-k attribute recommendation (Eq. 21)
//   link <node> <k>     top-k link recommendation (Eq. 22)
//   pattr <node> <attr> one attribute pair score
//   pair <src> <dst>    one directed link pair score
//   stats               server counters (never cached / deduplicated)
//   metrics             Prometheus text exposition, terminated by "# EOF"
//                       (never cached / deduplicated)
//   plan                shard identity / held ranges (router handshake)
//   quit                close the connection after responding "bye"
//
// Responses:
//   attr <node> ok <idx>:<score> <idx>:<score> ...
//   link <node> ok ...
//   pattr <node> <attr> ok <score>
//   pair <src> <dst> ok <score>
//   plan ok shard=<i>/<N> nodes=<b>:<e>/<n> attrs=<b>:<e>/<d> dim=<h> ...
//   err <message>
//
// Scores are printed with %.17g, enough digits to round-trip a double, so
// two bitwise-equal scoring paths produce byte-equal responses.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "src/common/status.h"
#include "src/common/topk.h"
#include "src/serve/protocol.h"

namespace pane {
namespace serve {

struct Request {
  enum class Type : int8_t {
    kTopKAttributes,
    kTopKTargets,
    kAttributePair,
    kLinkPair,
    kStats,
    kMetrics,
    kPlan,
    kQuit,
  };
  Type type = Type::kStats;
  int64_t a = 0;  // node (top-k) or first pair id
  int64_t b = 0;  // second pair id
  int64_t k = 0;  // top-k size

  /// Batch deduplication / cache identity.
  bool operator==(const Request& other) const {
    return type == other.type && a == other.a && b == other.b &&
           k == other.k;
  }
};

/// Parses one request line (leading / trailing whitespace tolerated; empty
/// lines are the caller's batching signal and must not reach this).
Result<Request> ParseRequestLine(std::string_view line);

/// "<idx>:<score>" with %.17g scores.
std::string FormatRanking(const Request& request, const Ranking& ranking);
std::string FormatScore(const Request& request, double score);
std::string FormatError(const std::string& message);

/// The canonical request line for `request` — what a remote shard hop
/// sends. ParseRequestLine(FormatRequest(r)) == r for every type.
std::string FormatRequest(const Request& request);

/// Parses a remote shard's top-k reply to `request` ("attr <node> ok
/// <idx>:<score> ..." or the "link" form) into its ranking. Scores parse
/// with strtod, which round-trips the %.17g formatting exactly. The reply
/// is outside input, so it must also be a ranking MergeTopK can trust: at
/// most request.k entries, every id in [id_begin, id_end) (the shard's
/// held range for the family), in strict (score desc, index asc) order.
/// An "err ..." payload or any violation is an error Status, never a
/// partial ranking.
Status ParseRankingResponse(std::string_view line, const Request& request,
                            int64_t id_begin, int64_t id_end,
                            Ranking* ranking);

/// Parses a remote shard's pair reply to `request` ("pattr <a> <b> ok
/// <score>" or the "pair" form); anything else is an error Status.
Status ParseScoreResponse(std::string_view line, const Request& request,
                          double* score);

/// The newline-delimited wire format as a ProtocolCodec: one payload per
/// '\n'-terminated line (the '\n' is framing, not payload — responses get
/// one appended by Encode), an all-whitespace line decodes to kFlush (the
/// explicit batch marker ServeStream always honored), and a trailing
/// unterminated line at end of input is a final message, exactly like the
/// std::getline loop this replaces.
class LineCodec final : public ProtocolCodec {
 public:
  const char* name() const override { return "line"; }
  Decoded Decode(std::string_view buffer, size_t* pos,
                 std::string_view* payload, std::string* error) override;
  void Encode(std::string_view payload, std::string* out) override;
  bool DecodeFinal(std::string_view remainder, std::string_view* payload,
                   std::string* error) override;
};

}  // namespace serve
}  // namespace pane
