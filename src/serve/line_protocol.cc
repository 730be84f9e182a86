#include "src/serve/line_protocol.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "src/common/string_util.h"

namespace pane {
namespace serve {
namespace {

/// Strict non-negative integer parse (the protocol's ids and counts).
bool ParseId(std::string_view token, int64_t* out) {
  if (token.empty() || token.size() > 18) return false;
  int64_t value = 0;
  for (const char c : token) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + (c - '0');
  }
  *out = value;
  return true;
}

void AppendScore(std::string* out, double score) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", score);
  out->append(buf);
}

/// strtod over one score token. %.17g never prints 48 characters, so a
/// longer token is garbage, not a score.
bool ParseScore(std::string_view token, double* out) {
  char buf[48];  // strtod needs NUL termination
  if (token.empty() || token.size() >= sizeof(buf)) return false;
  std::memcpy(buf, token.data(), token.size());
  buf[token.size()] = '\0';
  char* end = nullptr;
  *out = std::strtod(buf, &end);
  return end == buf + token.size();
}

}  // namespace

Result<Request> ParseRequestLine(std::string_view line) {
  const std::vector<std::string_view> tokens = SplitWhitespace(line);
  if (tokens.empty()) {
    return Status::InvalidArgument("empty request");
  }
  Request request;
  const std::string_view verb = tokens[0];
  if (verb == "stats" || verb == "quit" || verb == "plan" ||
      verb == "metrics") {
    if (tokens.size() != 1) {
      return Status::InvalidArgument(std::string(verb) +
                                     " takes no arguments");
    }
    request.type = verb == "stats"     ? Request::Type::kStats
                   : verb == "plan"    ? Request::Type::kPlan
                   : verb == "metrics" ? Request::Type::kMetrics
                                       : Request::Type::kQuit;
    return request;
  }
  if (tokens.size() != 3) {
    return Status::InvalidArgument(
        "expected '<verb> <id> <id>', got: " + std::string(line));
  }
  int64_t first = 0, second = 0;
  if (!ParseId(tokens[1], &first) || !ParseId(tokens[2], &second)) {
    return Status::InvalidArgument("non-numeric id in: " + std::string(line));
  }
  if (verb == "attr" || verb == "link") {
    request.type = verb == "attr" ? Request::Type::kTopKAttributes
                                  : Request::Type::kTopKTargets;
    request.a = first;
    request.k = second;
    if (request.k <= 0) {
      return Status::InvalidArgument("k must be positive in: " +
                                     std::string(line));
    }
    return request;
  }
  if (verb == "pattr" || verb == "pair") {
    request.type = verb == "pattr" ? Request::Type::kAttributePair
                                   : Request::Type::kLinkPair;
    request.a = first;
    request.b = second;
    return request;
  }
  return Status::InvalidArgument("unknown verb: " + std::string(verb));
}

std::string FormatRanking(const Request& request, const Ranking& ranking) {
  std::string out =
      request.type == Request::Type::kTopKAttributes ? "attr " : "link ";
  out += std::to_string(request.a);
  out += " ok";
  for (const auto& [index, score] : ranking) {
    out += ' ';
    out += std::to_string(index);
    out += ':';
    AppendScore(&out, score);
  }
  return out;
}

std::string FormatScore(const Request& request, double score) {
  std::string out =
      request.type == Request::Type::kAttributePair ? "pattr " : "pair ";
  out += std::to_string(request.a);
  out += ' ';
  out += std::to_string(request.b);
  out += " ok ";
  AppendScore(&out, score);
  return out;
}

std::string FormatError(const std::string& message) {
  return "err " + message;
}

std::string FormatRequest(const Request& request) {
  switch (request.type) {
    case Request::Type::kTopKAttributes:
      return "attr " + std::to_string(request.a) + ' ' +
             std::to_string(request.k);
    case Request::Type::kTopKTargets:
      return "link " + std::to_string(request.a) + ' ' +
             std::to_string(request.k);
    case Request::Type::kAttributePair:
      return "pattr " + std::to_string(request.a) + ' ' +
             std::to_string(request.b);
    case Request::Type::kLinkPair:
      return "pair " + std::to_string(request.a) + ' ' +
             std::to_string(request.b);
    case Request::Type::kStats:
      return "stats";
    case Request::Type::kMetrics:
      return "metrics";
    case Request::Type::kPlan:
      return "plan";
    case Request::Type::kQuit:
      return "quit";
  }
  return "stats";
}

namespace {

/// A shard reply must answer its own request: it starts with `head` (the
/// verb, ids and "ok" of that request's answer), returned stripped. An
/// "err" payload passes through as the error.
Status StripReplyHead(std::string_view* line, const std::string& head) {
  if (line->substr(0, 3) == "err") {
    return Status::IOError("shard answered: " + std::string(*line));
  }
  if (line->substr(0, head.size()) != head) {
    return Status::InvalidArgument("reply does not start '" + head +
                                   "': " + std::string(*line));
  }
  line->remove_prefix(head.size());
  return Status::OK();
}

}  // namespace

Status ParseRankingResponse(std::string_view line, const Request& request,
                            int64_t id_begin, int64_t id_end,
                            Ranking* ranking) {
  PANE_RETURN_NOT_OK(StripReplyHead(&line, FormatRanking(request, {})));
  if (!line.empty() && line[0] != ' ') {
    return Status::InvalidArgument("malformed top-k response");
  }
  const std::vector<std::string_view> entries = SplitWhitespace(line);
  if (static_cast<int64_t>(entries.size()) > request.k) {
    return Status::InvalidArgument("more than k ranking entries");
  }
  ranking->clear();
  for (const std::string_view entry : entries) {
    const size_t colon = entry.find(':');
    std::pair<int64_t, double> item;
    if (colon == std::string_view::npos ||
        !ParseId(entry.substr(0, colon), &item.first) ||
        !ParseScore(entry.substr(colon + 1), &item.second)) {
      return Status::InvalidArgument("malformed ranking entry: " +
                                     std::string(entry));
    }
    if (item.first < id_begin || item.first >= id_end) {
      return Status::InvalidArgument("ranking id outside the shard range: " +
                                     std::string(entry));
    }
    // MergeTopK needs strict RankBetter order, which also rules out a
    // repeated id.
    if (!ranking->empty() && !RankBetter(ranking->back(), item)) {
      return Status::InvalidArgument("ranking out of order at: " +
                                     std::string(entry));
    }
    ranking->push_back(item);
  }
  return Status::OK();
}

Status ParseScoreResponse(std::string_view line, const Request& request,
                          double* score) {
  PANE_RETURN_NOT_OK(StripReplyHead(&line, FormatRequest(request) + " ok "));
  if (!ParseScore(line, score)) {
    return Status::InvalidArgument("malformed pair score: " +
                                   std::string(line));
  }
  return Status::OK();
}

ProtocolCodec::Decoded LineCodec::Decode(std::string_view buffer, size_t* pos,
                                         std::string_view* payload,
                                         std::string* error) {
  (void)error;  // text lines have no framing errors, only parse errors
  const size_t newline = buffer.find('\n', *pos);
  if (newline == std::string_view::npos) return Decoded::kNeedMore;
  const std::string_view line = buffer.substr(*pos, newline - *pos);
  *pos = newline + 1;
  const bool blank = line.find_first_not_of(" \t\r\v\f") ==
                     std::string_view::npos;
  if (blank) return Decoded::kFlush;
  *payload = line;
  return Decoded::kMessage;
}

void LineCodec::Encode(std::string_view payload, std::string* out) {
  out->append(payload.data(), payload.size());
  out->push_back('\n');
}

bool LineCodec::DecodeFinal(std::string_view remainder,
                            std::string_view* payload, std::string* error) {
  (void)error;
  if (remainder.find_first_not_of(" \t\r\v\f") == std::string_view::npos) {
    return false;  // trailing whitespace, nothing to answer
  }
  *payload = remainder;
  return true;
}

}  // namespace serve
}  // namespace pane
