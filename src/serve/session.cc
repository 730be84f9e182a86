#include "src/serve/session.h"

#include <cstring>
#include <utility>

#include "src/common/timer.h"
#include "src/serve/line_protocol.h"

namespace pane {
namespace serve {

ServeSession::ServeSession(PaneServer* server) : server_(server) {
  batch_.reserve(static_cast<size_t>(server_->options().batch_size));
}

ConnectionHandler::Action ServeSession::OnData(std::string* input,
                                               std::string* output) {
  return Pump(input, output, /*at_eof=*/false);
}

void ServeSession::OnEof(std::string* input, std::string* output) {
  Pump(input, output, /*at_eof=*/true);
}

void ServeSession::PushPayload(std::string_view payload) {
  if (batch_.empty()) batch_first_us_ = MonotonicMicros();
  PaneServer::BatchEntry entry;
  const auto parsed = ParseRequestLine(payload);
  if (parsed.ok()) {
    entry.request = *parsed;
  } else {
    entry.parse_error = true;
    entry.error = parsed.status().message();
  }
  batch_.push_back(std::move(entry));
}

void ServeSession::FlushBatch(std::string* output) {
  if (batch_.empty()) return;
  trace_.Add(obs::Stage::kBatchWait, MonotonicMicros() - batch_first_us_);
  std::vector<std::string> responses;
  server_->ExecuteBatch(&batch_, &responses, &quit_, &trace_);
  const int64_t encode_start_us = MonotonicMicros();
  for (const std::string& response : responses) {
    codec_->Encode(response, output);
  }
  server_->RecordStageTime(obs::Stage::kEncode,
                           MonotonicMicros() - encode_start_us);
  trace_.Reset();
}

ConnectionHandler::Action ServeSession::Pump(std::string* input,
                                             std::string* output,
                                             bool at_eof) {
  if (quit_) {
    // Everything after `quit` is ignored, exactly like the getline loop
    // that stopped reading once the quit batch flushed.
    input->clear();
    return Action::kClose;
  }
  if (codec_ == nullptr) {
    if (input->empty()) return at_eof ? Action::kClose : Action::kKeepOpen;
    codec_ = MakeCodec(
        static_cast<unsigned char>((*input)[0]),
        static_cast<size_t>(server_->options().max_frame_bytes));
  }
  const bool framed = std::strcmp(codec_->name(), "frame") == 0;
  const int64_t batch_size = server_->options().batch_size;

  size_t pos = 0;
  bool close = false;
  while (!close) {
    // Decode = framing scan + request parse; only completed messages are
    // charged (a partial tail or flush marker is noise, not a stage).
    const int64_t decode_start_us = MonotonicMicros();
    std::string_view payload;
    std::string error;
    const ProtocolCodec::Decoded decoded =
        codec_->Decode(*input, &pos, &payload, &error);
    if (decoded == ProtocolCodec::Decoded::kNeedMore) break;
    if (decoded == ProtocolCodec::Decoded::kFlush) {
      FlushBatch(output);
      continue;
    }
    if (decoded == ProtocolCodec::Decoded::kError) {
      // Answer everything decoded before the bad bytes, then the error
      // itself, then hang up — the stream is unrecoverable past this.
      FlushBatch(output);
      PaneServer::BatchEntry entry;
      entry.parse_error = true;
      entry.error = std::move(error);
      batch_.push_back(std::move(entry));
      FlushBatch(output);
      close = true;
      break;
    }
    if (framed) server_->RecordFrames();
    PushPayload(payload);
    trace_.Add(obs::Stage::kDecode, MonotonicMicros() - decode_start_us);
    const PaneServer::BatchEntry& last = batch_.back();
    const bool is_quit =
        !last.parse_error && last.request.type == Request::Type::kQuit;
    if (static_cast<int64_t>(batch_.size()) >= batch_size || is_quit) {
      FlushBatch(output);
      if (quit_) close = true;
    }
  }
  input->erase(0, pos);
  if (close) {
    input->clear();
    return Action::kClose;
  }
  if (at_eof) {
    if (!input->empty()) {
      std::string_view payload;
      std::string error;
      if (codec_->DecodeFinal(*input, &payload, &error)) {
        PushPayload(payload);
      } else if (!error.empty()) {
        PaneServer::BatchEntry entry;
        entry.parse_error = true;
        entry.error = std::move(error);
        batch_.push_back(std::move(entry));
      }
      input->clear();
    }
    FlushBatch(output);
    return Action::kClose;
  }
  // Input drained with no complete message left: answer what we have now
  // rather than waiting for bytes that may never come (the event-loop
  // equivalent of the old in_avail() <= 0 flush).
  FlushBatch(output);
  return Action::kKeepOpen;
}

}  // namespace serve
}  // namespace pane
