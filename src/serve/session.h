// The serving stack's session layer: one ServeSession per connection,
// sitting between the transport (raw byte buffers) and the PaneServer
// batching core (parsed requests). The session owns exactly three things:
//
//   - which codec the connection speaks (sniffed from the first byte via
//     MakeCodec),
//   - the per-connection batch of decoded-but-unanswered requests,
//   - the quit flag that turns a `quit` response into a connection close.
//
// Batching policy is unchanged from the monolithic server: flush when the
// batch reaches batch_size, on `quit`, on an explicit flush marker (the
// line codec's blank line), and whenever the input drains without a
// complete message left — the event-loop equivalent of the old
// `in_avail() <= 0` heuristic. Responses always come back in request
// order.
//
// A framing error (bad magic, oversized length, truncated final frame)
// first answers everything decoded before it, then answers the error
// itself as a normal `err ...` response, then closes — a hostile client
// can never make the server drop already-accepted requests or abort.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/obs/trace.h"
#include "src/serve/protocol.h"
#include "src/serve/server.h"
#include "src/serve/transport.h"

namespace pane {
namespace serve {

class ServeSession final : public ConnectionHandler {
 public:
  /// The server must outlive the session (the transport guarantees this:
  /// sessions live in connections the transport closes before returning
  /// from Run()).
  explicit ServeSession(PaneServer* server);

  Action OnData(std::string* input, std::string* output) override;
  void OnEof(std::string* input, std::string* output) override;

 private:
  /// Decodes every complete message in *input, batching and flushing per
  /// the policy above; with at_eof also resolves the trailing remainder
  /// via DecodeFinal. Consumed bytes are erased from *input.
  Action Pump(std::string* input, std::string* output, bool at_eof);
  /// Parses one request payload into the batch.
  void PushPayload(std::string_view payload);
  /// Executes the pending batch and encodes its responses into *output.
  void FlushBatch(std::string* output);

  PaneServer* server_;
  std::unique_ptr<ProtocolCodec> codec_;  // chosen on the first byte
  std::vector<PaneServer::BatchEntry> batch_;
  bool quit_ = false;

  /// The current batch's stage timeline: the session stamps decode and
  /// batch-wait, ExecuteBatch adds the engine-side stages, encode is
  /// recorded directly after the batch returns. Reset per batch.
  obs::RequestTrace trace_;
  /// When the current batch's first request was enqueued (batch-wait = the
  /// gap from then to the flush).
  int64_t batch_first_us_ = 0;
};

}  // namespace serve
}  // namespace pane
