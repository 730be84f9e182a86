#include "src/serve/protocol.h"

#include "src/serve/frame_protocol.h"
#include "src/serve/line_protocol.h"

namespace pane {
namespace serve {

std::unique_ptr<ProtocolCodec> MakeCodec(unsigned char first,
                                         size_t max_frame_payload) {
  if (first == kFrameMagic) {
    return std::make_unique<FrameCodec>(max_frame_payload);
  }
  return std::make_unique<LineCodec>();
}

}  // namespace serve
}  // namespace pane
