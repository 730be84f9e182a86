// Frame-protocol filter for shell harnesses: converts between the
// newline-delimited text of line_protocol.h and the length-prefixed
// binary framing of frame_protocol.h, one payload per line / frame.
//
//   # drive a server over frames from a text script (it sniffs the frame
//   # magic) and diff against the line-mode golden transcript
//   ./pane_frame --encode < queries.txt |
//     ./pane_server --embedding=emb.ctn |
//     ./pane_frame --decode > responses.txt
//
// --decode exits nonzero on any framing error (garbage magic, hostile
// length, truncated trailing frame), which is what lets CI assert the
// server's frame output is well-formed end to end.
#include <iostream>
#include <iterator>
#include <string>

#include "src/common/flags.h"
#include "src/common/logging.h"
#include "src/serve/frame_protocol.h"

int main(int argc, char** argv) {
  pane::FlagSet flags;
  flags.AddBool("encode", false,
                "read text lines from stdin, write one frame per nonblank "
                "line to stdout");
  flags.AddBool("decode", false,
                "read frames from stdin, write one text line per frame to "
                "stdout; exit 1 on a framing error");
  PANE_CHECK_OK(flags.Parse(argc, argv));
  PANE_CHECK(flags.GetBool("encode") != flags.GetBool("decode"))
      << "exactly one of --encode / --decode is required";

  if (flags.GetBool("encode")) {
    std::string line;
    std::string output;
    while (std::getline(std::cin, line)) {
      if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
      pane::serve::AppendFrame(line, &output);
    }
    std::cout.write(output.data(),
                    static_cast<std::streamsize>(output.size()));
    std::cout.flush();
    return 0;
  }

  const std::string input(std::istreambuf_iterator<char>(std::cin), {});
  pane::serve::FrameCodec codec;
  size_t pos = 0;
  while (true) {
    std::string_view payload;
    std::string error;
    const auto decoded = codec.Decode(input, &pos, &payload, &error);
    if (decoded == pane::serve::ProtocolCodec::Decoded::kNeedMore) {
      if (pos < input.size()) {
        std::string_view unused;
        codec.DecodeFinal(input.substr(pos), &unused, &error);
        std::cerr << "pane_frame: " << error << '\n';
        return 1;
      }
      return 0;
    }
    if (decoded == pane::serve::ProtocolCodec::Decoded::kError) {
      std::cerr << "pane_frame: " << error << '\n';
      return 1;
    }
    std::cout << payload << '\n';
  }
}
