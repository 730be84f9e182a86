// Splits a trained NodeEmbedding artifact into N shard containers for the
// scatter-gather serving fabric (src/serve/router.h):
//
//   ./pane_cli --mode=train --method=pane --graph=/data/cora --out=emb.ctn
//   ./pane_shardctl --input=emb.ctn --out-prefix=emb.shard --shards=3
//   # -> emb.shard.0  emb.shard.1  emb.shard.2
//   ./pane_server --embedding=emb.shard.0 --port=7071 &
//   ./pane_server --embedding=emb.shard.1 --port=7072 &
//   ./pane_server --embedding=emb.shard.2 --port=7073 &
//   ./pane_server --shards=127.0.0.1:7071,127.0.0.1:7072,127.0.0.1:7073
//
// Each shard container replicates the query-side factors (Xf, Xb) in full
// and holds contiguous row slices of the candidate matrices: Y rows
// [attr_begin, attr_end) and Z rows [node_begin, node_end), where
// Z = Xb (Y^T Y) is derived ONCE here from the full matrices and sliced —
// never per shard — so every shard's link scores (and therefore the
// router's merged rankings) are bitwise what an unsharded server answers.
#include <cstdio>

#include "src/common/flags.h"
#include "src/common/logging.h"
#include "src/common/timer.h"
#include "src/serve/shard_plan.h"

int main(int argc, char** argv) {
  pane::FlagSet flags;
  flags.AddString("input", "", "NodeEmbedding artifact to split");
  flags.AddString("out-prefix", "",
                  "shard containers are written as <out-prefix>.<i>");
  flags.AddInt("shards", 0, "number of row shards to cut (>= 1)");
  PANE_CHECK_OK(flags.Parse(argc, argv));
  PANE_CHECK(!flags.GetString("input").empty()) << "--input is required";
  PANE_CHECK(!flags.GetString("out-prefix").empty())
      << "--out-prefix is required";
  PANE_CHECK(flags.GetInt("shards") >= 1) << "--shards must be >= 1";

  pane::WallTimer timer;
  std::vector<std::string> paths;
  PANE_CHECK_OK(pane::serve::SplitEmbeddingArtifact(
      flags.GetString("input"), flags.GetString("out-prefix"),
      static_cast<int>(flags.GetInt("shards")), &paths));
  for (const std::string& path : paths) {
    std::fprintf(stderr, "wrote %s\n", path.c_str());
  }
  std::fprintf(stderr, "split into %zu shards in %.3fs\n", paths.size(),
               timer.ElapsedSeconds());
  return 0;
}
