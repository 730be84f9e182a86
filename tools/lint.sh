#!/usr/bin/env bash
# Repo lint, run as a CI gate (see .github/workflows/ci.yml) and locally via
#   tools/lint.sh
#
# Rule 1 — annotated lock discipline cannot erode: the raw std:: sync
# primitives may be named ONLY inside src/common/sync.{h,cc}, which wraps
# them with Clang thread-safety annotations. Everything else (src/, bench/,
# examples/, tests/) must go through pane::Mutex / MutexLock /
# ReaderMutexLock / CondVar so `-Werror=thread-safety` keeps seeing every
# lock site. std::atomic and std::thread stay legal: atomics carry their own
# semantics and threads are not capabilities.
#
# Rule 2 — no tracked build directories (migrated from the inline CI grep).
#
# Rule 3 — the transport layer owns the sockets: raw socket / epoll
# syscalls may appear ONLY in src/serve/transport.cc. That covers the
# outbound side too — connect() / poll() belong to ShardConnection, so the
# router's shard hops (src/serve/router.cc) and every other caller go
# through the transport's deadline/reconnect logic instead of dialing
# sockets themselves. Server and example code sees connections through
# EpollTransport's handler interface, so fd-lifecycle and readiness bugs
# have exactly one home. tests/ and bench/ are exempt: they are *clients*
# of the server and legitimately open plain connect() sockets to talk to
# it.
#
# Rule 4 — one latency clock in the serving stack: src/serve/ must not do
# ad-hoc std::chrono arithmetic. Stage timings flow through the
# MonotonicNanos/Micros/Millis helpers (src/common/timer.h) into the
# src/obs/ histograms, so every recorded duration shares one clock and one
# unit convention and shows up in the `metrics` exposition. examples/ and
# bench/ may still use std::chrono for their own pacing/sleeps.
#
# Rule 5 — the bitwise contract keeps IEEE arithmetic: the build and the
# sources must not turn on value-changing floating-point optimizations
# (fast-math and its parts, unsafe or reassociating math), fused
# multiply-add (the FMA ISA flag, or a target("fma") attribute or pragma),
# host-specific ISAs (-march=native), or per-function optimize pragmas.
# src/ must not call FMA by name either: std::fma / fma(), __builtin_fma*,
# or the _mm*_fmadd_* / _fmsub_* intrinsics (and their fnm* forms).
# Every library compiles with -ffp-contract=off and the runtime AVX2 units
# use plain -mavx2, so a vector lane rounds like the scalar loop it
# replaces; any of these flags would let served scores, spilled factors or
# one CPU's artifact drift from another's. Checked in CMakeLists.txt,
# CMakePresets.json, panebench/CMakeLists.txt and src/.
#
# Rule 6 — one residency path: madvise / msync may be called ONLY under
# src/store/, where store::BufferPool decides when spilled pages are written
# back and dropped. FactorSlab and every other spill consumer go through the
# pool, so a second self-managed residency path cannot grow back beside it.
#
# Rule 7 — one training driver: in src/, the pipeline's building blocks
# ComputeGraphAffinityIntoSlabs( (the affinity phase) and CcdRefine( (the
# refinement phase) may be called ONLY from src/core/pane.cc. Every training
# run, cold or warm-started, goes through Pane::Train, so a second driver
# with its own validation and memory plan cannot be copied beside it again. Declarations and definitions
# (a line that starts with the return type) are exempt; tests/ and bench/
# may call the phases directly to exercise one of them.
#
# Rule 8 — two n x d slabs per training run: in src/core/, FactorSlab::Create(
# may be called ONLY from pane.cc (the run's two affinity slabs) and
# affinity_engine.cc (ComputeAffinitySlabs' in-RAM convenience). Init writes
# the residuals Sf / Sb into the F' / B' slabs it is given, so a separate
# residual slab created in greedy_init.cc or ccd.cc cannot grow back.
#
# Rule 9 — one shard plan: in src/ and examples/, a ShardSpec's ranges
# (.node_begin, .node_end, .attr_begin, .attr_end) may be assigned ONLY in
# src/serve/shard_plan.cc. Every engine is a shard, and a whole-space spec
# is MakeShardPlan(n, d, 1).shards[0], so a hand-cut range (the way a
# second "unsharded" mode starts) cannot drift from the plan's split.
#
# Rule 10 — one memory plan: in src/core/ and src/matrix/, the identifier
# memory_budget_mb may appear ONLY in src/core/pane.{h,cc} (PaneOptions,
# ValidatePaneOptions and PlanMemory, which turns the budget into every
# size a run uses) and in ValidateMemoryBudgetMb's declaration and
# definition. The phases take shapes — a panel width, a strip width, an
# in-flight block cap, a pool — so a second rule for turning the budget
# into sizes cannot grow back inside one of them.
set -euo pipefail
cd "$(dirname "$0")/.."

status=0

# --- Rule 1: naked std sync primitives ------------------------------------
pattern='std::(mutex|timed_mutex|recursive_mutex|recursive_timed_mutex'
pattern+='|shared_mutex|shared_timed_mutex|lock_guard|unique_lock'
pattern+='|shared_lock|scoped_lock|condition_variable|condition_variable_any)'

hits=$(grep -rEn "$pattern" src bench examples tests \
         --include='*.h' --include='*.cc' --include='*.cpp' \
       | grep -Ev '^src/common/sync\.(h|cc):' || true)
if [[ -n "$hits" ]]; then
  echo "lint: naked std:: sync primitives outside src/common/sync.{h,cc}:" >&2
  echo "$hits" >&2
  echo "lint: use the annotated wrappers from src/common/sync.h instead" >&2
  status=1
fi

# <mutex>/<shared_mutex>/<condition_variable> includes outside the wrapper
# are a smell for the same erosion (the types above would be unusable, but
# catch the include before someone reaches for them).
inc_hits=$(grep -rEn '#include <(mutex|shared_mutex|condition_variable)>' \
             src bench examples tests \
             --include='*.h' --include='*.cc' --include='*.cpp' \
           | grep -Ev '^src/common/sync\.(h|cc):' || true)
if [[ -n "$inc_hits" ]]; then
  echo "lint: raw sync headers included outside src/common/sync.{h,cc}:" >&2
  echo "$inc_hits" >&2
  status=1
fi

# --- Rule 3: raw socket syscalls outside the transport ---------------------
sock_pattern='\b(socket|accept4?|bind|listen|connect|poll'
sock_pattern+='|epoll_create1?|epoll_ctl|epoll_wait|eventfd)\('

sock_hits=$(grep -rEn "$sock_pattern" src examples \
              --include='*.h' --include='*.cc' --include='*.cpp' \
            | grep -Ev '^src/serve/transport\.cc:' || true)
if [[ -n "$sock_hits" ]]; then
  echo "lint: raw socket/epoll syscalls outside src/serve/transport.cc:" >&2
  echo "$sock_hits" >&2
  echo "lint: route inbound connections through serve::EpollTransport and" >&2
  echo "lint: outbound ones through serve::ShardConnection instead" >&2
  status=1
fi

# --- Rule 4: ad-hoc latency clocks in the serving stack --------------------
chrono_hits=$(grep -rEn 'std::chrono|#include <chrono>' src/serve \
                --include='*.h' --include='*.cc' || true)
if [[ -n "$chrono_hits" ]]; then
  echo "lint: std::chrono inside src/serve/ — use MonotonicNanos/Micros/" >&2
  echo "lint: Millis (src/common/timer.h) so stage timings share one clock" >&2
  echo "lint: and land in the src/obs/ histograms:" >&2
  echo "$chrono_hits" >&2
  status=1
fi

# --- Rule 5: value-changing floating-point flags --------------------------
fp_pattern='-ffast-math|-Ofast|-funsafe-math-optimizations'
fp_pattern+='|-fassociative-math|-mfma|-march=native'
fp_pattern+='|#[[:space:]]*pragma[[:space:]]+GCC[[:space:]]+optimize'
fp_pattern+='|target[[:space:]]*\([^)]*fma'

fp_hits=$(grep -rEn -e "$fp_pattern" CMakeLists.txt CMakePresets.json \
            panebench/CMakeLists.txt src || true)
if [[ -n "$fp_hits" ]]; then
  echo "lint: value-changing floating-point flag, FMA or optimize pragma:" >&2
  echo "$fp_hits" >&2
  echo "lint: the bitwise contracts need IEEE multiply-then-add everywhere" >&2
  echo "lint: (see the optimization policy in CMakeLists.txt)" >&2
  status=1
fi

fma_pattern='(^|[^_[:alnum:]])fma[fl]?[[:space:]]*\(|__builtin_fma'
fma_pattern+='|_mm[0-9]*_fn?m(add|sub)'

fma_hits=$(grep -rEn -e "$fma_pattern" src || true)
if [[ -n "$fma_hits" ]]; then
  echo "lint: fused multiply-add called by function or intrinsic:" >&2
  echo "$fma_hits" >&2
  echo "lint: one rounding per multiply and per add keeps the kernels" >&2
  echo "lint: bitwise equal to their scalar references" >&2
  status=1
fi

# --- Rule 6: residency syscalls outside the buffer pool --------------------
residency_hits=$(grep -rEn '\b(madvise|msync)[[:space:]]*\(' \
                   src bench examples tests \
                   --include='*.h' --include='*.cc' --include='*.cpp' \
                 | grep -Ev '^src/store/' || true)
if [[ -n "$residency_hits" ]]; then
  echo "lint: madvise/msync outside src/store/:" >&2
  echo "$residency_hits" >&2
  echo "lint: spilled pages belong to store::BufferPool; register the" >&2
  echo "lint: mapping with the pool instead of managing residency directly" >&2
  status=1
fi

# --- Rule 7: pipeline phases called outside the one training driver -------
driver_fns='(ComputeGraphAffinityIntoSlabs|CcdRefine)'
driver_hits=$(grep -rEn "\b${driver_fns}\(" src \
                --include='*.h' --include='*.cc' --include='*.cpp' \
              | grep -Ev '^src/core/pane\.cc:' \
              | grep -Ev "^[^:]+:[0-9]+:[A-Za-z_][A-Za-z0-9_:<>]*[[:space:]]+${driver_fns}\(" \
              || true)
if [[ -n "$driver_hits" ]]; then
  echo "lint: training pipeline phase called outside src/core/pane.cc:" >&2
  echo "$driver_hits" >&2
  echo "lint: train through Pane::Train (a warm start is its warm_start" >&2
  echo "lint: argument) instead of driving the phases from a second place" >&2
  status=1
fi

# --- Rule 8: factor slabs created outside the driver and the engine -------
slab_hits=$(grep -rEn 'FactorSlab::Create\(' src/core \
              --include='*.h' --include='*.cc' \
            | grep -Ev '^src/core/(pane|affinity_engine)\.cc:' || true)
if [[ -n "$slab_hits" ]]; then
  echo "lint: FactorSlab::Create outside src/core/pane.cc and affinity_engine.cc:" >&2
  echo "$slab_hits" >&2
  echo "lint: init overwrites F' / B' with Sf / Sb in place; a training run" >&2
  echo "lint: holds the two slabs Pane::Train creates, not a second pair" >&2
  status=1
fi

# --- Rule 9: shard ranges cut outside the shard plan ---------------------
range_hits=$(grep -rEn \
               '(\.|->)(node_begin|node_end|attr_begin|attr_end)[[:space:]]*=[^=]' \
               src examples \
               --include='*.h' --include='*.cc' --include='*.cpp' \
             | grep -Ev '^src/serve/shard_plan\.cc:' || true)
if [[ -n "$range_hits" ]]; then
  echo "lint: shard ranges assigned outside src/serve/shard_plan.cc:" >&2
  echo "$range_hits" >&2
  echo "lint: take a spec from MakeShardPlan(n, d, N) (the whole space is" >&2
  echo "lint: MakeShardPlan(n, d, 1).shards[0]) instead of cutting one by hand" >&2
  status=1
fi

# --- Rule 10: the memory budget read outside the memory plan --------------
# Skips ValidateMemoryBudgetMb's declaration line and its definition (the
# signature line that opens a body, through the closing brace in column 0);
# a call of it elsewhere is a read like any other.
budget_hits=$(grep -rlE '\bmemory_budget_mb\b' src/core src/matrix \
                --include='*.h' --include='*.cc' \
              | grep -Ev '^src/core/pane\.(h|cc)$' \
              | while read -r file; do
                  awk -v file="$file" '
                    /^Status ValidateMemoryBudgetMb\(/ {
                      skip = /\{[[:space:]]*$/; next
                    }
                    skip { if (/^}/) skip = 0; next }
                    /(^|[^A-Za-z0-9_])memory_budget_mb([^A-Za-z0-9_]|$)/ {
                      print file ":" FNR ":" $0
                    }' "$file"
                done || true)
if [[ -n "$budget_hits" ]]; then
  echo "lint: memory_budget_mb outside src/core/pane.{h,cc}:" >&2
  echo "$budget_hits" >&2
  echo "lint: take the size from the run's MemoryPlan (PlanMemory) and pass" >&2
  echo "lint: the phase a width or cap instead of the budget" >&2
  status=1
fi

# --- Rule 2: tracked build directories ------------------------------------
if git ls-files | grep -E '^build[^/]*/' >&2; then
  echo "lint: build*/ paths must never be tracked (see .gitignore)" >&2
  status=1
fi

if [[ $status -eq 0 ]]; then
  echo "lint: OK"
fi
exit $status
