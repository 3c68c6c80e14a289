#!/usr/bin/env bash
# Atomic-ordering lint for crates/runtime.
#
# The token protocol's correctness rests on the exact Release/Acquire
# edges model-checked in crates/runtime/src/check.rs (the eight
# invariants of docs/ROBUSTNESS.md §"Model checking"). A stray
# `Ordering::Relaxed` — or a brand-new atomic that the model checker
# never explores — silently weakens those proofs, so both are gated
# here and the gate runs in CI.
#
# Two rules:
#
#   1. Only the pinned set of files below may use atomics at all. A new
#      atomic in any other runtime source file must first be reviewed
#      against the model checker (extend src/check.rs or argue why the
#      new atomic is outside the token protocol), then added to
#      ALLOWED_ATOMIC_FILES in the same PR.
#
#   2. `Ordering::Relaxed` is forbidden in non-test runtime code except
#      at the allowlisted sites below. Code after a file's top-level
#      `#[cfg(test)]` marker is exempt: test counters are read only
#      after `thread::scope` joins, which are full happens-before edges.
#
# ---- Relaxed allowlist ------------------------------------------------
# ALLOW_RELAXED_RE matches the *content* of an allowed line:
#
#   release_ns (declared in token.rs, on the token counter's block;
#     stored and loaded in runner.rs): the handoff-latency timestamp. The
#     stamp is written before the Release store of `release_chunk`
#     publishes the grant, and read after the claimant's Acquire load of
#     `release_chunk` observes it — the pairing rides entirely on
#     release_chunk's Release/Acquire edge (model-checked token handoff,
#     invariant 1), so the value itself needs no ordering. A missed
#     pairing only drops a latency sample; it can never affect results.
#
#   cursor (sched.rs): a DOALL plan stage's claim cursor. Its one
#     `fetch_add` only hands out chunk indices — the read-modify-write
#     alone makes every claim unique, whatever the ordering — and no
#     chunk's data is published through it: DOALL chunks are independent,
#     and the stage's end barrier (or the workers' join, before the
#     degraded path reads the cursor with Acquire) orders every worker's
#     writes before anything that reads them.
set -euo pipefail
cd "$(dirname "$0")/.."

RT=crates/runtime/src
# sched.rs: the split-stage per-worker slots (padded; a DOACROSS
#   worker's committed frontier, Release on post / Acquire in the gate and
#   in the post-join salvage — a pipelined producer's frontier is its one
#   slot, which its consumer's gate loads the same way — or a DOALL
#   worker's abandoned chunk, stored and read the same way) and the DOALL claim cursor (allowlisted below).
#   A stage halts on its token's poison, which lives in token.rs; its
#   chunk transaction (the torn mark, the budget) is runner.rs's. The gate
#   protocol and the cancel's hole fill are model-checked by DoAcrossModel
#   in src/check.rs.
# verify.rs: the verify window's `audits` counter, the progress word of a
#   claimant waiting for another worker's audit: Release when an audit
#   retires its packet, Acquire in the waiting claimant's governed wait.
#   VerifyModel in src/check.rs models the window's Acquire/Release retire
#   edge (an audit's retirement happens-before the claimant's body); the
#   torn mark and the completed word it reads are runner.rs's and token.rs's.
ALLOWED_ATOMIC_FILES="barrier.rs govern.rs health.rs runner.rs sched.rs token.rs verify.rs"
ALLOW_RELAXED_RE='release_ns\.(load|store)\(|cursor\.0\.fetch_add\('

fail=0

# Rule 1: pinned atomic-using file set.
for f in "$RT"/*.rs; do
  base=$(basename "$f")
  if grep -qE 'Atomic(Bool|U8|U16|U32|U64|Usize|I8|I16|I32|I64|Isize|Ptr)|Ordering::' "$f"; then
    case " $ALLOWED_ATOMIC_FILES " in
      *" $base "*) ;;
      *)
        echo "lint_atomics: $f uses atomics but is not in the pinned set" >&2
        echo "  review it against the model checker (src/check.rs, docs/ROBUSTNESS.md)" >&2
        echo "  and add '$base' to ALLOWED_ATOMIC_FILES in scripts/lint_atomics.sh" >&2
        fail=1
        ;;
    esac
  fi
done

# Rule 2: no unlisted Relaxed in non-test code.
while IFS=: read -r file line content; do
  [ -n "$file" ] || continue
  testline=$(grep -n '^#\[cfg(test)\]' "$file" | head -1 | cut -d: -f1)
  if [ -n "$testline" ] && [ "$line" -gt "$testline" ]; then
    continue # test module: joins give happens-before
  fi
  if printf '%s' "$content" | grep -qE "$ALLOW_RELAXED_RE"; then
    continue
  fi
  echo "lint_atomics: $file:$line: unlisted Ordering::Relaxed in non-test code" >&2
  echo "  $content" >&2
  echo "  justify it against the model-checked invariants (src/check.rs," >&2
  echo "  docs/ROBUSTNESS.md) and extend ALLOW_RELAXED_RE, or use a stronger order" >&2
  fail=1
done < <(grep -n 'Ordering::Relaxed' "$RT"/*.rs /dev/null || true)

if [ "$fail" -ne 0 ]; then
  exit 1
fi
echo "lint_atomics: ok"
