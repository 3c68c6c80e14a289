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
#   release_ns (runner.rs): the handoff-latency timestamp. The stamp is
#     written before the Release store of `release_chunk` publishes the
#     grant, and read after the claimant's Acquire load of
#     `release_chunk` observes it — the pairing rides entirely on
#     release_chunk's Release/Acquire edge (model-checked token handoff,
#     invariant 1), so the value itself needs no ordering. A missed
#     pairing only drops a latency sample; it can never affect results.
#
#   scrubs (runner.rs): the arena-scrub pass counter. Bumped only by the
#     supervisor before any worker spawns (the first loop's baseline) or
#     by an end-of-loop barrier leader, and read into RunStats after
#     `thread::scope` joins — every reader is already ordered after
#     every writer, so the counter itself needs no ordering. Pure
#     statistics; no protocol decision reads it.
set -euo pipefail
cd "$(dirname "$0")/.."

RT=crates/runtime/src
# sched.rs: the DOACROSS post/wait counters (padded per-worker committed
#   frontiers, Release on post / Acquire in the gate) plus the stage
#   halt/unjournaled flags. The protocol is model-checked by
#   DoAcrossModel in src/check.rs; the module uses no Relaxed orderings.
ALLOWED_ATOMIC_FILES="barrier.rs govern.rs health.rs runner.rs sched.rs token.rs"
ALLOW_RELAXED_RE='release_ns\.(load|store)\(|scrubs\.(load|fetch_add)\('

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
