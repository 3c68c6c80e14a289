#!/usr/bin/env bash
# Production line count of the workspace crates.
#
# For every crate under crates/, prints each src/ file's lines before its
# first top-level `#[cfg(test)]` line, then the crate's total, then the
# grand total. A file whose parent declares it `#[cfg(test)] mod name;`
# is compiled into the unit tests only and counts 0. Line budgets in
# ROADMAP.md and CHANGES.md count by this rule. For one crate, filter the
# output: `scripts/loc.sh | grep crates/runtime`.
set -euo pipefail
cd "$(dirname "$0")/.."

# Paths of the files that `#[cfg(test)] mod name;` declarations point at.
test_only_files() {
  find "$1" -name '*.rs' -exec awk '
    prev ~ /^#\[cfg\(test\)\][[:space:]]*$/ && /^(pub(\([a-z]+\))? )?mod [A-Za-z0-9_]+;/ {
      name = $0
      sub(/^(pub(\([a-z]+\))? )?mod /, "", name)
      sub(/;.*/, "", name)
      dir = FILENAME; sub(/\/[^\/]*$/, "", dir)
      base = FILENAME; sub(/^.*\//, "", base)
      if (base != "lib.rs" && base != "main.rs" && base != "mod.rs") {
        sub(/\.rs$/, "", base); dir = dir "/" base
      }
      print dir "/" name ".rs"
      print dir "/" name "/mod.rs"
    }
    { prev = $0 }' {} +
}

grand=0
for crate in crates/*/; do
  crate=${crate%/}
  [ -d "$crate/src" ] || continue
  skip=$(test_only_files "$crate/src")
  total=0
  while IFS= read -r f; do
    if grep -qxF "$f" <<<"$skip"; then
      n=0
    else
      n=$(awk '/^#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$f")
    fi
    printf '  %6d  %s\n' "$n" "$f"
    total=$((total + n))
  done < <(find "$crate/src" -name '*.rs' | sort)
  printf '%8d  %s\n' "$total" "$crate"
  grand=$((grand + total))
done
printf '%8d  total\n' "$grand"
