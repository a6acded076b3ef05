#!/bin/sh
# Feature-ledger counts (DESIGN.md §17). Prints the non-test line count over
# crates/*/src, then every `pub fn` under crates/*/src whose name appears
# nowhere else in non-test, non-comment code of crates/*/src, benchmark/src
# or examples, one `file name` per line.
#
# Non-test lines are non-blank lines that do not start with `//`, up to a
# file's first `#[cfg(test)]` item, skipping files that are themselves a
# `#[cfg(test)] mod x;` (a `#[cfg(test)] mod x;` line does not end a file).
#
# Usage: tools/ledger.sh   (from any directory)
set -eu
cd "$(dirname "$0")/.."

# Files that are themselves a `#[cfg(test)] mod x;`.
test_mods() {
  grep -rA1 '^#\[cfg(test)\]' "$@" | sed -n 's|/[a-z_]*\.rs-mod \([a-z_]*\);$|/\1.rs|p'
}

# Every non-test line of the .rs files under the given directories, as
# `file<TAB>line`.
non_test_lines() {
  skip=$(test_mods "$@")
  for f in $(find "$@" -name '*.rs' | sort); do
    case " $skip " in *" $f "*) continue ;; esac
    awk -v f="$f" '/^#\[cfg\(test\)\]/ { getline; if (/^mod [a-z_]+;$/) next; exit }
         { print f "\t" $0 }' "$f"
  done
}

lines=$(non_test_lines crates/*/src | awk -F'\t' '$2 ~ /[^[:space:]]/ && $2 !~ /^[[:space:]]*\/\//' | wc -l)
echo "non-test lines over crates/*/src: $lines"

zero=$(non_test_lines crates/*/src benchmark/src examples | awk -F'\t' '
  $2 ~ /^[[:space:]]*\/\// { next }
  { n = split($2, w, /[^A-Za-z_0-9]+/); for (i = 1; i <= n; i++) seen[w[i]]++ }
  $1 ~ /^crates\// && match($2, /pub fn [a-z_0-9]+/) { def[++d] = $1 " " substr($2, RSTART + 7, RLENGTH - 7) }
  END { for (i = 1; i <= d; i++) { split(def[i], p, " "); if (seen[p[2]] == 1) print def[i] } }')
echo "pub fns with zero callers: $(printf '%s' "$zero" | grep -c . || true)"
[ -z "$zero" ] || printf '%s\n' "$zero"
