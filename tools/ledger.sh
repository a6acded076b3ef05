#!/bin/sh
# Feature-ledger counts (DESIGN.md §17). Prints the non-test line count over
# crates/*/src and that of examples/lib.rs (the plug-in driver: the paper's
# measure of what integrating a co-processor costs), the length of each
# driver's `impl Device for` block (first line to closing brace, in
# crates/device/src/sim.rs and examples/lib.rs), then the public items no
# product target reaches, as listed by the compiler check in
# tools/unreached_pub.py (one `file:line kind name` per line).
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

# The non-test lines that are neither blank nor a comment.
count() {
  non_test_lines "$@" | awk -F'\t' '$2 ~ /[^[:space:]]/ && $2 !~ /^[[:space:]]*\/\//' | wc -l
}

echo "non-test lines over crates/*/src: $(count crates/*/src)"
echo "non-test lines of the plug-in driver, examples/lib.rs: $(count examples/lib.rs)"
for f in crates/device/src/sim.rs examples/lib.rs; do
  awk -v f="$f" '/^impl Device for / { name = $4; n = 0; on = 1 }
       on { n++ }
       on && /^}/ { print "lines of impl Device for " name ", " f ": " n; on = 0 }' "$f"
done

python3 tools/unreached_pub.py
