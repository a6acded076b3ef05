#!/usr/bin/env python3
"""List the public items of crates/*/src that no product target reaches.

Product targets are the crates/* libraries and binaries, crates/bench's
benches, the examples package and the benchmark package; the integration
tests and every unit test are not. The check asks the compiler:

1. Copy the working tree into a scratch directory (default
   target/unreached-pub) and turn every `pub` visibility under crates/*/src
   into `pub(crate)`. Grouped `pub use a::{B, C}` re-exports are split into
   one statement per name first, on the same line, so that each name can be
   re-published on its own.
2. `cargo check` the product targets. Every privacy error names the
   definition that a product target needs (its span, or for a field the
   struct and field name), and that definition gets its `pub` back. So does
   every type a `private_interfaces` or `private_bounds` warning names.
   Repeat until the targets build without either.
3. What is left `pub(crate)` and unused within its own crate is what rustc's
   `dead_code` lint reports. Print those items, one `file:line kind name`
   per line, sorted.

Usage: python3 tools/unreached_pub.py [--work DIR]   (from any directory)
"""

import argparse
import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# A visibility token to privatise: `pub` not followed by `(`.
PUB = re.compile(r"\bpub(?=\s)(?!\s*\()")
USE = re.compile(r"^(\s*)pub\s+use\s+")

# Privacy errors that point at a definition (E0603: item, E0624: method).
SPAN_CODES = {"E0603", "E0624"}
# A `pub use` of an item that is only `pub(crate)`, spanning the use leaf.
REEXPORT_CODES = {"E0364", "E0365"}
# Names a glob import no longer brings in.
UNRESOLVED_CODES = {"E0412", "E0422", "E0423", "E0425", "E0433", "E0405", "E0531", "E0532"}
# Privacy errors about a field, which carry no definition span.
FIELD_CODES = {"E0616", "E0451"}
FIELD_MSG = re.compile(r"fields? (.+?) of (?:struct|union) `(?:[\w:]+::)?(\w+)(?:<.*>)?` (?:is|are) private")
INTERFACE_LINTS = {"private_interfaces", "private_bounds"}


def sh(cmd, cwd, env=None):
    return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True)


def tracked_files():
    out = sh(["git", "ls-files", "-co", "--exclude-standard"], ROOT).stdout
    return [f for f in out.splitlines() if os.path.isfile(os.path.join(ROOT, f))]


def flatten_use(tree, prefix=""):
    """`a::{b, c::{d}}` -> [`a::b`, `a::c::d`] (no `self` or glob nesting)."""
    tree = tree.strip()
    i = tree.find("{")
    if i < 0:
        return [prefix + tree]
    head, body = tree[:i], tree[i + 1 : tree.rindex("}")]
    parts, depth, start = [], 0, 0
    for j, c in enumerate(body + ","):
        depth += (c == "{") - (c == "}")
        if c == "," and depth == 0:
            parts.append(body[start:j])
            start = j + 1
    return [leaf for p in parts if p.strip() for leaf in flatten_use(p, prefix + head)]


def privatise(text):
    """Rewrite one source file; `pub use` groups become one line of leaves.

    Line numbers are preserved: a multi-line group collapses onto its first
    line and leaves blank lines behind."""
    lines = text.split("\n")
    out = []
    i = 0
    while i < len(lines):
        line = lines[i]
        m = USE.match(line)
        if m and "{" in line:
            j, stmt = i, line
            while not stmt.rstrip().endswith(";"):
                j += 1
                stmt += " " + lines[j].strip()
            tree = stmt[m.end() : stmt.rstrip().rindex(";")]
            leaves = flatten_use(tree)
            out.append(m.group(1) + " ".join(f"pub(crate) use {leaf};" for leaf in leaves))
            out += [""] * (j - i)
            i = j + 1
            continue
        out.append(PUB.sub("pub(crate)", line))
        i += 1
    return "\n".join(out)


def sync_copy(work):
    """Mirror the working tree into `work`, privatised; untouched files keep
    their mtime so cargo's cache stays warm across runs."""
    src = os.path.join(work, "src")
    keep = set()
    for rel in tracked_files():
        if rel.startswith("target/") or rel.startswith("benchmark/target/"):
            continue
        with open(os.path.join(ROOT, rel), "rb") as f:
            data = f.read()
        if re.match(r"crates/[^/]+/src/.*\.rs$", rel):
            data = privatise(data.decode()).encode()
        dst = os.path.join(src, rel)
        keep.add(os.path.normpath(dst))
        old = None
        if os.path.exists(dst):
            with open(dst, "rb") as f:
                old = f.read()
        if old != data:
            os.makedirs(os.path.dirname(dst), exist_ok=True)
            with open(dst, "wb") as f:
                f.write(data)
    for dirpath, _, files in os.walk(src):
        for name in files:
            p = os.path.normpath(os.path.join(dirpath, name))
            if p not in keep:
                os.remove(p)
    return src


# (directory of the copy to run in, `cargo check` arguments).
CHECKS = [
    (".", ["--workspace", "--exclude", "adamant-integration-tests", "--lib", "--bins", "--examples"]),
    (".", ["-p", "adamant-bench", "--bench", "exec_models", "--bench", "primitives"]),
    ("benchmark", ["--bins"]),
]


def diagnostics(src, target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    diags = []
    for where, args in CHECKS:
        cwd = os.path.join(src, where)
        res = sh(["cargo", "check", "--offline", "--message-format=json", *args], cwd, env)
        for line in res.stdout.splitlines():
            try:
                msg = json.loads(line)
            except ValueError:
                continue
            if msg.get("reason") == "compiler-message":
                diags.append(rebase(msg["message"], src, cwd))
        if res.returncode != 0 and not any(d["level"] == "error" for d in diags):
            sys.exit(f"cargo check failed without a diagnostic:\n{res.stderr[-4000:]}")
    return diags


def rebase(msg, src, base):
    """Make every span's file name relative to the copy's root."""
    for s in msg["spans"]:
        s["file_name"] = os.path.relpath(os.path.join(base, s["file_name"]), src)
    for child in msg.get("children", []):
        rebase(child, src, base)
    return msg


def definition_spans(msg):
    """The secondary spans of a diagnostic and the spans of its notes."""
    yield from (s for s in msg["spans"] if not s["is_primary"])
    for child in msg.get("children", []):
        if child["level"] == "note":
            yield from child["spans"]


class Copy:
    def __init__(self, src):
        self.src = src
        self.cache = {}

    def lines(self, rel):
        if rel not in self.cache:
            with open(os.path.join(self.src, rel)) as f:
                self.cache[rel] = f.read().split("\n")
        return self.cache[rel]

    def publish_at(self, rel, line, col):
        """Re-publish the `pub(crate)` that owns the definition starting at
        1-based (line, col): the first one inside the span's first line at
        or after `col`, else the last one before `col` on that line (a
        `pub(crate) use` leaf). Returns whether anything changed."""
        if not rel.startswith("crates/"):
            return False
        lines = self.lines(rel)
        text = lines[line - 1]
        hits = [m.start() for m in re.finditer(r"pub\(crate\)", text)]
        after = [h for h in hits if h >= col - 1]
        before = [h for h in hits if h < col - 1]
        at = after[0] if after else (before[-1] if before else None)
        if at is None:
            return False
        lines[line - 1] = text[:at] + "pub" + text[at + len("pub(crate)") :]
        return True

    def crate_dirs(self):
        """Library name (`adamant_plan`) -> crate directory (`plan`)."""
        if not hasattr(self, "_crates"):
            self._crates = {}
            for d in os.listdir(os.path.join(self.src, "crates")):
                with open(os.path.join(self.src, "crates", d, "Cargo.toml")) as f:
                    name = re.search(r'^name\s*=\s*"([^"]+)"', f.read(), re.M).group(1)
                self._crates[name.replace("-", "_")] = d
        return self._crates

    def publish_in(self, rel, path, name):
        """Re-publish `name` in the module that `path` (a `use` prefix, as
        written in file `rel`) names; returns whether anything changed."""
        if path and path[0] in self.crate_dirs():
            crate, path = self.crate_dirs()[path[0]], path[1:]
        elif not rel.startswith("crates/"):
            return False
        else:
            # A path inside the file's own crate: `crate::`, or relative to
            # the file's module (`self::`, `super::`, or a child module).
            crate, inner = rel.split("/")[1], rel.split("/", 3)[3][: -len(".rs")]
            module = [m for m in inner.split("/") if m not in ("lib", "main", "mod")]
            if path and path[0] == "crate":
                module, path = [], path[1:]
            elif path and path[0] == "self":
                path = path[1:]
            while path and path[0] == "super":
                module, path = module[:-1], path[1:]
            path = module + path
        base = f"crates/{crate}/src/" + "/".join(path)
        item = re.compile(
            r"pub\(crate\)\s+(?:[a-z]+\s+)*?(?:fn|struct|enum|trait|type|const|static|mod|union)\s+"
            + name + r"\b|pub\(crate\) use [\w:]+::" + name + r";"
        )
        for cand, lo, hi in self.module_bodies(crate, path):
            for i in range(lo, hi):
                hit = item.search(self.lines(cand)[i])
                if hit:
                    return self.publish_at(cand, i + 1, hit.start() + 1)
        return False

    def module_bodies(self, crate, path):
        """(file, first line, end line) of module `path` of `crate`: a file
        of its own, or an inline `mod name { .. }` in its parent's file."""
        src = f"crates/{crate}/src/"
        if not path:
            return [(src + "lib.rs", 0, len(self.lines(src + "lib.rs")))]
        for cand in (src + "/".join(path) + ".rs", src + "/".join(path) + "/mod.rs"):
            if os.path.exists(os.path.join(self.src, cand)):
                return [(cand, 0, len(self.lines(cand)))]
        out = []
        for parent, lo, hi in self.module_bodies(crate, path[:-1]):
            lines = self.lines(parent)
            for i in range(lo, hi):
                if re.match(r"\s*pub(?:\(crate\))?\s+mod\s+" + path[-1] + r"\s*\{", lines[i]):
                    depth, k = 0, i
                    while k < hi:
                        depth += lines[k].count("{") - lines[k].count("}")
                        k += 1
                        if depth <= 0:
                            break
                    out.append((parent, i, k))
        return out

    def publish_reexported(self, rel, line, col):
        """A re-published `pub use a::b::Name;` leaf whose item is still
        `pub(crate)` (E0364/E0365 carry no definition span): re-publish
        `Name` in the module the path names."""
        m = re.match(r"([\w:]+?)(?:\s+as\s+\w+)?;", self.lines(rel)[line - 1][col - 1 :])
        if not m or not rel.startswith("crates/"):
            return False
        *path, name = m.group(1).split("::")
        return self.publish_in(rel, path, name)

    def publish_glob_imported(self, rel, name):
        """A name that a `use a::b::*;` in file `rel` no longer brings in
        (unresolved-name errors carry no definition span): re-publish it in
        each globbed module that defines it."""
        if not os.path.exists(os.path.join(self.src, rel)):
            return False
        changed = False
        for text in self.lines(rel):
            m = re.match(r"\s*use\s+([\w:]+)::\*;", text)
            if m:
                changed |= self.publish_in(rel, m.group(1).split("::"), name)
        return changed

    def publish_field(self, struct, field):
        changed = False
        head = re.compile(r"\bstruct\s+" + struct + r"\b")
        for rel in list(self.rust_files()):
            lines = self.lines(rel)
            for i, text in enumerate(lines):
                if not head.search(text):
                    continue
                depth = 0
                for k in range(i, len(lines)):
                    depth += lines[k].count("{") - lines[k].count("}")
                    m = re.match(r"(\s*)pub\(crate\)(\s+" + field + r"\s*:)", lines[k])
                    if m:
                        lines[k] = m.group(1) + "pub" + m.group(2) + lines[k][m.end() :]
                        changed = True
                    if depth <= 0 and k > i and "}" in lines[k]:
                        break
        return changed

    def rust_files(self):
        for dirpath, _, files in os.walk(os.path.join(self.src, "crates")):
            for name in files:
                if name.endswith(".rs"):
                    yield os.path.relpath(os.path.join(dirpath, name), self.src)

    def flush(self):
        for rel, lines in self.cache.items():
            path = os.path.join(self.src, rel)
            text = "\n".join(lines)
            with open(path) as f:
                if f.read() == text:
                    continue
            with open(path, "w") as f:
                f.write(text)
        self.cache = {}


def republish(copy, diags):
    """Apply one round of re-publishing; returns (changed, unresolved)."""
    changed, unresolved = False, []
    for d in diags:
        code = (d.get("code") or {}).get("code")
        if d["level"] == "error" and code in SPAN_CODES:
            done = False
            for s in definition_spans(d):
                done |= copy.publish_at(s["file_name"], s["line_start"], s["column_start"])
            changed |= done
            if not done:
                unresolved.append(d)
        elif d["level"] == "error" and code in REEXPORT_CODES:
            s = d["spans"][0]
            done = copy.publish_reexported(s["file_name"], s["line_start"], s["column_start"])
            changed |= done
            if not done:
                unresolved.append(d)
        elif d["level"] == "error" and code in UNRESOLVED_CODES:
            names = re.findall(r"`(\w+)`", d["message"])
            s = d["spans"][0]
            done = bool(names) and copy.publish_glob_imported(s["file_name"], names[0])
            changed |= done
            if not done:
                unresolved.append(d)
        elif d["level"] == "error" and code in FIELD_CODES:
            m = FIELD_MSG.search(d["message"])
            done = False
            for field in re.findall(r"`(\w+)`", m.group(1)) if m else []:
                done |= copy.publish_field(m.group(2), field)
            changed |= done
            if not done:
                unresolved.append(d)
        elif d["level"] == "warning" and code in INTERFACE_LINTS:
            for child in d.get("children", []):
                for s in child["spans"]:
                    changed |= copy.publish_at(s["file_name"], s["line_start"], s["column_start"])
        elif d["level"] == "error":
            unresolved.append(d)
    return changed, unresolved


DEF = re.compile(
    r"pub\(crate\)\s+(?:(?:const|async|unsafe|extern\s+\"\w+\")\s+)*"
    r"(fn|struct|enum|trait|type|const|static|mod|union)\s+(\w+)"
)
FIELD = re.compile(r"pub\(crate\)\s+(\w+)\s*:")


def unreached(copy, diags):
    rows = set()
    for d in diags:
        if d["level"] != "warning" or (d.get("code") or {}).get("code") != "dead_code":
            continue
        for s in d["spans"]:
            rel = s["file_name"]
            if not rel.startswith("crates/"):
                continue
            text = copy.lines(rel)[s["line_start"] - 1]
            m = DEF.search(text) or FIELD.search(text)
            if not m:
                continue  # private (never `pub`) dead code is clippy's job
            kind, name = (m.group(1), m.group(2)) if m.re is DEF else ("field", m.group(1))
            rows.add((rel, s["line_start"], kind, name))
    return sorted(rows)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--work", default=os.path.join(ROOT, "target", "unreached-pub"))
    args = ap.parse_args()
    src = sync_copy(args.work)
    target = os.path.join(args.work, "target")
    copy = Copy(src)
    for rounds in range(1, 200):
        diags = diagnostics(src, target)
        changed, unresolved = republish(copy, diags)
        copy.flush()
        if not changed:
            break
    if unresolved:
        for d in unresolved:
            sys.stderr.write(d.get("rendered") or d["message"])
        sys.exit("unreached_pub: errors the re-publishing could not resolve")
    rows = unreached(copy, diags)
    print(f"public items no product target reaches: {len(rows)} ({rounds} check rounds)")
    for rel, line, kind, name in rows:
        print(f"{rel}:{line} {kind} {name}")


if __name__ == "__main__":
    main()
