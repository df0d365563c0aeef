#!/usr/bin/env python3
"""Check that every interface exports only what some caller uses.

For each top-level `val` in lib/**/*.mli, look for a user outside the
module's own .ml/.mli, in any .ml/.mli under lib, bin, bench, test,
examples and perfbench.  A use is a qualified reference `M.v` (also
through a longer path such as `Bftsim_net.M.v`, or through a module
alias `module X = ...M`), or a bare `v` in a file that opens M
(`open M`, `open! M`, `let open M in`, `M.( ... )`, `include M`).
Comments and string literals are ignored.

A value with no such user is reported, unless test/exports_allow.txt
lists it.  Each allow-list line reads `Module.value: reason`; `#` starts
a comment.  A line without a reason, or one naming a value that is not
exported or that has a user after all, is an error too.

Usage: check_exports.py [--root DIR] [--allow FILE] [--print-allow]
Silent and exit 0 when every export has a user or an allow-list entry;
otherwise prints each problem and exits 1.  A malformed allow-list
exits 2.  --print-allow also lists the allow-list and a summary.
"""

import argparse
import os
import re
import sys

SEARCH_DIRS = ("lib", "bin", "bench", "test", "examples", "perfbench")

VAL_RE = re.compile(r"^val\s+([a-z_][A-Za-z0-9_']*|\([^)]*\))", re.M)
# A module path: Capitalised segments joined by dots, then one more segment.
PATH_RE = re.compile(r"\b[A-Z][A-Za-z0-9_']*(?:\s*\.\s*[A-Za-z_][A-Za-z0-9_']*)+")
ALIAS_RE = re.compile(
    r"\bmodule\s+([A-Z][A-Za-z0-9_']*)\s*=\s*((?:[A-Z][A-Za-z0-9_']*\s*\.\s*)*[A-Z][A-Za-z0-9_']*)"
)
OPEN_RE = re.compile(
    r"\b(?:open!?|include)\s+((?:[A-Z][A-Za-z0-9_']*\s*\.\s*)*[A-Z][A-Za-z0-9_']*)"
)
LOCAL_OPEN_RE = re.compile(r"\b([A-Z][A-Za-z0-9_']*)\s*\.\s*[(\[{]")
WORD_RE = re.compile(r"[a-z_][A-Za-z0-9_']*")


def strip_comments_and_strings(src):
    """Blank out comments (nested) and string literals, keeping newlines."""
    out = []
    i, n, depth = 0, len(src), 0
    while i < n:
        c = src[i]
        if src.startswith("(*", i):
            depth += 1
            i += 2
            continue
        if depth and src.startswith("*)", i):
            depth -= 1
            i += 2
            continue
        if c == '"':
            j = i + 1
            while j < n and src[j] != '"':
                j += 2 if src[j] == "\\" else 1
            out.append("\n" * src.count("\n", i, j + 1) if depth else '""')
            i = j + 1
            continue
        m = re.match(r"\{([a-z_]*)\|", src[i:i + 32]) if c == "{" else None
        if m:
            close = "|" + m.group(1) + "}"
            j = src.find(close, i + len(m.group(0)))
            j = n if j < 0 else j + len(close)
            out.append("\n" * src.count("\n", i, j) if depth else '""')
            i = j
            continue
        if c == "'":
            # Character literals: 'x', '\n', '\123', '\''.  A lone quote is
            # a type variable or part of an identifier.
            m = re.match(r"'(?:\\(?:[\\'\"ntbr ]|[0-9]{3}|x[0-9a-fA-F]{2}|o[0-7]{3})|[^\\'\n])'", src[i:i + 6])
            if m:
                out.append("" if depth else "' '")
                i += len(m.group(0))
                continue
        out.append(c if not depth or c == "\n" else "")
        i += 1
    return "".join(out)


def module_name(path):
    base = os.path.splitext(os.path.basename(path))[0]
    return base[:1].upper() + base[1:]


def last_segment(path):
    return re.split(r"\s*\.\s*", path)[-1]


class Source:
    """What one .ml/.mli file references: qualified pairs, opens, words."""

    def __init__(self, path):
        with open(path, encoding="utf-8") as f:
            text = strip_comments_and_strings(f.read())
        aliases = {a: last_segment(p) for a, p in ALIAS_RE.findall(text)}
        resolve = lambda name: aliases.get(name, name)
        self.pairs = set()
        for m in PATH_RE.finditer(text):
            segs = re.split(r"\s*\.\s*", m.group(0))
            for a, b in zip(segs, segs[1:]):
                self.pairs.add((resolve(a), b))
        self.opens = {resolve(last_segment(p)) for p in OPEN_RE.findall(text)}
        self.opens |= {resolve(m) for m in LOCAL_OPEN_RE.findall(text)}
        self.words = set(WORD_RE.findall(text))

    def uses(self, module, value):
        return (module, value) in self.pairs or (
            module in self.opens and value in self.words
        )


def ocaml_files(root):
    for top in SEARCH_DIRS:
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames[:] = sorted(
                d for d in dirnames if not d.startswith((".", "_build"))
            )
            for name in sorted(filenames):
                if name.endswith((".ml", ".mli")):
                    yield os.path.join(dirpath, name)


def exports(root):
    """(mli path, line, module, value) for every top-level val in lib."""
    for path in ocaml_files(root):
        rel = os.path.relpath(path, root)
        if not (rel.startswith("lib" + os.sep) and path.endswith(".mli")):
            continue
        with open(path, encoding="utf-8") as f:
            text = strip_comments_and_strings(f.read())
        for m in VAL_RE.finditer(text):
            line = text.count("\n", 0, m.start()) + 1
            yield rel, line, module_name(path), m.group(1)


def read_allow(path):
    """Map `Module.value` -> reason; raise ValueError on a malformed line."""
    allow = {}
    with open(path, encoding="utf-8") as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            name, sep, reason = line.partition(":")
            name, reason = name.strip(), reason.strip()
            if not re.fullmatch(r"[A-Z][A-Za-z0-9_']*\.[a-z_][A-Za-z0-9_']*", name):
                raise ValueError(f"{path}:{lineno}: expected `Module.value: reason`")
            if not sep or not reason:
                raise ValueError(f"{path}:{lineno}: {name} gives no reason")
            allow[name] = reason
    return allow


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--root", default=os.path.dirname(here))
    ap.add_argument("--allow", default=os.path.join(here, "exports_allow.txt"))
    ap.add_argument("--print-allow", action="store_true",
                    help="list the allow-list entries before checking")
    args = ap.parse_args()

    try:
        allow = read_allow(args.allow)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if args.print_allow:
        print(f"allow-list ({len(allow)} entries):")
        for name, reason in sorted(allow.items()):
            print(f"  {name}: {reason}")

    sources = {path: Source(path) for path in ocaml_files(args.root)}
    vals = list(exports(args.root))
    problems, allowed = [], set()
    for rel, line, module, value in vals:
        own = os.path.splitext(os.path.join(args.root, rel))[0]
        used = any(
            os.path.splitext(path)[0] != own and src.uses(module, value)
            for path, src in sources.items()
        )
        name = f"{module}.{value}"
        if used:
            if name in allow:
                problems.append(f"{args.allow}: {name} is allowed but has a user; drop the entry")
        elif name in allow:
            allowed.add(name)
        else:
            problems.append(f"{rel}:{line}: {name} has no user outside its module")
    exported = {f"{m}.{v}" for _, _, m, v in vals}
    for name in sorted(set(allow) - exported):
        problems.append(f"{args.allow}: {name} is allowed but not exported")

    if problems or args.print_allow:
        for msg in problems:
            print(msg)
        print(f"{len(vals)} exported values, {len(allowed)} allowed without a user, "
              f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
