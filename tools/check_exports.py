#!/usr/bin/env python3
"""Find exported library values and optional arguments that nothing uses.

    python3 tools/check_exports.py values
    python3 tools/check_exports.py optionals

Run from the repository root. Each mode lists what it finds and exits 1
when it finds anything, 0 otherwise.

values     A value declared in lib/*/*.mli is live when some .ml file in
           lib, bin, bench, benchmark or examples (test directories left
           out) names it outside its own .ml: as [Mod.v] (a longer path
           such as [Packing.Mod.v] included), as [X.v] under
           [module X = ...Mod], or as a bare [v] inside a [Mod.( ... )]
           local open or after an [open Mod] / [let open Mod in]. It is
           also live when its own .ml names it outside its own
           definition, bare or as a record field [x.v] of the same name
           (a white-box view such as Free_space.mers), unless a local
           binding of that name shadows it.

optionals  An optional argument [?x] of such a value is live when some
           .ml file, tests included, passes [~x] or [?x] (with or without
           a value) in an application of the value found as above,
           outside the value's own definition.

Values in a nested [module M : sig ... end] are looked up as [M.v].
Comments and the contents of string and character literals are ignored.
The check can miss a dead value (a bare name in an open that means
something else, a label passed to an inner call at the same depth) but
it does not flag a live one.
"""

import glob
import os
import re
import sys

PROGRAM_DIRS = ["lib", "bin", "bench", "benchmark", "examples"]
ALL_DIRS = PROGRAM_DIRS + ["test"]

# The C1 re-check (Chordal, Comparability and the Undirected helpers
# they use) waits for the certificate checker; the tiny ILP model is
# the test oracle for the ILP formulation; the bound names are the
# engine's documented registry order.
ALLOW = {
    "Chordal.*",
    "Comparability.*",
    "Undirected.of_edges",
    "Undirected.complement",
    "Undirected.is_clique",
    "Ilp_model.solve_tiny",
    "Bound_engine.default_names",
}

IDENT = r"[a-z_][A-Za-z0-9_']*"


def allowed(mod, v):
    return f"{mod}.{v}" in ALLOW or f"{mod}.*" in ALLOW


def blank(src):
    """[src] with comments and literal contents replaced by spaces.

    Newlines are kept, so offsets and line numbers stay valid."""
    out = list(src)
    n = len(src)
    i = 0
    depth = 0  # comment nesting

    def wipe(a, b):
        for k in range(a, b):
            if out[k] != "\n":
                out[k] = " "

    def skip_string(j):
        # [j] is just past the opening quote; returns the index past the
        # closing one.
        while j < n:
            if src[j] == "\\":
                j += 2
            elif src[j] == '"':
                return j + 1
            else:
                j += 1
        return n

    quoted = re.compile(r"\{([a-z_]*)\|")
    while i < n:
        c = src[i]
        if src.startswith("(*", i):
            start = i
            depth = 1
            i += 2
            while i < n and depth > 0:
                if src.startswith("(*", i):
                    depth += 1
                    i += 2
                elif src.startswith("*)", i):
                    depth -= 1
                    i += 2
                elif src[i] == '"':
                    i = skip_string(i + 1)
                else:
                    i += 1
            wipe(start, i)
        elif c == '"':
            j = skip_string(i + 1)
            wipe(i + 1, j - 1)
            i = j
        elif c == "{" and quoted.match(src, i):
            m = quoted.match(src, i)
            close = "|" + m.group(1) + "}"
            j = src.find(close, m.end())
            j = n if j < 0 else j
            wipe(m.end(), j)
            i = j + len(close)
        elif c == "'":
            m = re.compile(r"'(\\(?:[\\'\"ntbr ]|[0-9]{3}|x[0-9a-fA-F]{2}|o[0-7]{3})|[^\\'])'").match(src, i)
            if m and not (i > 0 and (src[i - 1].isalnum() or src[i - 1] == "_")):
                wipe(i + 1, m.end() - 1)
                i = m.end()
            else:
                i += 1
        else:
            i += 1
    return "".join(out)


def module_name(path):
    base = os.path.splitext(os.path.basename(path))[0]
    return base[0].upper() + base[1:]


def ml_files(dirs):
    files = []
    for d in dirs:
        for root, subdirs, names in os.walk(d):
            subdirs[:] = sorted(s for s in subdirs if s != "_build")
            for name in sorted(names):
                if name.endswith(".ml"):
                    files.append(os.path.join(root, name))
    return files


def is_test(path):
    return "test" in path.split(os.sep)


class Source:
    def __init__(self, path):
        self.path = path
        with open(path, encoding="utf-8") as f:
            self.text = blank(f.read())
        self.items = items(self.text)


def read_sig(mli):
    """[(module, value, optional labels)] for every [val] in [mli].

    [module] is the innermost module: the file's, or a nested
    [module M : sig]."""
    with open(mli, encoding="utf-8") as f:
        text = blank(f.read())
    tokens = re.finditer(
        r"\bmodule\s+([A-Z][A-Za-z0-9_]*)\s*:\s*sig\b|\bend\b"
        r"|\bval\s+(" + IDENT + r")\s*:"
        r"|\b(?:type|exception|external|module|include|open)\b",
        text,
    )
    stack = [module_name(mli)]
    vals = []
    current = None
    for m in tokens:
        if current:
            vals.append((current[0], current[1], text[current[2] : m.start()]))
            current = None
        if m.group(1):
            stack.append(m.group(1))
        elif m.group(0) == "end":
            if len(stack) > 1:
                stack.pop()
        elif m.group(2):
            current = (stack[-1], m.group(2), m.end())
    if current:
        vals.append((current[0], current[1], text[current[2] :]))
    return [
        (mod, v, sorted(set(re.findall(r"\?(" + IDENT + r")\s*:", ty))))
        for mod, v, ty in vals
    ]


def aliases(src, mod):
    """Names under which [src] refers to module [mod]."""
    names = {mod}
    for m in re.finditer(
        r"\bmodule\s+([A-Z][A-Za-z0-9_]*)\s*=\s*((?:[A-Z][A-Za-z0-9_]*\.)*)"
        + mod
        + r"\b(?!\s*\.)",
        src.text,
    ):
        names.add(m.group(1))
    return names


def matching_paren(text, i):
    """Index of the parenthesis closing the one at [i]."""
    depth = 0
    for j in range(i, len(text)):
        if text[j] == "(":
            depth += 1
        elif text[j] == ")":
            depth -= 1
            if depth == 0:
                return j
    return len(text)


def open_regions(src, names):
    """Spans of [src] where the bare names of the module are in scope."""
    alt = "|".join(sorted(names))
    regions = []
    for m in re.finditer(r"(?<![A-Za-z0-9_'])(?:" + alt + r")\s*\.\s*\(", src.text):
        p = m.end() - 1
        regions.append((p, matching_paren(src.text, p)))
    for m in re.finditer(
        r"\bopen!?\s+(?:[A-Z][A-Za-z0-9_]*\.)*(?:" + alt + r")\b(?!\s*\.)",
        src.text,
    ):
        regions.append((m.end(), len(src.text)))
    return regions


def items(text):
    """Offsets of the lines of [text] that open a structure item: a
    line at the indentation of the structure around it (0 at top level,
    2 inside a [module M = struct] that opens at column 0, and so on)
    that does not continue the item before it."""
    starts = []
    stack = [0]
    pos = 0
    for line in text.split("\n"):
        indent = len(line) - len(line.lstrip())
        if re.match(r"\s*end\b", line) and len(stack) > 1 and indent == stack[-1] - 2:
            stack.pop()
        elif line.strip() and indent == stack[-1] and not re.match(
            r"\s*(\)|\]|\}|\||in\b|end\b)", line
        ):
            starts.append(pos)
        if re.match(r"\s*module\s+[A-Z]\w*.*=\s*struct\s*$", line):
            stack.append(indent + 2)
        pos += len(line) + 1
    return starts


def definitions(src, v):
    """Spans of the structure items of [src] that define [v] with
    [let v] or [and v]."""
    head = re.compile(r"\s*(?:let(?:\s+rec)?|and)\s+" + re.escape(v) + r"(?![A-Za-z0-9_'])")
    ends = src.items[1:] + [len(src.text)]
    return [(a, b) for a, b in zip(src.items, ends) if head.match(src.text, a)]


def inside(pos, spans):
    return any(a <= pos < b for a, b in spans)


def item_start(src, p):
    """Offset of the line that opens the structure item holding [p]."""
    return max((o for o in src.items if o <= p), default=0)


def binds(text, v):
    """Whether [text], the part of a structure item before a use of
    [v], binds the name [v]: a local let, a parameter, a pattern."""
    w = r"(?<![A-Za-z0-9_'.])" + re.escape(v) + r"(?![A-Za-z0-9_'])"
    heads = [
        r"\b(?:let|and)\b((?:[^=]|==)*)=(?!=)",
        r"\bfun\b(.*?)->",
        r"(?:\||\bwith\b|\bfunction\b)([^|>]*?)->",
        r"\bfor\b(\s+[a-z_]\w*\s*)=",
    ]
    return any(
        re.search(w, m.group(1)) for h in heads for m in re.finditer(h, text, re.S)
    )


def references(src, mod, v, own):
    """Offsets just past each use of [mod.v] in [src].

    [own] says [src] is the value's own .ml, where a bare [v], or a
    record field [x.v] that the value reads out, counts outside the
    value's definition."""
    text = src.text
    if v not in text:
        return []
    names = aliases(src, mod)
    alt = "|".join(sorted(names))
    found = []
    for m in re.finditer(
        r"(?<![A-Za-z0-9_'])(?:" + alt + r")\s*\.\s*" + re.escape(v) + r"(?![A-Za-z0-9_'])",
        text,
    ):
        found.append(m.end())
    regions = open_regions(src, names)
    if own:
        regions.append((0, len(text)))
    if not regions:
        return found
    defs = definitions(src, v) if own else []
    for m in re.finditer(r"(?<![A-Za-z0-9_'])" + re.escape(v) + r"(?![A-Za-z0-9_'])", text):
        p = m.start()
        if not inside(p, regions) or inside(p, defs):
            continue
        if p > 0 and re.match(r"[A-Za-z0-9_'~?`#]", text[p - 1]):
            continue
        before = text[:p].rstrip()
        if before.endswith("."):
            # [x.v] is a record field; [Mod.v] was counted above
            if not (own and re.search(r"(?:(?<![A-Za-z0-9_'])[a-z_][A-Za-z0-9_']*|\))\s*\.$", before)):
                continue
        elif re.search(r"\b(?:let(?:\s+rec)?|and|val|type|mutable)$", before):
            continue
        elif re.match(r"\s*(?::(?!=)|=(?!=))", text[m.end() :]):
            # a binding, a record field or a label, not a use
            continue
        elif binds(text[item_start(src, p) : p], v):
            continue
        found.append(m.end())
    return sorted(set(found))


STOP = re.compile(
    r";|\|>|@@|->|\||,|:=|<-|\b(?:in|then|else|with|let|and|do|done|end|"
    r"match|begin|if|when|of)\b"
)


def passes_label(text, start, label):
    """Whether the application that begins at [start] passes [~label] or
    [?label] at its own nesting level."""
    depth = 0
    i = start
    n = len(text)
    lab = re.compile(r"[~?]" + re.escape(label) + r"(?![A-Za-z0-9_'])")
    while i < n:
        c = text[i]
        if c in "([{":
            depth += 1
            i += 1
            continue
        if c in ")]}":
            depth -= 1
            if depth < 0:
                return False
            i += 1
            continue
        if depth == 0:
            if lab.match(text, i) and not (text[i - 1].isalnum() or text[i - 1] in "_'"):
                return True
            if STOP.match(text, i) and not (i > 0 and (text[i - 1].isalnum() or text[i - 1] == "_")):
                return False
        i += 1
    return False


def main(argv):
    if len(argv) != 2 or argv[1] not in ("values", "optionals"):
        print(__doc__.strip().split("\n\n")[0], file=sys.stderr)
        return 2
    mode = argv[1]
    sources = [Source(p) for p in ml_files(ALL_DIRS)]
    findings = []
    for mli in sorted(glob.glob("lib/*/*.mli")):
        ml = mli[:-1]
        for mod, v, optionals in read_sig(mli):
            if allowed(mod, v):
                continue
            if mode == "values":
                if not any(
                    references(s, mod, v, own=(s.path == ml))
                    for s in sources
                    if not is_test(s.path)
                ):
                    findings.append(f"{mod}.{v}")
            else:
                for label in optionals:
                    if not any(
                        passes_label(s.text, r, label)
                        for s in sources
                        for r in references(s, mod, v, own=(s.path == ml))
                    ):
                        findings.append(f"{mod}.{v} ?{label}")
    if findings:
        what = (
            "exported library values without a caller outside test/"
            if mode == "values"
            else "optional arguments that no .ml file sets"
        )
        print(f"{what}:")
        for f in findings:
            print(f"  {f}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
