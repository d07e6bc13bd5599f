#!/usr/bin/env python3
"""Repo-specific C++ lint for commsched (DESIGN.md "Correctness & analysis").

Enforces the project conventions clang-tidy cannot know about:

  pragma-once        every header starts with `#pragma once` (first directive)
  include-order      each contiguous #include block is sorted; a .cpp file
                     includes its own header first
  include-hygiene    no <cassert>/<assert.h> (COMMSCHED_ASSERT is the project
                     invariant mechanism), no <iostream> in src/ headers
  no-naked-new       no `new`/`delete`/`malloc`/`free`/`realloc`/`calloc` —
                     ownership goes through containers and smart pointers
  assert-macro       no raw `assert(`/`abort(`/`exit(` in src/ — invariants
                     throw commsched::InvariantError via COMMSCHED_ASSERT so
                     simulations fail loudly and tests can assert on them
  namespace          every src/ file declares `namespace commsched`
  no-using-namespace `using namespace` is forbidden at any scope
  mutable-scratch    `mutable` members in src/core/ need a `// workspace:`
                     justification on the same or an adjacent preceding line —
                     hidden per-call scratch belongs in an explicit
                     CostWorkspace so cost evaluation stays shareable across
                     threads (DESIGN.md "Shape canonicalization & CommCache")
  static-state       non-const `static` / `thread_local` variables in src/
                     (globals or function-locals) need a `// thread-safe:`
                     justification on the same or an adjacent preceding line —
                     campaign cells run concurrently (DESIGN.md "Campaign
                     engine & parallel execution"), so hidden mutable state
                     is a data race unless explicitly argued otherwise
  whitespace         no tabs, no trailing whitespace, newline at EOF

Usage: tools/lint.py [paths...]   (defaults to src/ and tests/)
Exits non-zero when any finding is reported. There is no suppression
mechanism on purpose: fix the code, or narrow the rule here with a comment
explaining why.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_PATHS = ["src", "tests"]
CXX_SUFFIXES = {".cpp", ".hpp"}

findings: list[str] = []


def report(path: Path, line: int, rule: str, message: str) -> None:
    rel = path.relative_to(REPO_ROOT)
    findings.append(f"{rel}:{line}: [{rule}] {message}")


def strip_comments_and_strings(text: str) -> str:
    """Blank out comments, string and char literals, preserving newlines so
    line numbers survive. Handles //, /* */, "..." and '...' with escapes."""
    out: list[str] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                i += 1
        elif c == "/" and nxt == "*":
            i += 2
            while i < n and not (text[i] == "*" and i + 1 < n and text[i + 1] == "/"):
                if text[i] == "\n":
                    out.append("\n")
                i += 1
            i += 2
        elif c in "\"'":
            quote = c
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\":
                    i += 1
                elif text[i] == "\n":  # unterminated; bail to keep lines sane
                    break
                i += 1
            i += 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


INCLUDE_RE = re.compile(r'^\s*#\s*include\s+(["<])([^">]+)[">]')

# `delete` the keyword, but not `= delete` (deleted functions) and not
# `delete` inside an identifier.
NAKED_NEW_RE = re.compile(r"(?<![\w_])new\s+[A-Za-z_(]")
NAKED_DELETE_RE = re.compile(r"(?<![\w_=])(?<!= )delete\s+[\w(*]|delete\[\]")
ALLOC_CALL_RE = re.compile(r"(?<![\w_.:])(malloc|calloc|realloc|free)\s*\(")
RAW_ASSERT_RE = re.compile(r"(?<![\w_])(assert|abort)\s*\(")
EXIT_RE = re.compile(r"(?<![\w_.:])exit\s*\(")
USING_NAMESPACE_RE = re.compile(r"(?<![\w_])using\s+namespace\b")
MUTABLE_RE = re.compile(r"(?<![\w_])mutable\b")
# A `static` / `thread_local` variable declaration: the line starts with the
# storage keyword(s) and declares an object, not a function (no parameter
# list on the line — `static Foo helper(...)` declarations and
# direct-initializers are out of this heuristic's reach on purpose; the rule
# targets the common `static T name;` / `static T name = ...;` shapes).
STATIC_STATE_RE = re.compile(
    r"^\s*(?:static\s+thread_local|thread_local\s+static"
    r"|static|thread_local)\s+[\w:<>,\s*&]+[\w\]]\s*(?:=[^=].*)?;")

BANNED_INCLUDES = {
    "cassert": "use COMMSCHED_ASSERT (util/assert.hpp) instead of <cassert>",
    "assert.h": "use COMMSCHED_ASSERT (util/assert.hpp) instead of <assert.h>",
}


def lint_whitespace(path: Path, raw: str) -> None:
    for lineno, line in enumerate(raw.split("\n"), start=1):
        if "\t" in line:
            report(path, lineno, "whitespace", "tab character")
        if line != line.rstrip():
            report(path, lineno, "whitespace", "trailing whitespace")
    if raw and not raw.endswith("\n"):
        report(path, raw.count("\n") + 1, "whitespace", "missing newline at EOF")


def lint_pragma_once(path: Path, raw: str) -> None:
    if path.suffix != ".hpp":
        return
    for lineno, line in enumerate(raw.split("\n"), start=1):
        stripped = line.strip()
        if not stripped.startswith("#"):
            continue
        if re.fullmatch(r"#\s*pragma\s+once", stripped):
            return
        report(path, lineno, "pragma-once",
               f"first preprocessor directive is `{stripped}`, "
               "expected `#pragma once`")
        return
    report(path, 1, "pragma-once", "header has no `#pragma once`")


def own_header_of(path: Path) -> str | None:
    """For src/X/y.cpp return "X/y.hpp" iff that header exists."""
    try:
        rel = path.relative_to(REPO_ROOT / "src")
    except ValueError:
        return None
    header = rel.with_suffix(".hpp")
    if (REPO_ROOT / "src" / header).exists():
        return header.as_posix()
    return None


def lint_includes(path: Path, raw: str) -> None:
    lines = raw.split("\n")
    includes: list[tuple[int, str, str]] = []  # (lineno, delim, target)
    for lineno, line in enumerate(lines, start=1):
        m = INCLUDE_RE.match(line)
        if m:
            includes.append((lineno, m.group(1), m.group(2)))

    for lineno, _delim, target in includes:
        base = target.split("/")[-1]
        if base in BANNED_INCLUDES or target in BANNED_INCLUDES:
            key = base if base in BANNED_INCLUDES else target
            report(path, lineno, "include-hygiene", BANNED_INCLUDES[key])

    if path.suffix == ".cpp":
        own = own_header_of(path)
        if own and includes and includes[0][2] != own:
            if any(target == own for _, _, target in includes):
                report(path, includes[0][0], "include-order",
                       f'own header "{own}" must be the first include')

    # Each contiguous block of #include lines must be internally sorted.
    block: list[tuple[int, str, str]] = []

    def check_block() -> None:
        if len(block) < 2:
            return
        keys = [(delim, target) for _, delim, target in block]
        if keys != sorted(keys):
            report(path, block[0][0], "include-order",
                   "include block is not sorted (angle brackets before "
                   "quotes, then lexicographic)")

    prev_lineno = None
    for lineno, delim, target in includes:
        if prev_lineno is not None and lineno == prev_lineno + 1:
            block.append((lineno, delim, target))
        else:
            check_block()
            block = [(lineno, delim, target)]
        prev_lineno = lineno
    check_block()


def lint_code(path: Path, raw: str) -> None:
    code = strip_comments_and_strings(raw)
    in_src = (REPO_ROOT / "src") in path.parents
    in_core = (REPO_ROOT / "src" / "core") in path.parents
    raw_lines = raw.split("\n")
    for lineno, line in enumerate(code.split("\n"), start=1):
        if USING_NAMESPACE_RE.search(line):
            report(path, lineno, "no-using-namespace",
                   "`using namespace` is forbidden")
        if NAKED_NEW_RE.search(line):
            report(path, lineno, "no-naked-new",
                   "naked `new`: use containers or std::make_unique")
        if NAKED_DELETE_RE.search(line):
            report(path, lineno, "no-naked-new",
                   "naked `delete`: ownership must be automatic")
        if ALLOC_CALL_RE.search(line):
            report(path, lineno, "no-naked-new",
                   "C allocation call: use containers or smart pointers")
        if in_src:
            if RAW_ASSERT_RE.search(line):
                report(path, lineno, "assert-macro",
                       "raw assert/abort: use COMMSCHED_ASSERT "
                       "(util/assert.hpp) so violations throw InvariantError")
            if EXIT_RE.search(line):
                report(path, lineno, "assert-macro",
                       "exit() in library code: throw instead")
            m = STATIC_STATE_RE.match(line)
            if m and "(" not in m.group(0) and "const" not in m.group(0):
                window = raw_lines[max(0, lineno - 3):lineno]
                if not any("// thread-safe:" in w for w in window):
                    report(path, lineno, "static-state",
                           "non-const static/thread_local state in src/ "
                           "without a `// thread-safe:` justification: "
                           "campaign cells run concurrently")
        if in_core and MUTABLE_RE.search(line):
            # The justification comment may sit on the member's own line or
            # on the (up to two) lines directly above it.
            window = raw_lines[max(0, lineno - 3):lineno]
            if not any("// workspace:" in w for w in window):
                report(path, lineno, "mutable-scratch",
                       "`mutable` member in src/core/ without a "
                       "`// workspace:` justification: hidden per-call "
                       "scratch belongs in an explicit CostWorkspace")

    if in_src and "namespace commsched" not in code:
        report(path, 1, "namespace",
               "file does not declare `namespace commsched`")


def lint_file(path: Path) -> None:
    raw = path.read_text(encoding="utf-8")
    lint_whitespace(path, raw)
    lint_pragma_once(path, raw)
    lint_includes(path, raw)
    lint_code(path, raw)


def main(argv: list[str]) -> int:
    roots = [REPO_ROOT / p for p in (argv or DEFAULT_PATHS)]
    files: list[Path] = []
    for root in roots:
        if root.is_file():
            files.append(root)
            continue
        if not root.is_dir():
            print(f"lint.py: no such path: {root}", file=sys.stderr)
            return 2
        files.extend(p for p in sorted(root.rglob("*"))
                     if p.suffix in CXX_SUFFIXES)
    for path in files:
        lint_file(path)
    for finding in findings:
        print(finding)
    print(f"lint.py: checked {len(files)} files, "
          f"{len(findings)} finding(s)", file=sys.stderr)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
