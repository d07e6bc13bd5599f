"""Pure-Python C++ frontend for the contract analyzer.

Design (DESIGN.md "Effect contracts"): the repo's own lint (tools/lint.py)
already guarantees a narrow, uniform C++ style — `namespace commsched`
everywhere, no `using namespace`, no naked new, clang-format layout. That
makes a tokenizer-plus-structural-scan frontend reliable enough to build a
whole-program call graph without a clang installation; the container image
used by CI and the dev environment ships only gcc, so requiring
`clang -ast-dump=json` would leave the gate unenforceable exactly where it
runs. The frontend is deliberately a *recognizer for this codebase*, not a
general C++ parser: constructs it cannot model (macro-generated functions,
expression-template magic) simply contribute no facts, and the lint keeps
such constructs out of src/ in the first place.

What it extracts per file:
  * namespace / class nesting, base-class lists, virtual method names;
  * function and method definitions with qualified names, constness,
    virtual-ness, and the contract annotations on the signature;
  * per-body direct effect facts (model.Effect) with line + evidence;
  * per-body call sites with best-effort receiver typing (class members,
    locals and parameters declared with visible types).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

from model import (Annotations, CallSite, ClassInfo, EFFECT_FAMILY, Effect,
                   Fact, Function, TranslationUnit)

# ---------------------------------------------------------------------------
# Annotation grammar
# ---------------------------------------------------------------------------

HOT_PATH_MARK = "// hot-path: no-alloc"
THREAD_SAFE_RE = re.compile(r"//\s*thread-safe:\s*(.*)")
WORKSPACE_MARK = "// workspace:"
TRUSTED_RE = re.compile(
    r"//\s*contract-trusted:\s*(no-alloc|thread-safe|determinism)\s*:\s*(.*)")

# How many lines above a signature an annotation comment may sit. The
# convention is "directly above, possibly under other comment lines"; five
# lines absorbs a short doc comment between annotation and signature. The
# window never reaches past a line holding a closing brace: an escape inside
# (or trailing) the previous function's body is not an annotation of the
# next one.
ANNOTATION_WINDOW = 5


def _strip_comments_and_strings(text: str) -> str:
    """Blank comments/strings, preserving newlines (same contract as
    tools/lint.py; duplicated so the analyzer stays importable on its own)."""
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
            while i < n and not (text[i] == "*" and i + 1 < n
                                 and text[i + 1] == "/"):
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
                elif text[i] == "\n":
                    break
                i += 1
            i += 1
            out.append("")  # placeholder so `""` != nothing
        else:
            out.append(c)
            i += 1
    return "".join(out)


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

TOKEN_RE = re.compile(
    r"[A-Za-z_][A-Za-z0-9_]*"      # identifiers / keywords
    r"|::|->\*?|\+\+|--|<<=?|>>=?|<=>|[<>=!+\-*/%&|^]=|&&|\|\|"
    r"|\.\.\.|[0-9][0-9a-fA-FxX'.uUlLfFeE+\-pP]*"  # numeric literals
    r"|"                     # string placeholder
    r"|.",                         # any other single char
    re.DOTALL)

KEYWORDS_NOT_CALLS = {
    "if", "for", "while", "switch", "return", "sizeof", "alignof", "catch",
    "throw", "new", "delete", "static_cast", "dynamic_cast", "const_cast",
    "reinterpret_cast", "decltype", "noexcept", "alignas", "typeid",
    "static_assert", "co_await", "co_yield", "co_return", "requires",
    "assert",
}

DECL_KEYWORDS = {
    "const", "constexpr", "consteval", "constinit", "static", "inline",
    "virtual", "explicit", "friend", "typename", "mutable", "volatile",
    "extern", "thread_local", "register", "signed", "unsigned", "long",
    "short",
}


@dataclass
class Token:
    text: str
    line: int


def tokenize(code: str) -> list[Token]:
    tokens: list[Token] = []
    line = 1
    pos = 0
    for m in TOKEN_RE.finditer(code):
        line += code.count("\n", pos, m.start())
        pos = m.start()
        t = m.group(0)
        if not t.isspace():
            tokens.append(Token(t, line))
    return tokens


# ---------------------------------------------------------------------------
# Effect tables
# ---------------------------------------------------------------------------

# Owning std containers whose by-value construction allocates.
OWNING_CONTAINER_RE = re.compile(
    r"\bstd\s*::\s*(?:vector|deque|list|forward_list|map|set|multimap|"
    r"multiset|unordered_\w+|priority_queue|queue|stack|valarray|"
    r"(?:o|i)?stringstream|w?string|function|any)\b\s*[<\s{(]")

# Methods that may grow an allocating container.
GROWTH_METHODS = {
    "push_back", "emplace_back", "push_front", "emplace_front", "emplace",
    "insert", "insert_or_assign", "try_emplace", "resize", "reserve",
    "assign", "append", "push", "emplace_hint", "operator+=",
}

# Container-ish receiver types (std or unknown template) for growth calls.
ALLOCATING_RECEIVER_RE = re.compile(
    r"\bstd\s*::\s*(?:vector|deque|list|forward_list|map|set|multimap|"
    r"multiset|unordered_\w+|priority_queue|queue|stack|w?string|"
    r"(?:o|i)?stringstream)\b")

UNORDERED_TYPE_RE = re.compile(r"\bstd\s*::\s*unordered_(?:map|set|multimap|"
                               r"multiset)\b")

# The three merge-based algorithms build a temporary buffer with operator
# new on every call (libstdc++'s _Temporary_buffer), however small the range.
ALLOC_FREE_FUNCTIONS = {
    "make_unique": "std::make_unique",
    "make_shared": "std::make_shared",
    "to_string": "std::to_string",
    "stable_sort": "std::stable_sort",
    "stable_partition": "std::stable_partition",
    "inplace_merge": "std::inplace_merge",
}

CLOCK_CALLS = {"now", "time", "clock", "gettimeofday", "localtime", "gmtime",
               "mktime", "timespec_get"}
RAND_CALLS = {"rand", "srand", "random_shuffle"}
RAND_TYPES = {"random_device"}
LOCALE_CALLS = {"setlocale", "imbue", "stod", "stof", "stold", "strtod",
                "strtof", "strtold", "atof"}
# printf-family formatting is locale-dependent when the format string
# contains a floating conversion (%f/%e/%g/%a read LC_NUMERIC's decimal
# point); _classify_call inspects the raw call line for one.
PRINTF_CALLS = {"printf", "fprintf", "sprintf", "snprintf", "vsnprintf"}
LOCK_TYPES = {"lock_guard", "unique_lock", "scoped_lock", "shared_lock"}
LOCK_CALLS = {"lock", "try_lock", "lock_shared"}
IO_TYPES = {"ofstream", "ifstream", "fstream", "FILE"}
IO_CALLS = {"fopen", "fwrite", "fread", "fputs", "fclose", "open", "write",
            "read", "fsync", "rename", "remove"}
IO_STREAMS = {"cout", "cerr", "clog", "cin"}


# ---------------------------------------------------------------------------
# Structural scan
# ---------------------------------------------------------------------------

@dataclass
class _Scope:
    kind: str            # "namespace" | "class" | "brace"
    name: str            # "" for anonymous / plain braces
    cls: ClassInfo | None = None


TYPE_DECL_RE = re.compile(
    r"^\s*(?:mutable\s+|static\s+|constexpr\s+|const\s+|inline\s+)*"
    r"((?:std\s*::\s*)?[A-Za-z_][\w:]*(?:\s*<[^;{}()]*>)?)"
    r"\s*[&*]*\s+([A-Za-z_]\w*)\s*(?:;|=|\{|\()")


class FileParser:
    """Parses one file into a TranslationUnit."""

    def __init__(self, path: Path, repo_root: Path,
                 class_registry: dict | None = None):
        self.path = path
        self.rel = path.relative_to(repo_root).as_posix()
        self.raw = path.read_text(encoding="utf-8")
        self.raw_lines = self.raw.split("\n")
        self.code = _strip_comments_and_strings(self.raw)
        self.tokens = tokenize(self.code)
        self.tu = TranslationUnit(file=self.rel)
        self.scopes: list[_Scope] = []
        #: qualified class name -> ClassInfo from a prior whole-repo pass;
        #: lets a .cpp body see member types declared in the class's header
        self.class_registry = class_registry or {}
        # line -> annotations found on that raw line
        self._ann_lines = self._collect_annotation_lines()
        self.code_lines = self.code.split("\n")
        # line -> fact-level escapes covering that line
        self._fact_escapes = self._bind_fact_escapes()

    # -- annotations --------------------------------------------------------

    def _collect_annotation_lines(self) -> dict[int, list[tuple[str, str]]]:
        anns: dict[int, list[tuple[str, str]]] = {}
        for lineno, line in enumerate(self.raw_lines, start=1):
            found: list[tuple[str, str]] = []
            if HOT_PATH_MARK in line:
                found.append(("hot-path", ""))
            m = THREAD_SAFE_RE.search(line)
            if m:
                found.append(("thread-safe", m.group(1).strip()))
            m = TRUSTED_RE.search(line)
            if m:
                found.append((f"trusted:{m.group(1)}", m.group(2).strip()))
            if found:
                anns[lineno] = found
        return anns

    def _has_code(self, lineno: int) -> bool:
        return bool(self.code_lines[lineno - 1].strip())

    def _statement_end(self, start: int) -> int:
        """Last line of the statement that begins on line `start`: the line
        of the first `;`, `{` or `}` outside parentheses and brackets (a
        compound statement's escape covers its header, not its body)."""
        depth = 0
        for lineno in range(start, len(self.code_lines) + 1):
            for c in self.code_lines[lineno - 1]:
                if c in "([":
                    depth += 1
                elif c in ")]":
                    depth = max(0, depth - 1)
                elif depth == 0 and c in ";{}":
                    return lineno
        return len(self.code_lines)

    def _bind_fact_escapes(self) -> dict[int, list[tuple[str, str]]]:
        """Bind each `contract-trusted` comment to one statement: the one it
        trails on a code line, else the first statement after its comment
        block (a blank line ends the block and binds nothing)."""
        bound: dict[int, list[tuple[str, str]]] = {}
        n = len(self.code_lines)
        for lineno, anns in self._ann_lines.items():
            trusted = [a for a in anns if a[0].startswith("trusted:")]
            if not trusted:
                continue
            start = lineno
            if not self._has_code(start):
                start += 1
                while (start <= n and not self._has_code(start)
                       and self.raw_lines[start - 1].strip()):
                    start += 1
                if start > n or not self._has_code(start):
                    continue
            for ln in range(start, self._statement_end(start) + 1):
                bound.setdefault(ln, []).extend(trusted)
        return bound

    def _fact(self, effect: Effect, lineno: int, evidence: str) -> Fact:
        """Build a fact, honoring a fact-level `contract-trusted` comment
        bound to the statement on that line."""
        trusted = None
        family = EFFECT_FAMILY.get(effect)
        if family is not None:
            for kind, arg in self._fact_escapes.get(lineno, ()):
                if kind == f"trusted:{family}":
                    trusted = arg
        return Fact(effect, lineno, evidence, trusted)

    def _annotations_for(self, sig_line: int) -> Annotations:
        """Annotations on the signature line or the comment block above it,
        up to ANNOTATION_WINDOW lines and never past a closing brace."""
        out = Annotations()
        first = sig_line
        while (first > max(1, sig_line - ANNOTATION_WINDOW)
               and "}" not in self.code_lines[first - 2]):
            first -= 1
        for lineno in range(first, sig_line + 1):
            for kind, arg in self._ann_lines.get(lineno, ()):
                if kind == "hot-path":
                    out.hot_path = True
                elif kind == "thread-safe":
                    out.thread_safe = arg
                elif kind.startswith("trusted:"):
                    out.trusted[kind.split(":", 1)[1]] = arg
        return out

    # -- main scan ----------------------------------------------------------

    def parse(self) -> TranslationUnit:
        toks = self.tokens
        i = 0
        n = len(toks)
        while i < n:
            t = toks[i]
            if t.text == "namespace":
                i = self._enter_namespace(i)
            elif t.text in ("class", "struct") and self._is_class_def(i):
                i = self._enter_class(i)
            elif t.text == "enum":
                i = self._skip_enum(i)
            elif t.text == "{":
                self.scopes.append(_Scope("brace", ""))
                i += 1
            elif t.text == "}":
                if self.scopes:
                    self.scopes.pop()
                i += 1
            elif t.text == "(":
                handled, i = self._maybe_function(i)
                if not handled:
                    i = self._skip_balanced(i, "(", ")")
            else:
                i += 1
        return self.tu

    # -- scopes -------------------------------------------------------------

    def _namespace_chain(self) -> str:
        parts = [s.name for s in self.scopes
                 if s.kind in ("namespace", "class") and s.name]
        return "::".join(parts)

    def _current_class(self) -> ClassInfo | None:
        for s in reversed(self.scopes):
            if s.kind == "class":
                return s.cls
            if s.kind == "namespace":
                return None
        return None

    def _enter_namespace(self, i: int) -> int:
        toks = self.tokens
        j = i + 1
        name_parts: list[str] = []
        while j < len(toks) and (toks[j].text.isidentifier()
                                 or toks[j].text == "::"):
            if toks[j].text != "::":
                name_parts.append(toks[j].text)
            j += 1
        if j < len(toks) and toks[j].text == "{":
            # `namespace a::b {` nests like two scopes; model as one with
            # the joined name (qualified names come out identical).
            self.scopes.append(_Scope("namespace", "::".join(name_parts)))
            return j + 1
        if j < len(toks) and toks[j].text == "=":  # namespace alias
            return self._skip_to_semicolon(j)
        return j

    def _is_class_def(self, i: int) -> bool:
        """True when `class|struct` at i introduces a definition (has a `{`
        before `;` at this nesting level)."""
        toks = self.tokens
        depth = 0
        for j in range(i + 1, min(i + 200, len(toks))):
            t = toks[j].text
            if t in "<([":
                depth += 1
            elif t in ">)]":
                depth -= 1
            elif depth == 0 and t == "{":
                return True
            elif depth == 0 and (t == ";" or t == "("):
                return False
        return False

    def _enter_class(self, i: int) -> int:
        toks = self.tokens
        j = i + 1
        # skip attributes / alignas / final handled below
        name = ""
        while j < len(toks):
            t = toks[j].text
            if t.isidentifier() and t not in ("final", "alignas"):
                name = t
                j += 1
                # template args in specializations: Name<...>
                if j < len(toks) and toks[j].text == "<":
                    j = self._skip_balanced(j, "<", ">")
                break
            j += 1
        bases: list[str] = []
        # scan to `{`, collecting base names after `:`
        saw_colon = False
        while j < len(toks) and toks[j].text != "{":
            t = toks[j].text
            if t == ":":
                saw_colon = True
            elif saw_colon and t.isidentifier() and t not in (
                    "public", "private", "protected", "virtual"):
                # take the last identifier of each qualified base
                if j + 1 < len(toks) and toks[j + 1].text == "::":
                    pass  # keep walking; the final component wins
                else:
                    bases.append(t)
            j += 1
        ns = self._namespace_chain()
        qname = f"{ns}::{name}" if ns else name
        cls = ClassInfo(qualified_name=qname, file=self.rel,
                        line=toks[i].line, bases=bases)
        self.tu.classes.append(cls)
        self.scopes.append(_Scope("class", name, cls))
        self._scan_class_members(cls, j + 1)
        return j + 1

    def _skip_enum(self, i: int) -> int:
        """Skip an enum definition body entirely (enumerators look like
        identifiers followed by `(` in `kFoo = bar(x)` initializers)."""
        toks = self.tokens
        j = i + 1
        while j < len(toks) and toks[j].text not in ("{", ";"):
            j += 1
        if j < len(toks) and toks[j].text == "{":
            return self._skip_balanced(j, "{", "}")
        return j

    def _scan_class_members(self, cls: ClassInfo, body_start_tok: int) -> None:
        """Record member variable types, mutable members and virtual method
        names by a line-based scan of the class body. Token index
        body_start_tok points just past the opening `{`."""
        toks = self.tokens
        depth = 1
        j = body_start_tok
        start_line = toks[body_start_tok - 1].line if body_start_tok else 1
        end_line = start_line
        while j < len(toks) and depth:
            t = toks[j].text
            if t == "{":
                depth += 1
            elif t == "}":
                depth -= 1
            elif t == "virtual":
                # the next identifier before `(` is the method name
                k = j + 1
                last_ident = ""
                while k < len(toks) and toks[k].text not in ("(", ";", "{"):
                    if toks[k].text.isidentifier():
                        last_ident = toks[k].text
                    elif toks[k].text == "<":
                        k = self._skip_balanced(k, "<", ">") - 1
                    k += 1
                if k < len(toks) and toks[k].text == "(" and last_ident:
                    cls.virtual_methods.add(last_ident)
            elif t == "override" or t == "final":
                # walk back to the method name: ... name ( args ) qualifiers
                k = j - 1
                depth2 = 0
                while k > body_start_tok:
                    tt = toks[k].text
                    if tt == ")":
                        depth2 += 1
                    elif tt == "(":
                        depth2 -= 1
                        if depth2 < 0:
                            if toks[k - 1].text.isidentifier():
                                cls.virtual_methods.add(toks[k - 1].text)
                            break
                    k -= 1
            end_line = toks[j].line
            j += 1
        # member variable declarations, by line
        code_lines = self.code.split("\n")
        for lineno in range(start_line, min(end_line, len(code_lines)) + 1):
            line = code_lines[lineno - 1]
            m = TYPE_DECL_RE.match(line)
            if m and "(" not in line.split(m.group(2))[0].replace(
                    m.group(1), ""):
                cls.member_types.setdefault(m.group(2), m.group(1))
            if re.search(r"(?<![\w_])mutable\b", line):
                window = self.raw_lines[max(0, lineno - 3):lineno]
                name_m = re.search(r"([A-Za-z_]\w*)\s*[;={]", line)
                member = name_m.group(1) if name_m else "?"
                if any(WORKSPACE_MARK in w for w in window):
                    cls.justified_mutables.append((member, lineno))
                else:
                    cls.unjustified_mutables.append((member, lineno))

    # -- function recognition ------------------------------------------------

    def _skip_balanced(self, i: int, open_t: str, close_t: str) -> int:
        toks = self.tokens
        depth = 0
        j = i
        while j < len(toks):
            t = toks[j].text
            if t == open_t:
                depth += 1
            elif t == close_t:
                depth -= 1
                if depth == 0:
                    return j + 1
            j += 1
        return j

    def _skip_to_semicolon(self, i: int) -> int:
        toks = self.tokens
        j = i
        depth = 0
        while j < len(toks):
            t = toks[j].text
            if t in "([{":
                depth += 1
            elif t in ")]}":
                depth -= 1
            elif t == ";" and depth <= 0:
                return j + 1
            j += 1
        return j

    def _maybe_function(self, i: int) -> tuple[bool, int]:
        """Token i is `(` at namespace/class scope. Decide whether it opens a
        function declarator; if a definition, parse its body."""
        toks = self.tokens
        # ---- name chain before the `(` ----
        j = i - 1
        name_parts: list[str] = []
        if j >= 0 and toks[j].text == "operator":
            name_parts = ["operator()"]
            j -= 1
        elif j >= 1 and not toks[j].text.isidentifier():
            # operator symbols: walk back to `operator`
            k = j
            sym = []
            while k >= 0 and not toks[k].text.isidentifier():
                sym.append(toks[k].text)
                k -= 1
                if j - k > 3:
                    break
            if k >= 0 and toks[k].text == "operator":
                name_parts = ["operator" + "".join(reversed(sym))]
                j = k - 1
            else:
                return False, i
        elif j >= 0 and toks[j].text.isidentifier():
            if toks[j].text in KEYWORDS_NOT_CALLS or toks[j].text in \
                    DECL_KEYWORDS:
                return False, i
            name_parts = [toks[j].text]
            j -= 1
            if j >= 0 and toks[j].text == "~":
                name_parts[0] = "~" + name_parts[0]
                j -= 1
        else:
            return False, i
        # template-id before the name? e.g. run_indexed<T>( — the `<...>` was
        # consumed as comparison tokens; ignore (rare at def sites).
        # Class qualifiers: X::Y::name
        quals: list[str] = []
        while j >= 1 and toks[j].text == "::" and toks[j - 1].text.isidentifier():
            quals.insert(0, toks[j - 1].text)
            j -= 2
            if j >= 0 and toks[j].text == ">":
                # templated qualifier Foo<T>::bar — walk back over <...>
                depth = 0
                while j >= 0:
                    if toks[j].text == ">":
                        depth += 1
                    elif toks[j].text == "<":
                        depth -= 1
                        if depth == 0:
                            j -= 1
                            break
                    j -= 1
        # ---- leading keywords since the previous statement boundary ----
        is_virtual = False
        is_static = False
        k = j
        boundary = {";", "}", "{", ":", "public", "private", "protected"}
        while k >= 0 and toks[k].text not in boundary:
            if toks[k].text == "virtual":
                is_virtual = True
            elif toks[k].text == "static":
                is_static = True
            elif toks[k].text in ("return", "=", "throw", ",", "(",
                                  "co_return"):
                # an expression context: `x = foo(...)`, `return foo(...)`
                return False, i
            k -= 1

        # ---- parameter list ----
        close = self._skip_balanced(i, "(", ")") - 1  # index of `)`
        if close >= len(self.tokens):
            return False, i
        params_range = (i + 1, close)
        # ---- trailer: const/noexcept/override/...; then `{`, `;`, `=`, `:`
        j2 = close + 1
        is_const = False
        while j2 < len(toks):
            t = toks[j2].text
            if t == "const":
                is_const = True
                j2 += 1
            elif t in ("noexcept", "override", "final", "&", "&&", "mutable"):
                j2 += 1
            elif t == "(":  # noexcept(...)
                j2 = self._skip_balanced(j2, "(", ")")
            elif t == "->":  # trailing return type
                j2 += 1
                while j2 < len(toks) and toks[j2].text not in ("{", ";", "="):
                    if toks[j2].text == "<":
                        j2 = self._skip_balanced(j2, "<", ">")
                    else:
                        j2 += 1
            else:
                break
        if j2 >= len(toks):
            return False, i

        tail = toks[j2].text
        cls = self._current_class()
        if tail == ";":
            # declaration: record pure-virtual/virtual methods so dispatch
            # resolution knows the full override surface; also record
            # annotated declarations (the definition carries its own mark,
            # but hierarchy roots like Allocator::select_into are decl-only).
            if cls is not None and (is_virtual
                                    or name_parts[-1] in cls.virtual_methods):
                self._record(name_parts, quals, toks[i].line, cls,
                             is_const, True, is_static, body=None)
            return True, j2 + 1
        if tail == "=":
            # = default / = delete / = 0 (pure virtual)
            if j2 + 1 < len(toks) and toks[j2 + 1].text == "0" \
                    and cls is not None:
                self._record(name_parts, quals, toks[i].line, cls,
                             is_const, True, is_static, body=None)
            return True, self._skip_to_semicolon(j2)
        if tail == ":":
            # ctor initializer list: walk to the body `{` at depth 0
            j3 = j2 + 1
            depth = 0
            while j3 < len(toks):
                t = toks[j3].text
                if t in "([":
                    depth += 1
                elif t in ")]":
                    depth -= 1
                elif t == "{" and depth == 0:
                    break
                elif t == ";" and depth == 0:
                    return False, i  # bitfield or something odd
                j3 += 1
            if j3 >= len(toks):
                return False, i
            body_end = self._skip_balanced(j3, "{", "}")
            self._record(name_parts, quals, toks[i].line, cls, is_const,
                         is_virtual, is_static,
                         body=(j3 + 1, body_end - 1),
                         params_range=params_range)
            return True, body_end
        if tail == "{":
            body_end = self._skip_balanced(j2, "{", "}")
            self._record(name_parts, quals, toks[i].line, cls, is_const,
                         is_virtual, is_static,
                         body=(j2 + 1, body_end - 1),
                         params_range=params_range)
            return True, body_end
        return False, i

    def _record(self, name_parts: list[str], quals: list[str], line: int,
                cls: ClassInfo | None, is_const: bool, is_virtual: bool,
                is_static: bool, body: tuple[int, int] | None,
                params_range: tuple[int, int] | None = None) -> None:
        simple = name_parts[-1]
        ns = self._namespace_chain()
        if quals:
            # out-of-line member definition: Class::name — attach to the
            # class by (namespace + qual chain)
            owner = "::".join(quals)
            class_name = f"{ns}::{owner}" if ns else owner
        elif cls is not None:
            class_name = cls.qualified_name
        else:
            class_name = None
        qualified = f"{class_name}::{simple}" if class_name else (
            f"{ns}::{simple}" if ns else simple)
        # virtual-ness from the class's virtual method table too
        if cls is not None and simple in cls.virtual_methods:
            is_virtual = True
        fn = Function(
            qualified_name=qualified, simple_name=simple,
            class_name=class_name, file=self.rel, line=line,
            is_const_method=is_const, is_virtual=is_virtual,
            is_static_method=is_static, has_body=body is not None,
            annotations=self._annotations_for(line))
        if body is not None:
            local_types = self._param_types(params_range) if params_range \
                else {}
            self._scan_body(fn, body, local_types)
        self.tu.functions.append(fn)

    # -- body analysis -------------------------------------------------------

    def _param_types(self, params_range: tuple[int, int]) -> dict[str, str]:
        """Parameter name -> textual type, from the declarator's token
        range. Heuristic: within each comma-separated chunk the final
        identifier is the name, everything before it the type."""
        toks = self.tokens
        out: dict[str, str] = {}
        chunk: list[str] = []
        depth = 0
        for j in range(params_range[0], params_range[1]):
            t = toks[j].text
            if t in "<([":
                depth += 1
            elif t in ">)]":
                depth -= 1
            if t == "," and depth == 0:
                self._absorb_param(chunk, out)
                chunk = []
            else:
                chunk.append(t)
        self._absorb_param(chunk, out)
        return out

    @staticmethod
    def _absorb_param(chunk: list[str], out: dict[str, str]) -> None:
        # drop default arguments
        if "=" in chunk:
            chunk = chunk[:chunk.index("=")]
        idents = [t for t in chunk if t.isidentifier()
                  and t not in DECL_KEYWORDS]
        if len(idents) >= 2:
            out[idents[-1]] = " ".join(chunk[:-1]) if chunk else ""

    def _scan_body(self, fn: Function, body: tuple[int, int],
                   local_types: dict[str, str]) -> None:
        toks = self.tokens
        start, end = body
        cls = None
        for c in self.tu.classes:
            if c.qualified_name == fn.class_name:
                cls = c
                break
        if cls is None and fn.class_name:
            cls = self.class_registry.get(fn.class_name)

        def type_of(name: str) -> str:
            if name in local_types:
                return local_types[name]
            if cls is not None and name in cls.member_types:
                return cls.member_types[name]
            return ""

        # line-based facts over the body's source range
        first_line = toks[start].line if start < len(toks) else 0
        last_line = toks[end - 1].line if end - 1 < len(toks) else first_line
        code_lines = self.code.split("\n")
        for lineno in range(first_line, last_line + 1):
            line = code_lines[lineno - 1]
            if OWNING_CONTAINER_RE.search(line) and "&" not in line \
                    and "*" not in line:
                fn.facts.append(self._fact(Effect.ALLOC, lineno,
                                     line.strip()[:80]))
            am = re.match(
                r"^\s*(?:const\s+)?auto\s*&\s*(\w+)\s*=\s*(\w+)\s*;", line)
            if am:
                # `auto& cursor = cursor_;` aliases member scratch: growth
                # through the alias must carry the member's type, or the
                # alias would launder allocation facts
                aliased = type_of(am.group(2))
                if aliased:
                    local_types[am.group(1)] = aliased
            m = TYPE_DECL_RE.match(line)
            if m:
                local_types.setdefault(m.group(2), m.group(1))
            # non-const static/thread_local locals without justification
            sm = re.match(r"^\s*(?:static|thread_local)[\s\w].*;", line)
            if sm and "const" not in line and "(" not in line.split("=")[0]:
                window = self.raw_lines[max(0, lineno - 3):lineno]
                if not any("// thread-safe:" in w for w in window):
                    fn.facts.append(self._fact(Effect.MUTATES_STATIC, lineno,
                                         line.strip()[:80]))

        # token-based facts + call sites
        j = start
        while j < end:
            t = toks[j]
            txt = t.text
            nxt = toks[j + 1].text if j + 1 < end else ""
            if txt.isidentifier() and txt not in KEYWORDS_NOT_CALLS \
                    and nxt == "(":
                self._classify_call(fn, toks, j, type_of)
            elif txt in ALLOC_FREE_FUNCTIONS and nxt == "<":
                # `std::make_unique<T>(...)`: the template argument list
                # sits between the name and the call's parentheses
                self._classify_call(fn, toks, j, type_of)
            elif txt.isidentifier() and txt in RAND_TYPES:
                fn.facts.append(self._fact(Effect.USES_RAND, t.line,
                                     f"std::{txt}"))
            elif txt.isidentifier() and txt in LOCK_TYPES:
                fn.facts.append(self._fact(Effect.TAKES_LOCK, t.line,
                                     f"std::{txt}"))
            elif txt.isidentifier() and txt in IO_STREAMS \
                    and j >= 1 and toks[j - 1].text == "::":
                fn.facts.append(self._fact(Effect.DOES_IO, t.line, f"std::{txt}"))
            elif txt == "for":
                self._maybe_unordered_iter(fn, toks, j, end, type_of)
            j += 1

    def _classify_call(self, fn: Function, toks: list[Token], j: int,
                       type_of) -> None:
        t = toks[j]
        name = t.text
        qualifier = ""
        receiver = ""
        receiver_type = ""
        if j >= 2 and toks[j - 1].text == "::":
            qualifier = toks[j - 2].text
        elif j >= 2 and toks[j - 1].text in (".", "->"):
            if toks[j - 2].text.isidentifier():
                receiver = toks[j - 2].text
                receiver_type = type_of(receiver)
            elif toks[j - 2].text in (")", "]"):
                # chained call / element access: unknown type, but still a
                # member call — the sentinel keeps the resolver from
                # treating it as an unqualified free function
                qualifier = "<expr>"
        line = t.line

        # effect classification by callee identity
        if name in ALLOC_FREE_FUNCTIONS and qualifier in ("std", ""):
            fn.facts.append(self._fact(Effect.ALLOC, line,
                                 ALLOC_FREE_FUNCTIONS[name] + "()"))
            return
        if name in CLOCK_CALLS:
            if name == "now" or qualifier in ("", "std") or receiver == "":
                # `steady_clock::now()` has qualifier steady_clock — catch
                # any `now(` plus the bare C functions.
                if name == "now" or not receiver:
                    fn.facts.append(self._fact(Effect.READS_CLOCK, line,
                                         f"{qualifier or receiver or ''}"
                                         f"::{name}()".lstrip(":")))
                    return
        if name in RAND_CALLS and not receiver:
            fn.facts.append(self._fact(Effect.USES_RAND, line, f"{name}()"))
            return
        if name in LOCALE_CALLS:
            fn.facts.append(self._fact(Effect.USES_LOCALE, line, f"{name}()"))
            return
        if name in PRINTF_CALLS:
            # Formatting integers/hex is locale-clean; floating conversions
            # read LC_NUMERIC. The format string usually sits on the call
            # line (clang-format keeps it there), so inspect the raw text.
            raw = self.raw_lines[line - 1] if line <= len(self.raw_lines) \
                else ""
            if re.search(r"%[-+ #0-9.*]*[fFeEgGaA]", raw):
                fn.facts.append(self._fact(
                    Effect.USES_LOCALE, line,
                    f"{name}() with a floating conversion "
                    "(LC_NUMERIC-dependent decimal point)"))
            if name in ("printf", "fprintf"):
                fn.facts.append(self._fact(Effect.DOES_IO, line,
                                           f"{name}()"))
            return
        if name in LOCK_CALLS and receiver:
            fn.facts.append(self._fact(Effect.TAKES_LOCK, line,
                                 f"{receiver}.{name}()"))
            return
        if name in IO_CALLS and not receiver:
            fn.facts.append(self._fact(Effect.DOES_IO, line, f"{name}()"))
            return
        if name in IO_TYPES or (qualifier == "std" and name in IO_TYPES):
            fn.facts.append(self._fact(Effect.DOES_IO, line, f"std::{name}"))
            return
        if name in GROWTH_METHODS and receiver:
            if not receiver_type or ALLOCATING_RECEIVER_RE.search(
                    receiver_type):
                # growth on a known-allocating or unknown-typed receiver;
                # repo-typed receivers (IndexSet, ...) resolve as calls.
                if not receiver_type:
                    # unknown receiver type: if ANY repo class defines this
                    # method the resolver will link it; still record the
                    # amortized fact only when clearly std (avoid noise).
                    fn.calls.append(CallSite(name, qualifier or receiver,
                                             receiver_type, line))
                    return
                fn.facts.append(self._fact(
                    Effect.ALLOC_AMORTIZED, line,
                    f"{receiver}.{name}() on {receiver_type.strip()}"))
                return
        # plain call site for the resolver
        fn.calls.append(CallSite(name, qualifier or receiver, receiver_type,
                                 line))

    def _maybe_unordered_iter(self, fn: Function, toks: list[Token], j: int,
                              end: int, type_of) -> None:
        """`for ( decl : expr )` where expr is unordered-typed."""
        if j + 1 >= end or toks[j + 1].text != "(":
            return
        close = self._skip_balanced(j + 1, "(", ")") - 1
        # find the `:` at depth 1
        depth = 0
        colon = -1
        for k in range(j + 1, min(close, end)):
            t = toks[k].text
            if t in "<([":
                depth += 1
            elif t in ">)]":
                depth -= 1
            elif t == ":" and depth == 1:
                colon = k
                break
        if colon < 0:
            return
        for k in range(colon + 1, min(close, end)):
            name = toks[k].text
            if name.isidentifier():
                ty = type_of(name)
                if ty and UNORDERED_TYPE_RE.search(ty):
                    fn.facts.append(self._fact(
                        Effect.UNORDERED_ITER, toks[k].line,
                        f"range-for over {name} ({ty.strip()})"))
                    return


def parse_file(path: Path, repo_root: Path,
               class_registry: dict | None = None) -> TranslationUnit:
    return FileParser(path, repo_root, class_registry).parse()


def parse_program(paths: list[Path], repo_root: Path) -> list[TranslationUnit]:
    """Two-pass parse: the first pass collects every class's member types so
    the second can type receivers in .cpp bodies whose class lives in a
    header (otherwise `auto& s = scratch_;` in a method defined out of line
    would launder the member's allocating type)."""
    registry: dict = {}
    for p in paths:
        for cls in FileParser(p, repo_root).parse().classes:
            existing = registry.get(cls.qualified_name)
            if existing is None:
                registry[cls.qualified_name] = cls
            else:
                existing.member_types.update(cls.member_types)
                existing.virtual_methods |= cls.virtual_methods
    return [parse_file(p, repo_root, registry) for p in paths]
