"""Whole-program call graph + bottom-up effect propagation.

Resolution policy (DESIGN.md "Effect contracts"):

  * Calls resolve by simple name against the index of repo functions. A
    textual frontend cannot type every receiver, so resolution
    over-approximates: when several repo functions share a name, the call
    links to all of them. Inert functions (no facts, no repo calls) absorb
    the over-approximation harmlessly; the escape hatch covers the rest.
  * When the receiver's declared type is known and names a repo class, only
    that class's method (and, walking up, its bases') is linked.
  * Virtual dispatch: a call to a name that any repo class declares
    `virtual` resolves to *every* override of that name in the program —
    the `Allocator::select_into` policy. A hot path that calls through a
    base pointer is only allocation-free if every implementation is.
  * Qualified `std::` (or otherwise unknown external) calls that the effect
    tables did not classify are assumed effect-free; the tables in
    parser.py carry the std functions that matter (make_unique, to_string,
    clock reads, printf-family, ...).

Propagation is a fixpoint over the condensed graph: a function's transitive
effect set is its direct facts plus the union of its callees', with
`contract-trusted:` functions contributing nothing to the family they are
trusted for (the trust covers their whole subtree and is inventoried).
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field

from model import ClassInfo, Effect, Function, TranslationUnit


@dataclass
class Program:
    functions: dict[str, Function] = field(default_factory=dict)  # key()->fn
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    by_simple_name: dict[str, list[str]] = field(
        default_factory=lambda: defaultdict(list))
    by_class_method: dict[tuple[str, str], list[str]] = field(
        default_factory=lambda: defaultdict(list))
    #: method simple name -> declared virtual somewhere
    virtual_names: set[str] = field(default_factory=set)
    #: resolved call edges: caller key -> [(callee key, line), ...]
    edges: dict[str, list[tuple[str, int]]] = field(
        default_factory=lambda: defaultdict(list))

    def function_by_qualified(self, qualified: str) -> list[Function]:
        return [f for f in self.functions.values()
                if f.qualified_name == qualified]


def build_program(tus: list[TranslationUnit]) -> Program:
    prog = Program()
    for tu in tus:
        for cls in tu.classes:
            existing = prog.classes.get(cls.qualified_name)
            if existing is None:
                prog.classes[cls.qualified_name] = cls
            else:
                # header parsed once per TU set; merge defensively
                existing.virtual_methods |= cls.virtual_methods
                existing.member_types.update(cls.member_types)
        for fn in tu.functions:
            key = fn.key()
            if key in prog.functions:
                continue
            prog.functions[key] = fn
            prog.by_simple_name[fn.simple_name].append(key)
            if fn.class_name:
                cls_simple = fn.class_name.split("::")[-1]
                prog.by_class_method[(cls_simple, fn.simple_name)].append(key)
    for cls in prog.classes.values():
        prog.virtual_names |= cls.virtual_methods
    _resolve_edges(prog)
    return prog


def _class_chain(prog: Program, class_simple: str) -> list[str]:
    """Simple names of `class_simple` and its transitive bases."""
    out: list[str] = []
    seen: set[str] = set()
    queue = [class_simple]
    while queue:
        c = queue.pop()
        if c in seen:
            continue
        seen.add(c)
        out.append(c)
        for cls in prog.classes.values():
            if cls.qualified_name.split("::")[-1] == c:
                queue.extend(cls.bases)
    return out


def _overrides_of(prog: Program, name: str) -> list[str]:
    """Every function key implementing virtual method `name`."""
    return [k for k in prog.by_simple_name.get(name, ())
            if prog.functions[k].class_name is not None]


#: Namespace qualifiers that mark a callee as external to the repo. The
#: parser's effect tables already classify the std calls that matter
#: (make_unique, ::now, printf, ...); everything else under these is
#: assumed effect-free rather than name-collided with repo functions
#: (std::filesystem::path() must not resolve to FlowNetwork::path).
EXTERNAL_NS = frozenset({
    "std", "filesystem", "fs", "chrono", "this_thread", "ranges", "views",
    "numbers", "literals", "string_literals", "chrono_literals",
})

#: Method names every std container/string/smart-pointer has. A member call
#: on a receiver whose type the parser could not determine is overwhelmingly
#: a std call, not a repo method that happens to share the name — without
#: this, `sparse_slot_.find(...)` would resolve to JsonValue::find and every
#: `.size()` to IndexSet::size. Repo receivers keep full resolution via
#: receiver typing (member/local/param types are tracked).
STD_CONTAINER_METHODS = frozenset({
    "size", "empty", "begin", "end", "cbegin", "cend", "rbegin", "rend",
    "find", "count", "contains", "at", "clear", "erase", "front", "back",
    "data", "c_str", "str", "substr", "length", "swap", "reset", "get",
    "release", "value", "has_value", "value_or", "first", "second", "top",
    "pop", "pop_back", "pop_front", "lower_bound", "upper_bound",
    "equal_range", "load", "store", "fetch_add", "fetch_sub", "exchange",
})


def _chain_methods(prog: Program, class_simple: str,
                   name: str) -> tuple[list[str], bool]:
    """Keys of `name` defined on `class_simple` or its bases, plus whether
    any class in that chain declares `name` virtual."""
    targets: list[str] = []
    virtual = False
    for c in _class_chain(prog, class_simple):
        targets.extend(prog.by_class_method.get((c, name), ()))
        for cls in prog.classes.values():
            if cls.qualified_name.split("::")[-1] == c \
                    and name in cls.virtual_methods:
                virtual = True
    return targets, virtual


def _resolve_call(prog: Program, fn: Function, call) -> list[str]:
    """Candidate callee keys, mirroring C++ name lookup closely enough:

    1. an external-namespace qualifier means not-a-repo-function;
    2. a typed receiver (or a repo-class qualifier) restricts lookup to
       that class chain — widened to every override if the chain declares
       the name virtual (the Allocator::select_into policy);
    3. an unqualified call inside a class resolves to the enclosing class
       chain when it defines the name (member lookup shadows globals);
    4. otherwise, a virtual name anywhere resolves to all overrides, and
       anything else falls back to every repo function of that name.
    """
    if call.qualifier in EXTERNAL_NS:
        return []
    repo_class_simple = {c.qualified_name.split("::")[-1]
                         for c in prog.classes.values()}
    # 2: receiver-typed / class-qualified narrowing. An `auto` receiver
    # type tells us nothing and counts as unknown.
    recv_class = ""
    head = call.receiver_type.split("<")[0]
    type_known = bool(call.receiver_type) and "auto" not in head.split()
    if type_known:
        for cls_simple in repo_class_simple:
            if cls_simple in head:
                recv_class = cls_simple
                break
        if not recv_class:
            return []  # typed receiver naming no repo class: external
    if not recv_class and call.qualifier in repo_class_simple:
        recv_class = call.qualifier
    if recv_class:
        targets, virtual = _chain_methods(prog, recv_class, call.name)
        if virtual:
            return _overrides_of(prog, call.name)
        if targets:
            return targets
        # repo class without such a method: an inherited/external helper —
        # fall through to the global policies below.
    # 3: member lookup in the enclosing class shadows globals
    if not call.qualifier and not call.receiver_type and fn.class_name:
        own_simple = fn.class_name.split("::")[-1]
        targets, virtual = _chain_methods(prog, own_simple, call.name)
        if virtual:
            return _overrides_of(prog, call.name)
        if targets:
            return targets
    # 4: global fallback — but a member call on an unknown-typed receiver
    # with a std-container method name is std, not a repo name collision
    if call.qualifier and not type_known \
            and call.name in STD_CONTAINER_METHODS:
        return []
    if call.name in prog.virtual_names:
        return _overrides_of(prog, call.name)
    return list(prog.by_simple_name.get(call.name, ()))


def _resolve_edges(prog: Program) -> None:
    for key, fn in prog.functions.items():
        for call in fn.calls:
            for t in dict.fromkeys(_resolve_call(prog, fn, call)):
                if t != key:  # self-recursion adds nothing
                    prog.edges[key].append((t, call.line))


def propagate_effects(prog: Program, family_trust: str) -> dict[str, set[Effect]]:
    """Transitive effect set per function key, with functions trusted for
    `family_trust` contributing (and propagating) nothing."""
    # reverse topological-ish fixpoint; graphs are small (<5k nodes)
    eff: dict[str, set[Effect]] = {}
    for key, fn in prog.functions.items():
        if family_trust in fn.annotations.trusted:
            eff[key] = set()
        else:
            eff[key] = {f.effect for f in fn.facts}
    changed = True
    while changed:
        changed = False
        for key in prog.functions:
            if family_trust in prog.functions[key].annotations.trusted:
                continue
            cur = eff[key]
            before = len(cur)
            for callee, _line in prog.edges.get(key, ()):
                cur |= eff[callee]
            if len(cur) != before:
                changed = True
    return eff


def reachable_from(prog: Program, roots: list[str],
                   family_trust: str) -> dict[str, tuple[str, int] | None]:
    """BFS over call edges from `roots` (function keys), stopping at
    functions trusted for `family_trust`. Returns reached key ->
    (predecessor key, call line) (None for roots), enabling chain
    reconstruction."""
    pred: dict[str, tuple[str, int] | None] = {}
    queue: deque[str] = deque()
    for r in roots:
        if r not in pred:
            pred[r] = None
            queue.append(r)
    while queue:
        cur = queue.popleft()
        fn = prog.functions[cur]
        if family_trust in fn.annotations.trusted:
            continue  # trusted: subtree exempt
        for callee, line in prog.edges.get(cur, ()):
            if callee not in pred:
                pred[callee] = (cur, line)
                queue.append(callee)
    return pred


def call_chain(prog: Program, pred: dict[str, tuple[str, int] | None],
               key: str) -> list[str]:
    """Root → ... → key, human-readable."""
    chain: list[str] = []
    cur: str | None = key
    while cur is not None:
        fn = prog.functions[cur]
        chain.append(f"{fn.qualified_name} ({fn.location()})")
        step = pred.get(cur)
        cur = step[0] if step else None
    chain.reverse()
    return chain


def is_inert(prog: Program, key: str) -> bool:
    """No facts and no resolved repo calls: trivially effect-free, exempt
    from the annotation-coverage requirement."""
    fn = prog.functions[key]
    return not fn.facts and not prog.edges.get(key)
