"""The three transitive contract families (DESIGN.md "Effect contracts").

no-alloc      roots = every function annotated `// hot-path: no-alloc`.
              Everything reachable must (a) carry no allocation facts and
              (b) be annotated itself unless it is provably inert (no facts,
              no repo calls). `contract-trusted: no-alloc` prunes a subtree;
              a trusted comment trailing a statement, or in the comment
              block right above it, waives that statement's facts only.
              Every waiver is inventoried.

thread-safe   roots = the campaign worker entry (run_cell), the methods
              named in NAMED_THREAD_ROOTS (the allocator daemon's event
              loop and the service it drives),
              and every const method of CostModel (the class is documented
              as share-across-threads). Reachable functions must be
              annotated `// thread-safe:`, or carry no unjustified static
              state and belong to no class with unjustified mutable
              members — i.e. be provably const/stateless. A named root
              whose class exists without that method is itself a
              violation, so a rename cannot silently shrink the check.

determinism   scope = functions *defined* under src/sched, src/core,
              src/collectives, src/exp. Nothing there (nor anything they
              transitively call) may read wall clocks, use nondeterministic
              random sources, perform locale-dependent parsing/formatting,
              or iterate unordered containers — all of those leak
              run-to-run or platform-to-platform differences into paths
              whose outputs PR 5 locked down byte-for-byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from callgraph import (Program, call_chain, is_inert, reachable_from)
from model import (Effect, FAMILY_DETERMINISM, FAMILY_NO_ALLOC,
                   FAMILY_THREAD_SAFE, Function)

DETERMINISM_DIRS = ("src/sched/", "src/core/", "src/collectives/",
                    "src/exp/")

ALLOC_EFFECTS = {Effect.ALLOC, Effect.ALLOC_AMORTIZED}
DETERMINISM_EFFECTS = {
    Effect.READS_CLOCK: "determinism-wallclock",
    Effect.USES_RAND: "determinism-rand",
    Effect.USES_LOCALE: "determinism-locale",
    Effect.UNORDERED_ITER: "determinism-unordered-iter",
}


@dataclass
class Violation:
    rule: str
    function: str          # qualified name
    location: str          # file:line
    message: str
    chain: list[str] = field(default_factory=list)
    evidence: list[str] = field(default_factory=list)

    def key(self) -> str:
        file = self.location.rsplit(":", 1)[0]
        return f"{self.rule}|{self.function}|{file}"

    def to_json(self) -> dict:
        return {"rule": self.rule, "function": self.function,
                "location": self.location, "message": self.message,
                "chain": self.chain, "evidence": self.evidence,
                "key": self.key()}


@dataclass
class TrustEntry:
    function: str
    location: str
    family: str
    reason: str
    granularity: str  # "function" (subtree pruned) | "fact" (one line waived)
    evidence: str = ""

    def to_json(self) -> dict:
        return {"function": self.function, "location": self.location,
                "family": self.family, "reason": self.reason,
                "granularity": self.granularity, "evidence": self.evidence}


def _effective(prog: Program) -> dict[str, dict]:
    """Annotations merged across declaration/definition records sharing a
    qualified name (lint puts the mark on the definition; hierarchy roots
    like Allocator::select_into carry it on the declaration)."""
    merged: dict[str, dict] = {}
    for fn in prog.functions.values():
        m = merged.setdefault(fn.qualified_name,
                              {"hot_path": False, "thread_safe": None,
                               "trusted": {}})
        m["hot_path"] |= fn.annotations.hot_path
        if fn.annotations.thread_safe is not None:
            m["thread_safe"] = fn.annotations.thread_safe
        m["trusted"].update(fn.annotations.trusted)
    return merged


def _family_of_effect(effect: Effect) -> str:
    if effect in ALLOC_EFFECTS:
        return FAMILY_NO_ALLOC
    if effect is Effect.MUTATES_STATIC:
        return FAMILY_THREAD_SAFE
    if effect in DETERMINISM_EFFECTS:
        return FAMILY_DETERMINISM
    return ""


def _fact_violations(fn: Function, effects: set[Effect], family: str,
                     trusted: list[TrustEntry]) -> list:
    """Facts of `fn` within `effects`, splitting off fact-level waivers."""
    out = []
    for fact in fn.facts:
        if fact.effect not in effects:
            continue
        if fact.trusted is not None and _family_of_effect(
                fact.effect) == family:
            trusted.append(TrustEntry(
                function=fn.qualified_name,
                location=f"{fn.file}:{fact.line}", family=family,
                reason=fact.trusted, granularity="fact",
                evidence=fact.evidence))
            continue
        out.append(fact)
    return out


# ---------------------------------------------------------------------------
# no-alloc
# ---------------------------------------------------------------------------

def check_no_alloc(prog: Program) -> tuple[list[Violation], list[TrustEntry],
                                           list[str]]:
    merged = _effective(prog)
    roots = sorted(k for k, fn in prog.functions.items()
                   if merged[fn.qualified_name]["hot_path"] and fn.has_body)
    pred = reachable_from(prog, roots, FAMILY_NO_ALLOC)
    violations: list[Violation] = []
    trusted: list[TrustEntry] = []
    seen_trust: set[str] = set()
    for key in sorted(pred):
        fn = prog.functions[key]
        ann = merged[fn.qualified_name]
        if FAMILY_NO_ALLOC in ann["trusted"]:
            if fn.qualified_name not in seen_trust:
                seen_trust.add(fn.qualified_name)
                trusted.append(TrustEntry(
                    function=fn.qualified_name, location=fn.location(),
                    family=FAMILY_NO_ALLOC,
                    reason=ann["trusted"][FAMILY_NO_ALLOC],
                    granularity="function"))
            continue
        if not fn.has_body:
            continue
        chain = call_chain(prog, pred, key)
        for fact in _fact_violations(fn, ALLOC_EFFECTS, FAMILY_NO_ALLOC,
                                     trusted):
            violations.append(Violation(
                rule="no-alloc", function=fn.qualified_name,
                location=f"{fn.file}:{fact.line}",
                message=f"{fact.effect.value} inside a hot-path subtree: "
                        f"{fact.evidence}",
                chain=chain,
                evidence=[f"{fn.file}:{fact.line}: {fact.evidence}"]))
        if not ann["hot_path"] and not is_inert(prog, key):
            violations.append(Violation(
                rule="no-alloc-unannotated", function=fn.qualified_name,
                location=fn.location(),
                message="reachable from a `// hot-path: no-alloc` root but "
                        "not annotated (and not provably inert): annotate "
                        "it so its body is checked as a root of its own",
                chain=chain))
    root_names = sorted({prog.functions[r].qualified_name for r in roots})
    return violations, trusted, root_names


# ---------------------------------------------------------------------------
# thread-safety
# ---------------------------------------------------------------------------

#: (class simple name, method) thread entry points. The allocator daemon's
#: loop thread runs beside the other threads of the process that embeds
#: the server, so what it reaches must be free of unjustified statics too.
NAMED_THREAD_ROOTS = (
    ("Server", "run_loop"),
    ("AllocatorService", "handle"),
)


def thread_roots(prog: Program) -> list[str]:
    roots = []
    for key, fn in prog.functions.items():
        if not fn.has_body:
            continue
        cls_simple = (fn.class_name or "").split("::")[-1]
        if fn.simple_name == "run_cell" \
                or (cls_simple, fn.simple_name) in NAMED_THREAD_ROOTS \
                or (cls_simple == "CostModel" and fn.is_const_method):
            roots.append(key)
    return sorted(roots)


def missing_thread_roots(prog: Program) -> list[Violation]:
    """A NAMED_THREAD_ROOTS class that exists without the named method:
    the entry point was renamed and its subtree is no longer checked."""
    violations = []
    for cls_simple, method in NAMED_THREAD_ROOTS:
        if any(prog.functions[k].has_body
               for k in prog.by_class_method.get((cls_simple, method), ())):
            continue
        for cls in prog.classes.values():
            if cls.qualified_name.split("::")[-1] != cls_simple:
                continue
            violations.append(Violation(
                rule="thread-safe-root-missing",
                function=f"{cls.qualified_name}::{method}",
                location=f"{cls.file}:{cls.line}",
                message=f"named thread root {cls_simple}::{method} is not "
                        f"defined in {cls.qualified_name}: point "
                        "NAMED_THREAD_ROOTS at the class's thread entry"))
    return violations


def check_thread_safety(prog: Program) -> tuple[list[Violation],
                                                list[TrustEntry], list[str]]:
    merged = _effective(prog)
    roots = thread_roots(prog)
    pred = reachable_from(prog, roots, FAMILY_THREAD_SAFE)
    violations = missing_thread_roots(prog)
    trusted: list[TrustEntry] = []
    seen_trust: set[str] = set()
    flagged_classes: set[str] = set()
    for key in sorted(pred):
        fn = prog.functions[key]
        ann = merged[fn.qualified_name]
        if FAMILY_THREAD_SAFE in ann["trusted"]:
            if fn.qualified_name not in seen_trust:
                seen_trust.add(fn.qualified_name)
                trusted.append(TrustEntry(
                    function=fn.qualified_name, location=fn.location(),
                    family=FAMILY_THREAD_SAFE,
                    reason=ann["trusted"][FAMILY_THREAD_SAFE],
                    granularity="function"))
            continue
        if ann["thread_safe"] is not None:
            continue  # explicitly argued; the reason is its documentation
        if not fn.has_body:
            continue
        chain = call_chain(prog, pred, key)
        for fact in _fact_violations(fn, {Effect.MUTATES_STATIC},
                                     FAMILY_THREAD_SAFE, trusted):
            violations.append(Violation(
                rule="thread-safe-static", function=fn.qualified_name,
                location=f"{fn.file}:{fact.line}",
                message="unjustified non-const static state reachable from "
                        f"a concurrent entry point: {fact.evidence}",
                chain=chain,
                evidence=[f"{fn.file}:{fact.line}: {fact.evidence}"]))
        # const methods of classes with unjustified mutable members are not
        # provably stateless; flag once per class.
        if fn.is_const_method and fn.class_name:
            cls = prog.classes.get(fn.class_name)
            if cls is not None and cls.unjustified_mutables \
                    and fn.class_name not in flagged_classes:
                flagged_classes.add(fn.class_name)
                members = ", ".join(m for m, _ in cls.unjustified_mutables)
                violations.append(Violation(
                    rule="thread-safe-mutable", function=fn.qualified_name,
                    location=fn.location(),
                    message=f"const method reachable concurrently, but class "
                            f"{fn.class_name} has mutable member(s) without "
                            f"a `// workspace:` justification: {members}",
                    chain=chain,
                    evidence=[f"{cls.file}:{line}: mutable {m}"
                              for m, line in cls.unjustified_mutables]))
    root_names = sorted({prog.functions[r].qualified_name for r in roots})
    return violations, trusted, root_names


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def check_determinism(prog: Program) -> tuple[list[Violation],
                                              list[TrustEntry], list[str]]:
    merged = _effective(prog)
    scope = sorted(k for k, fn in prog.functions.items()
                   if fn.has_body and fn.file.startswith(DETERMINISM_DIRS))
    pred = reachable_from(prog, scope, FAMILY_DETERMINISM)
    violations: list[Violation] = []
    trusted: list[TrustEntry] = []
    seen_trust: set[str] = set()
    seen_offender: set[tuple[str, str, int]] = set()
    for key in sorted(pred):
        fn = prog.functions[key]
        ann = merged[fn.qualified_name]
        if FAMILY_DETERMINISM in ann["trusted"]:
            if fn.qualified_name not in seen_trust:
                seen_trust.add(fn.qualified_name)
                trusted.append(TrustEntry(
                    function=fn.qualified_name, location=fn.location(),
                    family=FAMILY_DETERMINISM,
                    reason=ann["trusted"][FAMILY_DETERMINISM],
                    granularity="function"))
            continue
        if not fn.has_body:
            continue
        chain = call_chain(prog, pred, key)
        for fact in _fact_violations(fn, set(DETERMINISM_EFFECTS),
                                     FAMILY_DETERMINISM, trusted):
            dedup = (fn.qualified_name, fact.effect.value, fact.line)
            if dedup in seen_offender:
                continue
            seen_offender.add(dedup)
            in_scope = fn.file.startswith(DETERMINISM_DIRS)
            where = "in" if in_scope else "reachable from"
            violations.append(Violation(
                rule=DETERMINISM_EFFECTS[fact.effect],
                function=fn.qualified_name,
                location=f"{fn.file}:{fact.line}",
                message=f"{fact.effect.value} {where} a determinism-scoped "
                        f"directory: {fact.evidence}",
                chain=chain,
                evidence=[f"{fn.file}:{fact.line}: {fact.evidence}"]))
    return violations, trusted, list(DETERMINISM_DIRS)
