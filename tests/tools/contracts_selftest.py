#!/usr/bin/env python3
"""Negative-fixture self-test for the contract analyzer.

tests/tools/contracts_fixtures/ is a miniature repo tree seeded with one
violation per rule family the analyzer enforces (DESIGN.md "Effect
contracts"): a transitive allocation through a helper, a virtual dispatch
to an allocating override, unjustified static and mutable state on the
run_cell worker path, a named thread root whose class lacks the method, a
wall-clock read in src/sched/, an unordered-map iteration in src/exp/,
and a trusted escape at both granularities. The
driver runs analyze.py with --repo-root pointed at the fixture tree and
asserts the exact rule ids, offending functions, call chains and trusted
inventory — plus that --update-baseline makes a re-run exit clean.

Exit 0 on success; nonzero with a description of each mismatch.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent.parent
FIXTURES = REPO / "tests" / "tools" / "contracts_fixtures"
ANALYZER = REPO / "tools" / "contracts" / "analyze.py"

# (rule, function, chain of qualified names root -> offender). The chain in
# the report carries "name (file:line)" entries; only the names are pinned
# here so the fixture can be reformatted without rewriting the test.
EXPECTED_VIOLATIONS = [
    ("determinism-unordered-iter", "commsched::collect_names",
     ["commsched::collect_names"]),
    ("determinism-wallclock", "commsched::tick_seconds",
     ["commsched::tick_seconds"]),
    ("no-alloc", "commsched::GrowingPicker::select_into",
     ["commsched::drive", "commsched::GrowingPicker::select_into"]),
    ("no-alloc", "commsched::append_twice",
     ["commsched::hot_entry", "commsched::append_twice"]),
    ("no-alloc", "commsched::append_twice",
     ["commsched::hot_entry", "commsched::append_twice"]),
    ("no-alloc-unannotated", "commsched::GrowingPicker::select_into",
     ["commsched::drive", "commsched::GrowingPicker::select_into"]),
    ("no-alloc-unannotated", "commsched::append_twice",
     ["commsched::hot_entry", "commsched::append_twice"]),
    ("thread-safe-mutable", "commsched::Tally::peek",
     ["commsched::run_cell", "commsched::Tally::peek"]),
    ("thread-safe-root-missing", "commsched::serve::Server::run_loop", []),
    ("thread-safe-static", "commsched::bump_counter",
     ["commsched::run_cell", "commsched::bump_counter"]),
]

EXPECTED_TRUSTED = [
    ("no-alloc", "function", "commsched::absorb"),
    ("no-alloc", "fact", "commsched::hot_trusted_entry"),
]

EXPECTED_HOT_ROOTS = [
    "commsched::ReusingPicker::select_into",
    "commsched::drive",
    "commsched::hot_entry",
    "commsched::hot_trusted_entry",
]


def run_analyzer(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(ANALYZER), *args],
                          capture_output=True, text=True)


def chain_names(chain: list[str]) -> list[str]:
    return [entry.split(" (")[0] for entry in chain]


def main() -> int:
    tmp = Path(tempfile.mkdtemp(prefix="contracts_selftest_"))
    failures: list[str] = []
    try:
        report_path = tmp / "report.json"
        proc = run_analyzer("--repo-root", str(FIXTURES),
                            "--output", str(report_path), "--quiet")
        if proc.returncode != 1:
            failures.append(
                f"seeded fixture run exited {proc.returncode}, expected 1 "
                f"(stderr: {proc.stderr.strip()!r})")
        report = json.loads(report_path.read_text())

        actual = sorted((v["rule"], v["function"],
                         tuple(chain_names(v["chain"])))
                        for v in report["violations"])
        expected = sorted((r, f, tuple(c))
                          for r, f, c in EXPECTED_VIOLATIONS)
        for item in expected:
            if item not in actual:
                failures.append(f"missing violation {item}")
        for item in actual:
            if item not in expected:
                failures.append(f"unexpected violation {item}")
        if len(actual) != len(expected):
            failures.append(
                f"{len(actual)} violations reported, expected {len(expected)}")

        trusted = sorted((t["family"], t["granularity"], t["function"])
                         for t in report["trusted"])
        if trusted != sorted(EXPECTED_TRUSTED):
            failures.append(
                f"trusted inventory {trusted} != {sorted(EXPECTED_TRUSTED)}")
        for t in report["trusted"]:
            if not t["reason"]:
                failures.append(f"trusted entry without a reason: {t}")

        if report["roots"]["no-alloc"] != EXPECTED_HOT_ROOTS:
            failures.append(
                f"hot-path roots {report['roots']['no-alloc']} != "
                f"{EXPECTED_HOT_ROOTS}")
        if report["roots"]["thread-safe"] != ["commsched::run_cell"]:
            failures.append(
                f"thread roots {report['roots']['thread-safe']}")

        # Baseline gating: accepting the findings must turn the exit green,
        # and the report must label them as baselined (no new keys).
        baseline = tmp / "baseline.json"
        accept = run_analyzer("--repo-root", str(FIXTURES),
                              "--output", str(report_path),
                              "--baseline", str(baseline),
                              "--update-baseline", "--quiet")
        if accept.returncode != 0:
            failures.append(
                f"--update-baseline run exited {accept.returncode}")
        gated = run_analyzer("--repo-root", str(FIXTURES),
                             "--output", str(report_path),
                             "--baseline", str(baseline), "--quiet")
        if gated.returncode != 0:
            failures.append(
                f"baselined re-run exited {gated.returncode}, expected 0")
        regated = json.loads(report_path.read_text())
        if regated["baseline"]["new"] or regated["baseline"]["stale"]:
            failures.append(
                f"baselined re-run still reports new/stale keys: "
                f"{regated['baseline']}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    for f in failures:
        print(f"contracts_selftest: {f}", file=sys.stderr)
    if not failures:
        print(f"contracts_selftest: ok ({len(EXPECTED_VIOLATIONS)} seeded "
              f"violations and {len(EXPECTED_TRUSTED)} trusted escapes "
              "matched)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
