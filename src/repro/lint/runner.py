"""The checker registry and lint entry point.

Adding a new invariant:

1. write ``check(tree: SourceTree) -> list[Violation]`` in a module
   under :mod:`repro.lint` (anchor each violation to the offending
   file/line and say what the fix is);
2. register it in :data:`CHECKERS` with a one-line description;
3. add positive + negative fixture cases to ``tests/test_lint.py``;
4. fix (or explicitly suppress, with a reason) every violation the new
   checker finds in the real tree — the meta-test asserts ``repro
   lint`` stays clean.

Suppressions are line-scoped: ``# lint: disable=<checker>`` on the
flagged line, applied centrally here so every checker gets them for
free.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

from ..exceptions import InvalidParameterError
from . import (
    crash_safety,
    declared_deps,
    failpoint_sites,
    layering,
    lock_discipline,
    public_api,
)
from .model import SourceTree, Violation, load_tree


@dataclasses.dataclass(frozen=True)
class Checker:
    """One registered invariant checker."""

    #: Checker name (the ``--check`` / suppression handle).
    name: str
    #: One-line description shown by ``repro lint --list``.
    description: str
    #: ``check(tree) -> [Violation]`` implementation.
    check: object

    def run(self, tree: SourceTree) -> list[Violation]:
        """Run this checker over ``tree``."""
        return self.check(tree)  # type: ignore[operator]


#: Every registered checker, by name (iteration order = run order).
CHECKERS: dict[str, Checker] = {
    checker.name: checker
    for checker in (
        Checker(
            failpoint_sites.CHECKER,
            "failpoint() literals and faults.failpoints.SITES agree both ways",
            failpoint_sites.check,
        ),
        Checker(
            crash_safety.CHECKER,
            "no handler can swallow SimulatedCrashError or injected faults",
            crash_safety.check,
        ),
        Checker(
            lock_discipline.CHECKER,
            "guarded-by(lock) attributes are only mutated holding the lock",
            lock_discipline.check,
        ),
        Checker(
            layering.SINGLE_CALL_SITE,
            "restricted methods (source.prepare_query) keep one call site",
            layering.check_single_call_site,
        ),
        Checker(
            layering.CPU_COUNT,
            "os.cpu_count() is banned outside available_cpu_count()",
            layering.check_cpu_count,
        ),
        Checker(
            layering.BENCH_WRITES,
            "BENCH_*.json writes go through repro.bench.record",
            layering.check_bench_writes,
        ),
        Checker(
            layering.WALL_CLOCK,
            "time.time() only where an epoch timestamp is explicitly meant",
            layering.check_wall_clock,
        ),
        Checker(
            public_api.CHECKER,
            "root exports are documented and have exactly one home __all__",
            public_api.check,
        ),
        Checker(
            declared_deps.CHECKER,
            "third-party imports are declared in [project].dependencies",
            declared_deps.check,
        ),
    )
}


@dataclasses.dataclass(frozen=True)
class LintReport:
    """Outcome of one lint run."""

    #: Checker names that ran, in run order.
    checks: tuple[str, ...]
    #: Surviving (non-suppressed) violations, sorted by location.
    violations: tuple[Violation, ...]
    #: Number of files linted.
    files: int
    #: Number of violations silenced by `# lint: disable=...` comments.
    suppressed: int

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else 1

    def format_text(self) -> str:
        """Editor-clickable report, one line per violation plus a tally."""
        lines = [violation.format() for violation in self.violations]
        lines.append(
            f"repro lint: {len(self.violations)} violation(s) "
            f"({self.suppressed} suppressed) across {self.files} file(s), "
            f"checks: {', '.join(self.checks)}"
        )
        return "\n".join(lines)

    def as_dict(self) -> dict[str, object]:
        """JSON-ready summary (the ``--format json`` payload)."""
        return {
            "schema": "repro.lint/1",
            "ok": self.ok,
            "checks": list(self.checks),
            "files": self.files,
            "suppressed": self.suppressed,
            "violations": [
                violation.as_dict() for violation in self.violations
            ],
        }


def default_root() -> Path:
    """The package's own source tree (what ``repro lint`` checks)."""
    return Path(__file__).resolve().parent.parent


def select_checkers(checks=None) -> list[Checker]:
    """Resolve ``--check`` selections against the registry."""
    if checks is None:
        return list(CHECKERS.values())
    selected = []
    for name in checks:
        checker = CHECKERS.get(name)
        if checker is None:
            raise InvalidParameterError(
                f"unknown checker {name!r}; available: "
                f"{', '.join(sorted(CHECKERS))}"
            )
        selected.append(checker)
    return selected


def run_lint(
    root: Path | str | None = None,
    *,
    checks=None,
    tree: SourceTree | None = None,
) -> LintReport:
    """Run the selected checkers and return a :class:`LintReport`.

    ``root`` defaults to the installed ``repro`` package tree; pass
    ``tree`` directly to lint an in-memory fixture
    (:func:`repro.lint.model.tree_from_sources`).
    """
    if tree is None:
        tree = load_tree(Path(root) if root is not None else default_root())
    selected = select_checkers(checks)
    kept: list[Violation] = []
    suppressed = 0
    for checker in selected:
        for violation in checker.run(tree):
            file = tree.get(violation.path)
            if file is not None and file.suppressed(
                violation.line, violation.checker
            ):
                suppressed += 1
                continue
            kept.append(violation)
    kept.sort(key=lambda v: (v.path, v.line, v.checker, v.message))
    return LintReport(
        checks=tuple(checker.name for checker in selected),
        violations=tuple(kept),
        files=len(tree),
        suppressed=suppressed,
    )
