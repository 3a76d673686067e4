"""Structural lint for scheduler/output paths: hot loops and swallowed errors.

Six checks, one AST walk:

**Hot-loop check.** Block generation only pays off if the scheduler
work-package loop and the writers stay on the single block API
(``generate_columns`` → ``write_block``, with ``write_rows`` as the
per-row formats' block formatter). A per-row call — ``generate_row(...)``
or ``write_row(...)`` — sneaking back into those files reintroduces
per-value interpreter overhead without failing any correctness test, so
CI guards it structurally. Method *definitions* are fine (writers must
still define ``write_row``; it is the reference the block formatters
are tested against). Only *calls* are flagged. Waive a deliberate
per-row call with ``# hot-loop-ok: <reason>`` on the line.

**Swallowed-error check.** Fault tolerance (PR: checkpoint/resume)
depends on failures *propagating*: a ``try/except Exception`` (or
``except BaseException``, or a bare ``except:``) whose handler never
re-raises can silently eat the very errors the retry policy and crash
recovery exist to handle — including :class:`InjectedCrash`, which the
fault tests rely on to escape. Any broad handler in the checked scope
must either contain a ``raise`` or carry a ``# fault-ok: <reason>``
waiver on its ``except`` line explaining why swallowing is correct
(e.g. emergency teardown that must not mask the original failure).
Narrow handlers (``except OSError`` etc.) are never flagged.

**Span-path I/O check.** The observability promise (PR: distributed
observability) is that *recording* a span or bumping a counter costs
microseconds: every ``with span(...)`` and ``counter.inc()`` sits on the
generation hot path, so :mod:`repro.obs.trace` and
:mod:`repro.obs.registry` must never perform blocking I/O — no
``open``/``print``/``flush``/``fsync``/socket calls. Exporting belongs
in :mod:`repro.obs.export` (called once, after the run) and
:mod:`repro.obs.serve` (its own thread). Waive a deliberate call with
``# span-io-ok: <reason>``.

**Vectorized-formatter check.** The array-level ``write_block``
formatters exist to format whole columns at once; a per-value
``formatter.format(...)`` call inside the vectorized formatter modules
(:mod:`repro.output.columnar`, :mod:`repro.output.arrow`) collapses
them back to value-at-a-time cost without failing any correctness
test — the bytes stay identical, only the throughput regresses. Any
``format()`` call in those files must carry a ``# columnar-ok: <reason>``
waiver naming why the scalar fallback is deliberate (charset clash,
per-unique date rendering, Arrow type fallback). The CSV, JSON and SQL
block formatters all live in :mod:`repro.output.columnar`.

**Column-writer check.** ``RowWriter.write_block`` is the one place a
block is transposed back to rows (``block.to_rows()``) — the default the
row-only formats inherit. A writer that *overrides* ``write_block`` does
so to format columns; a ``to_rows()`` call inside the override puts the
transpose and the per-row loop back without failing a test (it may still
delegate to ``super().write_block`` for input it cannot format by
column). No waiver: there is no reason to override and then transpose.

**Oracle-timing check.** The paper-artefact scripts under
``benchmarks/`` measure the path the system runs (``generate_columns``
→ ``write_block``). The scalar calls — the two above plus
``generate_value`` and ``compute_value`` — are the recompute primitive
and the test oracle: 100-1000x the per-value cost, so a figure timed
through them reports a system nobody runs (EXPERIMENTS.md printed
Figures 7-9 that way for twenty PRs). The same ``# hot-loop-ok:
<reason>`` waiver marks the two series that measure the scalar path on
purpose: Figure 6's like-for-like oracle and the §2 recompute claim.

Checked scope: ``src/repro/scheduler/``, ``src/repro/output/``, the
span-recording obs modules, and (oracle-timing check only)
``benchmarks/``.

Usage: ``python tools/lint_hot_loops.py`` (exit 1 on violations).
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
CHECKED_DIRS = ("src/repro/scheduler", "src/repro/output")
BANNED_CALLS = ("generate_row", "write_row")
BENCHMARK_DIR = "benchmarks"
BANNED_BENCHMARK_CALLS = BANNED_CALLS + ("generate_value", "compute_value")
WAIVER = "hot-loop-ok"
FAULT_WAIVER = "fault-ok"
BROAD_EXCEPTIONS = ("Exception", "BaseException")

#: span-recording modules where blocking I/O is structurally banned.
SPAN_HOT_FILES = ("src/repro/obs/trace.py", "src/repro/obs/registry.py")
BANNED_IO_CALLS = (
    "open", "print", "flush", "fsync", "urlopen", "connect",
    "sendall", "recv", "popen", "system",
)
SPAN_IO_WAIVER = "span-io-ok"

#: vectorized formatter modules where per-value format() is banned.
COLUMNAR_HOT_FILES = (
    "src/repro/output/columnar.py",
    "src/repro/output/arrow.py",
)
BANNED_COLUMNAR_CALLS = ("format",)
COLUMNAR_WAIVER = "columnar-ok"

#: the class whose ``write_block`` is the row-path default
ROW_PATH_CLASS = "RowWriter"


def _call_name(node: ast.Call) -> str | None:
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def _is_broad_handler(handler: ast.ExceptHandler) -> bool:
    """``except:``, ``except Exception``, or ``except BaseException``
    (bare name or attribute tail, with or without ``as``)."""
    exc_type = handler.type
    if exc_type is None:
        return True  # bare except:
    names = exc_type.elts if isinstance(exc_type, ast.Tuple) else [exc_type]
    for name in names:
        if isinstance(name, ast.Name) and name.id in BROAD_EXCEPTIONS:
            return True
        if isinstance(name, ast.Attribute) and name.attr in BROAD_EXCEPTIONS:
            return True
    return False


def _reraises(handler: ast.ExceptHandler) -> bool:
    """True if any statement in the handler body raises."""
    return any(isinstance(node, ast.Raise) for node in ast.walk(handler))


def _transposing_overrides(tree: ast.AST, path: Path) -> list[str]:
    """``to_rows()`` calls inside a ``write_block`` override."""
    violations = []
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef) or cls.name == ROW_PATH_CLASS:
            continue
        for method in cls.body:
            if not isinstance(method, ast.FunctionDef) or method.name != "write_block":
                continue
            for node in ast.walk(method):
                if isinstance(node, ast.Call) and _call_name(node) == "to_rows":
                    violations.append(
                        f"{path.relative_to(REPO)}:{node.lineno}: "
                        f"{cls.name}.write_block overrides the row-path "
                        "default and then transposes with to_rows(); format "
                        "the columns, or delegate to super().write_block"
                    )
    return violations


def check_file(
    path: Path, span_hot: bool = False, columnar_hot: bool = False,
    benchmark: bool = False,
) -> list[str]:
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source, filename=str(path))
    violations = [] if benchmark or span_hot else _transposing_overrides(tree, path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = _call_name(node)
            if span_hot and name in BANNED_IO_CALLS:
                line = lines[node.lineno - 1]
                if SPAN_IO_WAIVER not in line:
                    violations.append(
                        f"{path.relative_to(REPO)}:{node.lineno}: blocking "
                        f"I/O call {name}() in a span-recording path; move "
                        "it to repro.obs.export/serve or waive with "
                        f"'# {SPAN_IO_WAIVER}: <reason>'"
                    )
                continue
            if columnar_hot and name in BANNED_COLUMNAR_CALLS:
                line = lines[node.lineno - 1]
                if COLUMNAR_WAIVER not in line:
                    violations.append(
                        f"{path.relative_to(REPO)}:{node.lineno}: per-value "
                        f"{name}() call in a vectorized formatter module; "
                        "format whole arrays, or waive the deliberate scalar "
                        f"fallback with '# {COLUMNAR_WAIVER}: <reason>'"
                    )
                continue
            if name not in (BANNED_BENCHMARK_CALLS if benchmark else BANNED_CALLS):
                continue
            line = lines[node.lineno - 1]
            if WAIVER in line:
                continue
            violations.append(
                f"{path.relative_to(REPO)}:{node.lineno}: per-row call "
                f"{name}() in a batch hot-loop file; use the block API "
                f"(generate_columns/write_block) or waive with '# {WAIVER}: <reason>'"
            )
        elif isinstance(node, ast.ExceptHandler) and not benchmark:
            if not _is_broad_handler(node):
                continue
            if _reraises(node):
                continue
            line = lines[node.lineno - 1]
            if FAULT_WAIVER in line:
                continue
            violations.append(
                f"{path.relative_to(REPO)}:{node.lineno}: broad exception "
                "handler swallows errors in a fault-tolerance path; re-raise, "
                "narrow the exception type, or waive with "
                f"'# {FAULT_WAIVER}: <reason>'"
            )
    return violations


def main() -> int:
    violations: list[str] = []
    checked = 0
    columnar_hot = {REPO / rel for rel in COLUMNAR_HOT_FILES}
    for rel in CHECKED_DIRS:
        for path in sorted((REPO / rel).rglob("*.py")):
            checked += 1
            violations.extend(
                check_file(path, columnar_hot=path in columnar_hot)
            )
    for rel in SPAN_HOT_FILES:
        checked += 1
        violations.extend(check_file(REPO / rel, span_hot=True))
    for path in sorted((REPO / BENCHMARK_DIR).glob("*.py")):
        checked += 1
        violations.extend(check_file(path, benchmark=True))
    for message in violations:
        print(message)
    print(
        f"hot-loop lint: {checked} files checked, {len(violations)} violation(s)"
    )
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
