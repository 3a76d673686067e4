"""Structural lint for scheduler/output paths: hot loops and swallowed errors.

Eleven checks, one AST walk:

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
block is transposed back to rows (``block.to_rows()``) — the default a
writer that defines only ``write_row`` inherits. Every built-in writer
*overrides* ``write_block`` to format columns; a ``to_rows()`` or
``write_rows()`` call inside the override, or a fall-back to
``super().write_block``, puts the transpose and the per-row loop back
without failing a test — the bytes stay identical, only the throughput
regresses. No waiver: a built-in format formats every block by column.

**Oracle-timing check.** The paper-artefact scripts under
``benchmarks/`` measure the path the system runs (``generate_columns``
→ ``write_block``). The scalar calls — the two above plus
``generate_value`` and ``compute_value`` — are the recompute primitive
and the test oracle: 100-1000x the per-value cost, so a figure timed
through them reports a system nobody runs (EXPERIMENTS.md printed
Figures 7-9 that way for twenty PRs). The same ``# hot-loop-ok:
<reason>`` waiver marks the two series that measure the scalar path on
purpose: Figure 6's like-for-like oracle and the §2 recompute claim.

**One-cutter check.** Where a work package ends is one rule — the
package grid of :mod:`repro.scheduler.work`: package ``k`` is rows
``[k·P, (k+1)·P)``, clipped to the range being cut. A ``WorkPackage(...)``
built anywhere else is a second cutter: it can number or end packages
differently (a node counting its own sequences, a serve path cutting
from the slice start) and make "the package at row N" mean a different
package on another runtime, without changing a byte of text output. So
``WorkPackage`` is constructed only in ``src/repro/scheduler/work.py``;
everything else takes packages from ``cut_packages`` /
``partition_rows`` / ``ShardLedger.fill``. No waiver.

**One-template check.** A string of literals and table picks is one
program: :class:`~repro.generators.strings.DrawTemplateGenerator` holds
its only scalar ``generate`` (the oracle) and its only block kernel, and
its subclasses only declare ``parts``. Choosing a child per row (or
NULL) is another: :class:`~repro.generators.conditional.ChoiceGenerator`
holds the one ``generate`` and ``generate_block`` of Null, Probability
and Switch, which only declare ``choose`` / ``choose_block``. A
``generate`` or ``generate_block`` defined in a subclass of either —
directly or through another subclass — is a second body that the
template's oracle tests do not cover by construction, and a kernel that
drifts from it changes bytes only where no test looks. No waiver.

**One-draw check.** A kernel draws through the block's
:class:`~repro.prng.blocks.SeedBlock` (``next_u64`` / ``next_double`` /
``next_long``), which advances each row's stream in place and so leaves
it where ``generate`` leaves ``ctx.rng`` — the contract a meta
generator's kernel builds on. ``xorshift_step`` or ``column_states``
outside :mod:`repro.prng.blocks` (and the Markov sampler, which steps a
shrinking set of active rows) is a second way to draw: it steps a copy,
and the block's states stay behind. No waiver.

**One-lookup check.** A weighted draw — a dictionary, Probability or
Histogram pick, a Zipf rank, a Markov state's next token — finds its
choice through a guide table (:func:`repro.prng.distributions.lookup`):
one gather into the row's own table and a short scan, ``bisect_left``
exactly. A ``searchsorted`` call anywhere under ``src/repro/`` is a
second inverse-CDF lookup creeping back: the bytes stay identical and
no test fails, only the throughput falls and the exactness argument
has a second place to break (two such calls were 60% of a Markov
row-step's cost). No waiver.

**One-runtime check.** ``-w N`` and ``--nodes N`` are one multi-process
runtime: :class:`~repro.scheduler.executor.ExecutorPool` holds the
process mechanism (spawn, liveness, the crash-loop cap, telemetry) and
exactly one subclass, :class:`~repro.scheduler.executor.PackagePool`,
holds the dispatch policy — one ledger, one delivery window, the
least-loaded executor takes the next package — with the destination of
the bytes as its only switch. A second subclass, direct or through
another subclass, is a second runtime with its own dispatch and recovery
that the shared tests need not reach: it can drift in what it redoes or
where a package lands without changing a byte on the path the tests
run. No waiver.

Checked scope: ``src/repro/scheduler/``, ``src/repro/output/``,
``src/repro/core/loader.py``, the span-recording obs modules,
(oracle-timing check only) ``benchmarks/``, (one-cutter, one-template,
one-draw, one-lookup and one-runtime checks only) every module under
``src/repro/``.

Usage: ``python tools/lint_hot_loops.py`` (exit 1 on violations).
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
#: directories (every ``.py`` under them) and single files
CHECKED_PATHS = ("src/repro/scheduler", "src/repro/output", "src/repro/core/loader.py")
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

#: the one module that may construct work packages, and what it builds
CUTTER_SCOPE = "src/repro"
CUTTER_FILE = "src/repro/scheduler/work.py"
CUTTER_CLASS = "WorkPackage"

#: the template bases that hold their subclasses' one body, and what
#: only they define
TEMPLATE_CLASSES = ("DrawTemplateGenerator", "ChoiceGenerator")
TEMPLATE_METHODS = ("generate", "generate_block")

#: the base of the one multi-process runtime, which has exactly one subclass
RUNTIME_BASE = "ExecutorPool"

#: the raw block steps, and the only modules that may use them
DRAW_NAMES = ("xorshift_step", "column_states")
DRAW_FILES = ("src/repro/prng/blocks.py", "src/repro/text/markov.py")

#: the search every weighted draw leaves to the guide-table lookup
LOOKUP_CALL = "searchsorted"

#: the class whose ``write_block`` is the row-path default
ROW_PATH_CLASS = "RowWriter"
#: calls that put the row path back inside a ``write_block`` override
ROW_PATH_CALLS = ("to_rows", "write_rows")


def _name(node: ast.expr) -> str | None:
    """``name`` or the tail of ``a.b.name``."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _call_name(node: ast.Call) -> str | None:
    return _name(node.func)


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


def _is_super_write_block(node: ast.Call) -> bool:
    """``super().write_block(...)``."""
    func = node.func
    return (
        isinstance(func, ast.Attribute) and func.attr == "write_block"
        and isinstance(func.value, ast.Call) and _call_name(func.value) == "super"
    )


def _transposing_overrides(tree: ast.AST, path: Path) -> list[str]:
    """Row-path calls inside a ``write_block`` override."""
    violations = []
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef) or cls.name == ROW_PATH_CLASS:
            continue
        for method in cls.body:
            if not isinstance(method, ast.FunctionDef) or method.name != "write_block":
                continue
            for node in ast.walk(method):
                if not isinstance(node, ast.Call):
                    continue
                if _is_super_write_block(node):
                    call = "super().write_block"
                elif _call_name(node) in ROW_PATH_CALLS:
                    call = _call_name(node)
                else:
                    continue
                violations.append(
                    f"{path.relative_to(REPO)}:{node.lineno}: "
                    f"{cls.name}.write_block overrides the row-path default "
                    f"and then calls {call}(); format the columns"
                )
    return violations


def second_cutters(path: Path) -> list[str]:
    """``WorkPackage(...)`` constructions outside the cutter module."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [
        f"{path.relative_to(REPO)}:{node.lineno}: {CUTTER_CLASS}(...) built "
        f"outside {CUTTER_FILE}; take packages from its cutter "
        "(cut_packages / partition_rows / ShardLedger.fill)"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and _call_name(node) == CUTTER_CLASS
    ]


def _classes(paths: list[Path]) -> list[tuple[Path, ast.ClassDef]]:
    """Every class definition across *paths*, with its file."""
    return [
        (path, node)
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.ClassDef)
    ]


def _subclasses(classes, base: str) -> set[str]:
    """*base* and the names of its direct and transitive subclasses."""
    subclasses = {base}
    while True:
        found = {
            cls.name for _, cls in classes
            if cls.name not in subclasses
            and any(_name(parent) in subclasses for parent in cls.bases)
        }
        if not found:
            return subclasses
        subclasses |= found


def template_overrides(paths: list[Path]) -> list[str]:
    """``generate`` / ``generate_block`` defined in a (transitive)
    subclass of a template base, across *paths*."""
    classes = _classes(paths)
    violations = []
    for template in TEMPLATE_CLASSES:
        subclasses = _subclasses(classes, template)
        violations += [
            f"{path.relative_to(REPO)}:{method.lineno}: {cls.name}.{method.name} "
            f"overrides {template}'s one body; declare its abstract methods instead"
            for path, cls in classes
            if cls.name != template and cls.name in subclasses
            for method in cls.body
            if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
            and method.name in TEMPLATE_METHODS
        ]
    return violations


def second_runtimes(paths: list[Path]) -> list[str]:
    """Anything but exactly one (transitive) ``ExecutorPool`` subclass
    across *paths*."""
    classes = _classes(paths)
    names = _subclasses(classes, RUNTIME_BASE) - {RUNTIME_BASE}
    runtimes = [(path, cls) for path, cls in classes if cls.name in names]
    if not runtimes:
        return [f"{CUTTER_SCOPE}: no {RUNTIME_BASE} subclass; the multi-process "
                "runtime needs its one dispatch policy"]
    if len(runtimes) == 1:
        return []
    return [
        f"{path.relative_to(REPO)}:{cls.lineno}: {cls.name} is one of "
        f"{len(runtimes)} {RUNTIME_BASE} subclasses; -w N and --nodes N share "
        "one runtime — give the one subclass a destination instead"
        for path, cls in runtimes
    ]


def raw_draws(path: Path) -> list[str]:
    """Uses of the raw block steps (called, imported or passed on) in
    *path*."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [
        f"{path.relative_to(REPO)}:{node.lineno}: {name} outside "
        f"{' and '.join(DRAW_FILES)}; draw through the SeedBlock "
        "(next_u64 / next_double / next_long)"
        for node in ast.walk(tree)
        for name in (
            [alias.name for alias in node.names] if isinstance(node, ast.ImportFrom)
            else [_name(node)]
        )
        if name in DRAW_NAMES
    ]


def global_searches(path: Path) -> list[str]:
    """``searchsorted`` calls (function or method) in *path*."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [
        f"{path.relative_to(REPO)}:{node.lineno}: {LOOKUP_CALL}() is a second "
        "inverse-CDF lookup; draw through Categorical.index_block or "
        "repro.prng.distributions.lookup"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and _call_name(node) == LOOKUP_CALL
    ]


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
    checked: set[Path] = set()
    columnar_hot = {REPO / rel for rel in COLUMNAR_HOT_FILES}
    for rel in CHECKED_PATHS:
        root = REPO / rel
        for path in sorted(root.rglob("*.py")) if root.is_dir() else [root]:
            checked.add(path)
            violations.extend(
                check_file(path, columnar_hot=path in columnar_hot)
            )
    for rel in SPAN_HOT_FILES:
        checked.add(REPO / rel)
        violations.extend(check_file(REPO / rel, span_hot=True))
    for path in sorted((REPO / BENCHMARK_DIR).glob("*.py")):
        checked.add(path)
        violations.extend(check_file(path, benchmark=True))
    scope = sorted((REPO / CUTTER_SCOPE).rglob("*.py"))
    for path in scope:
        if path != REPO / CUTTER_FILE:
            checked.add(path)
            violations.extend(second_cutters(path))
    checked.update(scope)
    violations.extend(template_overrides(scope))
    violations.extend(second_runtimes(scope))
    draw_files = {REPO / rel for rel in DRAW_FILES}
    for path in scope:
        if path not in draw_files:
            violations.extend(raw_draws(path))
        violations.extend(global_searches(path))
    for message in violations:
        print(message)
    print(
        f"hot-loop lint: {len(checked)} files checked, "
        f"{len(violations)} violation(s)"
    )
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
