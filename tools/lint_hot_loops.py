"""Structural lint for scheduler/output/extraction paths: hot loops, swallowed errors.

Twenty-one checks, one AST walk:

**Hot-loop check.** Block generation only pays off if the scheduler
work-package loop and the writers stay on the single block API
(``generate_columns`` → ``write_block``, with ``write_rows`` as the
per-row formats' block formatter, and ``generate_rows`` → ``write_rows``
for a package under the one small-row rule below). A per-row call — ``generate_row(...)``
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

**Query-path check.** :class:`~repro.core.queries.VirtualExecutor`
answers a query from projected column blocks (``generate_columns(...,
fields=)``) with numpy masks and reductions. A per-row walk —
``iter_rows``, ``generate_row`` or ``compute_value`` — in
:mod:`repro.core.queries` gives the same answers 100-200x slower, so no
correctness test would notice it coming back. The ``# hot-loop-ok:
<reason>`` waiver applies.

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

**One-runtime check.** ``-w N`` is the one multi-process runtime
(``--nodes N`` means ``-w N``): :class:`~repro.scheduler.executor.PackagePool`
holds the process mechanism (spawn, liveness, the crash-loop cap,
telemetry) and the dispatch policy — one ledger, one delivery window,
the least-loaded executor takes the next package, every chunk back to
the parent's ordered mux. It must be the only class under
``src/repro/`` that starts executor processes: a ``Process(...)`` call
(``mp_context().Process``, ``multiprocessing.Process``) anywhere else,
or a subclass of ``PackagePool``, is a second runtime with its own
dispatch and recovery that the shared tests need not reach — it can
drift in what it redoes or where a package lands without changing a
byte on the path the tests run. A tree without ``PackagePool`` fails
too. No waiver.

**One-driver check.** Every database load is a ``generate()`` run into
the SQLite sink, and the sink, the loader and extraction all reach the
database through :class:`~repro.db.sqlite_adapter.SQLiteAdapter`: one
place opens connections, maps driver errors to ``AdapterError`` and
makes a script one transaction. A ``sqlite3`` import or use anywhere
else under ``src/repro/`` is a second driver path with its own
connection, error mapping and commit rules (the SQLite sink once had
all three, and a second loader converted values its own way). It also
puts the driver back into commands that never touch a database. No
waiver.

**One-reader check.** A generator's parameters are interpreted once,
by the generator's ``bind``. A query parameter is a cell the engine
generates (:class:`~repro.core.queries.QueryParameterGenerator`), so
the query and workload modules need no generator parameter at all. A
``.params`` read in :mod:`repro.core.queries` or under
:mod:`repro.workload` is a second reader of generator specs, with its
own defaults, that misses what ``bind`` knows (``places``, ``zipf``,
NULL wrappers) and so draws parameters no row holds. No
waiver.

**Capped-distinct check.** The model builder reads a distinct count
only as "one value" and "at most the dictionary limit", so profiling
counts distinct values with a ``DISTINCT`` subquery under ``LIMIT`` of
the limit + 1, which stops reading a column at the first value past it
(:meth:`~repro.db.sqlite_adapter.SQLiteAdapter.distinct_counts`). A
``COUNT(DISTINCT`` in a string under :mod:`repro.db` or in
:mod:`repro.core.profiling` reads every column whole again — the
dearest of the three profiling phases before the cap — while the model
and its bytes stay the same, so no test notices. No waiver.

**One-gather check.** Any set of cells is one block:
:meth:`~repro.engine.BoundTable.gather` computes the cells at any row
array, and a reference to a non-Id column gathers its target through
``ctx.gather``. A ``compute_value``, ``generate_value``,
``generate_row`` or ``.foreign`` call inside a ``generate_block`` or
``choose_block`` body under :mod:`repro.generators`, or anywhere under
:mod:`repro.update`, recomputes one cell per call — a non-Id
reference cost 29x its target column's own block per value that way,
and a TPC-H ``lineitem`` update epoch 7x its two blocks — with the bytes
unchanged, so no test notices. No waiver.

**Quoting check.** A table or column name reaches SQL text quoted —
through :func:`~repro.model.sqlnames.sql_name` (DDL and loads) or
:func:`~repro.db.sqlite_adapter._ident` (extraction), or through a
local variable assigned from an expression that calls one of them. An
f-string under :mod:`repro.db` or in :mod:`repro.output.sinks` whose
literal text holds an SQL keyword and that interpolates a bare name
reading as a table or column name (``{table}``, ``{column}``,
``{field.name}``) splices the name unquoted: a keyword (``order``,
``group``) or a space in it breaks the statement, and every test over
plain names still passes. No waiver.

**One-bind check.** A command binds its model once, at an edge — the
CLI's ``_load_engine``, ``DBSynthProject.engine``, ``api.bound_engine``
(and the engine's own unpickling) — and every component that runs the
model takes that bound :class:`~repro.engine.GenerationEngine`. A
``GenerationEngine(...)`` call anywhere else under ``src/repro/`` is a
component binding its own copy: the bytes stay the same and no test
fails, only each command pays the bind again (``dbsynth workload
--replay --cdc-epochs 1`` bound one model four times that way). The
one residue is ``ClusterScheduler`` in :mod:`repro.scheduler.scheduler`,
which the frozen bench still calls with ``(schema, artifacts)``. No
waiver.

**One-identity check.** A model's identity is one digest,
:func:`~repro.engine.model_identity` — seed, update, sizes, fields,
generator trees and artifacts — read as ``GenerationEngine.fingerprint``
by the bound-engine cache, ``Dataset`` / serve and every checkpoint. A
module under ``src/repro/`` other than :mod:`repro.engine` that imports
``hashlib`` and reads a model's parts (``.tables``, ``.fields``,
``.generator``, ``.children``, ``.params``, ``.artifacts``) is a second
description of the model for a digest: it can leave a part out (two
such descriptions once left out the artifacts, so a cached engine, a
served slice and a resumed run took one model for another) and every
test over models that differ elsewhere still passes. No waiver.

**One small-row rule.** A row range shorter than
:data:`~repro.engine.SCALAR_ROWS` is computed by the scalar oracle where
ranges become rows or bytes — ``BoundTable.generate_rows`` and
``output.formats.format_package`` — and everything else (every kernel,
every byte kernel) runs at any block length. A read of ``SCALAR_ROWS``
outside those two functions is a second place deciding "is this range
small?", and a ``len(...)`` comparison against a constant inside a
``generate_block`` / ``choose_block`` body under :mod:`repro.generators`
is a cutover of a generator's own: either can drift from the measured
cut, or keep a path alive that the engine never reaches, with the bytes
unchanged, so no test notices (seven such cuts once lived in five
generators, the engine and the formatter, under two constants). No
waiver.

**One query type.** A query the DBSynth modules send is a structured
:class:`~repro.core.queries.Query`, rendered to SQL by
:mod:`repro.core.queries` alone — the type the virtual executor answers
from the model. A module under :mod:`repro.core` other than
:mod:`repro.core.queries` that imports ``sql_name`` or holds a string
(docstrings aside) with a ``SELECT`` is a second query builder: its
statements are ones the executor cannot answer, so verify's model side
has nothing to compare them with, and every test over plain names and
SQL answers still passes (verify built its 95 TPC-H statements that
way, one per check). No waiver.

Checked scope: ``src/repro/scheduler/``, ``src/repro/output/``,
``src/repro/db/`` and ``src/repro/core/model_builder.py`` (the
extraction path: an adapter or model-builder handler that eats every
error turns a programming error into a silently degraded column), the
span-recording obs modules, (oracle-timing check only) ``benchmarks/``,
(query-path check only) ``src/repro/core/queries.py``,
(one-reader check only) ``src/repro/core/queries.py`` and
``src/repro/workload/``,
(capped-distinct check only) ``src/repro/db/`` and
``src/repro/core/profiling.py``,
(one-gather check only) ``src/repro/generators/`` and
``src/repro/update/``,
(one query type check only) ``src/repro/core/``,
(quoting check only) ``src/repro/db/`` and ``src/repro/output/sinks.py``,
(one-cutter, one-template, one-draw, one-lookup, one-runtime,
one-driver, one-bind, one-identity and one small-row rule checks only)
every module under ``src/repro/``.

Usage: ``python tools/lint_hot_loops.py`` (exit 1 on violations).
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
#: directories (every ``.py`` under them) and single files
CHECKED_PATHS = (
    "src/repro/scheduler", "src/repro/output",
    "src/repro/db", "src/repro/core/model_builder.py",
)
BANNED_CALLS = ("generate_row", "write_row")
BENCHMARK_DIR = "benchmarks"
BANNED_BENCHMARK_CALLS = BANNED_CALLS + ("generate_value", "compute_value")
#: the virtual executor's module, and the per-row walks it must not make
QUERY_FILE = "src/repro/core/queries.py"
BANNED_QUERY_CALLS = ("iter_rows", "generate_row", "compute_value")
#: the query and workload modules, and the generator-spec field they
#: must not read
READER_PATHS = (QUERY_FILE, "src/repro/workload")
SPEC_PARAMS = "params"
#: the extraction modules whose distinct counts stop at the dictionary
#: limit, and the count that reads a whole column
DISTINCT_PATHS = ("src/repro/db", "src/repro/core/profiling.py")
UNCAPPED_DISTINCT = re.compile(r"COUNT\s*\(\s*DISTINCT\b", re.IGNORECASE)
#: the DBSynth modules, the one among them that renders queries, the
#: name quoter only it imports, and what makes a string a query
QUERY_TYPE_DIR = "src/repro/core"
QUOTER = "sql_name"
SELECT_TEXT = re.compile(r"\bSELECT\s")
#: the per-cell recompute calls, banned in the block bodies of the
#: generator modules and anywhere in the update modules
CELL_CALLS = ("compute_value", "generate_value", "generate_row", "foreign")
GENERATOR_DIR = "src/repro/generators"
BLOCK_METHODS = ("generate_block", "choose_block")
UPDATE_DIR = "src/repro/update"
#: the SQL modules, the calls that quote a name, what makes an f-string
#: SQL, and the interpolated names that read as a table or column name
QUOTING_PATHS = ("src/repro/db", "src/repro/output/sinks.py")
QUOTERS = ("sql_name", "_ident")
SQL_KEYWORD = re.compile(
    r"\b(SELECT|INSERT|UPDATE|DELETE|CREATE|DROP|ALTER|PRAGMA|FROM|INTO|"
    r"REFERENCES|WHERE|TABLE|VALUES|KEY|JOIN|INDEX)\b"
)
NAME_LIKE = re.compile(r"table|column|field|name|ident|^tbl$|^cols?$")
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

#: the one multi-process runtime, which has no subclass, and the call
#: only it may make
RUNTIME_CLASS = "PackagePool"
SPAWN_CALL = "Process"

#: the raw block steps, and the only modules that may use them
DRAW_NAMES = ("xorshift_step", "column_states")
DRAW_FILES = ("src/repro/prng/blocks.py", "src/repro/text/markov.py")

#: the database driver, and the one module that may use it
DRIVER = "sqlite3"
DRIVER_FILE = "src/repro/db/sqlite_adapter.py"

#: the bound model, and the only modules that may bind one
ENGINE_CLASS = "GenerationEngine"
BIND_FILES = (
    "src/repro/engine.py", "src/repro/api.py", "src/repro/cli/main.py",
    "src/repro/core/project.py",
)
#: the one class outside them that still binds (it takes a schema), and
#: its module; any other bind in that module is reported
BIND_RESIDUE = ("src/repro/scheduler/scheduler.py", "ClusterScheduler")

#: the one module that describes a model for a digest, the module a
#: digest is computed with, and the model parts a description reads
IDENTITY_FILE = "src/repro/engine.py"
DIGEST_MODULE = "hashlib"
MODEL_PARTS = ("tables", "fields", "generator", "children", "params", "artifacts")

#: the one small-row constant, and the (module, qualified function)
#: pairs that read it
SMALL_ROW_CONSTANT = "SCALAR_ROWS"
SMALL_ROW_READERS = (
    ("src/repro/engine.py", "BoundTable.generate_rows"),
    ("src/repro/output/formats.py", "format_package"),
)
#: how a constant is spelled: UPPER_CASE, maybe private
CONSTANT_NAME = re.compile(r"^_?[A-Z][A-Z0-9_]*$")

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
    """Across *paths*: a ``Process(...)`` call outside ``PackagePool``,
    a (transitive) subclass of it, or no ``PackagePool`` at all."""
    trees = [
        (path, ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        for path in paths
    ]
    classes = [
        (path, node) for path, tree in trees for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
    ]
    pools = [cls for _, cls in classes if cls.name == RUNTIME_CLASS]
    violations = [] if pools else [
        f"{CUTTER_SCOPE}: no {RUNTIME_CLASS} class; the multi-process "
        "runtime needs its one home"
    ]
    violations += [
        f"{path.relative_to(REPO)}:{cls.lineno}: {cls.name} subclasses "
        f"{RUNTIME_CLASS}; a second runtime — give the one pool what it "
        "needs instead"
        for path, cls in classes
        if cls.name in _subclasses(classes, RUNTIME_CLASS) - {RUNTIME_CLASS}
    ]
    inside = {id(node) for cls in pools for node in ast.walk(cls)}
    violations += [
        f"{path.relative_to(REPO)}:{node.lineno}: starts a process outside "
        f"{RUNTIME_CLASS}, the one multi-process runtime"
        for path, tree in trees for node in ast.walk(tree)
        if isinstance(node, ast.Call) and _call_name(node) == SPAWN_CALL
        and id(node) not in inside
    ]
    return violations


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


def second_drivers(path: Path) -> list[str]:
    """``sqlite3`` imported (``import``, ``from ... import``) or used by
    name in *path*."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [
        f"{path.relative_to(REPO)}:{node.lineno}: {DRIVER} outside "
        f"{DRIVER_FILE}; reach the database through SQLiteAdapter"
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id == DRIVER)
        or (isinstance(node, ast.ImportFrom) and node.module
            and node.module.split(".")[0] == DRIVER)
        or (isinstance(node, ast.Import)
            and any(alias.name.split(".")[0] == DRIVER for alias in node.names))
    ]


def second_binds(path: Path, residue: str | None = None) -> list[str]:
    """``GenerationEngine(...)`` calls in *path*, outside class *residue*."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    exempt = {
        id(node)
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef) and cls.name == residue
        for node in ast.walk(cls)
    }
    return [
        f"{path.relative_to(REPO)}:{node.lineno}: {ENGINE_CLASS}(...) binds the "
        "model a second time; take the caller's bound engine"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and _call_name(node) == ENGINE_CLASS
        and id(node) not in exempt
    ]


def second_identities(path: Path) -> list[str]:
    """Reads of a model's parts in *path*, if it imports ``hashlib``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    if not any(
        (isinstance(node, ast.Import)
         and any(alias.name == DIGEST_MODULE for alias in node.names))
        or (isinstance(node, ast.ImportFrom) and node.module == DIGEST_MODULE)
        for node in ast.walk(tree)
    ):
        return []
    return [
        f"{path.relative_to(REPO)}:{node.lineno}: reads a model's "
        f".{node.attr} in a module that computes digests: a second model "
        "identity; digest GenerationEngine.fingerprint (engine.model_identity)"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in MODEL_PARTS
    ]


def _is_constant(node: ast.expr, module_names: set[str]) -> bool:
    """A module-level name, or a name or attribute spelled as a
    constant."""
    if isinstance(node, ast.Name):
        return node.id in module_names or bool(CONSTANT_NAME.match(node.id))
    return isinstance(node, ast.Attribute) and bool(CONSTANT_NAME.match(node.attr))


def small_row_cuts(path: Path) -> list[str]:
    """Reads of the small-row constant in *path* outside its two
    readers (their modules may import it), and, under the generator
    modules, a ``len(...)`` comparison against a constant in a block
    body."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    rel = path.relative_to(REPO).as_posix()
    functions = [(node.name, node) for node in tree.body if isinstance(node, ast.FunctionDef)]
    functions += [
        (f"{cls.name}.{node.name}", node)
        for cls in tree.body if isinstance(cls, ast.ClassDef)
        for node in cls.body if isinstance(node, ast.FunctionDef)
    ]
    readers = {
        id(node)
        for name, function in functions if (rel, name) in SMALL_ROW_READERS
        for node in ast.walk(function)
    } | {  # a reader's module may import it at its top
        id(node) for node in tree.body
        if isinstance(node, ast.ImportFrom) and rel in dict(SMALL_ROW_READERS)
    }
    violations = [
        f"{rel}:{node.lineno}: reads {SMALL_ROW_CONSTANT} outside "
        "BoundTable.generate_rows and format_package; a short range is "
        "decided there alone"
        for node in ast.walk(tree)
        if id(node) not in readers and (
            (isinstance(node, ast.Name) and node.id == SMALL_ROW_CONSTANT
             and isinstance(node.ctx, ast.Load))
            or (isinstance(node, ast.Attribute) and node.attr == SMALL_ROW_CONSTANT)
            or (isinstance(node, ast.ImportFrom)
                and any(alias.name == SMALL_ROW_CONSTANT for alias in node.names))
        )
    ]
    if not rel.startswith(GENERATOR_DIR + "/"):
        return violations
    module_names = {
        target.id
        for statement in tree.body if isinstance(statement, (ast.Assign, ast.AnnAssign))
        for target in (statement.targets if isinstance(statement, ast.Assign)
                       else [statement.target])
        if isinstance(target, ast.Name)
    }
    return violations + [
        f"{rel}:{node.lineno}: a block-length cut in {function.name}; a "
        f"kernel runs at any length ({SMALL_ROW_CONSTANT} is the engine's "
        "one small-row rule)"
        for function in ast.walk(tree)
        if isinstance(function, ast.FunctionDef) and function.name in BLOCK_METHODS
        for node in ast.walk(function)
        if isinstance(node, ast.Compare)
        and any(isinstance(side, ast.Call) and _call_name(side) == "len"
                for side in (node.left, *node.comparators))
        and any(_is_constant(side, module_names) for side in (node.left, *node.comparators))
    ]


def second_readers(path: Path) -> list[str]:
    """``.params`` attribute reads in *path*."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [
        f"{path.relative_to(REPO)}:{node.lineno}: reads a generator's "
        f".{SPEC_PARAMS}; the generator's bind is their one reader — "
        "draw a generated cell instead"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == SPEC_PARAMS
    ]


def second_query_builders(path: Path) -> list[str]:
    """``sql_name`` imports and non-docstring strings (f-string parts
    too) holding a ``SELECT`` in *path*."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and node.body and isinstance(node.body[0], ast.Expr)
    }
    rel = path.relative_to(REPO)
    return [
        f"{rel}:{node.lineno}: imports {QUOTER}: a second query builder; "
        "build a repro.core.queries.Query and render it with to_sql()"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and any(alias.name == QUOTER for alias in node.names)
    ] + [
        f"{rel}:{node.lineno}: SELECT text outside {QUERY_FILE}: a second "
        "query builder; build a repro.core.queries.Query and render it "
        "with to_sql()"
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and id(node) not in docstrings and SELECT_TEXT.search(node.value)
    ]


def uncapped_distincts(path: Path) -> list[str]:
    """Strings (f-string parts too) in *path* that hold a
    ``COUNT(DISTINCT``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [
        f"{path.relative_to(REPO)}:{node.lineno}: COUNT(DISTINCT ...) reads the "
        "whole column; count a DISTINCT subquery under LIMIT (the dictionary "
        "limit + 1), as SQLiteAdapter.distinct_counts does"
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and UNCAPPED_DISTINCT.search(node.value)
    ]


def per_cell_recomputes(path: Path, anywhere: bool = False) -> list[str]:
    """Per-cell recompute calls in *path*: in a ``generate_block`` /
    ``choose_block`` body, or *anywhere*."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    scopes = [tree] if anywhere else [
        node for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name in BLOCK_METHODS
    ]
    return [
        f"{path.relative_to(REPO)}:{node.lineno}: {_call_name(node)}() "
        "recomputes one cell per call; gather the block (ctx.gather, "
        "BoundTable.gather)"
        for scope in scopes for node in ast.walk(scope)
        if isinstance(node, ast.Call) and _call_name(node) in CELL_CALLS
    ]


def _mentions_quoter(node: ast.AST) -> bool:
    return any(_name(inner) in QUOTERS for inner in ast.walk(node)
               if isinstance(inner, (ast.Name, ast.Attribute)))


def _named(node: ast.expr) -> str | None:
    """The identifier a bare name expression reads: ``table``,
    ``field.name``'s ``name``, ``names[0]``'s ``names``."""
    while isinstance(node, ast.Subscript):
        node = node.value
    return _name(node)


def unquoted_names(path: Path) -> list[str]:
    """SQL f-strings in *path* that interpolate a table or column name
    neither quoted nor held by a local assigned from a quoting call."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    violations = []
    for function in ast.walk(tree):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        quoted = {
            target.id
            for node in ast.walk(function)
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign))
            and node.value is not None and _mentions_quoter(node.value)
            for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
            if isinstance(target, ast.Name)
        }
        for node in ast.walk(function):
            if not isinstance(node, ast.JoinedStr) or not SQL_KEYWORD.search("".join(
                part.value for part in node.values
                if isinstance(part, ast.Constant) and isinstance(part.value, str)
            )):
                continue
            for part in node.values:
                if not isinstance(part, ast.FormattedValue):
                    continue
                value = part.value
                if not isinstance(value, (ast.Name, ast.Attribute, ast.Subscript)):
                    continue  # a call (quoted or not a name), a number, an expression
                name = _named(value)
                if name is None or not NAME_LIKE.search(name):
                    continue
                if isinstance(value, ast.Name) and name in quoted:
                    continue
                violations.append(
                    f"{path.relative_to(REPO)}:{node.lineno}: SQL f-string "
                    f"interpolates {ast.unparse(value)} unquoted; pass the "
                    f"name through {' or '.join(QUOTERS)}"
                )
    return violations


def check_file(
    path: Path, span_hot: bool = False, columnar_hot: bool = False,
    benchmark: bool = False, banned: tuple[str, ...] | None = None,
) -> list[str]:
    """The checks of one file. *banned* replaces the per-row calls it
    looks for (and skips the other checks): the query-path check."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source, filename=str(path))
    benchmark = benchmark or banned is not None
    if banned is None:
        banned = BANNED_BENCHMARK_CALLS if benchmark else BANNED_CALLS
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
            if name not in banned:
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
                "handler swallows errors in a fault-tolerance or extraction "
                "path; re-raise, narrow the exception type, or waive with "
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
    checked.add(REPO / QUERY_FILE)
    violations.extend(check_file(REPO / QUERY_FILE, banned=BANNED_QUERY_CALLS))
    for rel in READER_PATHS:
        root = REPO / rel
        for path in sorted(root.rglob("*.py")) if root.is_dir() else [root]:
            checked.add(path)
            violations.extend(second_readers(path))
    for rel in DISTINCT_PATHS:
        root = REPO / rel
        for path in sorted(root.rglob("*.py")) if root.is_dir() else [root]:
            checked.add(path)
            violations.extend(uncapped_distincts(path))
    for path in sorted((REPO / QUERY_TYPE_DIR).rglob("*.py")):
        if path != REPO / QUERY_FILE:
            checked.add(path)
            violations.extend(second_query_builders(path))
    for rel, anywhere in ((GENERATOR_DIR, False), (UPDATE_DIR, True)):
        for path in sorted((REPO / rel).rglob("*.py")):
            checked.add(path)
            violations.extend(per_cell_recomputes(path, anywhere))
    for rel in QUOTING_PATHS:
        root = REPO / rel
        for path in sorted(root.rglob("*.py")) if root.is_dir() else [root]:
            checked.add(path)
            violations.extend(unquoted_names(path))
    scope = sorted((REPO / CUTTER_SCOPE).rglob("*.py"))
    for path in scope:
        if path != REPO / CUTTER_FILE:
            checked.add(path)
            violations.extend(second_cutters(path))
    checked.update(scope)
    violations.extend(template_overrides(scope))
    violations.extend(second_runtimes(scope))
    draw_files = {REPO / rel for rel in DRAW_FILES}
    bind_files = {REPO / rel for rel in BIND_FILES}
    for path in scope:
        if path not in draw_files:
            violations.extend(raw_draws(path))
        violations.extend(global_searches(path))
        if path != REPO / DRIVER_FILE:
            violations.extend(second_drivers(path))
        if path == REPO / BIND_RESIDUE[0]:
            violations.extend(second_binds(path, BIND_RESIDUE[1]))
        elif path not in bind_files:
            violations.extend(second_binds(path))
        if path != REPO / IDENTITY_FILE:
            violations.extend(second_identities(path))
        violations.extend(small_row_cuts(path))
    for message in violations:
        print(message)
    print(
        f"hot-loop lint: {len(checked)} files checked, "
        f"{len(violations)} violation(s)"
    )
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
