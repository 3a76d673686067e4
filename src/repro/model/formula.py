"""Safe arithmetic formula evaluation for model properties and sizes.

PDGF schema files express sizes and bounds as formulas over properties,
e.g. ``<size>6000000 * ${SF}</size>`` (paper Listing 1). This module
evaluates such expressions without ``eval``: the expression is parsed
with :mod:`ast` and only a whitelisted set of node types, operators, and
functions is allowed.

``${NAME}`` references are substituted *syntactically* into identifiers
before parsing, so properties can reference other properties; cycle
detection lives in :mod:`repro.model.properties`.
"""

from __future__ import annotations

import ast
import math
import operator
import re
from typing import Callable, Mapping

import numpy as _np

from repro.columnar import INT64_MAX
from repro.exceptions import FormulaError

PROPERTY_REF_RE = re.compile(r"\$\{([A-Za-z_][A-Za-z0-9_.]*)\}")

_BINOPS: dict[type, Callable] = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
    ast.FloorDiv: operator.floordiv,
    ast.Mod: operator.mod,
    ast.Pow: operator.pow,
}

_UNARYOPS: dict[type, Callable] = {
    ast.UAdd: operator.pos,
    ast.USub: operator.neg,
}

_FUNCTIONS: dict[str, Callable] = {
    "min": min,
    "max": max,
    "abs": abs,
    "round": round,
    "int": int,
    "float": float,
    "ceil": math.ceil,
    "floor": math.floor,
    "sqrt": math.sqrt,
    "log": math.log,
    "log2": math.log2,
    "log10": math.log10,
    "pow": math.pow,
}


def find_references(expression: str) -> list[str]:
    """Return the property names referenced as ``${name}`` in order of
    first appearance, without duplicates."""
    seen: list[str] = []
    for name in PROPERTY_REF_RE.findall(expression):
        if name not in seen:
            seen.append(name)
    return seen


class CompiledFormula:
    """A validated, pre-compiled formula for hot generation loops.

    The expression is parsed and whitelist-validated once; evaluation
    reuses the compiled code object with an empty ``__builtins__`` and
    only the whitelisted functions in scope. ``${name}`` references and
    identifier-shaped environment keys are both supported.
    """

    __slots__ = ("expression", "references", "_code", "_ident_of", "_tree")

    def __init__(self, expression: str) -> None:
        self.expression = expression
        self.references = find_references(expression)
        self._ident_of = {
            name: "_ref_" + name.replace(".", "_dot_") for name in self.references
        }
        plain = PROPERTY_REF_RE.sub(
            lambda m: self._ident_of[m.group(1)], expression
        )
        try:
            tree = ast.parse(plain, mode="eval")
        except SyntaxError as exc:
            raise FormulaError(f"cannot parse formula {expression!r}: {exc}") from exc
        _validate_node(tree)
        self._code = compile(tree, "<formula>", "eval")
        self._tree = tree.body

    def _environment(self, properties: Mapping[str, object] | None) -> dict[str, object]:
        properties = properties or {}
        env: dict[str, object] = {}
        for name, ident in self._ident_of.items():
            if name not in properties:
                raise FormulaError(
                    f"undefined property ${{{name}}} in {self.expression!r}"
                )
            env[ident] = properties[name]
        for key, value in properties.items():
            if key not in self._ident_of:
                env.setdefault(key, value)
        return env

    def __call__(self, properties: Mapping[str, float] | None = None) -> float:
        env = self._environment(properties)
        try:
            return eval(self._code, _EVAL_GLOBALS, env)  # noqa: S307 - validated AST
        except NameError as exc:
            raise FormulaError(f"unknown name in formula {self.expression!r}: {exc}") from exc
        except (ZeroDivisionError, ValueError, TypeError, OverflowError) as exc:
            raise FormulaError(f"error evaluating {self.expression!r}: {exc}") from exc

    def evaluate_arrays(self, properties: Mapping[str, object]):
        """Evaluate once over whole columns: *properties* may bind names to
        ``int64``/``float64`` numpy arrays (and to plain numbers).

        Returns an ``int64`` or ``float64`` array holding exactly what
        calling the formula once per element would — or ``None`` whenever
        that cannot be proven, and the caller evaluates per element (which
        also raises the canonical :class:`FormulaError`). Proven means:
        only ``+ - * / // %`` and unary signs (numpy's are IEEE-754 and
        floor semantics, like Python's; function calls and ``**`` are
        not attempted), no integer intermediate that could leave int64
        (:func:`_int_magnitude`), and no numpy floating-point error flag.
        """
        try:
            env = self._environment(properties)
            _int_magnitude(self._tree, env)
            with _np.errstate(all="raise"):
                result = eval(self._code, _EVAL_GLOBALS, env)  # noqa: S307 - validated AST
        except (_NotExact, FormulaError, NameError, ArithmeticError, ValueError, TypeError):
            return None
        if isinstance(result, _np.ndarray) and result.dtype in (_np.int64, _np.float64):
            return result
        return None


_EVAL_GLOBALS = {"__builtins__": {}, **_FUNCTIONS}

_ALLOWED_SIMPLE = (ast.Expression, ast.Constant, ast.Name, ast.Load)


def _validate_node(node: ast.AST) -> None:
    """Reject anything outside the arithmetic whitelist before compiling."""
    for child in ast.walk(node):
        if isinstance(child, ast.Constant):
            if isinstance(child.value, bool) or not isinstance(
                child.value, (int, float)
            ):
                raise FormulaError(f"non-numeric constant {child.value!r}")
        elif isinstance(child, ast.BinOp):
            if type(child.op) not in _BINOPS:
                raise FormulaError(
                    f"operator {type(child.op).__name__} not allowed"
                )
        elif isinstance(child, ast.UnaryOp):
            if type(child.op) not in _UNARYOPS:
                raise FormulaError(
                    f"operator {type(child.op).__name__} not allowed"
                )
        elif isinstance(child, ast.Call):
            if (
                not isinstance(child.func, ast.Name)
                or child.func.id not in _FUNCTIONS
            ):
                raise FormulaError("only whitelisted functions may be called")
            if child.keywords:
                raise FormulaError("keyword arguments are not allowed in formulas")
        elif isinstance(child, (ast.operator, ast.unaryop)):
            pass  # validated with their parent BinOp/UnaryOp above
        elif not isinstance(child, _ALLOWED_SIMPLE):
            raise FormulaError(
                f"syntax element {type(child).__name__} not allowed"
            )


class _NotExact(Exception):
    """Array evaluation would not provably equal per-element evaluation."""


_EXACT_FLOAT_INT = 2**53  # every integer below converts to float exactly


def _int_magnitude(node: ast.AST, env: Mapping[str, object]) -> int | None:
    """An upper bound of ``|value|`` when *node* is integer-valued, ``None``
    when it is float-valued; raises :class:`_NotExact` where int64 array
    arithmetic could differ from Python's unbounded ints.

    Float-valued nodes need no bound: numpy and Python run the same
    double arithmetic, and int operands convert to double the same way.
    """
    if isinstance(node, ast.Constant):
        bound = abs(node.value) if isinstance(node.value, int) else None
    elif isinstance(node, ast.Name):
        value = env.get(node.id)
        if isinstance(value, _np.ndarray) and value.dtype == _np.int64:
            bound = max(abs(int(value.min())), abs(int(value.max()))) if value.size else 0
        elif isinstance(value, _np.ndarray) and value.dtype == _np.float64:
            bound = None
        elif type(value) is int:
            bound = abs(value)
        elif type(value) is float:
            bound = None
        else:
            raise _NotExact
    elif isinstance(node, ast.UnaryOp):
        bound = _int_magnitude(node.operand, env)
    elif isinstance(node, ast.BinOp):
        left = _int_magnitude(node.left, env)
        right = _int_magnitude(node.right, env)
        op = type(node.op)
        if op is ast.Pow:
            raise _NotExact  # numpy's power is not Python's for every operand
        if left is None or right is None:
            bound = None
        elif op is ast.Div:
            # int / int is correctly rounded in Python; the double
            # quotient only matches while both convert exactly
            if left >= _EXACT_FLOAT_INT or right >= _EXACT_FLOAT_INT:
                raise _NotExact
            bound = None
        elif op is ast.Mult:
            bound = left * right
        elif op is ast.FloorDiv:
            bound = left  # |a // b| <= |a| for any integer b != 0
        elif op is ast.Mod:
            bound = right  # |a % b| < |b|
        else:  # Add, Sub
            bound = left + right
    else:
        raise _NotExact  # function calls
    if bound is not None and bound > INT64_MAX:
        raise _NotExact
    return bound


_COMPILE_CACHE: dict[str, CompiledFormula] = {}
_COMPILE_CACHE_LIMIT = 4096


def compile_formula(expression: str) -> CompiledFormula:
    """Compile (with caching) a formula for repeated evaluation."""
    cached = _COMPILE_CACHE.get(expression)
    if cached is None:
        cached = CompiledFormula(expression)
        if len(_COMPILE_CACHE) < _COMPILE_CACHE_LIMIT:
            _COMPILE_CACHE[expression] = cached
    return cached


def evaluate(expression: str, properties: Mapping[str, float] | None = None) -> float:
    """Evaluate a formula string, resolving ``${name}`` against *properties*.

    Returns a float or int (whatever the arithmetic yields). Raises
    :class:`FormulaError` on any parse error, unknown reference, or
    disallowed construct.
    """
    return compile_formula(expression)(properties)


def evaluate_int(expression: str, properties: Mapping[str, float] | None = None) -> int:
    """Evaluate a formula and round the result to an int (table sizes)."""
    return int(round(evaluate(expression, properties)))
