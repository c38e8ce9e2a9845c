"""Line-oriented scenario files: declarations plus queries.

A scenario fixes one of the three instances (classical, stochastic,
quantum), declares named objects with ``let`` lines, and asks an ordered
list of ``query`` lines.  The grammar is deliberately small:

    # comment
    instance quantum
    let NAME = EXPR
    query KIND(ARG, ...)

where EXPR is a name, a number, a constructor call, or a matrix literal
``matrix R C`` followed by R rows of ``a+bi`` entries.  Query arguments
may nest constructor and test calls, at most ``MAX_DEPTH`` deep.  Each
line is checked as it is read (declared names, the instance's own calls,
the arity of fixed-arity calls, bare labels), and the first fault in
reading order is reported.  Declarations are evaluated at load time so that invariant
violations are reported with their line number.

Each instance is a static table of built-ins and one row per call: its
constructors (``CONSTRUCTORS``) and query operations (``OPERATIONS``,
whose shared rows come from its record in ``instances``).  A row is the
argument types and a function of the evaluated arguments; the parser reads
label positions and arity from it, and one dispatcher applies it.  In the
quantum instance ``effect(M)``, ``predicate(M)`` and ``projector(state)``
all build the same predicate, and ``andthen`` and ``then`` return one, so
a test result feeds every query, as elsewhere.

Reports are deterministic: one line per query, reals printed to a fixed
number of decimals, matrices in the shared literal format.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Optional

import numpy as np

from . import classical, effect_algebra, instances, linalg, quantum, stochastic
from .classical import BoolPredicate, FinMap, FinSet
from .effect_algebra import FiniteEffectAlgebra
from .quantum import DensityMatrix, Isometry, PureState, QPredicate
from .stochastic import Distribution, FuzzyPredicate, StochasticMap


class ScenarioError(Exception):
    """A parse-time problem, with 1-based line and column coordinates."""

    def __init__(self, message: str, line: int, col: int = 1):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col
        self.message = message


class QueryError(Exception):
    """An evaluation-time problem inside a single query."""


@dataclass(frozen=True)
class NameRef:
    name: str


@dataclass(frozen=True)
class CallExpr:
    fn: str
    args: tuple


@dataclass(frozen=True)
class Query:
    kind: str
    args: tuple
    line: int
    precision: Optional[int] = None


@dataclass
class Scenario:
    instance: str
    declarations: dict = field(default_factory=dict)
    queries: list[Query] = field(default_factory=list)


# linalg's real number, not run into a name or a further number
_NUM = linalg.NUM + r"(?![A-Za-z_.'])"
_TOKEN_RE = re.compile(
    rf"\s*(?:(?P<num>{_NUM})"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_.']*)"
    r"|(?P<punct>[(),=]))"
)
# Two or more numbers that close an argument list, read as one "nums" token
# holding their floats.  It is tried only after "(" or ",", so it can only be
# the tail of a call's arguments: the parser appends its floats there, and no
# error message can point inside it.  The scan takes the longest stretch of
# digits, signs, ".", "e", "E", commas, spaces and tabs, in one
# character-class repeat that keeps no backtracking record per number; over
# those characters float() accepts exactly the comma-separated pieces that
# _NUM accepts.  Anything else is read token by token, and no run is tried
# again inside a failed scan, so a malformed line still costs linear time.
_RUN_RE = re.compile(r"\s*(?P<run>[0-9.eE+\- \t,]*)(?P<close>\s*\))?")


def _run_values(m: re.Match) -> Optional[tuple[float, ...]]:
    run = m.group("run")
    if m.group("close") is None or "," not in run:
        return None
    try:
        return tuple(map(float, run.split(",")))
    except ValueError:
        return None


def _tokenize(text: str, line: int) -> list[tuple]:
    tokens = []
    pos = 0
    scanned = 0  # the end of the last run scan that failed
    while pos < len(text):
        if pos >= scanned and tokens and tokens[-1][1] in ("(", ","):
            m = _RUN_RE.match(text, pos)
            values = _run_values(m)
            if values is None:
                scanned = m.end("run")
            else:
                tokens.append(("nums", values, m.start("run") + 1))
                pos = m.end("run")
                continue
        m = _TOKEN_RE.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            raise ScenarioError(f"unexpected character {text[pos:].strip()[0]!r}", line, pos + 1)
        kind = m.lastgroup  # "num", "name" or "punct"
        tokens.append((kind, m.group(kind), m.start(kind) + 1))
        pos = m.end()
    return tokens


# Scenario numbers reach the float maximum; arithmetic that overflows gives
# inf or NaN, which the value checks refuse, so numpy need not warn as well.
_QUIET = {"over": "ignore", "invalid": "ignore"}

# Calls nested in one expression; parsing and evaluation both recurse once
# per level, so a deeper expression is refused when parsed.
MAX_DEPTH = 100
# Decimal digits a reported real may ask for; 17 round-trips a double.
MAX_PRECISION = 17


class _ExprParser:
    """Reads one line, checking each node against the scope as it is built."""

    def __init__(self, tokens, line, scope: _Evaluator):
        self.tokens = tokens
        self.line = line
        self.i = 0
        self.scope = scope

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def at(self, value: str, kind: str = "punct") -> bool:
        tok = self.peek()
        return tok is not None and tok[0] == kind and tok[1] == value

    def take(self):
        tok = self.peek()
        if tok is None:
            raise ScenarioError("unexpected end of line", self.line)
        self.i += 1
        return tok

    def take_operand(self):
        tok = self.take()
        if tok[0] != "num" and tok[0] != "name":
            raise ScenarioError(f"expected a name or number, found {tok[1]!r}", self.line, tok[2])
        return tok

    def parse_expr(self, depth: int = 1):
        tok = self.take_operand()
        if tok[0] == "num":
            return float(tok[1])
        if self.at("("):
            return self.parse_call(tok, depth)
        if tok[1] not in self.scope.scenario.declarations and tok[1] not in self.scope.builtins:
            raise ScenarioError(f"unknown name {tok[1]!r}", self.line, tok[2])
        return NameRef(tok[1])

    def parse_call(self, head, depth: int) -> CallExpr:
        fn, col = head[1], head[2]
        if depth > MAX_DEPTH:
            raise ScenarioError(f"calls nest deeper than {MAX_DEPTH}", self.line, col)
        row = self.scope.calls.get(fn)
        if row is None:
            raise ScenarioError(f"unknown constructor {fn!r}", self.line, col)
        types = row[0]
        arity = None if types[-1] is ... else len(types)
        labels = types.index(str) if str in types else math.inf  # labels come last
        self.take()
        args = []
        sep = self.take() if self.at(")") else None  # an empty list closes at once
        while sep is None or sep[1] == ",":
            tok = self.peek()
            if tok and tok[0] == "nums":
                if len(args) + len(tok[1]) > labels:
                    raise ScenarioError(_must_be(fn, max(len(args), labels), str), self.line, col)
                args.extend(tok[1])
                self.i += 2  # the run and the ')' it closes with
                break
            if len(args) < labels:
                args.append(self.parse_expr(depth + 1))
            else:
                tok = self.take_operand()
                if tok[0] == "num" or self.at("("):
                    raise ScenarioError(_must_be(fn, len(args), str), self.line, col)
                args.append(tok[1])  # a label is itself
            sep = self.take()
            if sep[0] != "punct" or sep[1] not in ",)":
                raise ScenarioError(f"expected ',' or ')', found {sep[1]!r}", self.line, sep[2])
        if arity is not None and len(args) != arity:
            raise ScenarioError(f"{fn} takes {arity} arguments, got {len(args)}", self.line, col)
        return CallExpr(fn, tuple(args))

    def finish(self):
        tok = self.peek()
        if tok is not None:
            raise ScenarioError(f"trailing input {tok[1]!r}", self.line, tok[2])


def _strip_comment(raw: str) -> str:
    cut = raw.find("#")
    return raw if cut < 0 else raw[:cut]


def parse_scenario(text: str) -> Scenario:
    """Parse and validate a scenario, evaluating declarations eagerly."""
    lines = text.splitlines()
    scenario: Optional[Scenario] = None
    evaluator: Optional[_Evaluator] = None
    i = 0
    while i < len(lines):
        lineno = i + 1
        content = _strip_comment(lines[i])
        i += 1
        if not content.strip():
            continue
        tokens = _tokenize(content, lineno)
        head = tokens[0]
        if head[0] != "name":
            raise ScenarioError(f"expected a directive, found {head[1]!r}", lineno, head[2])
        if head[1] == "instance":
            if scenario is not None:
                raise ScenarioError("duplicate instance line", lineno)
            if len(tokens) != 2 or tokens[1][0] != "name":
                raise ScenarioError("expected 'instance NAME'", lineno, head[2])
            name = tokens[1][1]
            if name not in instances.INSTANCES:
                raise ScenarioError(f"unknown instance {name!r}", lineno, tokens[1][2])
            scenario = Scenario(name)
            evaluator = _Evaluator(scenario)
            continue
        if scenario is None:
            raise ScenarioError("scenario must start with an instance line", lineno)
        if head[1] == "let":
            if len(tokens) < 3 or tokens[1][0] != "name":
                raise ScenarioError("expected 'let NAME = EXPR'", lineno, head[2])
            name = tokens[1][1]
            if tokens[2][:2] != ("punct", "="):
                raise ScenarioError("expected '=' after the name", lineno, tokens[2][2])
            if name in scenario.declarations or name in evaluator.builtins:
                raise ScenarioError(f"name {name!r} already defined", lineno, tokens[1][2])
            body = tokens[3:]
            if body and body[0][0] == "name" and body[0][1] == "matrix":
                if len(body) != 3 or body[1][0] != "num" or body[2][0] != "num":
                    raise ScenarioError("matrix literal needs 'matrix ROWS COLS'", lineno)
                try:
                    rows, cols = linalg.parse_shape(body[1][1], body[2][1])
                except ValueError as exc:
                    raise ScenarioError(str(exc), lineno) from None
                entry_lines = []
                for r in range(rows):
                    if i >= len(lines):
                        raise ScenarioError("matrix literal ends early", lineno)
                    entry_lines.append(_strip_comment(lines[i]).strip())
                    i += 1
                try:
                    value = linalg.parse_matrix("\n".join([f"{rows} {cols}"] + entry_lines))
                except ValueError as exc:
                    raise ScenarioError(str(exc), lineno) from None
                scenario.declarations[name] = value
                continue
            parser = _ExprParser(body, lineno, evaluator)
            expr = parser.parse_expr()
            parser.finish()
            try:
                with np.errstate(**_QUIET):
                    scenario.declarations[name] = evaluator.evaluate(expr)
            except (QueryError, ValueError) as exc:
                raise ScenarioError(str(exc), lineno) from None
            continue
        if head[1] == "query":
            parser = _ExprParser(tokens[1:], lineno, evaluator)
            kind = parser.take_operand()
            if kind[0] != "name" or not parser.at("("):
                raise ScenarioError("a query must be KIND(ARGS)", lineno)
            if kind[1] not in OPERATIONS[scenario.instance]:
                raise ScenarioError(f"unknown query kind {kind[1]!r}", lineno, kind[2])
            expr = parser.parse_call(kind, 1)
            precision = None
            if parser.at("precision", "name"):
                parser.take()
                tok = parser.take()
                # the integer-literal rule of a matrix header
                if tok[0] != "num" or not linalg.INT_RE.fullmatch(tok[1]):
                    raise ScenarioError("precision must be an integer", lineno, tok[2])
                precision = int(tok[1])
                if not 0 <= precision <= MAX_PRECISION:
                    raise ScenarioError(f"precision must be between 0 and {MAX_PRECISION}",
                                        lineno, tok[2])
            parser.finish()
            scenario.queries.append(Query(expr.fn, expr.args, lineno, precision))
            continue
        raise ScenarioError(f"unrecognised directive {head[1]!r}", lineno, head[2])
    if scenario is None:
        raise ScenarioError("empty scenario: no instance line", max(len(lines), 1))
    return scenario


@dataclass(frozen=True)
class Element:
    """A point of a classical carrier, the state that classical ``measure`` takes."""

    carrier: FinSet
    index: int


class _Evaluator:
    """Name lookup and the one dispatcher of calls, for one scenario's instance."""

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.builtins = BUILTINS[scenario.instance]
        self.calls = _CALLS[scenario.instance]

    def evaluate(self, expr):
        if isinstance(expr, NameRef):
            if expr.name in self.scenario.declarations:
                return self.scenario.declarations[expr.name]
            return self.builtins[expr.name]  # the parser has checked the name
        if isinstance(expr, CallExpr):
            return self.call(expr.fn, expr.args)
        return expr  # a number or a label

    def call(self, fn: str, args: tuple):
        """Apply the row of ``fn`` to the values of ``args``, checking their types."""
        types, apply = self.calls[fn]  # the parser has checked the name
        tail = ()
        if types[-1] is ...:  # the type before it, once for each further argument
            fixed, kind = len(types) - 2, types[-2]
            # labels (the parser has checked them) and literal numbers pass in one check
            if kind is str or kind is _REAL and {*map(type, args[fixed:])} <= {float}:
                args, tail = args[:fixed], args[fixed:]
            types = types[:fixed] + (kind,) * (len(args) - fixed)
        values = []
        for kind, arg in zip(types, args):
            value = arg if type(arg) is float else self.evaluate(arg)  # a literal is itself
            if not isinstance(value, kind):
                raise QueryError(_must_be(fn, len(values), kind))
            values.append(value)
        if len(values) < len(types):
            raise QueryError(f"{fn} is missing argument {len(values) + 1}")
        return apply(*values, *tail)


# -- the three instances ------------------------------------------------------
#
# Each instance is one static description: its built-in names and one row
# per call, constructor or query operation: the argument types and a
# function of their values.  A type is a class or a tuple of classes; ``str``
# marks a bare label, and labels come last.  A trailing ``...`` repeats the
# type before it any number of times, none included.  The functions reach
# the library through its module at call time, so a caller that rebinds a
# module's functions (a tracer, a test double) sees every call.

BUILTINS: dict[str, dict[str, object]] = {
    "classical": {},
    "stochastic": {},
    "quantum": {
        "ket0": PureState(quantum.KET0),
        "ket1": PureState(quantum.KET1),
        "ketNE": PureState(quantum.KET_NE),
        "ketNW": PureState(quantum.KET_NW),
        "hadamard": quantum.HADAMARD,
        "pauliX": quantum.PAULI_X,
        "pauliY": quantum.PAULI_Y,
        "pauliZ": quantum.PAULI_Z,
    },
}

_REAL = (float, int)
_MATRIX = (np.ndarray, QPredicate)  # a predicate stands for its left part

# what a position's type is called in "argument i of fn must be <what>"
_WHAT = {
    str: "a label",
    _REAL: "a number",
    FinSet: "a carrier",
    Element: "an element",
    Distribution: "a distribution",
    PureState: "a state",
    (PureState, DensityMatrix): "a state",
    _MATRIX: "a matrix",
    FiniteEffectAlgebra: "an effect algebra",
    (FiniteEffectAlgebra, FinSet): "an effect algebra or a carrier",
    **{record.predicate: "a predicate" for record in instances.INSTANCES.values()},
    **{record.map: "a map" for record in instances.INSTANCES.values()},
}


def _must_be(fn: str, i: int, kind) -> str:
    return f"argument {i + 1} of {fn} must be {_WHAT[kind]}"


def _natural(n: float, message: str) -> int:
    """n if it is finite and whole (a literal such as 1e999 reads as inf), else the message."""
    if not math.isfinite(n) or n != int(n):
        raise QueryError(message)
    return int(n)


def _matrix_of(value) -> np.ndarray:
    """An array as it is, or the matrix a quantum value holds (a predicate's left part)."""
    return value if isinstance(value, np.ndarray) else value.matrix


def _make_finmap(src: FinSet, tgt: FinSet, *images: str) -> FinMap:
    if len(images) != src.size:
        raise QueryError(f"finmap needs {src.size} image labels, got {len(images)}")
    return FinMap(src, tgt, tuple(map(tgt.index_of, images)))


def _make_stochmap(src: FinSet, tgt: FinSet, *entries: float) -> StochasticMap:
    if len(entries) != src.size * tgt.size:
        raise QueryError(f"stochmap needs {src.size * tgt.size} entries, got {len(entries)}")
    return StochasticMap(src, tgt, np.reshape(entries, (src.size, tgt.size)))


_PREDICATE = ((_MATRIX,), lambda m: quantum.QPredicate.from_effect(m))
_ALGEBRAS = {
    "mo": ((_REAL,), lambda n: effect_algebra.mo_free(_natural(n, "mo takes one natural number"))),
    "powerset": ((_REAL,), lambda n: effect_algebra.boolean_powerset_ea(
        _natural(n, "powerset takes one natural number"))),
}
_OVER_SETS = {**_ALGEBRAS, "carrier": ((str, ...), lambda *labels: FinSet(labels))}
CONSTRUCTORS: dict[str, dict[str, tuple[tuple, Callable]]] = {
    "classical": {
        **_OVER_SETS,
        "subset": ((FinSet, str, ...),
                   lambda c, *labels: BoolPredicate(c, frozenset(map(c.index_of, labels)))),
        "finmap": ((FinSet, FinSet, str, ...), _make_finmap),
        "elem": ((FinSet, str), lambda c, label: Element(c, c.index_of(label))),
    },
    "stochastic": {
        **_OVER_SETS,
        "dist": ((FinSet, _REAL, ...), lambda c, *weights: Distribution(c, weights)),
        "fuzzy": ((FinSet, _REAL, ...), lambda c, *values: FuzzyPredicate(c, values)),
        "stochmap": ((FinSet, FinSet, _REAL, ...), _make_stochmap),
    },
    "quantum": {
        **_ALGEBRAS,
        "ket": ((_REAL, ...), lambda *amplitudes: PureState(amplitudes)),
        "effect": _PREDICATE,
        "predicate": _PREDICATE,
        "projector": ((PureState,), lambda x: quantum.projector(x)),
        "density": ((_MATRIX,), lambda m: DensityMatrix(_matrix_of(m))),
        "isometry": ((_MATRIX,), lambda m: Isometry(_matrix_of(m))),
    },
}


def _classical_measure(p: BoolPredicate, x: Element):
    if x.carrier != p.carrier:
        raise QueryError("element belongs to a different carrier")
    return ("tagged", p.carrier, classical.measure(p, x.index))


def _axioms(target: FiniteEffectAlgebra | FinSet):
    if isinstance(target, FinSet):
        if target.size > 4:
            raise QueryError("axioms on a carrier is exhaustive, size must be <= 4")
        target = classical.predicate_algebra(target)
    return ("report", target, effect_algebra.check_axioms(target))


def _shared_rows(record: instances.Instance) -> dict[str, tuple[tuple, Callable]]:
    """The queries every instance answers alike, each one closure over the module."""
    m, pred = record.module, record.predicate
    rows = {
        "substitute": ((record.map, pred), lambda f, q: m.substitute(f, q)),
        "andthen": ((pred, pred), lambda p, q: m.test_andthen(p, q)),
        "then": ((pred, pred), lambda p, q: m.test_then(p, q)),
        "orthosum": ((pred, pred), lambda p, q: m.orthosum(p, q)),
    }
    if hasattr(m, "probability_multiply"):
        rows["multiply"] = ((_REAL, pred), lambda s, p: m.probability_multiply(float(s), p))
    return rows


OPERATIONS: dict[str, dict[str, tuple[tuple, Callable]]] = {
    "classical": {
        **_shared_rows(instances.INSTANCES["classical"]),
        "measure": ((BoolPredicate, Element), _classical_measure),
        "comprehension": ((BoolPredicate,), lambda p: classical.comprehension(p)[0]),
        "states": ((_REAL,), lambda n: len(classical.stone_states(
            _natural(n, "states takes a natural number")))),
        "axioms": (((FiniteEffectAlgebra, FinSet),), _axioms),
    },
    "stochastic": {
        **_shared_rows(instances.INSTANCES["stochastic"]),
        "measure": ((FuzzyPredicate, Distribution),
                    lambda p, m: stochastic.measure_distribution(p, m)),
        "comprehension": ((FuzzyPredicate,), lambda p: stochastic.comprehension(p)[0]),
        "axioms": ((FiniteEffectAlgebra,), _axioms),
    },
    "quantum": {
        **_shared_rows(instances.INSTANCES["quantum"]),
        "born": ((PureState, QPredicate), lambda x, p: quantum.born_probability(x, p)),
        "measure": ((QPredicate, (PureState, DensityMatrix)), lambda p, x: (
            quantum.measure_pure if isinstance(x, PureState) else quantum.measure_density)(p, x)),
        "comprehension": ((QPredicate,), lambda p: quantum.comprehension(p)),
        "axioms": ((FiniteEffectAlgebra,), _axioms),
    },
}

_CALLS = {name: {**CONSTRUCTORS[name], **OPERATIONS[name]} for name in CONSTRUCTORS}


# -- report formatting --------------------------------------------------------


def format_value(value, prec: int) -> str:
    """Render a query result deterministically (matrices span lines)."""
    if value is None:
        return "undefined"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    # adding 0.0 turns -0.0 into 0.0
    if isinstance(value, (float, np.floating)):
        return f"{float(value) + 0.0:.{prec}f}"
    if isinstance(value, FinSet):
        return "{" + ",".join(value.labels) + "}"
    if isinstance(value, BoolPredicate):
        return "{" + ",".join(map(value.carrier.labels.__getitem__, sorted(value.members))) + "}"
    if isinstance(value, FuzzyPredicate):
        template = ", ".join([f"%.{prec}f"] * len(value.values))
        return "[" + template % tuple((value.values + 0.0).tolist()) + "]"
    if isinstance(value, Distribution):
        labels, weights = value.carrier.labels, (value.weights + 0.0).tolist()
        template = ", ".join([f"%s: %.{prec}f"] * len(labels))
        return "{" + template % tuple(chain.from_iterable(zip(labels, weights))) + "}"
    if isinstance(value, tuple) and value and value[0] == "tagged":
        _, carrier, tagged = value
        return f"{tagged.side}({carrier.labels[tagged.index]})"
    if isinstance(value, tuple) and value and value[0] == "report":
        _, algebra, report = value
        return report.describe(algebra)
    if isinstance(value, PureState):
        return linalg.format_matrix(value.vector.reshape(-1, 1), prec)
    if isinstance(value, (QPredicate, DensityMatrix, Isometry, np.ndarray)):
        return linalg.format_matrix(_matrix_of(value), prec)
    raise QueryError(f"cannot render value of type {type(value).__name__}")


def run(scenario: Scenario, precision: int = 9) -> tuple[str, bool]:
    """Evaluate every query in order; errors are reported inline, with the
    query's source line.

    Returns the report text and whether all queries succeeded.
    """
    evaluator = _Evaluator(scenario)
    lines = []
    ok = True
    for idx, query in enumerate(scenario.queries):
        digits = precision if query.precision is None else query.precision
        try:
            with np.errstate(**_QUIET):
                value = evaluator.call(query.kind, query.args)
            rendered = format_value(value, digits)
        except (QueryError, ValueError) as exc:
            rendered = f"error: line {query.line}: {exc}"
            ok = False
        lines.append(f"{idx}: {query.kind} = {rendered}")
    return "\n".join(lines) + "\n", ok
