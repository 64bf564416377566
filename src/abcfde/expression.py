"""Arithmetic expression language for problem definitions.

Grammar (loosest to tightest binding):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | power
    power  := atom ('^' factor)?          # right associative
    atom   := NUMBER | IDENT | IDENT '(' expr (',' expr)* ')' | '(' expr ')'

``^`` is real exponentiation; ``0^0`` evaluates to 1.  Builtins cover the
usual elementary functions plus the Mittag-Leffler family ``mlf1``,
``mlf2`` and ``mlf3``.

Variables may be bound to floats or to numpy arrays: one call evaluates a
whole array of samples, and a domain error names the first bad sample.

An :class:`Expression` compiles its tree once into nested closures (see
:func:`_compile`) and enters ``np.errstate`` once per call, set to raise
on overflow, division by zero and invalid operations.  A numpy operation
that raises no such flag made no infinity from finite samples and no NaN
from non-NaN ones, so its result is not scanned for non-finite samples;
one that raises is evaluated again under ``ignore`` and scanned, which
names the first bad sample (see :func:`_unless_flagged`).  Python-float
results are checked by ``math.isfinite``, and builtins that are not
numpy ufuncs (gamma, the Mittag-Leffler functions, a replaced entry)
run under ``ignore`` and are always scanned.  Each largest
subtree whose only variable is ``tau`` is evaluated once per read-only
``tau`` array (a :attr:`~abcfde.operators.Grid.nodes`, say) and reused
until another ``tau`` comes, so the tau-only part of f and g costs one
evaluation per grid, not one per Picard sweep.  Writeable arrays are
never memoised, and callers always get fresh writeable results.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from . import mittag_leffler as ml
from .errors import ArityError, EvalError, LexError, ParseError

# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Unary:
    op: str
    operand: "Node"


@dataclass(frozen=True)
class Binary:
    op: str
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Call:
    func: str
    args: tuple


Node = Num | Var | Unary | Binary | Call


#: name -> (arity, implementation).  The numpy ufuncs take whole sample
#: arrays, and so do the Mittag-Leffler functions (see
#: :func:`_sample_by_parameters`); :func:`sample` calls gamma once per
#: sample.
BUILTINS: dict[str, tuple[int, Callable]] = {
    "sin": (1, np.sin),
    "cos": (1, np.cos),
    "exp": (1, np.exp),
    "log": (1, np.log),
    "sqrt": (1, np.sqrt),
    "abs": (1, np.abs),
    "pow": (2, np.power),
    "gamma": (1, math.gamma),
    "mlf1": (2, ml.ml_one),
    "mlf2": (3, ml.ml_two),
    "mlf3": (4, ml.ml_prabhakar),
}

#: Builtins whose last argument z is taken as a whole array.  Known by
#: name, not by a mark on the function, so a wrapped entry keeps it.
_Z_ARRAY_BUILTINS = frozenset({"mlf1", "mlf2", "mlf3"})


# ---------------------------------------------------------------------------
# Lexer

_OPERATORS = set("+-*/^(),")


@dataclass(frozen=True)
class Token:
    kind: str  # "num" | "ident" | literal operator character
    text: str
    offset: int

    @property
    def value(self) -> float:
        return float(self.text)


def tokenize(source: str) -> list[Token]:
    """Split an expression string into tokens.

    Numbers are decimals with an optional exponent; identifiers match
    ``[a-zA-Z_][a-zA-Z0-9_]*``.  Any other non-whitespace character
    raises :class:`LexError` with its byte offset.
    """
    tokens = []
    i, n = 0, len(source)
    while i < n:
        c = source[i]
        if c.isspace():
            i += 1
            continue
        if c in _OPERATORS:
            tokens.append(Token(c, c, i))
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and source[i + 1].isdigit()):
            j = i
            while j < n and (source[j].isdigit() or source[j] == "."):
                j += 1
            if j < n and source[j] in "eE":
                k = j + 1
                if k < n and source[k] in "+-":
                    k += 1
                if k < n and source[k].isdigit():
                    j = k
                    while j < n and source[j].isdigit():
                        j += 1
            text = source[i:j]
            try:
                float(text)
            except ValueError:
                raise LexError(f"malformed number {text!r}", i) from None
            tokens.append(Token("num", text, i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(Token("ident", source[i:j], i))
            i = j
            continue
        raise LexError(f"illegal character {c!r}", i)
    return tokens


# ---------------------------------------------------------------------------
# Parser


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", self.pos)
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.peek()
        if tok is None or tok.kind != kind:
            got = "end of input" if tok is None else repr(tok.text)
            raise ParseError(f"expected {kind!r}, got {got}", self.pos)
        return self.next()

    def expr(self) -> Node:
        node = self.term()
        while (tok := self.peek()) is not None and tok.kind in "+-":
            self.next()
            node = Binary(tok.kind, node, self.term())
        return node

    def term(self) -> Node:
        node = self.factor()
        while (tok := self.peek()) is not None and tok.kind in "*/":
            self.next()
            node = Binary(tok.kind, node, self.factor())
        return node

    def factor(self) -> Node:
        tok = self.peek()
        if tok is not None and tok.kind == "-":
            self.next()
            return Unary("-", self.factor())
        return self.power()

    def power(self) -> Node:
        node = self.atom()
        tok = self.peek()
        if tok is not None and tok.kind == "^":
            self.next()
            # right associative; exponent may carry a unary minus
            node = Binary("^", node, self.factor())
        return node

    def atom(self) -> Node:
        tok = self.next()
        if tok.kind == "num":
            return Num(tok.value)
        if tok.kind == "ident":
            nxt = self.peek()
            if nxt is not None and nxt.kind == "(":
                return self.call(tok.text)
            return Var(tok.text)
        if tok.kind == "(":
            node = self.expr()
            self.expect(")")
            return node
        raise ParseError(f"unexpected token {tok.text!r}", self.pos - 1)

    def call(self, name: str) -> Node:
        if name not in BUILTINS:
            raise ParseError(f"unknown function {name!r}", self.pos)
        self.expect("(")
        args = [self.expr()]
        while (tok := self.peek()) is not None and tok.kind == ",":
            self.next()
            args.append(self.expr())
        self.expect(")")
        arity = BUILTINS[name][0]
        if len(args) != arity:
            raise ArityError(
                f"{name} takes {arity} argument(s), got {len(args)}", self.pos
            )
        return Call(name, tuple(args))


def parse(source_or_tokens) -> Node:
    """Parse a source string or token list into an AST."""
    tokens = (
        tokenize(source_or_tokens)
        if isinstance(source_or_tokens, str)
        else list(source_or_tokens)
    )
    parser = _Parser(tokens)
    node = parser.expr()
    if parser.peek() is not None:
        raise ParseError(
            f"trailing input starting at {parser.peek().text!r}", parser.pos
        )
    return node


# ---------------------------------------------------------------------------
# Evaluation and printing


_BINARY = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "^": np.power,
}


def _first_bad(problem: str, bad, name: str, args) -> EvalError:
    """EvalError naming the first sample where the mask bad holds."""
    shape = np.broadcast(bad, *args).shape
    i = np.unravel_index(np.argmax(np.broadcast_to(bad, shape)), shape)
    values = ", ".join(repr(float(np.broadcast_to(a, shape)[i])) for a in args)
    where = f" at sample {int(i[0]) if len(i) == 1 else tuple(map(int, i))}" if i else ""
    return EvalError(f"{problem}: {name}({values}){where}")


def sample(fn: Callable, *args):
    """fn at the broadcast samples args: a float array of their shape, or
    a float when every arg is a scalar.

    numpy ufuncs and callables marked by :func:`takes_arrays` get the
    arrays whole.  Any other fn is taken as scalar-only and called once
    per sample with Python floats: this is the one per-point loop, which
    the builtin gamma and user callables given as f, g, v or w go
    through.  A ValueError, OverflowError or ZeroDivisionError it
    raises becomes an EvalError naming the sample.
    """
    if isinstance(fn, np.ufunc):
        out = fn(*args)
        if type(out) is np.ndarray and out.dtype == np.float64:
            return out  # a ufunc's result is a fresh array of the broadcast shape
        return np.broadcast_to(out, np.shape(out)).astype(float)[()]
    if getattr(fn, "takes_arrays", False):
        shape = np.broadcast(*args).shape
        out = fn(*args)
        if (
            type(out) is np.ndarray
            and out.dtype == np.float64
            and out.shape == shape
            and out.base is None
            and out.flags.writeable
            and all(out is not a for a in args)
        ):
            return out  # already a fresh float array of the sample shape
        return np.broadcast_to(out, shape).astype(float)[()]
    arrays = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in args))
    shape = arrays[0].shape
    columns = [a.ravel().tolist() for a in arrays]
    out = np.empty(arrays[0].size)
    try:
        for k, xs in enumerate(zip(*columns)):
            out[k] = fn(*xs)
    except (ValueError, OverflowError, ZeroDivisionError) as exc:
        bad = np.arange(out.size).reshape(shape) == k
        raise _first_bad(str(exc), bad, getattr(fn, "__name__", "fn"), arrays) from exc
    return out.reshape(shape)[()]


def _sample_by_parameters(fn: Callable, name: str, args):
    """fn(*params, z) at the broadcast samples args = (*params, z).

    One call per distinct parameter tuple, in order of first appearance,
    with that tuple as floats and its samples of z as one array.  A
    ValueError, OverflowError or ZeroDivisionError becomes an EvalError
    naming the first sample of the tuple, which is the first bad one.
    """
    *params, z = args
    if all(np.ndim(p) == 0 for p in params):
        # one tuple: no grouping pass
        z = np.asarray(z, dtype=float)
        try:
            out = fn(*map(float, params), z.ravel())
        except (ValueError, OverflowError, ZeroDivisionError) as exc:
            raise _first_bad(str(exc), True, name, args) from exc
        return np.asarray(out, dtype=float).reshape(z.shape)[()]
    arrays = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in args))
    shape = arrays[0].shape
    *params, z = (a.ravel() for a in arrays)
    keys, first, group = np.unique(
        np.stack(params, axis=1), axis=0, return_index=True, return_inverse=True
    )
    group = group.ravel()
    out = np.empty(z.size)
    for g in np.argsort(first):
        members = group == g
        try:
            out[members] = fn(*keys[g].tolist(), z[members])
        except (ValueError, OverflowError, ZeroDivisionError) as exc:
            bad = np.arange(z.size).reshape(shape) == first[g]
            raise _first_bad(str(exc), bad, name, arrays) from exc
    return out.reshape(shape)[()]


def takes_arrays(fn: Callable) -> Callable:
    """Mark fn as taking whole sample arrays in :func:`sample`; returns fn."""
    fn.takes_arrays = True
    return fn


def _checked(out, name: str, args):
    """out, unless it is NaN where no arg is or infinite where every arg
    is finite: then an EvalError naming the first such sample."""
    if np.isfinite(out).all():
        return out
    nan_in = np.any(np.broadcast_arrays(*map(np.isnan, args)), axis=0)
    finite_in = np.all(np.broadcast_arrays(*map(np.isfinite, args)), axis=0)
    bad = (np.isnan(out) & ~nan_in) | (np.isinf(out) & finite_in)
    if bad.any():
        raise _first_bad("not a real number", bad, name, args)
    return out


def _unless_flagged(name: str, args, fn: Callable, *lead):
    """fn(*lead, *args) for an operator or a numpy ufunc, which raises a
    FloatingPointError under the errstate of :func:`_call` where it
    overflows, divides by zero or makes NaN from a non-NaN value.  Only
    then is it evaluated again under ``ignore`` and scanned by
    :func:`_checked`, which gives the same value or the same error; a
    scalar that is not finite is scanned too, since Python float
    arithmetic sets no flag."""
    try:
        out = fn(*lead, *args)
    except FloatingPointError:
        with np.errstate(all="ignore"):
            return _checked(fn(*lead, *args), name, args)
    if type(out) is np.ndarray or math.isfinite(out):
        return out
    return _checked(out, name, args)


def _immutable(a) -> bool:
    """a is an array no one can write to: it and every array it views are
    read-only, down to one that owns its data."""
    if not isinstance(a, np.ndarray):
        return False
    while isinstance(a, np.ndarray):
        if a.flags.writeable:
            return False
        a = a.base
    return a is None


def _memoised(run: Callable) -> Callable:
    """run, evaluated once per immutable ``tau`` binding and reused until
    another one comes; the kept value is made read-only.  For subtrees
    whose only variable is tau."""
    kept = (None, None)  # (tau, value), replaced in one assignment

    def memo(bindings):
        nonlocal kept
        tau = bindings.get("tau")
        if tau is kept[0] and _immutable(tau):
            return kept[1]
        value = run(bindings)
        if _immutable(tau):
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
            kept = (tau, value)
        return value

    return memo


_TAU_ONLY = frozenset({"tau"})


def _shared(run: Callable, node: Node, names: frozenset) -> Callable:
    """run, :func:`_memoised` when node is an operation on tau alone."""
    if names == _TAU_ONLY and not isinstance(node, Var):
        return _memoised(run)
    return run


def _compile(node: Node) -> tuple[Callable, frozenset]:
    """A closure bindings -> value of the tree, and its variable names.

    The closure does what the tree walk of :func:`evaluate` did node by
    node, under the raising ``np.errstate`` that :func:`_call` enters
    once; only builtins that are not ufuncs enter ``ignore`` for
    themselves.
    Within a tree that uses other variables too, each largest subtree
    whose only variable is tau is :func:`_memoised`.  Builtins are looked
    up in BUILTINS at call time, so a replaced entry takes effect.
    """
    if isinstance(node, Num):
        value = node.value
        return (lambda bindings: value), frozenset()
    if isinstance(node, Var):
        name = node.name

        def var(bindings):
            try:
                value = bindings[name]
            except KeyError:
                raise EvalError(f"unbound variable {name!r}") from None
            return value if isinstance(value, np.ndarray) else float(value)

        return var, frozenset({name})
    if isinstance(node, Unary):
        children = [node.operand]
    elif isinstance(node, Binary):
        children = [node.left, node.right]
    elif isinstance(node, Call):
        children = list(node.args)
    else:
        raise TypeError(f"not an AST node: {node!r}")
    compiled = [_compile(child) for child in children]
    names = frozenset().union(*(child_names for _, child_names in compiled))
    runs = [
        _shared(run, child, child_names) if names != _TAU_ONLY else run
        for (run, child_names), child in zip(compiled, children)
    ]
    if isinstance(node, Unary):
        (operand,) = runs
        return (lambda bindings: -operand(bindings)), names
    if isinstance(node, Binary):
        left, right = runs
        op, name = _BINARY[node.op], node.op

        def binary(bindings):
            args = a, b = left(bindings), right(bindings)
            if name == "/" and np.any(b == 0.0):
                raise _first_bad("division by zero", b == 0.0, "/", args)
            return _unless_flagged(name, args, op)

        return binary, names
    func = node.func
    by_parameters = func in _Z_ARRAY_BUILTINS

    def call(bindings):
        args = [run(bindings) for run in runs]
        fn = BUILTINS[func][1]
        if isinstance(fn, np.ufunc):
            return _unless_flagged(func, args, sample, fn)
        # the Mittag-Leffler engine clears the flags, and other functions
        # need not set them
        with np.errstate(all="ignore"):
            if by_parameters:
                out = _sample_by_parameters(fn, func, args)
            else:
                out = sample(fn, *args)
            return _checked(out, func, args)

    return call, names


def _call(run: Callable, bindings):
    """run(bindings) under one ``np.errstate`` that raises on overflow,
    division by zero and invalid operations (see :func:`_unless_flagged`);
    a read-only array result (a memoised value, or a read-only binding
    returned as it is) is copied, so callers may write to what they get."""
    with np.errstate(over="raise", divide="raise", invalid="raise", under="ignore"):
        out = run(bindings)
    if isinstance(out, np.ndarray) and not out.flags.writeable:
        return out.copy()
    return out


def evaluate(node: Node, bindings: Mapping[str, float | np.ndarray]):
    """Evaluate an AST under the given variable bindings.

    Bindings are floats or numpy arrays that broadcast together; the
    result is a float or an array of the broadcast shape of the variables
    it uses.  A division by zero, and any operation that makes NaN from
    non-NaN inputs or an infinity from finite inputs (log of a nonpositive
    value, sqrt of a negative one, ``(-2)^0.5``, ``0^-1``, overflow, a
    gamma pole), raise :class:`EvalError` naming the first bad sample.
    Compiles the tree for this one call; :class:`Expression` compiles once.
    """
    run, names = _compile(node)
    return _call(_shared(run, node, names), bindings)


def variables(node: Node) -> set[str]:
    """Names of all variables appearing in the tree."""
    return set(_compile(node)[1])


def to_source(node: Node) -> str:
    """Pretty-print an AST; parse(to_source(ast)) is structurally identical."""
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Unary):
        return f"(-{to_source(node.operand)})"
    if isinstance(node, Binary):
        return f"({to_source(node.left)} {node.op} {to_source(node.right)})"
    if isinstance(node, Call):
        return f"{node.func}({', '.join(to_source(a) for a in node.args)})"
    raise TypeError(f"not an AST node: {node!r}")


class Expression:
    """A parsed expression restricted to a declared variable set, compiled
    once (see :func:`_compile`)."""

    def __init__(self, source: str, allowed: set[str]):
        self.source = source
        self.ast = parse(source)
        run, names = _compile(self.ast)
        extra = names - set(allowed)
        if extra:
            raise ParseError(
                f"undeclared variable(s) {sorted(extra)}; allowed: {sorted(allowed)}"
            )
        self._run = _shared(run, self.ast, names)

    def __call__(self, **bindings):
        """Value at float or numpy-array bindings; see :func:`evaluate`."""
        return _call(self._run, bindings)

    def __repr__(self):
        return f"Expression({self.source!r})"
