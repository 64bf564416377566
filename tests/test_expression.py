import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from abcfde import ml_one, ml_prabhakar, ml_two
from abcfde.errors import ArityError, EvalError, LexError, NonConvergence, ParseError
from abcfde.expression import (
    _BINARY,
    _Z_ARRAY_BUILTINS,
    BUILTINS,
    Binary,
    Call,
    Expression,
    Num,
    Unary,
    Var,
    _first_bad,
    _sample_by_parameters,
    evaluate,
    parse,
    sample,
    takes_arrays,
    to_source,
    tokenize,
    variables,
)


@np.errstate(all="ignore")
def tree_walk(node, bindings):
    """The recursive evaluator that compiled evaluation replaced, kept as
    its oracle: one walk of the tree per call, every node evaluated."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        try:
            value = bindings[node.name]
        except KeyError:
            raise EvalError(f"unbound variable {node.name!r}") from None
        return value if isinstance(value, np.ndarray) else float(value)
    if isinstance(node, Unary):
        return -tree_walk(node.operand, bindings)
    if isinstance(node, Binary):
        args = a, b = tree_walk(node.left, bindings), tree_walk(node.right, bindings)
        if node.op == "/" and np.any(b == 0.0):
            raise _first_bad("division by zero", b == 0.0, "/", args)
        out, name = _BINARY[node.op](a, b), node.op
    elif isinstance(node, Call):
        args = [tree_walk(arg, bindings) for arg in node.args]
        fn, name = BUILTINS[node.func][1], node.func
        if name in _Z_ARRAY_BUILTINS:
            out = _sample_by_parameters(fn, name, args)
        else:
            out = sample(fn, *args)
    else:
        raise TypeError(f"not an AST node: {node!r}")
    if np.isfinite(out).all():
        return out
    nan_in = np.any(np.broadcast_arrays(*map(np.isnan, args)), axis=0)
    finite_in = np.all(np.broadcast_arrays(*map(np.isfinite, args)), axis=0)
    bad = (np.isnan(out) & ~nan_in) | (np.isinf(out) & finite_in)
    if bad.any():
        raise _first_bad("not a real number", bad, name, args)
    return out


def read_only(values) -> np.ndarray:
    out = np.array(values, dtype=float)
    out.flags.writeable = False
    return out


class TestTokenize:
    def test_simple(self):
        kinds = [t.kind for t in tokenize("tau + 2.5*omega")]
        assert kinds == ["ident", "+", "num", "*", "ident"]

    def test_number_with_exponent(self):
        toks = tokenize("1.5e-3")
        assert len(toks) == 1 and toks[0].value == 1.5e-3

    def test_exponent_without_digits_splits(self):
        # "2e" is the number 2 followed by the identifier e
        toks = tokenize("2e")
        assert [t.kind for t in toks] == ["num", "ident"]

    def test_offsets(self):
        toks = tokenize("a  + b")
        assert [t.offset for t in toks] == [0, 3, 5]

    def test_illegal_character(self):
        with pytest.raises(LexError) as exc:
            tokenize("tau @ 2")
        assert exc.value.offset == 4

    def test_empty_source(self):
        assert tokenize("   ") == []


class TestParse:
    def test_precedence(self):
        # * binds tighter than +, ^ tighter than *
        ast = parse("1 + 2 * 3 ^ 2")
        assert ast == Binary(
            "+", Num(1.0), Binary("*", Num(2.0), Binary("^", Num(3.0), Num(2.0)))
        )

    def test_power_right_associative(self):
        ast = parse("2 ^ 3 ^ 2")
        assert ast == Binary("^", Num(2.0), Binary("^", Num(3.0), Num(2.0)))

    def test_unary_minus_binds_looser_than_power(self):
        assert evaluate(parse("-2^2"), {}) == -4.0

    def test_unary_minus_in_exponent(self):
        assert evaluate(parse("2^-1"), {}) == 0.5

    def test_parentheses(self):
        assert evaluate(parse("(1 + 2) * 3"), {}) == 9.0

    def test_call(self):
        ast = parse("mlf2(0.5, 1.5, -tau)")
        assert isinstance(ast, Call)
        assert ast.func == "mlf2" and len(ast.args) == 3

    def test_unknown_function(self):
        with pytest.raises(ParseError):
            parse("sinh(1)")

    def test_wrong_arity(self):
        with pytest.raises(ArityError):
            parse("sin(1, 2)")

    def test_trailing_input(self):
        with pytest.raises(ParseError):
            parse("1 + 2 3")

    def test_unbalanced_paren(self):
        with pytest.raises(ParseError):
            parse("(1 + 2")

    def test_empty(self):
        with pytest.raises(ParseError):
            parse("")

    def test_missing_operand(self):
        with pytest.raises(ParseError):
            parse("1 +")


class TestEvaluate:
    CASES = [
        ("2 + 3 * 4", {}, 14.0),
        ("2 * tau + omega", {"tau": 3.0, "omega": 1.0}, 7.0),
        ("-tau^2", {"tau": 3.0}, -9.0),
        ("exp(0)", {}, 1.0),
        ("sqrt(tau)", {"tau": 4.0}, 2.0),
        ("abs(-2.5)", {}, 2.5),
        ("pow(2, 10)", {}, 1024.0),
        ("gamma(5)", {}, 24.0),
        ("0^0", {}, 1.0),
        ("log(exp(2))", {}, 2.0),
        ("sin(0) + cos(0)", {}, 1.0),
    ]

    @pytest.mark.parametrize("src,env,expected", CASES)
    def test_cases(self, src, env, expected):
        assert evaluate(parse(src), env) == pytest.approx(expected, rel=1e-14)

    def test_mlf_builtins_consistent(self):
        from abcfde import ml_one, ml_prabhakar, ml_two

        env = {"tau": 0.7}
        assert evaluate(parse("mlf1(0.5, -tau)"), env) == ml_one(0.5, -0.7)
        assert evaluate(parse("mlf2(0.5, 1.5, -tau)"), env) == ml_two(0.5, 1.5, -0.7)
        assert evaluate(parse("mlf3(0.5, 1.5, 2, -tau)"), env) == ml_prabhakar(
            0.5, 1.5, 2.0, -0.7
        )

    def test_unbound_variable(self):
        with pytest.raises(EvalError):
            evaluate(parse("tau + 1"), {})

    def test_division_by_zero(self):
        with pytest.raises(EvalError):
            evaluate(parse("1 / (tau - tau)"), {"tau": 2.0})

    def test_log_domain(self):
        with pytest.raises(EvalError):
            evaluate(parse("log(-1)"), {})

    def test_sqrt_domain(self):
        with pytest.raises(EvalError):
            evaluate(parse("sqrt(-1)"), {})

    def test_gamma_pole(self):
        with pytest.raises(EvalError):
            evaluate(parse("gamma(0)"), {})

    def test_fractional_power_of_negative(self):
        with pytest.raises(EvalError):
            evaluate(parse("(-2)^0.5"), {})


class TestArrayEvaluate:
    """One tree walk takes float or numpy-array bindings."""

    # tau > 0 and omega != 0 on the lattice, so every case is in its domain
    TAU = np.linspace(0.1, 3.0, 9)[:, None]
    OMEGA = np.linspace(-2.0, 2.0, 8)
    # every operator and builtin, with the math-module value the scalar
    # evaluator returned before it took arrays
    CASES = [
        ("tau + omega", lambda t, w: t + w),
        ("tau - omega", lambda t, w: t - w),
        ("tau * omega", lambda t, w: t * w),
        ("tau / omega", lambda t, w: t / w),
        ("tau ^ omega", math.pow),
        ("-omega", lambda t, w: -w),
        ("sin(tau * omega)", lambda t, w: math.sin(t * w)),
        ("cos(tau * omega)", lambda t, w: math.cos(t * w)),
        ("exp(tau * omega)", lambda t, w: math.exp(t * w)),
        ("log(tau)", lambda t, w: math.log(t)),
        ("sqrt(tau)", lambda t, w: math.sqrt(t)),
        ("abs(omega)", lambda t, w: abs(w)),
        ("pow(tau, omega)", math.pow),
        ("gamma(tau)", lambda t, w: math.gamma(t)),
        ("mlf1(0.5, -tau)", lambda t, w: ml_one(0.5, -t)),
        ("mlf2(0.5, 1.5, omega)", lambda t, w: ml_two(0.5, 1.5, w)),
        ("mlf3(0.5, 1.5, 2, -tau)", lambda t, w: ml_prabhakar(0.5, 1.5, 2.0, -t)),
    ]

    @pytest.mark.parametrize("src,reference", CASES, ids=[c[0] for c in CASES])
    def test_matches_per_point_within_one_ulp(self, src, reference):
        ast = parse(src)
        taus, omegas = np.broadcast_arrays(self.TAU, self.OMEGA)
        # a result has the broadcast shape of the variables it uses
        out = np.broadcast_to(evaluate(ast, {"tau": self.TAU, "omega": self.OMEGA}), taus.shape)
        points = [(float(t), float(w)) for t, w in zip(taus.ravel(), omegas.ravel())]
        scalar = np.array([evaluate(ast, {"tau": t, "omega": w}) for t, w in points])
        old = np.array([reference(t, w) for t, w in points])
        np.testing.assert_array_max_ulp(out.ravel(), scalar, maxulp=1)
        np.testing.assert_array_max_ulp(out.ravel(), old, maxulp=1)

    def test_constant_stays_scalar(self):
        assert evaluate(parse("2 * 3"), {"tau": self.TAU}) == 6.0

    # each input the scalar evaluator rejected; the bad sample is index 2
    DOMAIN_CASES = [
        ("log(x)", [1.0, 2.0, 0.0, -1.0]),
        ("log(x)", [1.0, 2.0, -1.0, 0.0]),
        ("sqrt(x)", [1.0, 0.0, -1.0, -2.0]),
        ("1 / x", [1.0, 2.0, 0.0, 0.0]),
        ("x ^ 0.5", [4.0, 1.0, -2.0, -3.0]),
        ("x ^ -1", [1.0, 2.0, 0.0, 0.0]),
        ("exp(x)", [0.0, 1.0, 1000.0, 2000.0]),
        ("gamma(x)", [1.5, 2.0, 0.0, -1.0]),
        ("sin(x)", [0.0, 1.0, math.inf, 2.0]),
        ("mlf1(x, -1)", [1.0, 0.5, 0.0, -1.0]),
        ("mlf3(0.5, 1, x, 0.3)", [1.0, 2.0, -1.0, -2.0]),
    ]

    @pytest.mark.parametrize("src,xs", DOMAIN_CASES)
    def test_domain_error_names_first_bad_sample(self, src, xs):
        with pytest.raises(EvalError, match="at sample 2$"):
            evaluate(parse(src), {"x": np.array(xs)})
        with pytest.raises(EvalError):
            evaluate(parse(src), {"x": xs[2]})

    def test_domain_error_on_a_lattice_names_both_indices(self):
        # tau = 0.1 in row 0; omega = 2/7 in column 4 is the first above it
        with pytest.raises(EvalError, match=r"at sample \(0, 4\)$"):
            evaluate(parse("sqrt(tau - omega)"), {"tau": self.TAU, "omega": self.OMEGA})

    @pytest.mark.parametrize(
        "src,scalar",
        [
            ("mlf1(0.6, x)", lambda x: ml_one(0.6, x)),
            ("mlf2(0.6, 1.4, x)", lambda x: ml_two(0.6, 1.4, x)),
            ("mlf3(0.6, 1.4, 2, x)", lambda x: ml_prabhakar(0.6, 1.4, 2.0, x)),
        ],
    )
    def test_mittag_leffler_builtins_match_scalar_calls(self, src, scalar):
        # z on both sides of the series/contour switch
        xs = np.linspace(-30.0, 3.0, 45)
        out = evaluate(parse(src), {"x": xs})
        np.testing.assert_array_equal(out, [scalar(float(x)) for x in xs])

    def test_mittag_leffler_builtins_one_call_per_parameter_tuple(self, monkeypatch):
        # a plain wrapper, as a tracer installs, still gets whole arrays
        calls = []
        arity, fn = BUILTINS["mlf2"]

        def counting(*args):
            calls.append(args)
            return fn(*args)

        monkeypatch.setitem(BUILTINS, "mlf2", (arity, counting))
        alpha = np.array([0.5, 0.7, 0.5, 0.9, 0.7, 0.5])
        z = -np.linspace(0.2, 8.0, 6)
        out = evaluate(parse("mlf2(a, 1.5, z)"), {"a": alpha, "z": z})
        assert [args[0] for args in calls] == [0.5, 0.7, 0.9]
        np.testing.assert_array_equal(out, [ml_two(a, 1.5, x) for a, x in zip(alpha, z)])

    def test_nan_input_passes_through(self):
        # NaN in, NaN out is not a new domain error
        out = evaluate(parse("sin(x) + 1"), {"x": np.array([0.0, math.nan])})
        assert out[0] == 1.0 and math.isnan(out[1])
        out = evaluate(parse("mlf1(0.5, x)"), {"x": np.array([0.0, math.nan])})
        assert out[0] == 1.0 and math.isnan(out[1])


class TestVariables:
    def test_collects_all(self):
        assert variables(parse("tau * omega + sin(m)")) == {"tau", "omega", "m"}

    def test_constant_has_none(self):
        assert variables(parse("1 + exp(2)")) == set()


ROUND_TRIP_SOURCES = [
    "1",
    "1.5",
    "2e3",
    "tau",
    "-tau",
    "--tau",
    "tau + omega",
    "tau - omega",
    "tau * omega",
    "tau / omega",
    "tau ^ omega",
    "tau + omega + m",
    "tau - omega - m",
    "tau * omega * m",
    "tau / omega / m",
    "tau ^ omega ^ m",
    "(tau + omega) * m",
    "tau + omega * m",
    "-(tau + omega)",
    "-tau ^ 2",
    "tau ^ -2",
    "2 ^ 3 ^ 2",
    "(2 ^ 3) ^ 2",
    "sin(tau)",
    "cos(tau + 1)",
    "exp(-tau)",
    "log(tau)",
    "sqrt(tau)",
    "abs(tau - omega)",
    "pow(tau, 2)",
    "gamma(tau + 1)",
    "mlf1(0.5, -tau)",
    "mlf2(0.5, 1.5, -tau)",
    "mlf3(0.5, 1.5, 2, -tau)",
    "1 + 2 * 3 - 4 / 5",
    "sin(cos(exp(tau)))",
    "mlf1(0.5, -tau ^ 0.5) * omega",
    "tau * (1 + omega ^ 2)",
    "(1 - tau) / (1 + tau)",
    "2 * tau ^ 0.5 * mlf3(0.5, 1.5, 2, -tau ^ 0.5)",
    "1 + tau ^ 0.5 * mlf2(0.5, 1.5, -tau ^ 0.5)",
    "omega / (1 + omega ^ 2)",
    "sin(tau) ^ 2 + cos(tau) ^ 2",
    "-1.5e-2 * tau",
    "sqrt(abs(tau - 0.5))",
    "pow(omega, tau)",
    "exp(tau) - 1",
    "gamma(0.5) ^ 2",
    "tau ^ 0.3 / gamma(1.3)",
    "(tau + 1) * (tau + 2) * (tau + 3)",
    "1 / (1 + exp(-tau))",
]


@pytest.mark.parametrize("src", ROUND_TRIP_SOURCES)
def test_round_trip(src):
    ast = parse(src)
    assert parse(to_source(ast)) == ast


class TestExpressionClass:
    def test_call_with_bindings(self):
        e = Expression("tau^2 + omega", {"tau", "omega"})
        assert e(tau=3.0, omega=1.0) == 10.0

    def test_undeclared_variable_rejected(self):
        with pytest.raises(ParseError):
            Expression("tau + x", {"tau", "omega"})

    def test_repr_mentions_source(self):
        assert "2 * tau" in repr(Expression("2 * tau", {"tau"}))


def counting_builtin(monkeypatch, name):
    """Replace BUILTINS[name] by a wrapper; returns the list of z it got."""
    arity, fn = BUILTINS[name]
    seen = []

    def counting(*args):
        seen.append(np.array(args[-1]))
        return fn(*args)

    monkeypatch.setitem(BUILTINS, name, (arity, counting))
    return seen


class TestCompiledEvaluation:
    SRC = "mlf1(0.5, -tau) * omega + sin(tau)"

    def test_tau_subtree_runs_once_per_read_only_tau(self, monkeypatch):
        expr = Expression(self.SRC, {"tau", "omega"})
        # the entry is looked up at call time, so a replacement made after
        # the expression was compiled is the one that runs
        seen = counting_builtin(monkeypatch, "mlf1")
        tau = read_only(np.linspace(0.0, 2.0, 9))
        for omega in (0.5, np.linspace(-1.0, 1.0, 9), 2.0):
            out = expr(tau=tau, omega=omega)
            want = tree_walk(expr.ast, {"tau": tau, "omega": omega})
            assert out.tobytes() == want.tobytes()
        # one call from the expression, three from the oracle
        assert len(seen) == 4
        other = read_only(np.linspace(0.0, 1.0, 9))
        expr(tau=other, omega=1.0)
        assert len(seen) == 5

    def test_writeable_tau_is_never_memoised(self, monkeypatch):
        expr = Expression(self.SRC, {"tau", "omega"})
        seen = counting_builtin(monkeypatch, "mlf1")
        tau = np.linspace(0.0, 2.0, 9)
        first = expr(tau=tau, omega=1.0)
        tau[3] = 5.0
        second = expr(tau=tau, omega=1.0)
        assert len(seen) == 2
        assert second[3] != first[3]
        assert second.tobytes() == tree_walk(expr.ast, {"tau": tau, "omega": 1.0}).tobytes()

    def test_read_only_view_of_a_writeable_array_is_never_memoised(self, monkeypatch):
        expr = Expression(self.SRC, {"tau", "omega"})
        seen = counting_builtin(monkeypatch, "mlf1")
        base = np.linspace(0.0, 2.0, 9)
        tau = base[:]
        tau.flags.writeable = False
        expr(tau=tau, omega=1.0)
        base[3] = 5.0
        out = expr(tau=tau, omega=1.0)
        assert len(seen) == 2
        assert out.tobytes() == tree_walk(expr.ast, {"tau": tau, "omega": 1.0}).tobytes()

    @pytest.mark.parametrize("src", ["2 * tau", "tau", SRC])
    def test_results_are_fresh_and_writeable(self, src):
        expr = Expression(src, {"tau", "omega"})
        tau = read_only(np.linspace(0.0, 2.0, 9))
        first = expr(tau=tau, omega=1.0)
        want = first.copy()
        second = expr(tau=tau, omega=1.0)
        for out in (first, second):
            assert out.flags.writeable
            assert not np.shares_memory(out, tau)
        assert not np.shares_memory(first, second)
        first[:] = -1.0
        assert expr(tau=tau, omega=1.0).tobytes() == want.tobytes()

    def test_domain_error_repeats_on_every_call(self):
        expr = Expression("log(tau - 0.5) * omega", {"tau", "omega"})
        tau = read_only([1.0, 2.0, 0.25, 3.0])
        messages = []
        for _ in range(2):
            with pytest.raises(EvalError, match="at sample 2$") as exc:
                expr(tau=tau, omega=1.0)
            messages.append(str(exc.value))
        assert messages[0] == messages[1]


# Constants that reach the domain edges: 0 (poles, 0^-1, log 0) and 1e200
# (overflow when squared); negatives come from Unary, as to_source prints
# them, so the source of a tree parses back to the same tree.
_NUMS = st.sampled_from([0.0, 0.5, 1.0, 2.0, 2.5, 3.0, 1e200]).map(Num)
_ML_PARAMS = {
    "mlf1": [(0.5,), (0.9,)],
    "mlf2": [(0.5, 1.5), (0.9, 1.0)],
    "mlf3": [(0.5, 1.5, 2.0), (0.7, 1.0, 1.0)],
}


def _calls(kids):
    unary = st.tuples(st.sampled_from(["sin", "cos", "exp", "log", "sqrt", "abs", "gamma"]), kids)
    ml = st.tuples(st.sampled_from(sorted(_ML_PARAMS)), st.integers(0, 1), kids).map(
        lambda t: Call(t[0], tuple(map(Num, _ML_PARAMS[t[0]][t[1]])) + (t[2],))
    )
    return st.one_of(
        unary.map(lambda t: Call(t[0], (t[1],))),
        st.tuples(kids, kids).map(lambda t: Call("pow", t)),
        ml,
    )


_TREES = st.recursive(
    st.one_of(_NUMS, st.sampled_from(["tau", "omega"]).map(Var)),
    lambda kids: st.one_of(
        st.tuples(st.sampled_from("+-*/^"), kids, kids).map(lambda t: Binary(*t)),
        # a leaf denominator is often zero
        st.tuples(kids, st.one_of(_NUMS, st.sampled_from(["tau", "omega"]).map(Var))).map(
            lambda t: Binary("/", *t)
        ),
        kids.map(lambda n: Unary("-", n)),
        _calls(kids),
    ),
    max_leaves=8,
)
_VALUES = st.one_of(
    st.floats(min_value=-4.0, max_value=4.0),
    st.sampled_from([0.0, math.nan, math.inf, -math.inf]),
)
_BINDINGS = st.one_of(
    _VALUES,
    st.lists(_VALUES, min_size=4, max_size=4).map(np.array),
    st.lists(_VALUES, min_size=4, max_size=4).map(read_only),
)


def _outcome(fn):
    try:
        value = fn()
    except (EvalError, NonConvergence) as exc:
        return type(exc), str(exc)
    return type(value), np.shape(value), np.asarray(value).tobytes()


@given(_TREES, _BINDINGS, _BINDINGS)
@settings(max_examples=300, deadline=None)
# an overflow of Python floats, which sets no flag, hidden by a later division
@example(
    Binary("+", Binary("/", Num(1.0), Binary("*", Num(1e200), Num(1e200))), Var("omega")),
    0.5,
    np.array([1.0, 2.0, 3.0, 4.0]),
)
# NaN and inf samples through pow(omega, 0), which is 1 at each
@example(Call("pow", (Var("omega"), Num(0.0))), 0.5, np.array([math.nan, 1.0, math.inf, -2.0]))
@example(Call("pow", (Var("omega"), Num(0.0))), 0.5, math.nan)
def test_compiled_evaluation_matches_the_tree_walk(ast, tau, omega):
    # bitwise values and the same EvalError messages, on the first call
    # and on a second one that may reuse memoised tau subtrees
    bindings = {"tau": tau, "omega": omega}
    want = _outcome(lambda: tree_walk(ast, bindings))
    assert _outcome(lambda: evaluate(ast, bindings)) == want
    expr = Expression(to_source(ast), {"tau", "omega"})
    assert _outcome(lambda: expr(**bindings)) == want
    assert _outcome(lambda: expr(**bindings)) == want


@pytest.mark.parametrize(
    "fn", [lambda x: math.inf, takes_arrays(lambda x: np.full(np.shape(x), math.inf))]
)
def test_replaced_builtin_is_scanned_without_flags(monkeypatch, fn):
    # a replaced entry returns inf at finite samples without setting a
    # flag, so its result is scanned as the tree walk scans it
    monkeypatch.setitem(BUILTINS, "sin", (1, fn))
    ast = Binary("+", Call("sin", (Var("omega"),)), Var("tau"))
    bindings = {"tau": 0.5, "omega": np.array([1.0, 2.0, 3.0, 4.0])}
    want = _outcome(lambda: tree_walk(ast, bindings))
    assert want == (EvalError, "not a real number: sin(1.0) at sample 0")
    assert _outcome(lambda: evaluate(ast, bindings)) == want
    expr = Expression(to_source(ast), {"tau", "omega"})
    assert _outcome(lambda: expr(**bindings)) == want


@pytest.mark.parametrize("at", [0, 2048, 4096])
@pytest.mark.parametrize(
    "src, bad",
    [
        ("sin(omega)", math.inf),
        ("cos(omega)", -math.inf),
        ("exp(omega)", 1000.0),
        ("log(omega)", 0.0),
        ("log(omega)", -1.0),
        ("sqrt(omega)", -1.0),
        ("omega^-1", 0.0),
        ("omega^0.5", -2.0),
        ("pow(omega, 2)", 1e200),
        ("omega * omega", 1e200),
        ("omega - omega", math.inf),
        ("0 * omega", math.inf),
    ],
)
def test_flags_find_one_bad_sample_in_a_long_array(src, bad, at):
    # numpy's vector loops must raise the flag that the scan rests on, at
    # any place of an array as long as a sweep's; each CI job checks its numpy
    omega = np.full(4097, 0.5)
    omega[at] = bad
    want = _outcome(lambda: tree_walk(parse(src), {"omega": omega}))
    assert want[0] is EvalError and want[1].endswith(f"at sample {at}")
    assert _outcome(lambda: Expression(src, {"omega"})(omega=omega)) == want


@given(st.text(max_size=40))
@settings(max_examples=300, deadline=None)
def test_parser_never_crashes(source):
    # arbitrary input either parses or raises a library error, never
    # anything else
    try:
        parse(source)
    except (LexError, ParseError):
        pass


@given(
    st.recursive(
        st.one_of(
            st.floats(
                min_value=0.0, max_value=10.0, allow_nan=False, allow_infinity=False
            ).map(lambda v: Num(v)),
            st.sampled_from(["tau", "omega"]).map(Var),
        ),
        lambda kids: st.one_of(
            st.tuples(st.sampled_from("+-*"), kids, kids).map(
                lambda t: Binary(t[0], t[1], t[2])
            ),
            kids.map(lambda n: Unary("-", n)),
        ),
        max_leaves=12,
    )
)
@settings(max_examples=200, deadline=None)
def test_print_parse_inverse(ast):
    assert parse(to_source(ast)) == ast


@given(
    st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
    st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
)
@settings(max_examples=100, deadline=None)
def test_evaluation_matches_python(tau, omega):
    src = "2 * tau - omega ^ 2 + abs(tau * omega)"
    expected = 2.0 * tau - omega**2 + abs(tau * omega)
    assert evaluate(parse(src), {"tau": tau, "omega": omega}) == pytest.approx(
        expected, rel=1e-14, abs=1e-14
    )


def test_nan_number_literal():
    # "nan" lexes as an identifier, so it is just an unbound variable
    with pytest.raises(EvalError):
        evaluate(parse("nan + 1"), {})


def test_num_repr_round_trip_precision():
    ast = parse(to_source(Num(math.pi)))
    assert ast == Num(math.pi)
