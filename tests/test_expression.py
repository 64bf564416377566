import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abcfde import ml_one, ml_prabhakar, ml_two
from abcfde.errors import ArityError, EvalError, LexError, ParseError
from abcfde.expression import (
    BUILTINS,
    Binary,
    Call,
    Expression,
    Num,
    Unary,
    Var,
    evaluate,
    parse,
    to_source,
    tokenize,
    variables,
)


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
