"""Expression parser: precedence, vectorization, and error positions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bridgegp import ExpressionError, compile_expression


def ev(text, x, dim=1, params=None, declared=()):
    return compile_expression(text, dim, declared)(x, params)


class TestPrecedence:
    def test_power_right_associative(self):
        assert ev("2^3^2", 0.0)[0] == 512.0

    def test_unary_minus_binds_below_power(self):
        assert ev("-2^2", 0.0)[0] == -4.0
        assert ev("(-2)^2", 0.0)[0] == 4.0

    def test_power_negative_exponent(self):
        assert ev("2^-2", 0.0)[0] == 0.25

    def test_left_associative_sub_div(self):
        assert ev("8-3-2", 0.0)[0] == 3.0
        assert ev("16/4/2", 0.0)[0] == 2.0

    def test_mul_over_add(self):
        assert ev("2+3*4", 0.0)[0] == 14.0
        assert ev("(2+3)*4", 0.0)[0] == 20.0

    def test_matches_python_eval(self, rng):
        # Same precedence as python once ^ is rewritten to **.
        cases = [
            "x*(1-x)",
            "sin(pi*x)+cos(2*pi*x)/3",
            "exp(-(x-0.25)^2)",
            "2^x^2",
            "-x^2+x/2-1",
            "1/(1+x)",
        ]
        xs = rng.uniform(size=50)
        env = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "pi": np.pi, "e": np.e}
        for text in cases:
            got = ev(text, xs)
            want = eval(text.replace("^", "**"), dict(env), {"x": xs})
            np.testing.assert_allclose(got, want, rtol=1e-14)


class TestNames:
    def test_constants(self):
        assert ev("pi", 0.0)[0] == np.pi
        assert ev("e", 0.0)[0] == np.e

    def test_coordinates_by_dimension(self):
        pts = np.array([[0.1, 0.9], [0.4, 0.2]])
        np.testing.assert_array_equal(ev("x1", pts, dim=2), pts[:, 0])
        np.testing.assert_array_equal(ev("x2", pts, dim=2), pts[:, 1])
        # x and x1 are synonyms in one dimension
        np.testing.assert_array_equal(ev("x", [0.3, 0.7]), ev("x1", [0.3, 0.7]))

    def test_unknown_coordinate_rejected(self):
        with pytest.raises(ExpressionError):
            compile_expression("x3", 2)
        with pytest.raises(ExpressionError):
            compile_expression("x", 2)
        with pytest.raises(ExpressionError):
            compile_expression("y", 1)

    def test_parameters(self):
        expr = compile_expression("a*sin(pi*x)+b", 1, ("a", "b"))
        assert expr.used_parameters == ("a", "b")
        out = expr(np.array([0.5]), {"a": 2.0, "b": 1.0})
        assert out[0] == pytest.approx(3.0, abs=1e-15)

    def test_missing_parameter_value(self):
        expr = compile_expression("a*x", 1, ("a",))
        with pytest.raises(ExpressionError):
            expr(np.array([0.5]))

    def test_unused_declared_parameter_ok(self):
        expr = compile_expression("x", 1, ("a",))
        assert expr.used_parameters == ()
        expr(np.array([0.5]))  # no value needed

    def test_parameter_shadowing_builtin_rejected(self):
        with pytest.raises(ExpressionError):
            compile_expression("pi*x", 1, ("pi",))


class TestVectorization:
    def test_batch_shapes(self):
        expr = compile_expression("x1+x2", 2)
        pts = np.array([[0.0, 1.0], [0.25, 0.5]])
        np.testing.assert_array_equal(expr(pts), [1.0, 0.75])
        # a single (d,) point works too
        np.testing.assert_array_equal(expr(np.array([0.25, 0.5])), [0.75])

    def test_constant_broadcasts(self):
        out = ev("3.5", np.linspace(0, 1, 7))
        np.testing.assert_array_equal(out, np.full(7, 3.5))

    def test_shape_mismatch_rejected(self):
        expr = compile_expression("x1", 2)
        with pytest.raises(ExpressionError):
            expr(np.zeros((4, 3)))
        with pytest.raises(ExpressionError, match="coordinate arrays"):
            expr((np.zeros(3),))
        with pytest.raises(ExpressionError, match="do not broadcast"):
            expr((np.zeros(3), np.zeros(4)))

    @pytest.mark.parametrize("dim, text", [
        (3, "x1+x2-x3*x1/(1+x2)"),
        (3, "(x1+0.5)^(x2*2)*2^-x3"),
        (3, "-sin(pi*x1)*cos(2*pi*x2)*exp(-x3^2/e)"),
        (3, "a*exp(-((x1-c)^2+(x2-c)^2+(x3-c)^2)/b)"),
        (2, "sin(k*pi*x1)*sin(pi*x2)+1/(x1+1)"),
        (2, "-(x2-0.3)^2/b"),
        (3, "cos(x2)"),
        (3, "2*pi+e"),
        (1, "x*(1-x)-exp(a*x)"),
    ])
    def test_axes_give_the_bits_of_the_points(self, rng, dim, text):
        # a tensor grid's axes, shaped to broadcast, against its points
        params = {"a": 1.3, "b": 0.02, "c": 0.4, "k": 3}
        expr = compile_expression(text, dim, tuple(params))
        m = 7 + dim
        axis = np.sort(rng.uniform(size=m))
        axes = tuple(axis.reshape((1,) * k + (m,) + (1,) * (dim - 1 - k)) for k in range(dim))
        points = np.stack(np.meshgrid(*[axis] * dim, indexing="ij"), axis=-1).reshape(-1, dim)
        got = expr(axes, params)
        assert got.shape == (m,) * dim and not got.flags.writeable
        assert np.array_equal(got.reshape(-1), expr(points, params))


class TestErrors:
    def test_position_reported(self):
        with pytest.raises(ExpressionError) as err:
            compile_expression("x + $", 1)
        assert err.value.position == 4

    def test_unknown_name_position(self):
        with pytest.raises(ExpressionError) as err:
            compile_expression("sin(pi*x) + bogus", 1)
        assert err.value.position == 12

    def test_unknown_function(self):
        with pytest.raises(ExpressionError):
            compile_expression("tan(x)", 1)

    def test_unbalanced_parens(self):
        with pytest.raises(ExpressionError):
            compile_expression("(x+1", 1)
        with pytest.raises(ExpressionError):
            compile_expression("x+1)", 1)

    def test_truncated_expression(self):
        with pytest.raises(ExpressionError):
            compile_expression("x+", 1)

    def test_empty(self):
        with pytest.raises(ExpressionError):
            compile_expression("   ", 1)

    def test_bad_dimension(self):
        with pytest.raises(ExpressionError):
            compile_expression("x", 4)


class TestPythonParser:
    """Python's parser reads the text; only the grammar's nodes pass."""

    @pytest.mark.parametrize("text, position", [
        ("x^2^3 + y", 8),  # mapped back across each '^'
        ("x^2 + (1", 6),  # Python's syntax-error offset
        ("x**2", 1),  # '^' is the power
        (" \n bogus", 3),  # leading blanks count
        ("x + 007", 4),  # an integer with leading zeros
        ("2*\u0663", 2),  # a non-ASCII digit
    ])
    def test_error_position(self, text, position):
        with pytest.raises(ExpressionError) as err:
            compile_expression(text, 1)
        assert err.value.position == position

    @pytest.mark.parametrize("text", ["(sin)(x)", "sin()", "x.real", "x//2", "1_0", "0x1",
                                      "1j", "True", "...", "not x", "x if x else 1", "sin(*x)"])
    def test_python_outside_the_grammar_rejected(self, text):
        with pytest.raises(ExpressionError):
            compile_expression(text, 1)

    def test_blanks_anywhere(self):
        assert ev(" \n\t x^2 +\n 1 ", 0.5)[0] == 1.25
        assert ev("sin (x)", 0.5)[0] == np.sin(0.5)

    def test_integer_with_leading_zeros_rejected(self):
        with pytest.raises(ExpressionError, match="leading zeros"):
            compile_expression("007", 1)
        assert ev("007.5 + 00 + 0", 0.0)[0] == 7.5

    @pytest.mark.parametrize("name", ["in", "if", "lambda", "None"])
    def test_keyword_parameter_rejected(self, name):
        with pytest.raises(ExpressionError, match="Python keywords"):
            compile_expression("x", 1, (name,))

    def test_soft_keyword_parameter_allowed(self):
        assert ev("match*x", 0.5, params={"match": 2.0}, declared=("match",))[0] == 1.0


class TestDepth:
    @pytest.mark.parametrize("text", ["(" * 2000 + "x" + ")" * 2000, "-" * 5000 + "x",
                                      "+".join(["x"] * 20000)],
                             ids=["parentheses", "unary-minus", "sum"])
    def test_too_deep_is_an_expression_error(self, text):
        with pytest.raises(ExpressionError):
            compile_expression(text, 1)

    def test_long_chains_evaluate(self):
        assert ev("+".join(["x"] * 2000), 0.5)[0] == 1000.0
        assert ev("-" * 1000 + "x", 0.5)[0] == 0.5
        assert ev("(" * 150 + "x" + ")" * 150, 0.5)[0] == 0.5


# Differential test against Python's own evaluation of the same text.
# Literals are floats, so Python's `**` never builds a huge integer.
_NUMBERS = ["0.0", "2.0", "0.5", ".25", "3.", "1e-3", "2.5E+1", "007.5"]
_PARAMS = ["a", "k_2", "theta"]
_ALPHABET = "0123456789.+-*/^() \nxe_sincopak"
_BLANKS = st.sampled_from(["", "", " ", "\n ", "\t"])


def _expressions(dim):
    coords = ["x", "x1"] if dim == 1 else [f"x{i}" for i in range(1, dim + 1)]
    leaves = st.sampled_from(_NUMBERS + coords + ["pi", "e"] + _PARAMS)

    def grow(inner):
        return st.one_of(
            st.tuples(inner, _BLANKS, st.sampled_from("+-*/^"), _BLANKS, inner).map("".join),
            st.tuples(st.sampled_from("+-"), inner).map("".join),
            st.tuples(st.sampled_from(["sin(", "cos(", "exp("]), inner).map(
                lambda t: t[0] + t[1] + ")"),
            inner.map(lambda t: f"({t})"),
            st.tuples(st.sampled_from("+-*/^"), st.lists(inner, min_size=2, max_size=60)).map(
                lambda t: t[0].join(t[1])),
        )

    return st.tuples(_BLANKS, st.recursive(leaves, grow, max_leaves=40)).map(
        lambda t: (t[0] + t[1], dim))


_GRAMMAR = st.one_of([_expressions(dim) for dim in (1, 2, 3)])


def _points(dim, params):
    rng = np.random.default_rng(7)
    return rng.uniform(size=(5, dim)), {p: float(v) for p, v in zip(params, rng.normal(size=3))}


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(_GRAMMAR)
def test_grammar_expressions_match_python_eval(case):
    text, dim = case
    pts, values = _points(dim, _PARAMS)
    env = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "pi": np.pi, "e": np.e, **values}
    env.update({f"x{i + 1}": pts[:, i] for i in range(dim)}, x=pts[:, 0])
    expr = compile_expression(text, dim, _PARAMS)
    try:
        got = expr(pts, values)
    except ZeroDivisionError:
        got = None
    try:
        with np.errstate(all="ignore"):
            want = eval(" ".join(text.replace("^", "**").split()), env)
    except ArithmeticError:
        return  # Python raises where np.power gives inf
    assert got is not None, f"{text!r} raised where Python does not"
    want = np.broadcast_to(want, got.shape)
    if not np.iscomplexobj(want):  # a negative base to a fractional power
        np.testing.assert_allclose(got, want, rtol=1e-9, equal_nan=True, err_msg=text)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.text(alphabet=_ALPHABET, max_size=30), st.integers(1, 3),
       st.lists(st.sampled_from(_PARAMS), unique=True, max_size=2))
def test_any_string_compiles_or_raises_expression_error(text, dim, params):
    try:
        expr = compile_expression(text, dim, params)
    except ExpressionError:
        return
    pts, values = _points(dim, params)
    try:
        assert expr(pts, values).shape == (5,)
    except ZeroDivisionError:
        pass  # float division of two constants, as in Python
