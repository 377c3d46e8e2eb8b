"""Kernel expression language: parsing, printing, evaluation, faults."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from odkirch import kernel
from odkirch.errors import KernelEvalError, KernelSyntaxError
from odkirch.kernel import MAX_TOKENS, eval_kernel, kernel_to_string, parse_kernel

from conftest import load_corpus


def py_eval(text, s, t):
    """Independent oracle: hand the same surface syntax to Python itself."""
    env = {
        "s": s, "t": t,
        "exp": math.exp, "log": math.log, "sqrt": math.sqrt,
        "abs": abs, "min": min, "max": max,
    }
    return eval(text.replace("^", "**"), {"__builtins__": {}}, env)


S, T = ("s",), ("t",)


def num(value):
    return ("num", float(value))


class TestParsing:
    def test_precedence(self):
        assert parse_kernel("1 + 2 * 3") == ("+", num(1), ("*", num(2), num(3)))
        assert parse_kernel("2 * 3 ^ 2") == ("*", num(2), ("^", num(3), num(2)))

    def test_left_associativity(self):
        assert parse_kernel("1 - 2 - 3") == ("-", ("-", num(1), num(2)), num(3))
        assert parse_kernel("8 / 4 / 2") == ("/", ("/", num(8), num(4)), num(2))

    def test_power_right_associative(self):
        assert parse_kernel("2 ^ 3 ^ 2") == ("^", num(2), ("^", num(3), num(2)))
        assert eval_kernel(parse_kernel("2^3^2"), 1.0, 1.0) == 512.0

    def test_unary_minus_binds_looser_than_power(self):
        # -s^2 is -(s^2), not (-s)^2.
        assert parse_kernel("-s^2") == ("neg", ("^", S, num(2)))
        assert eval_kernel(parse_kernel("-s^2"), 3.0, 0.0) == -9.0
        assert eval_kernel(parse_kernel("(-s)^2"), 3.0, 0.0) == 9.0

    def test_power_with_signed_exponent(self):
        assert parse_kernel("s^-1") == ("^", S, ("neg", num(1)))
        assert eval_kernel(parse_kernel("s^-1"), 4.0, 0.0) == 0.25

    def test_calls(self):
        assert parse_kernel("min(s, t)") == ("min", S, T)
        assert parse_kernel("exp(-s)") == ("exp", ("neg", S))

    def test_scientific_notation(self):
        assert parse_kernel("2e-3") == num(0.002)
        assert parse_kernel("1.5E2") == num(150)
        assert parse_kernel(".5") == num(0.5)

    def test_whitespace_insensitive(self):
        assert parse_kernel(" 1+ s *t ") == parse_kernel("1+s*t")


# log(s - 1), 6 tokens, inside a chain of minus signs, a sum, nested
# parentheses and a tower of powers, each as deep as MAX_TOKENS allows;
# then the same four forms too long to parse, and one token past the cap.
LOG = "log(s-1)"
AT_CAP = ["-" * 194 + LOG, "s+" * 97 + LOG, "(" * 97 + LOG + ")" * 97, "s^" * 97 + LOG]
PAST_CAP = ["-" * 3000 + "s", "+".join(["s"] * 400), "(" * 1500 + "s" + ")" * 1500,
            "^".join(["s"] * 2001), "s+" * 100 + "s"]
DEEP_IDS = ["minus-chain", "sum", "parentheses", "tower"]


class TestSyntaxErrors:
    @pytest.mark.parametrize(
        "text,offset",
        [
            ("1 + @", 4),
            ("(s + t", 6),
            ("s +", 3),
            ("min(s)", 0),
            ("foo(s)", 0),
            ("s t", 2),
            ("", 0),
            ("   ", 0),
            ("1e999", 0),
        ],
    )
    def test_error_offsets(self, text, offset):
        with pytest.raises(KernelSyntaxError) as exc:
            parse_kernel(text)
        assert exc.value.offset == offset
        assert exc.value.expected  # always says what it wanted

    def test_unknown_variable_named(self):
        with pytest.raises(KernelSyntaxError, match="unknown identifier 'x'"):
            parse_kernel("x + 1")

    @pytest.mark.parametrize("text", PAST_CAP, ids=DEEP_IDS + ["one-past"])
    def test_longer_kernel_is_an_error(self, text):
        # Every token is one character: the first past the cap is at offset
        # MAX_TOKENS.
        with pytest.raises(KernelSyntaxError, match=f"longer than {MAX_TOKENS} tokens") as exc:
            parse_kernel(text)
        assert exc.value.offset == MAX_TOKENS


class TestRoundTrip:
    def test_corpus_round_trips(self, corpus):
        for text in corpus:
            tree = parse_kernel(text)
            printed = kernel_to_string(tree)
            assert parse_kernel(printed) == tree, text
            assert len(kernel._tokenize(printed)) <= len(kernel._tokenize(text)), text

    def test_corpus_semantics_stable(self, corpus):
        rng = np.random.default_rng(3)
        for text in corpus:
            tree = parse_kernel(text)
            printed = kernel_to_string(tree)
            for _ in range(3):
                s = float(rng.uniform(0.2, 3.0))
                t = float(rng.uniform(0.2, 3.0))
                assert eval_kernel(parse_kernel(printed), s, t) == eval_kernel(tree, s, t)

    def test_corpus_matches_python(self, corpus):
        rng = np.random.default_rng(5)
        for text in corpus:
            tree = parse_kernel(text)
            for _ in range(3):
                s = float(rng.uniform(0.5, 2.5))
                t = float(rng.uniform(0.5, 2.5))
                assert eval_kernel(tree, s, t) == pytest.approx(
                    py_eval(text, s, t), rel=1e-12, abs=1e-12
                ), text


def random_trees(max_depth=4):
    """Hypothesis strategy over kernel syntax trees."""
    leaves = st.one_of(
        st.floats(0.1, 5.0).map(lambda v: num(repr(v))),
        st.sampled_from([S, T]),
    )

    def extend(children):
        return st.one_of(
            st.tuples(st.sampled_from("+-*"), children, children),
            children.map(lambda c: ("neg", c)),
            st.tuples(st.sampled_from(["exp", "abs"]), children),
            st.tuples(st.sampled_from(["min", "max"]), children, children),
        )

    return st.recursive(leaves, extend, max_leaves=12)


class TestPrinterProperties:
    @given(tree=random_trees())
    @settings(max_examples=200, deadline=None)
    def test_print_parse_is_identity(self, tree):
        assert parse_kernel(kernel_to_string(tree)) == tree

    @given(tree=random_trees(), s=st.floats(0.1, 4.0), t=st.floats(0.1, 4.0))
    @settings(max_examples=100, deadline=None)
    def test_printed_text_evaluates_identically(self, tree, s, t):
        try:
            want = eval_kernel(tree, s, t)
        except KernelEvalError:
            return  # tree overflows at this point; nothing to compare
        got = eval_kernel(parse_kernel(kernel_to_string(tree)), s, t)
        assert got == want


# Points where no corpus kernel has a kink (s != t, s != 2t, s != 1, 9, 10)
# and the direction of the slope, that of the ray t = 0.6 s.
SLOPE_POINTS = [(0.7, 0.45), (1.9, 1.3), (3.3, 2.45)]
SLOPE_DIRECTION = (1.0, 0.6)


def central_difference(tree, s, t, step=1e-6):
    ds, dt = SLOPE_DIRECTION
    up = eval_kernel(tree, s + step * ds, t + step * dt)
    down = eval_kernel(tree, s - step * ds, t - step * dt)
    return (up - down) / (2.0 * step)


def assert_slope_matches(tree, s, t):
    """The slope against a central difference, to 1e-6 relative; the floor
    1e-8 |M| is the round-off of the difference of two values of size M."""
    value, slope = eval_kernel(tree, s, t, slope=SLOPE_DIRECTION)
    assert value == eval_kernel(tree, s, t)
    want = central_difference(tree, s, t)
    assert abs(slope - want) <= 1e-6 * abs(want) + 1e-8 * abs(value), (
        kernel_to_string(tree), s, t, slope, want)


class TestSlope:
    """The slope column of _OPS: the derivative along (ds, dt)."""

    def test_corpus_matches_central_difference(self, corpus):
        for text in corpus:
            tree = parse_kernel(text)
            for s, t in SLOPE_POINTS:
                assert_slope_matches(tree, s, t)

    @given(tree=random_trees(), s=st.floats(0.1, 4.0), t=st.floats(0.1, 4.0))
    @settings(max_examples=200, deadline=None)
    def test_random_trees_match_central_difference(self, tree, s, t):
        # Away from kinks: both one-sided differences over 1e-6 agree.
        step = 1e-6
        try:
            value = eval_kernel(tree, s, t)
            ahead = central_difference(tree, s + step, t + 0.6 * step)
            behind = central_difference(tree, s - step, t - 0.6 * step)
        except KernelEvalError:
            assume(False)
        assume(abs(ahead - behind) <= 1e-7 * (abs(ahead) + abs(value)))
        assert_slope_matches(tree, s, t)

    def test_arrays_match_scalars(self, corpus):
        s = np.array([p[0] for p in SLOPE_POINTS])
        t = np.array([p[1] for p in SLOPE_POINTS])
        for text in corpus:
            tree = parse_kernel(text)
            values, slopes = eval_kernel(tree, s, t, slope=SLOPE_DIRECTION)
            assert values.tobytes() == eval_kernel(tree, s, t).tobytes()
            for i in range(len(s)):
                assert slopes[i] == eval_kernel(tree, s[i], t[i], slope=SLOPE_DIRECTION)[1]

    @pytest.mark.parametrize("text, s, t, direction, slope", [
        ("abs(s - 1)", 1.0, 0.0, (1.0, 0.0), 1.0),
        ("abs(s - 1)", 1.0, 0.0, (-2.0, 0.0), 2.0),
        ("abs(s - t)", 2.0, 2.0, (1.0, 0.5), 0.5),
        ("min(s, t)", 2.0, 2.0, (1.0, 0.5), 0.5),
        ("min(s, t)", 2.0, 2.0, (1.0, 3.0), 1.0),
        ("max(s, t)", 2.0, 2.0, (1.0, 0.5), 1.0),
        ("max(s, 2*t)", 2.0, 1.0, (-1.0, 0.25), 0.5),
        ("min(max(s, 1), 10)", 1.0, 0.0, (1.0, 0.0), 1.0),
        ("min(max(s, 1), 10)", 1.0, 0.0, (-1.0, 0.0), 0.0),
        ("max(0.1, 1 - s/10)", 9.0, 0.0, (1.0, 0.0), 0.0),
    ])
    def test_one_sided_at_kinks(self, text, s, t, direction, slope):
        # The derivative for a small step forward along the direction, which
        # a one-sided difference reproduces exactly for these piecewise
        # linear kernels.
        tree = parse_kernel(text)
        value, got = eval_kernel(tree, s, t, slope=direction)
        step = 2.0 ** -20
        ahead = eval_kernel(tree, s + step * direction[0], t + step * direction[1])
        assert got == slope == (ahead - value) / step

    def test_non_finite_slope_is_no_error(self):
        # sqrt at 0: the value is finite, its slope is not.
        tree = parse_kernel("sqrt(s - 1e-8)")
        assert eval_kernel(tree, 1e-8, 0.0, slope=(1.0, 0.0)) == (0.0, math.inf)
        values, slopes = eval_kernel(tree, np.array([1e-8, 1.0]), 0.0, slope=(1.0, 0.0))
        assert values[0] == 0.0 and slopes[0] == math.inf
        assert slopes[1] == pytest.approx(0.5)

    def test_constant_and_faults(self):
        assert eval_kernel(parse_kernel("2^-2"), np.ones(3), 1.0,
                           slope=(1.0, 1.0))[1].tolist() == [0.0] * 3
        with pytest.raises(KernelEvalError) as exc:
            eval_kernel(parse_kernel("1/(s - 1)"), 1.0, 0.0, slope=(1.0, 0.0))
        assert exc.value.subexpr == "1.0/(s - 1.0)"


class TestDepth:
    @pytest.mark.parametrize("text", AT_CAP, ids=DEEP_IDS)
    def test_deepest_kernels_evaluate_and_fault(self, text):
        assert len(kernel._tokenize(text)) == MAX_TOKENS + 1  # and the end token
        tree = parse_kernel(text)
        printed = kernel_to_string(tree)
        assert parse_kernel(printed) == tree
        assert len(kernel._tokenize(printed)) <= len(kernel._tokenize(text))
        assert_slope_matches(tree, 1.2, 0.5)
        with pytest.raises(KernelEvalError) as exc:
            eval_kernel(tree, 1.0, 0.5, slope=SLOPE_DIRECTION)
        assert (exc.value.subexpr, exc.value.point) == ("log(s - 1.0)", (1.0, 0.5))


class TestCompileCache:
    def test_equal_texts_share_one_closure(self):
        first, second = parse_kernel("exp(-s)"), parse_kernel(" exp( - s ) ")
        assert first == second and first is not second
        kernel._compile.cache_clear()
        closure = kernel._compile(first)
        # One miss per distinct subtree: exp(-s), -s and s.
        assert kernel._compile.cache_info()[:2] == (0, 3)
        assert kernel._compile(second) is closure
        assert kernel._compile.cache_info()[:2] == (1, 3)


class TestEvaluation:
    def test_scalar_returns_float(self):
        out = eval_kernel(parse_kernel("s + t"), 1.0, 2.0)
        assert isinstance(out, float) and out == 3.0

    def test_array_broadcast(self):
        tree = parse_kernel("s * t")
        s = np.array([1.0, 2.0, 3.0])
        out = eval_kernel(tree, s, 2.0)
        assert np.array_equal(out, np.array([2.0, 4.0, 6.0]))

    def test_two_array_broadcast(self):
        tree = parse_kernel("s + t")
        out = eval_kernel(tree, np.array([[1.0], [2.0]]), np.array([10.0, 20.0]))
        assert out.shape == (2, 2)
        assert np.array_equal(out, np.array([[11.0, 21.0], [12.0, 22.0]]))

    def test_division_by_zero_fault(self):
        with pytest.raises(KernelEvalError) as exc:
            eval_kernel(parse_kernel("1 / (s - 1)"), 1.0, 0.0)
        assert exc.value.subexpr == "1.0/(s - 1.0)"
        assert exc.value.point == (1.0, 0.0)

    def test_log_of_negative_fault(self):
        with pytest.raises(KernelEvalError) as exc:
            eval_kernel(parse_kernel("log(s - 2)"), 1.0, 0.0)
        assert "log" in exc.value.subexpr

    def test_overflow_fault(self):
        with pytest.raises(KernelEvalError):
            eval_kernel(parse_kernel("exp(s)"), 1e4, 0.0)

    def test_fault_points_to_first_bad_sample(self):
        tree = parse_kernel("sqrt(s - 2)")
        with pytest.raises(KernelEvalError) as exc:
            eval_kernel(tree, np.array([3.0, 1.0, 0.5]), 0.0)
        assert exc.value.point[0] == 1.0

    def test_battery_kernels_evaluate(self, battery):
        for case in battery["cases"]:
            tree = parse_kernel(case["kernel"])
            val = eval_kernel(tree, 1.0, 1.0)
            assert math.isfinite(val) and val > 0.0



def parity_trees():
    """Trees over every operation, with literals that make 1/0, log(0),
    exp overflow and 1^inf reachable."""
    leaves = st.one_of(
        st.sampled_from([0.0, 0.5, 1.0, 2.0, 1000.0]).map(num),
        st.floats(0.1, 5.0).map(lambda v: num(repr(v))),
        st.sampled_from([S, T]),
    )

    def extend(children):
        return st.one_of(
            st.tuples(st.sampled_from("+-*/^"), children, children),
            children.map(lambda c: ("neg", c)),
            st.tuples(st.sampled_from(["exp", "log", "sqrt", "abs"]), children),
            st.tuples(st.sampled_from(["min", "max"]), children, children),
        )

    return st.recursive(leaves, extend, max_leaves=10)


def _walk(node, s, t):
    """Walk the tree, checking every node: the reference evaluator."""
    op, *args = node
    if op == "num":
        v = np.float64(args[0])
    elif op in kernel.VARIABLES:
        v = s if op == "s" else t
    else:
        v = kernel._OPS[op].fn(*[_walk(c, s, t) for c in args])
    if not np.all(np.isfinite(v)):
        raise KernelEvalError("non-finite value", kernel_to_string(node),
                              kernel._first_bad(v, s, t))
    return v


def walk(tree, s, t):
    """The node-by-node tree walk on the broadcast operands."""
    s_b, t_b = np.broadcast_arrays(np.atleast_1d(np.asarray(s, dtype=float)),
                                   np.atleast_1d(np.asarray(t, dtype=float)))
    with np.errstate(all="ignore"):
        return np.broadcast_to(_walk(tree, s_b, t_b), s_b.shape)


def assert_parity(tree, s, t):
    """eval_kernel returns the walk's bits, or raises the walk's error."""
    try:
        want = walk(tree, s, t)
    except KernelEvalError as exc:
        with pytest.raises(KernelEvalError) as got:
            eval_kernel(tree, s, t)
        assert str(got.value) == str(exc)
        assert got.value.subexpr == exc.subexpr
        assert np.array_equal(got.value.point, exc.point, equal_nan=True)
        return
    got = np.asarray(eval_kernel(tree, s, t), dtype=float)
    shape = np.broadcast_shapes(np.shape(s), np.shape(t))
    assert got.shape == shape
    assert got.tobytes() == np.ascontiguousarray(want.reshape(shape)).tobytes()


PARITY_S = np.array([-2.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0])
PARITY_T = np.array([-1.0, 0.0, 0.25, 1.0, 4.0])


class TestCompiledParity:
    """The compiled closure against the node-by-node walk, bit for bit: the
    values, and each fault's message, subexpression and point."""

    def test_corpus_scalars_and_arrays(self, corpus):
        for text in corpus:
            tree = parse_kernel(text)
            for s in PARITY_S:
                for t in PARITY_T:
                    assert_parity(tree, float(s), float(t))
            assert_parity(tree, PARITY_S, 0.5)
            assert_parity(tree, PARITY_S[1:], PARITY_S[:-1])
            assert_parity(tree, PARITY_S[:, None], PARITY_T[None, :])

    @given(tree=parity_trees(),
           s=st.floats(-4.0, 4.0), t=st.floats(-4.0, 4.0))
    @settings(max_examples=200, deadline=None)
    def test_random_trees_at_scalars(self, tree, s, t):
        assert_parity(tree, s, t)

    @given(tree=parity_trees(),
           s=st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=6),
           t=st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_random_trees_on_broadcast_arrays(self, tree, s, t):
        assert_parity(tree, np.array(s)[:, None], np.array(t)[None, :])

    @pytest.mark.parametrize("text, s, subexpr", [
        # A non-finite operand each of /, exp, min, max and ^ turns finite.
        ("1/(1/(s-s))", 1.0, "1.0/(s - s)"),
        ("exp(-exp(1000*s))", 1.0, "exp(1000.0*s)"),
        ("min(exp(1000), s)", 1.0, "exp(1000.0)"),
        ("max(-1/(s-s), t)", 1.0, "-1.0/(s - s)"),
        ("1^(1/(s-s))", 1.0, "1.0/(s - s)"),
    ])
    def test_absorbed_non_finite_still_raises(self, text, s, subexpr):
        tree = parse_kernel(text)
        with pytest.raises(KernelEvalError) as exc:
            eval_kernel(tree, s, 2.0)
        assert exc.value.subexpr == subexpr
        assert exc.value.point == (s, 2.0)
        assert_parity(tree, s, 2.0)
        assert_parity(tree, np.array([0.5, s]), np.array([2.0, 2.0]))

    @pytest.mark.parametrize("text, subexpr", [
        # Children run left to right before their node, so the first fault
        # named is the walk's: the left operand's, and a child's before its
        # parent's.
        ("log(s - 3) + 1/(s - s)", "log(s - 3.0)"),
        ("1/(s - s) - log(s - 3)", "1.0/(s - s)"),
        ("max(exp(1000*s), log(-s))", "exp(1000.0*s)"),
        ("sqrt(log(s - 3))", "log(s - 3.0)"),
    ])
    def test_first_fault_in_walk_order(self, text, subexpr):
        tree = parse_kernel(text)
        with pytest.raises(KernelEvalError) as exc:
            eval_kernel(tree, 1.0, 2.0)
        assert exc.value.subexpr == subexpr
        assert_parity(tree, 1.0, 2.0)
        assert_parity(tree, np.array([0.5, 1.0]), np.array([2.0, 3.0]))

    @pytest.mark.parametrize("text, s, t, subexpr", [
        # A non-finite input is named as its leaf, before any node above it.
        ("1/s", math.inf, 1.0, "s"),
        ("exp(-t)", 1.0, -math.inf, "t"),
        ("min(s, 1)", math.nan, 1.0, "s"),
    ])
    def test_non_finite_input_names_its_leaf(self, text, s, t, subexpr):
        tree = parse_kernel(text)
        with pytest.raises(KernelEvalError) as exc:
            eval_kernel(tree, s, t)
        assert exc.value.subexpr == subexpr
        assert np.array_equal(exc.value.point, (s, t), equal_nan=True)
        assert_parity(tree, np.array([0.5, s]), t)

    def test_empty_grid_has_no_fault(self, corpus):
        for text in corpus:
            tree = parse_kernel(text)
            assert eval_kernel(tree, PARITY_S[:, None], PARITY_T[:0]).shape == (7, 0)
            assert_parity(tree, PARITY_S[:, None], PARITY_T[:0])
