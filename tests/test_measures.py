import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from horolab import measures
from horolab.fitting import LiteralParseError
from horolab.measures import (
    ABS_BLOCK,
    DEFAULT_TAIL_TOL,
    SAMPLE_BLOCK,
    Convolution,
    DiracMass,
    FractalMeasure,
    LebesgueUnit,
    b_of_s,
    cvy_bound_for_measure,
    cvy_lower_bound,
    default_sample_depth,
    estimate_dim_l1,
    fourier_abs,
    fourier_transform,
    l1_partial_sum,
    parse_measure,
    product_depth,
    sample,
    support_radius,
    symbol_g,
)

CANTOR3 = FractalMeasure(3, (0, 2))
CANTOR10 = FractalMeasure(10, tuple(range(10)))
CANTOR450 = FractalMeasure(450, tuple(range(447)))


def direct_g(measure: FractalMeasure, xi: float) -> complex:
    return sum(complex(np.exp(2j * np.pi * d * xi)) for d in measure.digits) / measure.n_digits


@st.composite
def fractal_measures(draw):
    b = draw(st.integers(2, 16))
    n = draw(st.integers(1, b))
    digits = tuple(sorted(draw(st.permutations(range(b)))[:n]))
    return FractalMeasure(b, digits)


@st.composite
def translates(draw):
    """A fractal leaf convolved with the point mass at x0, the one form of a translate."""
    return Convolution(draw(fractal_measures()), DiracMass(draw(st.floats(-2.0, 2.0))))


# ---------------------------------------------------------------------------
# symbol g


def test_g_normalization_and_cancellation():
    assert symbol_g(CANTOR3, 0.0) == pytest.approx(1.0)
    # (1 + e(1/2))/2 = 0 at xi = 1/4 for digits {0, 2}
    assert abs(symbol_g(CANTOR3, 0.25)) < 1e-15


def test_g_matches_direct_sum_for_full_decimal_digits():
    xi = 0.37
    assert symbol_g(CANTOR10, xi) == pytest.approx(direct_g(CANTOR10, xi), abs=1e-13)


@settings(max_examples=40, derandomize=True)
@given(fractal_measures(), st.floats(-30, 30))
def test_g_closed_form_matches_direct_sum(m, xi):
    assert symbol_g(m, xi) == pytest.approx(direct_g(m, xi), abs=1e-10)
    assert abs(symbol_g(m, xi)) <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# Fourier transforms


def test_transform_at_zero_is_one():
    for m in (CANTOR3, LebesgueUnit(), DiracMass(0.7), Convolution(CANTOR3, LebesgueUnit())):
        assert fourier_transform(m, 0.0) == pytest.approx(1.0)


def test_refinement_identity_single_step():
    xi = 1.7
    lhs = fourier_transform(CANTOR3, 3 * xi)
    rhs = symbol_g(CANTOR3, xi) * fourier_transform(CANTOR3, xi)
    assert lhs == pytest.approx(rhs, abs=1e-11)


def test_transform_matches_monte_carlo_oracle():
    xi = 1.0
    n = 200_000
    xs = sample(CANTOR3, 40, n, seed=123)
    vals = np.exp(2j * np.pi * xi * xs)
    mc = vals.mean()
    se = math.sqrt((vals.real.var() + vals.imag.var()) / n)
    assert abs(fourier_transform(CANTOR3, xi) - mc) < 3 * se


def test_lebesgue_transform_closed_form():
    # e(xi/2) sin(pi xi)/(pi xi); exactly 0 at nonzero integers
    assert fourier_transform(LebesgueUnit(), 5.0) == 0.0
    xi = 0.3
    expect = np.exp(1j * np.pi * xi) * np.sin(np.pi * xi) / (np.pi * xi)
    assert fourier_transform(LebesgueUnit(), xi) == pytest.approx(expect)


def test_convolution_transform_is_product():
    conv = Convolution(CANTOR3, DiracMass(0.4))
    xis = np.linspace(-8, 8, 41)
    lhs = fourier_transform(conv, xis)
    rhs = fourier_transform(CANTOR3, xis) * fourier_transform(DiracMass(0.4), xis)
    assert np.allclose(lhs, rhs, rtol=0, atol=1e-15)


@settings(max_examples=40, derandomize=True)
@given(translates(), st.floats(-30, 30))
def test_transform_bounds_and_hermitian_symmetry(m, xi):
    val = fourier_transform(m, xi)
    assert abs(val) <= 1.0 + 1e-11
    assert fourier_transform(m, -xi) == pytest.approx(val.conjugate(), abs=1e-12)


@settings(max_examples=30, derandomize=True)
@given(translates(), st.floats(-20, 20))
def test_refinement_identity_property(t, xi):
    # mu_hat of the leaf is that of its translate t times e(-x0 xi)
    m, x0 = t.left, t.right.point
    lhs = fourier_transform(t, xi) * np.exp(-2j * np.pi * xi * x0)
    sub = xi / m.base
    rhs = symbol_g(m, sub) * fourier_transform(t, sub) * np.exp(-2j * np.pi * sub * x0)
    assert lhs == pytest.approx(rhs, abs=1e-11)


@settings(max_examples=30, derandomize=True)
@given(translates(), st.floats(-20, 20))
def test_shift_leaves_modulus_invariant(t, xi):
    unshifted = t.left
    # the modulus path drops phases entirely: exact equality
    assert fourier_abs(t, np.array([xi]))[0] == fourier_abs(unshifted, np.array([xi]))[0]
    assert abs(fourier_transform(t, xi)) == pytest.approx(
        abs(fourier_transform(unshifted, xi)), abs=1e-13
    )


def test_abs_path_agrees_with_transform_path():
    xis = np.linspace(-40, 40, 201)
    for m in (CANTOR3, CANTOR450, Convolution(CANTOR3, LebesgueUnit())):
        assert np.allclose(
            fourier_abs(m, xis), np.abs(fourier_transform(m, xis)), atol=1e-12
        )


def test_abs_fallback_is_modulus_of_transform_bytes():
    # Lebesgue has no fourier_abs registration; the fallback must give the
    # bytes of |fourier_transform|, at 0, at integers (exact zeros) and
    # around the 1e-100 sinc cut
    xis = np.array([0.0, 1.0, -1.0, 2.0, -7.0, 1e-101, -1e-101, 0.3, -2.5, 1e4])
    leb = LebesgueUnit()
    modulus = np.abs(fourier_transform(leb, xis))
    assert fourier_abs(leb, xis).tobytes() == modulus.tobytes()
    conv = parse_measure("cantor:3:0,2*leb")
    assert fourier_abs(conv, xis).tobytes() == (fourier_abs(CANTOR3, xis) * modulus).tobytes()
    assert fourier_abs(leb, 0.3).tobytes() == modulus[7:8].tobytes()
    with pytest.raises(TypeError):
        fourier_abs("leb", xis)


@pytest.mark.parametrize(
    "text",
    [
        "leb",
        "dirac:0.37",
        "cantor:450:0..446",  # digits in progression: unsigned Dirichlet kernel
        "cantor:10:0,1,4,7",  # no progression: modulus of the digit sum
        "cantor:3:0,2+0.3",  # translated leaf
        "cantor:5:0,3+0.25*leb",  # convolution
    ],
)
def test_fourier_abs_is_even_bit_for_bit(text):
    # the contract _partial_sums relies on when it reuses the terms at m
    # as the terms at -m
    mu = parse_measure(text)
    k = np.arange(0, 3001, dtype=float)
    for xi in (k, k / 8 + 0.125, k + 1 / 3):
        pos, neg = fourier_abs(mu, xi), fourier_abs(mu, -xi)
        assert np.array_equal(neg.view(np.int64), pos.view(np.int64))


def one_shot_abs(measure, xi, J):
    """The J-factor product over the whole array at once; each factor is the
    modulus of the signed Dirichlet kernel or of the digit sum."""
    prog = measure.digit_progression
    acc = np.ones_like(xi)
    u = xi.copy()
    for _ in range(J):
        u = u / measure.base
        if prog is not None:
            factor = np.abs(measures._dirichlet_ratio(prog[1] * u, measure.n_digits))
        else:
            factor = np.abs(symbol_g(measure, u))
        acc = acc * factor
    return acc


@pytest.mark.parametrize("text", ["cantor:3:0,2", "cantor:7:0,2,4,6", "cantor:10:0,1,4,7"])
def test_blocked_fourier_abs_equals_one_shot_product(text):
    mu = parse_measure(text)
    small = np.linspace(-0.5, 0.5, ABS_BLOCK)  # the whole first block
    ints = np.arange(-(ABS_BLOCK + 77), ABS_BLOCK + 77, dtype=float)  # delta = 0 throughout
    rest = np.random.default_rng(3).uniform(-2e4, 2e4, ABS_BLOCK // 2)
    xi = np.concatenate([small, [0.0], ints, rest])
    assert xi.size > 3 * ABS_BLOCK and xi.size % ABS_BLOCK != 0
    for tol in (DEFAULT_TAIL_TOL, 0.5):
        J = product_depth(mu, float(np.abs(xi).max()), tol)
        got = fourier_abs(mu, xi, tol)
        assert np.array_equal(got.view(np.int64), one_shot_abs(mu, xi, J).view(np.int64))
    # J comes from the whole array: the first block's own max would give
    # fewer factors, visible at tail_tol 0.5
    J_block = product_depth(mu, 0.5, 0.5)
    assert J_block < J
    assert not np.array_equal(got[:ABS_BLOCK], one_shot_abs(mu, small, J_block))


@pytest.mark.parametrize(
    "mu",
    [
        FractalMeasure(450, (*range(446), 447)),  # 447 digits not in progression: 73 xi per pass
        FractalMeasure(10, (0, 1, 5)),  # cantor:10:0,1,5
        FractalMeasure(7, (0, 1, 5)),  # cantor:7:0,1,5
    ],
)
def test_symbol_g_digit_sum_in_passes_keeps_its_bits(mu):
    rows = ABS_BLOCK // len(mu.digits)
    xi = np.random.default_rng(12).uniform(-5e3, 5e3, 3 * rows + 17)  # four passes, the last short
    digits = np.asarray(mu.digits, dtype=float)
    terms = np.exp(2j * np.pi * np.outer(xi, digits)) * np.full(digits.size, 1.0 / digits.size)
    whole = terms.sum(axis=1)
    assert np.array_equal(symbol_g(mu, xi).view(np.int64), whole.view(np.int64))
    assert symbol_g(mu, xi[5]) == whole[5]


def test_fourier_abs_digit_sum_memory_is_bounded():
    # 2^12 xi on 447 digits held two complex temporaries of 2^12 x 447
    # entries (58 MB) at once before the digit sum ran in passes
    mu = FractalMeasure(450, (*range(446), 447))
    xi = np.linspace(0.0, 1e4, 1 << 12)
    tracemalloc.start()
    try:
        fourier_abs(mu, xi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20  # 1.3 MiB measured


def test_product_depth_refuses_an_overflowing_argument():
    # 4 pi^2 Var(D) max(|xi|, 1)^2 / ((b^2 - 1) tail_tol) is inf or nan here;
    # a depth search on it would never end
    for xi_max, tail_tol in ((2.0, 1e-310), (1e308, 1e-12), (math.nan, 1e-12)):
        with pytest.raises(ValueError, match="tail_tol"):
            product_depth(CANTOR3, xi_max, tail_tol)
    for transform in (fourier_transform, fourier_abs):
        with pytest.raises(ValueError, match="is not finite .* tail_tol = 1e-310"):
            transform(CANTOR3, np.array([0.0, 2.0]), 1e-310)


def deep_depth(measure, xi):
    """A depth J far past product_depth, by a bound of its own: |g(u) - 1| <=
    2 pi max(D) |u|, so at 2 pi max(D) max(|xi|, 1) / (b^J (b - 1)) <= 1e-20
    the omitted factors, phase and all, are within about 1e-20 of 1."""
    b, reach = measure.base, 2 * math.pi * max(measure.digits) * max(float(np.abs(xi).max()), 1.0)
    return next(J for J in itertools.count(1) if reach <= 1e-20 * b**J * (b - 1))


def deep_abs(measure, xi):
    """|mu_hat| with every fractal leaf at deep_depth; other leaves as fourier_abs."""
    if isinstance(measure, Convolution):
        return deep_abs(measure.left, xi) * deep_abs(measure.right, xi)
    if isinstance(measure, FractalMeasure):
        return one_shot_abs(measure, xi, deep_depth(measure, xi))
    return fourier_abs(measure, xi)


def deep_transform(measure, xi):
    """mu_hat with every fractal leaf at deep_depth factors and no tail phase;
    other leaves as fourier_transform."""
    if isinstance(measure, Convolution):
        return deep_transform(measure.left, xi) * deep_transform(measure.right, xi)
    if isinstance(measure, FractalMeasure):
        value, u = 1.0, xi
        for _ in range(deep_depth(measure, xi)):
            u = u / measure.base
            value = value * symbol_g(measure, u)
        return value
    return fourier_transform(measure, xi)


@pytest.mark.parametrize(
    "text",
    [
        "cantor:3:0,2", "cantor:450:0..446", "cantor:10:0,1,4,7", "cantor:5:0,3+0.3",
        "cantor:10:0,1,4,7*leb", "cantor:7:3",  # one convolution, one one-digit leaf
    ],
)
def test_fourier_abs_within_tail_tol_of_a_deep_product(text):
    # product_depth certifies the omitted factors' relative error, for mu_hat
    # once their closed-form phase is multiplied in; the first J factors of
    # the deep |mu_hat| product are those of fourier_abs, bit for bit, while
    # mu_hat also meets the rounding of its phases, 2 pi |xi| R ulps with R =
    # support_radius, which is |x0| + 1 on a leaf translated by x0
    mu = parse_measure(text)
    rng = np.random.default_rng(27)
    xi = np.concatenate([np.arange(0.0, 2001.0), rng.uniform(-1e6, 1e6, 4000), [1e6, -1e6 + 0.5]])
    want, want_abs = deep_transform(mu, xi), deep_abs(mu, xi)
    rounding = np.finfo(float).eps * (1.0 + 2 * math.pi * np.abs(xi) * support_radius(mu))
    for tol in (1e-12, 1e-6, 0.5):
        got = fourier_abs(mu, xi, tol)
        assert np.all(np.abs(got - want_abs) <= tol * want_abs)
        got = fourier_transform(mu, xi, tol)
        assert np.all(np.abs(got - want) <= tol * np.abs(want) + rounding)
    if isinstance(mu, FractalMeasure) and mu.n_digits == 1:
        assert product_depth(mu, 1e6, 1e-300) == 1  # Var(D) = 0: every |g| is 1


def test_product_depth_is_the_smallest_certified_depth():
    def bound(mu, xi_max, J):
        var = np.var(mu.digits)
        return 4 * math.pi**2 * var * max(xi_max, 1.0) ** 2 * float(mu.base) ** (-2 * J) / (mu.base**2 - 1)

    for mu in (CANTOR3, CANTOR10, CANTOR450, FractalMeasure(10, (0, 1, 4, 7))):
        for xi_max in (0.0, 0.3, 57.0, 1e4, 1e6):
            for tol in (1e-12, 1e-6, 0.5):
                J = product_depth(mu, xi_max, tol)
                assert bound(mu, xi_max, J) <= tol
                assert J == 1 or bound(mu, xi_max, J - 1) > tol
    # the dim workload's depths on the base-450 measure
    assert [product_depth(CANTOR450, x, DEFAULT_TAIL_TOL) for x in (1e4, 1e6)] == [4, 5]


@pytest.mark.parametrize("tail_tol", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("text", ["leb", "dirac:0.3", "cantor:3:0,2", "cantor:3:0,2*leb"])
def test_transforms_refuse_a_tail_tol_not_positive_and_finite(text, tail_tol):
    mu = parse_measure(text)
    for transform in (fourier_transform, fourier_abs):
        with pytest.raises(ValueError, match=f"tail_tol must be positive and finite, got {tail_tol}"):
            transform(mu, np.array([0.0, 1.5]), tail_tol)


@pytest.mark.parametrize("text", ["cantor:3:0,2", "cantor:450:0..446"])
def test_fourier_transform_does_not_depend_on_array_length(text):
    # appending max(xi) keeps J, so each entry meets the same factors in a
    # short call as in the long one, and must get the same bits
    mu = parse_measure(text)
    xi = np.arange(1, 100_001) / 3.0
    full = fourier_transform(mu, xi)
    for n in (10, 10**4, 4 * 10**4):
        part = fourier_transform(mu, np.append(xi[:n], xi[-1]))[:n]
        assert np.array_equal(part.view(np.int64), full[:n].view(np.int64))


@pytest.mark.parametrize(
    "mu",
    [
        parse_measure("cantor:7:0,1,5+0.25"),  # translated, digits not in progression
        FractalMeasure(10, (0, 1, 4, 7)),  # digits not in progression
    ],
)
def test_product_walk_across_blocks_equals_one_shot_product(mu):
    xi = np.random.default_rng(8).uniform(-5e3, 5e3, 2 * ABS_BLOCK + 155)
    leaf, x0 = measures.split_translate(mu)
    J = product_depth(leaf, float(np.abs(xi).max()), DEFAULT_TAIL_TOL)
    tail = np.mean(leaf.digits) / ((leaf.base - 1) * leaf.base**J)  # the omitted factors' phase
    value, modulus, u = np.exp(2j * np.pi * (tail * xi)), np.ones(xi.size), xi
    for _ in range(J):
        u = u / leaf.base
        g = symbol_g(leaf, u)
        value = value * g
        modulus = modulus * np.abs(g)
    if leaf is not mu:
        # times the point mass's factor e(x0 xi), leaf first as in _transform;
        # np.multiply, since `*` may run in place in the large temporary, operands swapped
        value = np.multiply(value, np.exp(2j * np.pi * x0 * xi))
    assert np.array_equal(fourier_transform(mu, xi).view(np.int64), value.view(np.int64))
    assert np.array_equal(fourier_abs(mu, xi).view(np.int64), modulus.view(np.int64))


# ---------------------------------------------------------------------------
# Sampling


def test_sample_dirac_exact():
    assert np.array_equal(sample(DiracMass(0.25), 7, 3, seed=5), [0.25, 0.25, 0.25])


def test_sample_cantor_symmetry_mean():
    n = 100_000
    xs = sample(CANTOR3, 30, n, seed=42)
    # digits {0,2}: attractor symmetric about 1/2, Var(x) = 1/8
    assert abs(xs.mean() - 0.5) < 3 * math.sqrt(0.125 / n)
    assert xs.min() >= 0.0 and xs.max() <= 1.0


def test_sample_cross_oracle_large_base():
    n = 100_000
    xs = sample(CANTOR450, 8, n, seed=99)
    vals = np.exp(2j * np.pi * xs)
    se = math.sqrt((vals.real.var() + vals.imag.var()) / n)
    bias = 2 * np.pi * 450.0**-8
    assert abs(vals.mean() - fourier_transform(CANTOR450, 1.0)) < 3 * se + bias


def test_sample_convolution_adds_children():
    conv = Convolution(DiracMass(0.5), DiracMass(0.25))
    assert np.allclose(sample(conv, 5, 4, seed=0), 0.75)


def test_sample_depth_underflow_rejected():
    with pytest.raises(ValueError, match="underflows"):
        sample(CANTOR10, 400, 10, seed=0)


@pytest.mark.parametrize(
    "mu",
    [
        CANTOR3, parse_measure("cantor:3:0,2+0.5"), FractalMeasure(10, (0, 1, 5)),
        parse_measure("leb"), parse_measure("dirac:0.3"),
    ],
)
def test_sample_in_passes_equals_one_draw(mu):
    depth = 8
    leaf, x0 = measures.split_translate(mu)
    if isinstance(leaf, FractalMeasure):
        # more than three passes of SAMPLE_BLOCK digits, against one draw of
        # all gathered from the digit table; a translate adds its point after
        count = 3 * SAMPLE_BLOCK // 8 + 777
        rng = np.random.default_rng(11)
        idx = rng.integers(0, leaf.n_digits, size=(count, depth))
        vals = np.asarray(leaf.digits)[idx].astype(float)
        x = np.zeros(count)
        for j in range(depth - 1, -1, -1):
            x = (x + vals[:, j]) * (1.0 / leaf.base)
        got = sample(mu, depth, count, 11)
        assert np.array_equal(got.view(np.int64), (x + x0).view(np.int64))
    # blocks of 2**15 and 2**15 + 777 from one Generator, as mu_y_value draws
    # them, against one call
    count = (1 << 16) + 777
    rng = np.random.default_rng(11)
    blocks = [sample(mu, depth, size, rng) for size in (1 << 15, (1 << 15) + 777)]
    got = sample(mu, depth, count, 11)
    assert np.array_equal(np.concatenate(blocks).view(np.int64), got.view(np.int64))


def test_digit_progression_is_computed_once():
    mu = FractalMeasure(450, tuple(range(447)))
    assert mu.digit_progression == (0, 1)
    assert mu.digit_progression is mu.digit_progression
    assert FractalMeasure(10, (0, 1, 5)).digit_progression is None


def test_sample_deterministic_given_seed():
    a = sample(CANTOR3, 20, 1000, seed=7)
    b = sample(CANTOR3, 20, 1000, seed=7)
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# Partial sums and dimension


def test_l1_partial_sum_dirac_and_lebesgue():
    assert l1_partial_sum(DiracMass(0.0), 5) == pytest.approx(11.0)
    assert l1_partial_sum(LebesgueUnit(), 100) == pytest.approx(1.0)


def test_l1_partial_sum_matches_termwise_transform():
    X = 1000
    m_grid = np.arange(-X, X + 1, dtype=float)
    termwise = np.abs(fourier_transform(CANTOR3, m_grid)).sum()
    assert l1_partial_sum(CANTOR3, X) == pytest.approx(termwise, rel=1e-12)


def test_l1_partial_sum_monotone_in_X():
    vals = [l1_partial_sum(CANTOR3, X) for X in (10, 50, 100, 500)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert vals[0] >= 1.0


def count_symbol_abs(monkeypatch) -> list[int]:
    sizes = []
    real = measures._symbol_abs
    monkeypatch.setattr(
        measures, "_symbol_abs", lambda mu, u: sizes.append(u.size) or real(mu, u)
    )
    return sizes


def test_plain_partial_sum_evaluates_each_m_once(monkeypatch):
    # |mu_hat| is even, so the plain sum evaluates m = 1..X and the
    # center, not -X..X: J*X + J(0) kernel entries rather than 2*J*X + J(0)
    sizes = count_symbol_abs(monkeypatch)
    X = 1000
    l1_partial_sum(CANTOR3, X)
    J, J0 = product_depth(CANTOR3, X, DEFAULT_TAIL_TOL), product_depth(CANTOR3, 0.0, DEFAULT_TAIL_TOL)
    assert sum(sizes) == J * X + J0


def test_star_partial_sum_evaluates_each_shift_pair_once(monkeypatch):
    # theta = k/G and (G - k)/G share one job: n + k/G and n + (G - k)/G for
    # n = 0..X, instead of m + theta and -m + theta for each theta; the
    # centres keep their own depth, and theta = 1/2 is its own partner
    X = 100

    def depth(xi_max):
        return product_depth(CANTOR3, xi_max, DEFAULT_TAIL_TOL)

    for grid in (4, 5):
        sizes = count_symbol_abs(monkeypatch)
        l1_partial_sum(CANTOR3, X, star=True, theta_grid=grid)
        expected = depth(X) * X + depth(0.0)
        for k in range(1, grid):
            expected += depth(X + k / grid) * (X + 1) + depth(k / grid)
        assert sum(sizes) == expected


def per_theta_star_sums(measure, X_grid, grid):
    """Star sums from m + theta and -m + theta at every theta = k/grid, the
    maximum taken in order: the oracle for the paired shifts."""
    m = np.arange(1, X_grid[-1] + 1, dtype=float)
    S = None
    for k in range(grid):
        theta = k / grid
        terms = fourier_abs(measure, m + theta) + fourier_abs(measure, -m + theta)
        sums = fourier_abs(measure, np.array([theta]))[0] + np.cumsum(terms)[X_grid - 1]
        S = sums if S is None else np.maximum(S, sums)
    return S


STAR_ORACLE_MEASURES = [
    "cantor:3:0,2", "cantor:450:0..446", "cantor:5:0,3+0.3", "cantor:3:0,2*dirac:0.3",
]


@pytest.mark.parametrize("literal", STAR_ORACLE_MEASURES)
def test_paired_star_sums_bit_equal_to_per_theta_on_dyadic_grid(literal):
    mu = parse_measure(literal)
    X_grid = np.array([10, 57, 300, 1999])
    # the pairing reads -m + theta at depth J(X + 1 - theta), not J(X - theta)
    for f in (mu, getattr(mu, "left", None)):
        if isinstance(f, FractalMeasure):
            assert len({product_depth(f, x, DEFAULT_TAIL_TOL) for x in (1998, 2000)}) == 1
    for grid in (2, 8, 64):
        got = measures._partial_sums(mu, X_grid, True, grid)
        assert got.tobytes() == per_theta_star_sums(mu, X_grid, grid).tobytes()


@pytest.mark.parametrize("literal", STAR_ORACLE_MEASURES)
def test_paired_star_sums_within_4_ulps_of_per_theta_on_grid_9(literal):
    # (m - 1) + 8/9 and m - 1/9 round differently, so the terms may move
    mu = parse_measure(literal)
    X_grid = np.array([10, 57, 300, 1999])
    got = measures._partial_sums(mu, X_grid, True, 9)
    want = per_theta_star_sums(mu, X_grid, 9)
    assert np.all(np.abs(got - want) <= 4 * np.spacing(want))


def test_star_sum_dominates_plain():
    for m in (CANTOR3, parse_measure("cantor:5:0,3+0.3")):
        plain = l1_partial_sum(m, 50, star=False)
        star = l1_partial_sum(m, 50, star=True, theta_grid=64)
        assert star >= plain - 1e-12


def test_dimension_dirac_is_zero():
    grid = np.unique(np.geomspace(100, 10**4, 8).astype(int))
    est = estimate_dim_l1(DiracMass(0.0), grid)
    assert est.dimension == pytest.approx(0.0, abs=5e-3)


def test_dimension_lebesgue_is_one_and_degenerate_flagged():
    grid = np.unique(np.geomspace(100, 10**4, 8).astype(int))
    est = estimate_dim_l1(LebesgueUnit(), grid)
    assert est.degenerate
    assert est.dimension == pytest.approx(1.0)


def test_dimension_cantor450_beats_cvy_bound():
    grid = np.unique(np.round(np.geomspace(100, 10**6, 13)).astype(int))
    est = estimate_dim_l1(CANTOR450, grid)
    assert est.dimension >= cvy_lower_bound(450, 447) - 0.05
    assert est.stderr < 0.05


def test_dimension_grid_validation():
    with pytest.raises(ValueError):
        estimate_dim_l1(CANTOR3, [100, 200, 300])  # too few points
    with pytest.raises(ValueError):
        estimate_dim_l1(CANTOR3, [100, 200, 400, 800])  # under two decades
    with pytest.raises(ValueError, match="theta_grid"):
        estimate_dim_l1(CANTOR3, [100, 1000, 5000, 10**4], star=True, theta_grid=0)
    with pytest.raises(ValueError, match="theta_grid"):
        l1_partial_sum(CANTOR3, 100, star=True, theta_grid=0)
    # X = 0 read S(X_max) from the cumulative sum, a negative X reached math.log10
    for below_one in ([0, 10, 100, 1000], [-5, 10, 100, 1000]):
        with pytest.raises(ValueError, match="X must be >= 1"):
            estimate_dim_l1(CANTOR3, below_one)


def test_star_sums_refuse_a_theta_grid_over_max_grid_points(monkeypatch):
    def reached(*args):
        raise AssertionError("the shift pairs were listed")

    monkeypatch.setattr(measures, "map_in_order", reached)
    over = measures.MAX_GRID_POINTS + 1
    with pytest.raises(ValueError, match="theta_grid must be at most MAX_GRID_POINTS"):
        estimate_dim_l1(CANTOR3, [100, 1000, 5000, 10**4], star=True, theta_grid=over)
    with pytest.raises(ValueError, match="theta_grid must be at most MAX_GRID_POINTS"):
        l1_partial_sum(CANTOR3, 100, star=True, theta_grid=over)


def test_partial_sums_refuse_an_x_over_max_grid_points(monkeypatch):
    # X = 10^12 would ask np.arange for 10^12 floats (8 TB) before any work
    real = np.arange

    def guarded(*args, **kwargs):
        if max(args) > 10**8:
            raise AssertionError(f"np.arange asked for {max(args)} entries")
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "arange", guarded)
    leb, cap = parse_measure("leb"), f"X must be at most MAX_GRID_POINTS = {measures.MAX_GRID_POINTS}"
    with pytest.raises(ValueError, match=cap):
        l1_partial_sum(leb, 10**12)
    with pytest.raises(ValueError, match=cap):
        estimate_dim_l1(leb, [100, 10**4, 10**8, 10**12])


# ---------------------------------------------------------------------------
# Closed-form bounds


def test_cvy_bound_values():
    assert cvy_lower_bound(450, 447) > 0.609375
    assert cvy_lower_bound(3, 2) < 0.0
    b = 37
    expect = 1.0 - math.log(4 + math.log(2 * b)) / math.log(b)
    assert cvy_lower_bound(b, b) == pytest.approx(expect)


def test_cvy_bound_absent_for_non_progression_digits():
    # the bound is certified for digits in arithmetic progression only
    assert cvy_bound_for_measure(FractalMeasure(10, (0, 1, 5))) is None
    assert cvy_bound_for_measure(FractalMeasure(10, (1, 4, 7))) == cvy_lower_bound(10, 3)


def scan_b_of_s(s: float, limit: int = 10**5) -> int:
    thresh = 39.0 / 64.0
    for b in range(3, limit):
        if s - math.log(4 + math.log(2 * b)) / math.log(b) > thresh and b - b**s >= 2:
            return b
    raise AssertionError("scan exhausted")


@pytest.mark.parametrize("s", [0.95, 0.9999, 0.9])
def test_b_of_s_matches_exhaustive_scan(s):
    b = b_of_s(s)
    assert b == scan_b_of_s(s)
    # postconditions at b, and at least one failure at b - 1
    thresh = 39.0 / 64.0
    assert s - math.log(4 + math.log(2 * b)) / math.log(b) > thresh
    assert b - b**s >= 2.0
    prev = b - 1
    assert (
        s - math.log(4 + math.log(2 * prev)) / math.log(prev) <= thresh
        or prev - prev**s < 2.0
    )


def test_b_of_s_not_monotone_near_one():
    # the b - b^s >= 2 constraint dominates as s -> 1, so b(s) turns back up
    assert b_of_s(0.9999) > b_of_s(0.95)


def test_b_of_s_domain():
    with pytest.raises(ValueError):
        b_of_s(0.5)
    with pytest.raises(ValueError):
        b_of_s(1.0)
    # s = 0.75 needs b beyond the configured ceiling: signalled, not silent
    with pytest.raises(ValueError, match="ceiling"):
        b_of_s(0.75)


# ---------------------------------------------------------------------------
# Literals


def test_parse_round_trip_variants():
    m = parse_measure("cantor:450:0..446")
    assert isinstance(m, FractalMeasure) and m.base == 450 and m.n_digits == 447
    m = parse_measure("cantor:3:0,2+0.5")
    assert m == Convolution(CANTOR3, DiracMass(0.5))
    m = parse_measure("leb * dirac:0.3")
    assert isinstance(m, Convolution)
    m = parse_measure("leb+-0.25")
    assert isinstance(m, Convolution) and m.right.point == -0.25
    assert isinstance(parse_measure("dirac:2.5"), DiracMass)
    # numbers may be spaced
    assert parse_measure("dirac: 0.5") == DiracMass(0.5)
    assert parse_measure("cantor: 3 :0,2") == CANTOR3


def test_both_spellings_of_a_translate_parse_to_one_object():
    assert parse_measure("cantor:3:0,2+0.3") == parse_measure("cantor:3:0,2*dirac:0.3")
    assert parse_measure("dirac:0.1+0.2") == parse_measure("dirac:0.1*dirac:0.2")
    assert parse_measure("leb+0") == LebesgueUnit()
    # the point masses of a chain, peeled off from either side
    assert measures.split_translate(parse_measure("dirac:0.25*cantor:3:0,2+0.5")) == (CANTOR3, 0.75)
    general = parse_measure("cantor:3:0,2*leb")
    assert measures.split_translate(general) == (general, 0.0)


@pytest.mark.parametrize(
    "bad, production",
    [
        ("cantor:3", "<atom>"),
        ("cantor:x:0,2", "<atom>"),
        ("cantor:3:0,copper", "<digits>"),
        ("gauss:1", "<atom>"),
        ("leb+sideways", "<shift>"),
        ("cantor:3:5..2", "<digits>"),
        ("cantor:3:0,2**leb", "<measure>"),
        ("cantor:1:0", "<atom>"),
    ],
)
def test_parse_errors_name_the_production(bad, production):
    with pytest.raises(LiteralParseError) as err:
        parse_measure(bad)
    assert production in str(err.value)


def test_invalid_measure_construction():
    with pytest.raises(ValueError):
        FractalMeasure(3, (0, 3))  # digit out of range
    with pytest.raises(ValueError):
        FractalMeasure(3, (2, 0))  # not increasing


def test_star_estimate_reports_grid_error():
    grid = np.unique(np.geomspace(100, 10**4, 6).astype(int))
    est = estimate_dim_l1(CANTOR3, grid, star=True, theta_grid=16)
    assert (est.sums >= 1.0).all()


@pytest.mark.parametrize(
    "text, radius",
    [
        ("cantor:3:0,2*cantor:3:0,2", 2.0),  # lives in [0, 2]
        ("leb*cantor:3:0,2", 2.0),
        ("cantor:3:0,2+0.5*dirac:-3", 4.5),  # in [-2.5, -1.5], radius bound 1.5 + 3
    ],
)
def test_star_grid_error_adds_factor_radii(text, radius):
    # the radius R of the star grid-error bound 2 pi R X / theta_grid
    assert support_radius(parse_measure(text)) == radius


def test_per_type_rules_cover_every_measure_and_refuse_others():
    expr = parse_measure("cantor:3:0,2+0.5*cantor:450:0..446*leb*dirac:-2")
    assert default_sample_depth(expr) == math.ceil(60 * math.log(2) / math.log(3)) + 1
    assert support_radius(expr) == 1.5 + 1.0 + 1.0 + 2.0
    for rule in (default_sample_depth, support_radius):
        with pytest.raises(TypeError):
            rule("leb")
