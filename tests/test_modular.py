import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from horolab.automorphic import horocycle_fourier_coeff
from horolab.fitting import LiteralParseError
from horolab.measures import parse_measure, split_translate
from horolab import testfunctions
from horolab.modular import BOUNDARY_BAND, mu_y_value, reduce_many
from horolab.testfunctions import BumpTest, ConstantTest, EisensteinTest, IndicatorTest, parse_test_function

from conftest import sample_fundamental_domain

GENERATORS = {
    "T": (1, 1, 0, 1),
    "T-": (1, -1, 0, 1),
    "S": (0, -1, 1, 0),
}


def in_fundamental_domain(x, y, tol=1e-9):
    return abs(x) <= 0.5 + tol and x * x + y * y >= 1 - tol


def mobius(g, x, y):
    """g = (a, b, c, d) acting on x + iy by fractional linear action."""
    a, b, c, d = g
    w = (a * complex(x, y) + b) / (c * complex(x, y) + d)
    return w.real, w.imag


def reduce_scalar(x, y):
    """Scalar oracle for reduce_many: the reduced point and the integer
    matrix g in SL2(Z) with g.(x + iy) equal to it."""
    a, b, c, d = 1, 0, 0, 1
    for _ in range(10_000):
        n = round(x)
        x -= n
        a, b = a - n * c, b - n * d  # T^-n g
        r2 = x * x + y * y
        if r2 >= 1.0 - BOUNDARY_BAND:
            return x, y, (a, b, c, d)
        x, y = -x / r2, y / r2
        a, b, c, d = -c, -d, a, b  # S g
    raise AssertionError("no convergence")


def reduce_many_gather(x, y):
    """Array oracle for reduce_many: every step gathers the active points
    from the full arrays, inverts by boolean masks and scatters the whole
    active set back."""
    x = np.array(x, dtype=float, copy=True, order="C")
    y = np.broadcast_to(np.asarray(y, dtype=float), x.shape).copy()
    active = np.arange(x.size)
    xf, yf = x.ravel(), y.ravel()
    for _ in range(10_000):
        xs, ys = xf[active], yf[active]
        xs -= np.round(xs)
        r2 = xs * xs + ys * ys
        inside = r2 < 1.0 - BOUNDARY_BAND
        xs[inside] = -xs[inside] / r2[inside]
        ys[inside] = ys[inside] / r2[inside]
        xf[active], yf[active] = xs, ys
        active = active[inside]
        if active.size == 0:
            return x, y
    raise AssertionError("no convergence")


def bit_equal(a, b):
    """Same shape and same bits, so the sign of zero counts."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def canonical(x, y):
    """Boundary tie rule: x >= 0 on |x| = 1/2, x <= 0 inside the unit arc."""
    r2 = x * x + y * y
    if abs(r2 - 1.0) <= BOUNDARY_BAND and BOUNDARY_BAND < x < 0.5 - BOUNDARY_BAND:
        x, y = -x / r2, y / r2
    if x <= -0.5 + BOUNDARY_BAND:
        x += 1.0
    return x, y


# ---------------------------------------------------------------------------
# Reduction


def test_reduce_fixed_points():
    x, y = reduce_many([0.3, 5.2], [1.0, 2.0])
    assert (x[0], y[0]) == (0.3, 1.0)  # 0.09 + 1 >= 1: already reduced
    assert x[1] == pytest.approx(0.2) and y[1] == pytest.approx(2.0)


def test_reduce_deep_point_word_replay_oracle():
    x0, y0 = 2.7, 0.01
    x, y = reduce_many(x0, y0)
    assert in_fundamental_domain(x, y)
    # the oracle's matrix is in SL2(Z) and maps the input onto the output
    xo, yo, g = reduce_scalar(x0, y0)
    assert (xo, yo) == (x, y)
    assert g[0] * g[3] - g[1] * g[2] == 1
    xr, yr = mobius(g, x0, y0)
    assert xr == pytest.approx(x, abs=1e-9)
    assert yr == pytest.approx(y, abs=1e-9)


def test_reduce_idempotent():
    rng = np.random.default_rng(3)
    x, y = reduce_many(rng.uniform(-5, 5, 50), rng.uniform(0.01, 3, 50))
    x2, y2 = reduce_many(x, y)
    assert x2.tobytes() == x.tobytes() and y2.tobytes() == y.tobytes()


@settings(max_examples=60, derandomize=True)
@given(
    st.floats(-3, 3),
    st.floats(0.05, 4.0),
    st.lists(st.sampled_from(["T", "T-", "S"]), min_size=1, max_size=5),
)
def test_reduce_invariant_under_group_words(x, y, letters):
    # equal up to the boundary identifications, which reduce_many leaves open
    zx, zy = x, y
    for letter in letters:
        zx, zy = mobius(GENERATORS[letter], zx, zy)
    a = canonical(*reduce_many(x, y))
    b = canonical(*reduce_many(zx, zy))
    assert b[0] == pytest.approx(a[0], abs=1e-9)
    assert b[1] == pytest.approx(a[1], abs=1e-9)


def test_reduce_many_matches_scalar():
    rng = np.random.default_rng(11)
    xs = rng.uniform(-4, 4, 300)
    ys = rng.uniform(1e-4, 2.0, 300)
    xr, yr = reduce_many(xs, ys)
    for i in range(300):
        x, y, g = reduce_scalar(xs[i], ys[i])
        assert xr[i] == pytest.approx(x, abs=1e-9)
        assert yr[i] == pytest.approx(y, abs=1e-9)
        assert g[0] * g[3] - g[1] * g[2] == 1
        assert mobius(g, xs[i], ys[i]) == pytest.approx((x, y), abs=1e-9)
    assert (yr >= math.sqrt(3) / 2 - 1e-9).all()


def _reduction_cases():
    rng = np.random.default_rng(23)
    n = 5000
    theta = rng.uniform(0.0, math.pi, n)
    arc = 1.0 + rng.uniform(-2.0, 2.0, n) * BOUNDARY_BAND  # within the band of |z| = 1
    halves = np.array([0.5, -0.5, 1.5, -1.5, 2.5, -2.5])
    integers = np.array([0.0, -0.0, 1.0, -1.0, 2.0, -3.0, 1e6, -1e6])
    return {
        "random": (rng.uniform(-4, 4, n), rng.uniform(1e-4, 2.0, n)),
        "low": (rng.uniform(-1, 1, n), 0.25 * 0.5**12),
        "halves": (np.repeat(halves, 3), np.tile([0.3, 1.0, 3.0], halves.size)),
        "integers": (np.repeat(integers, 3), np.tile([1e-3, 0.5, 1.0], integers.size)),
        "huge_x": (np.array([1e15, -1e15, 2.0**52 + 0.5, 1e300, -1e300, 4.5e15]), 0.7),
        "unit_arc": (arc * np.cos(theta), arc * np.sin(theta)),
        "empty": (np.array([]), np.array([])),
        "reduced": (np.array([0.0, 0.25, -0.4, 0.5, -0.5]), np.array([1.0, 1.2, 0.95, 2.0, 0.9])),
        "grid_2d": (np.linspace(-2, 2, 35).reshape(5, 7), np.full((5, 7), 0.01)),
        # Fortran-ordered input: the flat views must still alias the output
        "transposed_2d": (
            np.linspace(-2, 2, 35).reshape(5, 7).T, np.geomspace(1e-3, 2.0, 35).reshape(5, 7).T
        ),
    }


@pytest.mark.parametrize("case", list(_reduction_cases()))
def test_reduce_many_matches_gather_oracle_bit_for_bit(case):
    x, y = _reduction_cases()[case]
    got, want = reduce_many(x, y), reduce_many_gather(x, y)
    for g, w in zip(got, want):
        assert bit_equal(g, w)
        assert np.array_equal(np.signbit(g), np.signbit(w))


def test_reduce_many_returns_empty_input_after_one_step(monkeypatch):
    from horolab import modular

    monkeypatch.setattr(modular, "MAX_REDUCE_STEPS", 1)
    xr, yr = reduce_many(np.array([]), 0.5)
    assert xr.shape == yr.shape == (0,)
    with pytest.raises(ValueError, match="no convergence after 1 steps"):
        reduce_many([0.1], [0.01])  # needs a second step


def test_reduce_rejects_nonpositive_height():
    for y in (-1.0, -0.2, 0.0, math.nan):
        with pytest.raises(ValueError, match="y > 0"):
            reduce_many([0.3, 0.3], [1.0, y])
        with pytest.raises(ValueError, match="y > 0"):
            horocycle_fourier_coeff(BumpTest(0.9, 2.5), 1, y, 512)


def test_reduce_rejects_height_whose_square_underflows():
    # below ~1.5e-154, x^2 + y^2 underflows once x reduces to 0: the
    # inversion gave NaN x with y = inf (1e-200) or an inexact y (1e-160)
    for y in (1e-200, 1e-160):
        with pytest.raises(ValueError, match="smallest normal"):
            reduce_many(np.arange(8) / 8, y)
        with pytest.raises(ValueError, match="smallest normal"):
            horocycle_fourier_coeff(BumpTest(0.9, 2.5), 1, y, 512)
    xr, yr = reduce_many(np.arange(8) / 8, 1e-150)
    assert np.isfinite(xr).all() and np.isfinite(yr).all()
    assert (np.abs(xr) <= 0.5).all() and (xr * xr + yr * yr >= 1.0 - 1e-12).all()


def test_reduce_rejects_nonfinite_x():
    for x in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="finite x"):
            reduce_many([0.3, x], [1.0, 1.0])
        # mu_y_value leaves x0 unchecked (x0 % 1.0 is nan); the reduction refuses it
        with pytest.raises(ValueError, match="finite x"):
            mu_y_value(parse_measure("dirac:0.3"), BumpTest(1.0, 3.0), 0.25, x, 1, method="cylinder")


# ---------------------------------------------------------------------------
# Horocycle base points


def test_mu_y_value_refuses_q_below_one_and_y_outside_the_unit_interval():
    measure, phi = parse_measure("dirac:0.3"), BumpTest(1.0, 3.0)
    with pytest.raises(ValueError, match="require q >= 1"):
        mu_y_value(measure, phi, 0.25, 0.0, 0, method="cylinder")
    for y in (1.5, 0.0):
        with pytest.raises(ValueError, match="require 0 < y <= 1"):
            mu_y_value(measure, phi, y, method="cylinder")


def test_mu_y_value_refuses_a_budget_outside_one_to_max_grid_points():
    from horolab.fitting import MAX_GRID_POINTS

    measure, phi = parse_measure("dirac:0.3"), BumpTest(1.0, 3.0)
    for method in ("cylinder", "montecarlo"):
        for budget in (0, MAX_GRID_POINTS + 1):
            with pytest.raises(ValueError, match=rf"budget must lie in \[1, MAX_GRID_POINTS = {MAX_GRID_POINTS}\], got {budget}$"):
                mu_y_value(measure, phi, 0.25, method=method, budget=budget)


# ---------------------------------------------------------------------------
# Means m_X against the hyperbolic probability measure


def bump_oracle(y0, y1, y):
    u = (2.0 * y - y0 - y1) / (y1 - y0)
    return math.exp(1.0 - 1.0 / (1.0 - u * u)) if abs(u) < 1.0 else 0.0


def mean_oracle(weight, lo, hi):
    """(3/pi) int weight(y) width(y) y^-2 dy over [lo, hi] by scipy quad, the
    fundamental domain being 1 - 2 sqrt(1 - y^2) wide below 1 and 1 above."""
    from scipy.integrate import quad

    def piece(f, a, b):
        return quad(f, a, b, epsabs=0.0, epsrel=1e-13, limit=500)[0] if a < b else 0.0

    arc = piece(
        lambda y: weight(y) * (1.0 - 2.0 * math.sqrt(1.0 - y * y)) / y**2, max(lo, math.sqrt(3) / 2), min(hi, 1.0)
    )
    return 3.0 / math.pi * (arc + piece(lambda y: weight(y) / y**2, max(lo, 1.0), hi))


BUMP_SUPPORTS = [
    (1.5, 3.0), (0.9, 2.5), (1.0, 2.0), (0.87, 0.99), (0.2, 50.0), (3.0, 1000.0),
    (1.0, 1e6), (0.9, 1e8), (1e-3, 0.9), (0.5, 0.8), (0.8, 0.95), (0.86, 0.87),
    (0.999, 1.001), (1.0, 1.0 + 1e-6), (1.0, 1.0 + 1e-10), (0.87, 0.87 + 1e-9),
]


ORACLE_MEANS = [
    *[(f"bump:y0={y0!r},y1={y1!r}", lambda y0=y0, y1=y1: mean_oracle(lambda y: bump_oracle(y0, y1, y), y0, y1))
      for y0, y1 in BUMP_SUPPORTS],
    *[(f"indicator:ygt={c!r}", lambda c=c: mean_oracle(lambda y: 1.0, c, math.inf))
      for c in (0.5, 0.86, 0.87, 0.95, 0.999, 1.0, 2.0, 1e6)],
    ("indicator:ygt=2", lambda: 3 / (2 * math.pi)),  # the mass of {y > 2}
]


@pytest.mark.parametrize("literal, want", ORACLE_MEANS, ids=[literal for literal, _ in ORACLE_MEANS])
def test_mean_matches_quad_oracle(literal, want):
    import warnings

    with warnings.catch_warnings():  # quad warns of roundoff on the supports of width 1e-10 and 1e-9
        warnings.simplefilter("ignore")
        assert abs(parse_test_function(literal).mean - want()) < 1e-13


@pytest.mark.parametrize("y0, y1", BUMP_SUPPORTS)
def test_bump_mean_settles_at_its_panel_count(monkeypatch, y0, y1):
    mean = BumpTest(y0, y1).mean
    monkeypatch.setattr(testfunctions, "MEAN_PANELS", 2 * testfunctions.MEAN_PANELS)
    assert abs(BumpTest(y0, y1).mean - mean) <= 1e-15


@settings(max_examples=200, deadline=None)
@given(st.one_of(
    st.tuples(st.just("eisenstein:t="), st.floats(5e-7, 30.0)),
    st.tuples(st.just("bump:"), st.tuples(st.floats(0.0, allow_infinity=False), st.floats(0.0, allow_infinity=False))),
    st.tuples(st.just("indicator:ygt="), st.floats(allow_nan=False, allow_infinity=False)),
    st.tuples(st.just("const:"), st.floats(allow_nan=False, allow_infinity=False)),
))
def test_every_test_literal_has_a_finite_mean(case):
    head, value = case
    body = f"y0={min(value)!r},y1={max(value)!r}" if head == "bump:" else repr(value)
    try:
        phi = parse_test_function(head + body)
    except LiteralParseError:
        return  # e.g. y0 = y1 or c <= 0: refused, so no mean to check
    assert np.isfinite(phi.mean)


def test_mx_integral_eisenstein_mean_zero():
    x, y = sample_fundamental_domain(100_000, np.random.default_rng(8))
    vals = EisensteinTest(1.0)(x, y)
    assert abs(vals.mean()) < 3 * vals.std(ddof=1) / math.sqrt(vals.size)


# ---------------------------------------------------------------------------
# mu_y values


def test_mu_y_dirac_equals_direct_evaluation():
    phi = BumpTest(1.0, 3.0)
    for y0, x0, q in ((0.25, 0.0, 1), (0.05, 0.25, 3)):
        val, err = mu_y_value(parse_measure("dirac:0.3"), phi, y0, x0, q, method="cylinder", budget=10)
        x, y = reduce_many([x0 + 0.3 / q], [y0 / q])
        assert val == pytest.approx(float(phi(x, y)[0]))
        assert err == 0.0


def test_mu_y_lebesgue_matches_constant_term():
    # Fourier orthogonality: the full-period average of E is its zero mode
    phi = EisensteinTest(1.0, component="complex")
    from horolab.automorphic import constant_term

    for y in (0.25, 0.05):
        val, err = mu_y_value(parse_measure("leb"), phi, y, method="cylinder", budget=10**6)
        expect = constant_term(y, phi.params)
        assert abs(val - expect) < max(10 * err, 1e-9)


def test_mu_y_cylinder_and_montecarlo_agree():
    measure = parse_measure("cantor:3:0,2")
    phi = BumpTest(0.9, 2.5)
    v_cyl, e_cyl = mu_y_value(measure, phi, 0.05, method="cylinder", budget=10**6, tol=1e-4)
    v_mc, e_mc = mu_y_value(measure, phi, 0.05, method="montecarlo", budget=200_000, seed=17)
    assert abs(v_cyl - v_mc) < e_cyl + 3 * e_mc


def test_mu_y_cylinder_budget_refusal_names_fallback():
    measure = parse_measure("cantor:450:0..446")
    phi = BumpTest(0.9, 2.5)
    with pytest.raises(ValueError, match="nodes > budget 1000; use method='montecarlo'"):
        mu_y_value(measure, phi, 0.01, method="cylinder", budget=1000)


def test_mu_y_cylinder_needs_lipschitz_declaration():
    # indicators declare no Lipschitz constant: the cylinder bound is void
    with pytest.raises(ValueError, match="Lipschitz"):
        mu_y_value(
            parse_measure("cantor:3:0,2"), IndicatorTest(2.0),
            0.25, method="cylinder", budget=10**6,
        )


def test_lipschitz_is_computed_once(monkeypatch):
    from horolab import testfunctions

    calls = []
    real_values = testfunctions.eisenstein_values
    monkeypatch.setattr(
        testfunctions, "eisenstein_values", lambda *a: calls.append(1) or real_values(*a)
    )
    phi = EisensteinTest(1.0)
    first = phi.lipschitz
    assert len(calls) == 4 and phi.lipschitz == first and len(calls) == 4

    bump = BumpTest(0.9, 2.5)
    first, mean = bump.lipschitz, bump.mean
    monkeypatch.setattr(BumpTest, "__call__", lambda *a: pytest.fail("grid rebuilt"))
    assert bump.lipschitz == first and bump.mean == mean


@pytest.mark.parametrize("width", [1.0, 1e-2, 1e-4, 1e-6, 1e-8, 2e-9, 1e-9, 1e-10])
def test_bump_lipschitz_bounds_the_gradient_on_narrow_supports(width):
    # sup y |w'(y)| on a dense grid of the bump's own coordinate u, from the
    # derivative of w(u) = exp(1 - 1/(1 - u^2)) with du/dy = 2 / (y1 - y0)
    bump = BumpTest(1.0, 1.0 + width)
    u = np.linspace(-1.0, 1.0, 2_000_001)[1:-1]
    y = 1.0 + 0.5 * width * (1.0 + u)
    dense = float((y * np.exp(1.0 - 1.0 / (1.0 - u**2)) * 4.0 * np.abs(u) / (1.0 - u**2) ** 2 / width).max())
    assert dense <= bump.lipschitz <= 1.2 * dense


@pytest.mark.parametrize(
    "text, production",
    [
        ("eisenstein:t=5,t=1", "<test:eisenstein>"),
        ("bump:y0=1,y1=2,y0=1.5", "<test:bump>"),
        ("indicator:ygt=2, ygt=3", "<test:indicator>"),
    ],
)
def test_test_function_literal_refuses_a_repeated_key(text, production):
    with pytest.raises(LiteralParseError, match="repeated key") as exc:
        parse_test_function(text)
    assert exc.value.production == production


@pytest.mark.parametrize(
    "text, production, detail",
    [
        ("bump:y0=2,y1=1", "<test:bump>", "require 0 < y0 < y1"),
        ("indicator:ygt=-1", "<test:indicator>", "require c > 0"),
        ("eisenstein:t=0", "<test:eisenstein>", "spectral parameter t must satisfy 5e-07 <= t <= 14, got 0.0"),
        ("eisenstein:t=-1", "<test:eisenstein>", "spectral parameter t must satisfy 5e-07 <= t <= 14, got -1.0"),
        ("eisenstein:t=14.5", "<test:eisenstein>", "spectral parameter t must satisfy 5e-07 <= t <= 14, got 14.5"),
        ("eisenstein:t=30.5", "<test:eisenstein>", "spectral parameter t must satisfy 5e-07 <= t <= 14, got 30.5"),
        ("eisenstein:t=31.5", "<test:eisenstein>", "spectral parameter t must satisfy 5e-07 <= t <= 14, got 31.5"),
        ("eisenstein:s=1", "<test:eisenstein>", "expected t=<real>, got 's=1'"),
        ("eisenstein:1", "<test:eisenstein>", "expected key=value, got '1'"),
        ("eisenstein:t=1,", "<test:eisenstein>", "expected key=value, got ''"),
        ("const", "<test>", "'const'"),
        ("const:1,2", "<test:const>", "'1,2'"),
    ],
)
def test_test_function_literal_names_its_production_on_a_refused_value(text, production, detail):
    with pytest.raises(LiteralParseError, match=detail) as exc:
        parse_test_function(text)
    assert exc.value.production == production


def test_a_spaced_test_function_literal_reads_as_the_unspaced_one():
    phi = parse_test_function("eisenstein: t = 1")
    assert isinstance(phi, EisensteinTest) and (phi.t, phi.component) == (1.0, "re")
    assert parse_test_function(" bump: y0 = 1 , y1=2 ") == BumpTest(1.0, 2.0)


def test_mu_y_montecarlo_reads_no_lipschitz():
    class NoLipschitz(BumpTest):
        @property
        def lipschitz(self):
            raise AssertionError("Monte Carlo read the Lipschitz constant")

    measure = parse_measure("cantor:3:0,2")
    got = mu_y_value(measure, NoLipschitz(0.9, 2.5), 0.1, method="montecarlo", budget=5000, seed=3)
    want = mu_y_value(measure, BumpTest(0.9, 2.5), 0.1, method="montecarlo", budget=5000, seed=3)
    assert got == want


@pytest.mark.parametrize("literal", ["leb", "dirac:0.3", "leb+0.25", "dirac:0.1*leb"])
def test_mu_y_cylinder_reads_no_lipschitz_off_a_cantor_leaf(literal):
    # only a `cantor:` leaf's depth needs the constant, which EisensteinTest
    # calibrates on a 41 x 41 grid
    class NoLipschitz(EisensteinTest):
        @property
        def lipschitz(self):
            raise AssertionError("a cylinder row read the Lipschitz constant")

    measure = parse_measure(literal)
    got = mu_y_value(measure, NoLipschitz(1.0), 0.1, 0.2, 2, method="cylinder", budget=4096)
    want = mu_y_value(measure, EisensteinTest(1.0), 0.1, 0.2, 2, method="cylinder", budget=4096)
    assert got == want


@pytest.mark.parametrize(
    "convolved, shifted",
    [
        ("cantor:3:0,2*dirac:0.25", "cantor:3:0,2+0.25"),
        ("dirac:0.25*cantor:3:0,2+0.5", "cantor:3:0,2+0.75"),
        ("dirac:0.1*leb", "leb+0.1"),
        ("dirac:0.1*dirac:0.2", "dirac:0.1+0.2"),
    ],
)
def test_mu_y_cylinder_folds_point_masses_into_shifts(convolved, shifted):
    # both spellings of a translate give the same sum, and the translate by
    # x0 of the rest moves its base point from 0.1 to 0.1 + x0/q, q = 2
    phi = EisensteinTest(1.0, component="complex")
    got = mu_y_value(parse_measure(convolved), phi, 0.05, 0.1, 2, method="cylinder", budget=10**6, tol=1e-4)
    want = mu_y_value(parse_measure(shifted), phi, 0.05, 0.1, 2, method="cylinder", budget=10**6, tol=1e-4)
    assert got == want
    rest, x0 = split_translate(parse_measure(shifted))
    moved = mu_y_value(rest, phi, 0.05, 0.1 + x0 / 2, 2, method="cylinder", budget=10**6, tol=1e-4)
    assert got == pytest.approx(moved, abs=1e-12)


class Lipschitz:
    """A test function stand-in for cylinder_nodes: only its constant is read."""

    def __init__(self, lipschitz):
        self.lipschitz = lipschitz


def test_cylinder_node_widths():
    from horolab.measures import cylinder_nodes

    xs, bound = cylinder_nodes(parse_measure("dirac:0.3"), 0.1, 10, 1e-6, Lipschitz(None))
    assert xs.tolist() == [0.3] and bound == 0.0
    assert cylinder_nodes(parse_measure("leb"), 0.1, 10**6, 1e-6, Lipschitz(None))[1] is None
    xs, bound = cylinder_nodes(parse_measure("cantor:3:0,2"), 0.1, 10**6, 1e-3, Lipschitz(2.0))
    # lip * 3^-J / (2y) <= tol at the shallowest J: 3^-9 <= 1e-4 < 3^-8
    assert bound == pytest.approx(2.0 * 3.0**-9 / 0.2, rel=1e-15) and bound <= 1e-3 < 3 * bound
    assert xs.size == 2**9 and np.diff(xs).min() == pytest.approx(2 * 3.0**-9)


def test_cylinder_refuses_a_tol_that_is_not_positive():
    from horolab.measures import cylinder_nodes

    for tol in (0.0, -1.0):
        with pytest.raises(ValueError, match="cylinder tol must be > 0"):
            cylinder_nodes(parse_measure("cantor:3:1"), 0.1, 10**6, tol, Lipschitz(2.0))


@pytest.mark.parametrize("literal", ["cantor:3:0,2", "cantor:10:0,1,5"])
@pytest.mark.parametrize("q", [1, 2, 3])
def test_cylinder_bound_covers_the_series(literal, q):
    # the reported bound is at most tol, one level shallower would exceed it,
    # and it covers the distance to the Fourier series, whatever q
    from horolab.automorphic import eisenstein_series_prediction

    measure, phi, tol = parse_measure(literal), EisensteinTest(1.0, component="complex"), 1e-4
    for y in (0.2, 0.05, 0.0125):
        value, err = mu_y_value(measure, phi, y, 0.25, q, method="cylinder", budget=10**6, tol=tol)
        assert err <= tol < measure.base * err
        assert abs(value - eisenstein_series_prediction(measure, phi.params, y / q, 0.25, q)) <= err


def test_mu_y_general_convolution_cylinder_refused():
    measure = parse_measure("cantor:3:0,2 * leb")
    phi = BumpTest(0.9, 2.5)
    with pytest.raises(ValueError, match="does not enumerate general convolutions"):
        mu_y_value(measure, phi, 0.25, method="cylinder", budget=10**6)


class Recording:
    """phi that keeps every array it returns, in call order."""

    def __init__(self, phi):
        self.phi, self.values = phi, []

    def __call__(self, x, y):
        self.values.append(self.phi(x, y))
        return self.values[-1]

    def joined(self):
        return np.concatenate(self.values)


@pytest.mark.parametrize(
    "y, budget, points",
    [
        (0.25, 10**6, 256),
        (0.25, 10, 8),  # 2^floor(log2 budget) nodes
        (0.25, 2, 2),
        (0.25 * 2**-10, 10**6, 1 << 15),
    ],
)
def test_lebesgue_cylinder_evaluates_phi_once_per_node_within_budget(y, budget, points):
    # the half-resolution check reads every other value instead of a second pass
    phi = Recording(BumpTest(0.9, 2.5))
    value, err = mu_y_value(parse_measure("leb"), phi, y, method="cylinder", budget=budget)
    values = phi.joined()
    assert values.size == points
    assert value == np.sum(values * (1.0 / points))
    assert err == abs(value - values[::2].mean())


def test_lebesgue_cylinder_refuses_a_budget_below_two():
    phi = Recording(BumpTest(0.9, 2.5))
    with pytest.raises(ValueError, match="cylinder budget must be >= 2 for the Lebesgue leaf, got 1"):
        mu_y_value(parse_measure("leb"), phi, 0.25, method="cylinder", budget=1)
    assert phi.values == []


BLOCKING_SIZES = [16_383, 16_384, 1 << 15, (1 << 15) + 1, 3 * (1 << 15) - 1, 200_000]
BLOCKING_CASES = [pytest.param("cantor:450:0..446", None, 0.25 * 0.5**8, n, id=str(n)) for n in BLOCKING_SIZES] + [
    pytest.param(literal, 1000, 0.25 * 0.5**14, 200_000, id=f"{literal}-block1000")
    for literal in ("leb", "cantor:450:0..446")
]


@pytest.mark.parametrize("literal, block, y, n", BLOCKING_CASES)
def test_mu_y_blocks_equal_one_unblocked_evaluation(monkeypatch, literal, block, y, n):
    from horolab import measures, modular

    measure = parse_measure(literal)
    base = (y, 0.1, 3)  # y, x0, q
    nodes = measures.sample(measure, measures.default_sample_depth(measure), n, 5)

    def cylinder_nodes(*args):  # exactly n nodes, checked at half resolution from their values
        return nodes, None

    monkeypatch.setattr(measures, "cylinder_nodes", cylinder_nodes)
    for component in ("re", "complex"):
        runs = []
        for size in (block or modular.EVAL_BLOCK, n):  # n: one block of every point
            mc = Recording(EisensteinTest(1.0, component=component))
            cyl = Recording(mc.phi)
            with monkeypatch.context() as m:
                m.setattr(modular, "EVAL_BLOCK", size)
                results = [
                    mu_y_value(measure, mc, *base, method="montecarlo", budget=n, seed=7),
                    mu_y_value(measure, cyl, *base, method="cylinder", budget=n),
                ]
            runs.append((results, mc.joined(), cyl.joined()))
        (blocked, *blocked_values), (whole, *whole_values) = runs
        assert len(mc.values) == 1 and len(cyl.values) == 1  # unblocked: one call per pass
        for v, w in zip(blocked_values, whole_values):
            assert bit_equal(v, w)
        for (v, e), (w, f) in zip(blocked, whole):
            assert bit_equal(v, w) and bit_equal(e, f)


def test_mu_y_montecarlo_deterministic_given_seed():
    measure = parse_measure("cantor:3:0,2")
    phi = BumpTest(0.9, 2.5)
    a = mu_y_value(measure, phi, 0.1, method="montecarlo", budget=5000, seed=3)
    b = mu_y_value(measure, phi, 0.1, method="montecarlo", budget=5000, seed=3)
    assert a == b
