import math
import threading
import time
import tracemalloc

import numpy as np
import pytest
import sympy
from hypothesis import Phase, assume, given, settings, strategies as st
from scipy.integrate import quad

from horolab import fitting, oscillatory
from horolab.fitting import LiteralParseError
from horolab.oscillatory import (
    BOUNDARY_TOL,
    GL_BLOCK,
    GL_NODES,
    GL_WEIGHTS,
    PhasePolynomial,
    RaisedCosineWindow,
    SmoothBumpWindow,
    ToleranceNotReachedError,
    check_xi_grid,
    exponent_fit_oscillatory,
    find_stationary_points,
    oscillatory_integral,
    oscillatory_integrals,
    parse_phase,
    parse_window,
    stationary_phase_leading,
)

X2 = PhasePolynomial((0.0, 0.0, 1.0))
X3 = PhasePolynomial((0.0, 0.0, 0.0, 1.0))
W1 = RaisedCosineWindow(0.0, 1.0)


# ---------------------------------------------------------------------------
# Windows


@pytest.mark.parametrize("window", [W1, RaisedCosineWindow(0.3, 0.7), SmoothBumpWindow(0.0, 1.0)])
def test_window_normalized_against_quadrature_oracle(window):
    a, b = window.support
    mass, _ = quad(lambda x: float(window(np.array(x))), a, b, limit=200)
    assert abs(mass - 1.0) < 1e-10
    xs = np.linspace(a - 0.5, b + 0.5, 301)
    assert (window(xs) >= 0).all()


def test_window_vanishes_outside_support():
    assert W1(np.array([1.5, -2.0])).tolist() == [0.0, 0.0]


# ---------------------------------------------------------------------------
# Stationary points


def test_stationary_points_monomials():
    points = find_stationary_points(X2, W1)
    assert [(p.x, p.order) for p in points] == [(0.0, 2)]
    points = find_stationary_points(X3, W1)
    assert [(p.x, p.order) for p in points] == [(0.0, 3)]
    assert max(p.order for p in points) == 3


def test_stationary_points_double_well():
    f = PhasePolynomial((0.0, 0.0, -0.5, 0.0, 0.25))  # x^4/4 - x^2/2
    points = find_stationary_points(f, RaisedCosineWindow(0.0, 2.0))
    assert [(round(p.x, 12), p.order) for p in points] == [(-1.0, 2), (0.0, 2), (1.0, 2)]


def test_stationary_points_count_bounded_by_degree():
    f = PhasePolynomial((1.0, -2.0, 0.5, 3.0, -0.25, 0.1))
    points = find_stationary_points(f, RaisedCosineWindow(0.0, 50.0))
    degree = len(f.coeffs) - 1
    assert sum(p.order - 1 for p in points) <= degree - 1


def test_stationary_point_at_boundary_rejected():
    # f' = 2x vanishes exactly at the left edge of [0, 2]
    with pytest.raises(ValueError, match="at the support boundary"):
        find_stationary_points(X2, RaisedCosineWindow(1.0, 1.0))


def _sympy_stationary_points(f):
    """(x, order) of every real root of f', by sympy: the test oracle."""
    x = sympy.Symbol("x")
    exact = [sympy.Rational(*c.as_integer_ratio()) for c in f.coeffs]
    _, factors = sympy.Poly(exact[::-1], x).diff(x).sqf_list()
    return sorted(
        (float(root.evalf(30)), mult + 1)
        for factor, mult in factors
        if factor.degree() >= 1
        for root in factor.real_roots()
    )


def _int_poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] += u * v
    return out


@st.composite
def _phase_with_repeated_roots(draw):
    """f with f' = L * g * prod (d x - p)^m: roots p/d of multiplicity up to
    4 and a random integer factor g (simple, irrational or complex roots).
    L = lcm(1..deg f) makes every coefficient of f an integer below 2^53,
    so the float coefficients are exact."""
    d = draw(st.sampled_from([1, 2, 4, 8]))
    dpoly = draw(st.lists(st.integers(-6, 6), min_size=1, max_size=4))
    while len(dpoly) > 1 and dpoly[-1] == 0:
        dpoly.pop()
    assume(dpoly != [0])
    for p, m in draw(st.lists(st.tuples(st.integers(-3 * d, 3 * d), st.integers(1, 4)),
                              min_size=1, max_size=3)):
        for _ in range(m):
            dpoly = _int_poly_mul(dpoly, [-p, d])
    assume(len(dpoly) <= 8)
    lcm = math.lcm(*range(1, len(dpoly) + 1))
    coeffs = [0] + [lcm * c // (j + 1) for j, c in enumerate(dpoly)]
    assume(max(abs(c) for c in coeffs) < 2**53)
    return PhasePolynomial(tuple(float(c) for c in coeffs))


# no shrink phase: a failure reports the example as generated; every example
# runs sympy's root isolation, and shrinking a failure ran for minutes and
# grew past 1 GB
@settings(max_examples=60, derandomize=True, deadline=None, phases=[Phase.generate])
@given(
    _phase_with_repeated_roots(),
    st.sampled_from(["inside", "left", "right"]),
    st.integers(0, 20),
    st.floats(-2e-9, 2e-9),
    st.floats(0.25, 4.0),
)
def test_stationary_points_match_sympy_oracle(f, edge, pick, delta, radius):
    # every root equals sympy's float(root.evalf(30)) exactly, with its
    # multiplicity; a window edge within 1e-9 of a root raises on both sides
    roots = _sympy_stationary_points(f)
    x0 = roots[pick % len(roots)][0]
    center = {"inside": x0, "left": x0 + delta + radius, "right": x0 + delta - radius}[edge]
    w = RaisedCosineWindow(center, radius)
    a, b = w.support
    inside = [(x, k) for x, k in roots if a - BOUNDARY_TOL < x < b + BOUNDARY_TOL]
    if any(abs(x - a) < BOUNDARY_TOL or abs(x - b) < BOUNDARY_TOL for x, _ in inside):
        with pytest.raises(ValueError, match="at the support boundary"):
            find_stationary_points(f, w)
    else:
        assert [(p.x, p.order) for p in find_stationary_points(f, w)] == inside
    # the whole real line: every root of f' and its order
    everywhere = RaisedCosineWindow(0.0, 1e6)
    assert [(p.x, p.order) for p in find_stationary_points(f, everywhere)] == roots


def test_no_stationary_points_for_monotone_phase():
    f = PhasePolynomial((0.0, 1.0, 0.0, 1.0))  # x + x^3, f' > 0
    points = find_stationary_points(f, W1)
    assert points == [] and max((p.order for p in points), default=0) == 0


# ---------------------------------------------------------------------------
# Oscillatory quadrature


def test_integral_at_zero_is_window_mass():
    for w in (W1, SmoothBumpWindow(0.0, 1.0)):
        assert oscillatory_integral(X2, w, 0.0) == pytest.approx(1.0, abs=1e-10)


def test_bump_mass_literal_is_the_gauss_legendre_sum():
    mass = oscillatory._BUMP_MASS
    nodes, weights = np.polynomial.legendre.leggauss(200)
    assert mass == float(np.sum(weights * np.exp(-1.0 / (1.0 - nodes**2))))
    assert abs(mass - quad(lambda u: math.exp(-1.0 / (1.0 - u * u)), -1.0, 1.0)[0]) < 1e-14


def test_total_variation_reads_certified_critical_points():
    # f = (x - 1/4)^4 in exact binary coefficients: f' has a triple root at
    # 1/4, and the variation on [-1, 1] is f(-1) + f(1) - 2 f(1/4)
    from horolab.oscillatory import _total_variation

    f = PhasePolynomial((0.00390625, -0.0625, 0.375, -1.0, 1.0))
    assert f.critical_points == ((0.25, 3),)
    assert _total_variation(f, -1.0, 1.0) == 1.25**4 + 0.75**4


def test_window_must_resolve_its_radius():
    RaisedCosineWindow(1e6, 1.0)  # float spacing 1.2e-10 at the ends
    for center in (1e12, 1e150):
        with pytest.raises(ValueError, match="does not resolve the radius"):
            RaisedCosineWindow(center, 1.0)
    with pytest.raises(ValueError, match="does not resolve the radius"):
        SmoothBumpWindow(1.0, 1e-9)


def test_panel_budget_refuses_before_allocating(monkeypatch):
    from horolab import oscillatory

    # x^2 over [-1e6, 1e6] at xi = 10 needs 1.5e13 panels from the start
    with pytest.raises(ValueError, match="over the budget"):
        oscillatory_integral(X2, RaisedCosineWindow(0.0, 1e6), 10.0)
    # the budget also stops a refinement: 57 panels at xi = 37, doubled to 114
    monkeypatch.setattr(oscillatory, "MAX_PANELS", 100)
    with pytest.raises(ValueError, match="needs 114 panels"):
        oscillatory_integral(X2, W1, 37.0)


def test_a_tol_below_the_rounding_floor_is_refused_after_one_sum(monkeypatch):
    # two refinements agree closer than eps*|sum| only by rounding luck, so a
    # tol below that floor is refused at the first sum, not after twelve doublings
    panels = []
    real = oscillatory._composite_gl
    monkeypatch.setattr(oscillatory, "_composite_gl", lambda f, w, xi, n: panels.append(n) or real(f, w, xi, n))
    with pytest.raises(ToleranceNotReachedError) as exc:
        oscillatory_integral(X2, W1, 100.0, tol=1e-300)
    floor = math.ulp(1.0) * abs(real(X2, W1, 100.0, panels[0]))
    assert len(panels) == 1 and 0 < floor < 1e-15
    assert str(exc.value).endswith(f"at xi = 100.0; its rounding floor eps*|sum| is {floor:.3g}")
    panels.clear()
    oscillatory_integral(X2, W1, 100.0, tol=1e-12)  # |I| <= 1: every tol of 1e-12 or more is above it
    assert len(panels) >= 2


def composite_gl_whole(f, w, xi, panels):
    """The quadrature sum with each chunk's node values computed at once."""
    a, b = w.support
    edges = np.linspace(a, b, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    total = 0.0 + 0.0j
    chunk = max(1, 2_000_000 // GL_NODES.size)
    for lo in range(0, panels, chunk):
        hi = min(lo + chunk, panels)
        xs = mid[lo:hi, None] + half[lo:hi, None] * GL_NODES[None, :]
        vals = np.exp(2j * np.pi * xi * f(xs)) * w(xs)
        total += complex(np.sum(vals * (half[lo:hi, None] * GL_WEIGHTS[None, :])))
    return total


@pytest.mark.parametrize("panels", [6, GL_BLOCK - 1, GL_BLOCK, GL_BLOCK + 1, 15_001, 30_002])
def test_blocked_quadrature_equals_whole_chunk_oracle(panels):
    cases = [
        (X2, W1, 1e3),
        (X3, SmoothBumpWindow(0.2, 0.7), -250.5),
        (PhasePolynomial((0.3, -1.0, 0.5, 2.0)), RaisedCosineWindow(-3.0, 2.0), 13.7),
    ]
    for f, w, xi in cases:
        got, want = oscillatory._composite_gl(f, w, xi, panels), composite_gl_whole(f, w, xi, panels)
        assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())


def test_quadrature_peak_memory_per_node():
    panels = 30_002
    oscillatory._composite_gl(X2, W1, 1e3, 6)  # first-call allocations are not counted
    tracemalloc.start()
    try:
        oscillatory._composite_gl(X2, W1, 1e3, panels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * panels * GL_NODES.size  # the whole-chunk sum held about 58 B per node


def test_integrals_raise_the_first_failing_xi(monkeypatch):
    grid = [10.0, 20.0, 30.0, 40.0, 50.0, 60.0]

    def failing(f, w, xi, tol):
        if xi == 30.0:  # fails late, after xi = 40 has failed in the other thread
            time.sleep(0.3)
            raise ToleranceNotReachedError("xi = 30")
        if xi == 40.0:
            raise ValueError("xi = 40")
        return complex(xi)

    monkeypatch.setattr(fitting, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(oscillatory, "oscillatory_integral", failing)
    before = threading.active_count()
    assert oscillatory_integrals(X2, W1, grid[:2], tol=1e-8) == [10.0, 20.0]
    with pytest.raises(ToleranceNotReachedError, match="xi = 30"):
        oscillatory_integrals(X2, W1, grid, tol=1e-8)
    assert threading.active_count() == before


def test_integrals_start_the_largest_xi_first(monkeypatch):
    started = []

    def recording(f, w, xi, tol):
        started.append(xi)
        if xi == 1000.0:
            raise ValueError("xi = 1000")
        return complex(xi)

    monkeypatch.setattr(fitting, "_usable_cpus", lambda: 1)  # serial: calls in start order
    monkeypatch.setattr(oscillatory, "oscillatory_integral", recording)
    grid = [10.0, -300.0, 20.0, 50.0]
    assert oscillatory_integrals(X2, W1, grid) == [complex(x) for x in grid]
    assert started == [-300.0, 50.0, 20.0, 10.0]
    # the largest xi fails first, and every other xi still runs
    started.clear()
    with pytest.raises(ValueError, match="xi = 1000"):
        oscillatory_integrals(X2, W1, [*grid, 1000.0])
    assert started == [1000.0, -300.0, 50.0, 20.0, 10.0]


def test_lone_integral_runs_panel_blocks_on_two_threads(monkeypatch):
    idents = set()

    class RecordingWindow(RaisedCosineWindow):
        def __call__(self, x):
            idents.add(threading.get_ident())
            return super().__call__(x)

    monkeypatch.setattr(fitting, "_usable_cpus", lambda: 2)
    before = threading.active_count()
    two = oscillatory_integral(X2, RecordingWindow(0.0, 1.0), 1e4, tol=1e-9)
    assert len(idents) == 2  # the calling thread and one helper
    assert threading.active_count() == before
    monkeypatch.setattr(fitting, "THREADS", 1)
    one = oscillatory_integral(X2, W1, 1e4, tol=1e-9)
    assert np.array([two]).view(np.int64).tolist() == np.array([one]).view(np.int64).tolist()


def test_integral_conjugate_symmetry():
    v_pos = oscillatory_integral(X2, W1, 37.0, tol=1e-10)
    v_neg = oscillatory_integral(X2, W1, -37.0, tol=1e-10)
    assert v_neg == pytest.approx(v_pos.conjugate(), abs=1e-9)


def test_integral_agrees_with_refinement_oracle():
    from horolab.oscillatory import _composite_gl

    xi, tol = 50.0, 1e-9
    val = oscillatory_integral(X2, W1, xi, tol=tol)
    dense = _composite_gl(X2, W1, xi, 4096)
    assert abs(val - dense) < 2 * tol


def test_integral_translation_covariance():
    # f + c multiplies the transform by e(xi c)
    xi, c = 23.0, 0.7
    f_shift = PhasePolynomial((c, 0.0, 1.0))
    lhs = oscillatory_integral(f_shift, W1, xi, tol=1e-10)
    rhs = np.exp(2j * np.pi * xi * c) * oscillatory_integral(X2, W1, xi, tol=1e-10)
    assert lhs == pytest.approx(rhs, abs=1e-8)


def test_integral_budget_guard():
    with pytest.raises(ValueError, match="beyond the maximum"):
        oscillatory_integral(X2, W1, 2e6)


# ---------------------------------------------------------------------------
# Stationary-phase leading term


def test_fresnel_leading_coefficient():
    lead = stationary_phase_leading(X2, W1, 1.0)
    # |a| = w(0)/sqrt(2), phase e(1/8)
    assert abs(lead) == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)
    assert np.angle(lead) == pytest.approx(2 * math.pi / 8, rel=1e-12)


def test_fresnel_matches_numeric_transform():
    xi = 10_000.0
    v = oscillatory_integral(X2, W1, xi, tol=1e-9)
    assert abs(v) * math.sqrt(2 * xi) == pytest.approx(1.0, abs=0.02)
    lead = stationary_phase_leading(X2, W1, xi)
    assert abs(v - lead) < 0.01 * abs(lead)


def test_cubic_ratio_tends_to_one():
    xi = 10_000.0
    v = oscillatory_integral(X3, W1, xi, tol=1e-9)
    lead = stationary_phase_leading(X3, W1, xi)
    assert abs(v) / abs(lead) == pytest.approx(1.0, abs=0.03)


def test_leading_zero_without_stationary_points():
    f = PhasePolynomial((0.0, 1.0))  # linear
    assert stationary_phase_leading(f, W1, 100.0) == 0
    # superpolynomial decay: faster than xi^-2 between 1e3 and 2e3
    # (off half-integers: the transform of the raised cosine has sinc zeros)
    v1 = abs(oscillatory_integral(f, W1, 1000.25, tol=1e-12))
    v2 = abs(oscillatory_integral(f, W1, 2000.25, tol=1e-12))
    assert v2 < v1 / 4.0


def test_negative_curvature_conjugates_phase():
    f = PhasePolynomial((0.0, 0.0, -1.0))
    lead = stationary_phase_leading(f, W1, 1.0)
    assert np.angle(lead) == pytest.approx(-2 * math.pi / 8, rel=1e-12)


def test_leading_requires_xi_at_least_one():
    with pytest.raises(ValueError):
        stationary_phase_leading(X2, W1, 0.5)


# ---------------------------------------------------------------------------
# Exponent fits


def test_exponent_fit_quadratic():
    grid = np.geomspace(10, 10**4, 19)
    report = exponent_fit_oscillatory(X2, W1, grid, tol=1e-10)
    assert 0.47 <= report.exponent <= 0.53
    assert report.status == "ok"


def test_exponent_fit_cubic():
    grid = np.geomspace(10, 10**4, 19)
    report = exponent_fit_oscillatory(X3, W1, grid, tol=1e-10)
    assert 0.30 <= report.exponent <= 0.37


def test_check_xi_grid_is_the_one_grid_rule():
    # exact two-decade grids pass although 1.1 * 100 > 110 in floats
    for start, stop in ((1.1, 110.0), (0.07, 7.0)):
        grid = np.geomspace(start, stop, 6)
        assert check_xi_grid(grid[::-1]).tolist() == grid.tolist()
    for bad, needle in [
        (np.geomspace(10, 1000, 5), "at least 6"),
        (np.geomspace(10, 999, 6), "two decades"),
        ([0.0, 1, 10, 100, 1000, 1e4], "positive"),
        ([np.nan, 1, 10, 100, 1000, 1e4], "positive"),
        (np.geomspace(10, 2e6, 6), "beyond the maximum"),
    ]:
        with pytest.raises(ValueError, match=needle):
            check_xi_grid(bad)
    with pytest.raises(ValueError, match="two decades"):
        exponent_fit_oscillatory(X2, W1, np.geomspace(10, 999, 6))


def test_exponent_fit_linear_flags_superpolynomial():
    f = PhasePolynomial((0.0, 1.0))
    grid = np.geomspace(10, 2000, 12)
    report = exponent_fit_oscillatory(f, W1, grid, tol=1e-12)
    assert report.status == "superpolynomial"
    assert report.exponent > 2.0


def test_exponent_fit_ratio_monotone_last_decade():
    grid = np.geomspace(10, 10**4, 17)
    last = [x for x in grid if x >= 10**3]
    ratios = []
    for xi in last:
        v = abs(oscillatory_integral(X2, W1, float(xi), tol=1e-11))
        ratios.append(abs(v / abs(stationary_phase_leading(X2, W1, float(xi))) - 1.0))
    assert all(b <= a + 1e-6 for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] < 0.03


# ---------------------------------------------------------------------------
# Literals


def test_parse_phase_and_window():
    f = parse_phase("poly:0,0,1")
    assert f.coeffs == (0.0, 0.0, 1.0)
    w = parse_window("coswin:0.5,2")
    assert w.center == 0.5 and w.radius == 2.0
    assert isinstance(parse_window("bumpwin:0,1"), SmoothBumpWindow)
    # numbers may be spaced
    assert parse_phase("poly: 0, 0, 1") == f
    assert parse_window("coswin: 0 , 1") == parse_window("coswin:0,1")


@pytest.mark.parametrize(
    "bad, production",
    [
        ("poly:1", "<phase>"),  # constant
        ("poly:a,b", "<phase>"),
        ("spline:1,2", "<phase>"),
        ("coswin:1", "<window>"),
        ("sqwin:0,1", "<window>"),
        ("poly:0,0,nan", "<phase>"),
        ("poly:inf,1", "<phase>"),
        ("coswin:0,nan", "<window>"),
        ("bumpwin:nan,1", "<window>"),
        ("coswin:0,inf", "<window>"),
        ("coswin:1.5e308,1", "<window>"),  # beyond the 2**1023 root search
    ],
)
def test_parse_errors_name_production(bad, production):
    parser = parse_phase if production == "<phase>" else parse_window
    with pytest.raises(LiteralParseError) as err:
        parser(bad)
    assert production in str(err.value)
