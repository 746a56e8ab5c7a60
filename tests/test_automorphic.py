import cmath
import hashlib
import math
import subprocess
import sys
import threading
import time

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.interpolate import CubicSpline
from scipy.special import kv as scipy_kv

from horolab.automorphic import (
    K_NEGLIGIBLE_X,
    K_SPLINE_FROM,
    K_SPLINE_KNOTS,
    K_SPLINE_X0,
    SQRT3_HALF,
    EisensteinParams,
    TwistedSumSpec,
    _live_end,
    bessel_K_imag,
    bessel_K_series,
    constant_term,
    eisenstein_values,
    gamma_complex,
    hecke_range,
    horocycle_fourier_coeff,
    sigma_range,
    spectral_gap_fit,
    truncation_tail_mass,
    twisted_sum_series,
    zeta_1line,
)
from horolab.modular import reduce_many
from horolab.testfunctions import ConstantTest, EisensteinTest

from conftest import divisor_tau, hecke_eis, whittaker_coefficient

mp.mp.dps = 30


def eta_oracle(s: complex, n: int = 40) -> complex:
    """Borwein's alternating-series algorithm for the Dirichlet eta function."""
    d = [0.0] * (n + 1)
    acc = 0.0
    for i in range(n + 1):
        acc += math.factorial(n + i - 1) * 4.0**i / (
            math.factorial(n - i) * math.factorial(2 * i)
        ) if i > 0 else math.factorial(n - 1) * 1.0 / math.factorial(n)
        d[i] = n * acc
    total = 0.0 + 0.0j
    for k in range(n):
        total += (-1) ** k * (d[k] - d[n]) / complex(k + 1) ** s
    eta = -total / d[n]
    return eta / (1.0 - 2.0 ** (1.0 - s))


# ---------------------------------------------------------------------------
# zeta and gamma


def test_zeta_euler_identity():
    assert zeta_1line(2.0) == pytest.approx(math.pi**2 / 6, abs=1e-12)


def test_zeta_matches_eta_oracle_on_the_one_line():
    for s in (1 + 2j, 1 + 0.5j, 1.5 + 3j, 2 - 7j):
        assert zeta_1line(s) == pytest.approx(eta_oracle(s), abs=1e-9)


def test_zeta3_matches_direct_summation_oracle():
    n = 10**7
    direct = float(np.sum(np.arange(1, n + 1, dtype=float) ** -3.0))
    tail = 1 / (2 * n**2) - 1 / (2 * n**3)  # Euler-Maclaurin tail of sum n^-3
    assert zeta_1line(3.0).real == pytest.approx(direct + tail, abs=1e-9)


def test_zeta_matches_mpmath_across_strip():
    for s in (1 + 1j, 1 + 49j, 3.7 - 21j, 1.0001 + 0.01j):
        ref = complex(mp.zeta(s))
        assert abs(zeta_1line(s) - ref) <= 1e-10 * abs(ref)


def test_zeta_pole_guard_and_domain():
    with pytest.raises(ValueError, match="within 1e-6 of the pole"):
        zeta_1line(1.0 + 1e-9j)
    with pytest.raises(ValueError):
        zeta_1line(0.5 + 2j)


def test_gamma_lanczos_matches_mpmath():
    for z in (0.5 + 1j, 0.5 + 30j, 2.5 - 11j, 0.5 - 1j, 4.0 + 0j):
        ref = complex(mp.gamma(z))
        assert abs(gamma_complex(z) - ref) <= 1e-12 * abs(ref)


# ---------------------------------------------------------------------------
# divisor sums


def test_divisor_tau_small_values():
    assert divisor_tau(6, 0) == 4
    assert divisor_tau(4, 2) == 21
    assert divisor_tau(1, 5) == 1


def test_divisor_tau_multiplicative_on_coprimes():
    rng = np.random.default_rng(0)
    for _ in range(10):
        z = complex(rng.normal(), rng.normal())
        lhs = divisor_tau(6, z)
        rhs = divisor_tau(2, z) * divisor_tau(3, z)
        assert lhs == pytest.approx(rhs, rel=1e-12)
    assert divisor_tau(12, 3) == divisor_tau(4, 3) * divisor_tau(3, 3)


def test_sigma_range_matches_scalar():
    z = 2j
    arr = sigma_range(z, 50)
    for m in (1, 7, 30, 50):
        assert arr[m - 1] == pytest.approx(complex(divisor_tau(m, z)), rel=1e-12)


# ---------------------------------------------------------------------------
# K-Bessel


def test_k0_reference_value():
    assert bessel_K_imag(0.0, 1.0) == pytest.approx(0.4210244382, abs=1e-9)
    assert bessel_K_imag(0.0, 1.0) == pytest.approx(float(scipy_kv(0, 1.0)), abs=1e-13)


def test_k_imag_matches_adaptive_quadrature_oracle():
    for t, x in ((1.0, 0.5), (2.5, 3.0), (0.7, 1e-3), (8.0, 0.2)):
        umax = math.acosh(max(math.log(1e19) / x, 2.0))
        oracle, _ = quad(
            lambda u: math.exp(-x * math.cosh(u)) * math.cos(t * u),
            0.0, umax, limit=400, epsabs=1e-14, epsrel=1e-12,
        )
        assert bessel_K_imag(t, x) == pytest.approx(oracle, abs=1e-11)


def test_k_imag_matches_mpmath_extremes():
    for t, x in ((1.0, 5.44), (30.0, 1e-3), (16.0, 0.01), (1.0, 650.0)):
        ref = float(mp.re(mp.besselk(1j * t, mp.mpf(x))))
        assert abs(bessel_K_imag(t, x) - ref) < 1e-12


def test_k_imag_asymptotic_normalization():
    # K_it(x) sqrt(2x/pi) e^x -> 1; at x = 30 the drift is below 1%
    for t in (0.0, 0.5):
        x = 30.0
        val = bessel_K_imag(t, x) * math.sqrt(2 * x / math.pi) * math.exp(x)
        assert abs(val - 1.0) < 0.01


def test_k_imag_positive_at_zero_order():
    xs = np.geomspace(1e-3, 20, 50)
    assert (bessel_K_imag(0.0, xs) > 0).all()


def test_k_imag_step_halving_stable(monkeypatch):
    from horolab import automorphic

    assert automorphic.K_BASE_STEP == 1.0 / 64
    a = bessel_K_imag(1.0, 2.0)
    monkeypatch.setattr(automorphic, "K_BASE_STEP", 1.0 / 128)
    b = bessel_K_imag(1.0, 2.0)
    assert abs(a - b) < 1e-12


@pytest.mark.parametrize("t", [1.0, 30.0])
def test_k_imag_chunks_equal_one_chunk_on_spline_grid(t):
    # rows are summed independently, so chunking keeps every bit
    from horolab import automorphic

    grid = np.linspace(K_SPLINE_X0, K_NEGLIGIBLE_X, K_SPLINE_KNOTS)
    step = automorphic.K_BASE_STEP / max(1.0, t / 8.0)
    ch, w = automorphic._de_weights(t, float(grid.min()), step)
    assert grid.size * ch.size > 250_000  # more than one chunk
    one_chunk = (np.exp(-np.outer(grid, ch)) * w).sum(axis=1)
    assert bessel_K_imag(t, grid).tobytes() == one_chunk.tobytes()


def test_k_imag_underflow_flagged():
    # beyond x = 700 exp(-x) underflows and K is exactly 0
    assert bessel_K_imag(1.0, 701.0) == 0.0
    val = bessel_K_imag(1.0, 5.0)
    assert val > 0 or val < 0  # finite nonzero


def test_k_imag_domain_checks():
    with pytest.raises(ValueError):
        bessel_K_imag(31.0, 1.0)
    with pytest.raises(ValueError):
        bessel_K_imag(1.0, -2.0)


# ---------------------------------------------------------------------------
# Eisenstein series


@pytest.fixture(scope="module")
def params_t1():
    return EisensteinParams(1.0)


def test_scattering_unimodular_across_t():
    for t in (0.5, 1.0, 2.0, 5.0, 10.0):
        p = EisensteinParams(t)
        assert abs(abs(p.c) - 1.0) < 1e-9


def test_constant_term_bound_and_value(params_t1):
    rng = np.random.default_rng(2)
    for _ in range(100):
        y = float(rng.uniform(0.01, 10))
        t = float(rng.uniform(0.3, 8))
        p = EisensteinParams(t)
        assert abs(constant_term(y, p)) <= 2 * math.sqrt(y) + 1e-12
    assert constant_term(1.0, params_t1) == pytest.approx(1.0 + params_t1.c)


def eisenstein_at(x, y, p):
    """E at one point x + iy, through the array evaluator."""
    return eisenstein_values(np.array([x]), np.array([y]), p)[0]


def test_eisenstein_periodicity(params_t1):
    x, y = reduce_many(0.31, 1.4)
    v1 = eisenstein_at(x, y, params_t1)
    v2 = eisenstein_values(np.array([x + 1.0]), np.array([y]), params_t1)[0]
    assert v1 == pytest.approx(v2, abs=1e-14)


def test_eisenstein_modular_invariance(params_t1):
    rng = np.random.default_rng(4)
    for _ in range(20):
        x, y = reduce_many(rng.uniform(-0.5, 0.5), rng.uniform(0.9, 3.0))
        r2 = x**2 + y**2
        v1 = eisenstein_at(x, y, params_t1)
        v2 = eisenstein_at(*reduce_many(-x / r2, y / r2), params_t1)
        assert v1 == pytest.approx(v2, abs=1e-9)


@pytest.mark.parametrize("t", [1.0, 10.0, 14.0])
def test_eisenstein_arc_invariance_up_to_the_cap(t):
    # E(-1/z) = E(z) for z on the arc |z| = 1.0005 over the fundamental
    # domain, -1/z just inside the unit circle, both summed by the series; at
    # t = 30 this fails (relative error 1.3), so orders past 14 are refused
    p = EisensteinParams(t)
    th = np.linspace(math.pi / 3, 2 * math.pi / 3, 202)[1:-1]
    z = 1.0005 * np.exp(1j * th)
    w = -1 / z
    here, there = eisenstein_values(z.real, z.imag, p), eisenstein_values(w.real, w.imag, p)
    assert np.abs(here - there).max() <= 1e-9 * np.abs(here).max()


def test_eisenstein_constant_term_by_quadrature(params_t1):
    y = 2.0
    n = 2048
    xs = np.arange(n) / n
    vals = eisenstein_values(xs, np.full(n, y), params_t1)
    expect = constant_term(y, params_t1)
    assert abs(vals.mean() - expect) < 1e-8


def test_eisenstein_realness_after_symmetrization(params_t1):
    # xi(1+2it)/|xi(1+2it)| rotates E to a real-valued function, with
    # xi(u) = pi^(-u/2) Gamma(u/2) zeta(u)
    u = 1 + 2j * params_t1.t
    xi1 = cmath.exp(-u / 2 * math.log(math.pi)) * gamma_complex(u / 2) * zeta_1line(u)
    rot = xi1 / abs(xi1)
    rng = np.random.default_rng(6)
    for _ in range(50):
        x, y = reduce_many(rng.uniform(-0.5, 0.5), rng.uniform(0.87, 4.0))
        val = rot * eisenstein_at(x, y, params_t1)
        assert abs(val.imag) < 1e-9


def test_eisenstein_params_evaluates_zeta_once(monkeypatch):
    # xi(1+2it) is built from the stored zeta(1+2it), not from a second zeta_1line call
    from horolab import automorphic

    calls = []
    real = automorphic.zeta_1line
    monkeypatch.setattr(automorphic, "zeta_1line", lambda s: calls.append(s) or real(s))
    EisensteinParams(1.0)
    assert calls == [1 + 2j]
    monkeypatch.undo()
    # c(t) and the Whittaker norm keep the bits of a second, independent zeta call
    for t in (0.37, 1.0, 5.5, 14.0):
        u = 1 + 2j * t
        xi1 = cmath.exp(-u / 2.0 * math.log(math.pi)) * gamma_complex(u / 2.0) * zeta_1line(u)
        p = EisensteinParams(t)
        assert p.c == xi1.conjugate() / xi1
        assert p.whittaker_norm == 2.0 * zeta_1line(u) / xi1


def test_eisenstein_laplace_eigenvalue(params_t1):
    # independent differential oracle: -y^2 (E_xx + E_yy) = (1/4 + t^2) E
    x0, y0, h = 0.123, 1.3, 1e-4

    def E(x, y):
        return eisenstein_values(np.array([x]), np.array([y]), params_t1)[0]

    lap = (E(x0 + h, y0) + E(x0 - h, y0) + E(x0, y0 + h) + E(x0, y0 - h) - 4 * E(x0, y0)) / h**2
    lhs = -(y0**2) * lap
    rhs = (0.25 + params_t1.t**2) * E(x0, y0)
    assert abs(lhs - rhs) < 1e-5 * abs(rhs)


def test_k_fast_matches_bessel_on_reduced_range():
    # the series K rule at five orders: quadrature bit for bit below
    # sqrt(3) pi, the spline within 1e-14 on [sqrt(3) pi, 46), 0 from 46
    rng = np.random.default_rng(11)
    spline_w = np.concatenate(
        ([math.sqrt(3) * math.pi, np.nextafter(K_NEGLIGIBLE_X, 0.0)],
         rng.uniform(math.sqrt(3) * math.pi, K_NEGLIGIBLE_X, 10_000))
    )
    low_w = np.concatenate(
        ([1e-3, np.nextafter(K_SPLINE_FROM, 0.0)], rng.uniform(1e-3, K_SPLINE_FROM, 500))
    )
    far_w = np.array([K_NEGLIGIBLE_X, 46.5, 100.0, 700.0, 1e6])
    assert K_SPLINE_FROM == math.sqrt(3) * math.pi
    for t in (0.05, 1.0, 5.0, 13.78, 30.0):
        assert np.abs(bessel_K_series(t, spline_w) - bessel_K_imag(t, spline_w)).max() <= 1e-14
        assert np.array_equal(bessel_K_series(t, far_w), np.zeros(far_w.size))
        w = np.concatenate((low_w, spline_w, far_w))
        low = w < K_SPLINE_FROM
        assert bessel_K_series(t, w)[low].tobytes() == bessel_K_imag(t, w)[low].tobytes()


def test_k_fast_exactly_zero_beyond_negligible(params_t1):
    w = np.array([K_NEGLIGIBLE_X, 46.5, 100.0, 700.0, 1e6])
    assert np.array_equal(bessel_K_series(params_t1.t, w), np.zeros(w.size))


def test_k_fast_matches_scipy_not_a_knot_spline(params_t1):
    grid = np.linspace(K_SPLINE_X0, K_NEGLIGIBLE_X, K_SPLINE_KNOTS)
    oracle = CubicSpline(grid, bessel_K_imag(params_t1.t, grid))  # not-a-knot by default
    w = np.random.default_rng(12).uniform(K_SPLINE_FROM, K_NEGLIGIBLE_X, 10_000)
    assert np.abs(bessel_K_series(params_t1.t, w) - oracle(w)).max() <= 1e-18


def test_k_spline_built_once_per_order(monkeypatch):
    from horolab import automorphic

    automorphic._k_spline.cache_clear()
    builds = []
    real = automorphic._not_a_knot_spline

    def slow_build(x, y):  # slow enough that both threads below miss the cache
        builds.append(x.size)
        time.sleep(0.2)
        return real(x, y)

    monkeypatch.setattr(automorphic, "_not_a_knot_spline", slow_build)
    w = np.array([6.0, 20.0, 45.9])
    together = threading.Barrier(2)
    firsts = [None, None]

    def first_call(i):
        together.wait()
        firsts[i] = bessel_K_series(1.0, w)

    threads = [threading.Thread(target=first_call, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    first = firsts[0]
    EisensteinParams(1.0)
    assert first.tobytes() == firsts[1].tobytes() == bessel_K_series(1.0, w).tobytes()
    assert builds == [K_SPLINE_KNOTS]


def test_k_spline_coefficients_are_pinned():
    # bessel_K_imag sums each row of its quadrature on its own, so the row
    # chunk it evaluates at once moves no bit of the spline
    from horolab import automorphic

    _, coef = automorphic._k_spline.__wrapped__(1.0)  # built afresh, not from the cache
    assert hashlib.sha256(coef.tobytes()).hexdigest() == (
        "f0bf09047cb09cd332a31d843565b8e45d3e9ecb7f4c06941364b8f6728405f1"
    )


DENSE_TERMS = 16  # twice the 8 terms that are live on reduced points


def eisenstein_dense(x, y, p):
    """constant term plus DENSE_TERMS coefficient terms with bessel_K_imag, unpruned."""
    val = constant_term(y, p)
    for m in range(1, DENSE_TERMS + 1):
        val += 2.0 * whittaker_coefficient(p, m, y) * np.cos(2 * np.pi * m * x)
    return val


def test_eisenstein_values_match_dense_reference(params_t1):
    rng = np.random.default_rng(13)
    y = np.geomspace(SQRT3_HALF, 40.0, 400)
    x = rng.uniform(-0.5, 0.5, y.size)
    err = np.abs(eisenstein_values(x, y, params_t1) - eisenstein_dense(x, y, params_t1))
    # the spline is within 1e-14 of K_it; term n scales it by 2 |a_n| sqrt(y), y < 46/(2 pi)
    scale = sum(
        2 * abs(params_t1.whittaker_norm * hecke_eis(m, params_t1))
        for m in range(1, DENSE_TERMS + 1)
    )
    assert err.max() < 1e-14 * scale * math.sqrt(K_NEGLIGIBLE_X / (2 * np.pi))


def test_reduced_points_have_eight_live_terms(params_t1):
    # 2 pi n y < 46 on y >= sqrt(3)/2 holds for n <= 8 only
    # and eisenstein_values reads the 8-entry table coef(8)
    assert _live_end(SQRT3_HALF) == 8
    coef = params_t1.coef(8)
    want = [params_t1.whittaker_norm * hecke_eis(m, params_t1) for m in range(1, 9)]
    assert coef.size == 8 and coef == pytest.approx(want, rel=1e-13)
    assert 2 * math.pi * 8 * SQRT3_HALF < K_NEGLIGIBLE_X <= 2 * math.pi * 9 * SQRT3_HALF


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=1e-6, max_value=0.5, exclude_min=True, exclude_max=True))
def test_live_end_counts_the_live_terms(y):
    m = np.arange(1, math.ceil(K_NEGLIGIBLE_X / (2 * math.pi * y)) + 2)
    assert _live_end(y) == np.count_nonzero(2 * math.pi * (m * y) < K_NEGLIGIBLE_X)


def test_eisenstein_values_in_cusp_equal_constant_term(params_t1):
    y = np.array([np.nextafter(K_NEGLIGIBLE_X / (2 * np.pi), np.inf), 8.0, 50.0, 1e4])
    x = np.array([0.1, -0.3, 0.5, 0.0])
    assert np.array_equal(eisenstein_values(x, y, params_t1), constant_term(y, params_t1))


def test_eisenstein_values_empty_and_shape(params_t1):
    assert eisenstein_values(np.array([]), np.array([]), params_t1).shape == (0,)
    rng = np.random.default_rng(14)
    x = rng.uniform(-0.5, 0.5, (3, 5))
    y = rng.uniform(SQRT3_HALF, 9.0, (3, 5))
    got = eisenstein_values(x, y, params_t1)
    assert got.shape == (3, 5)
    assert np.array_equal(got.ravel(), eisenstein_values(x.ravel(), y.ravel(), params_t1))
    assert np.array_equal(eisenstein_values(x.T, y.T, params_t1), got.T)  # Fortran order


@pytest.mark.parametrize("real", [False, True])
def test_eisenstein_values_do_not_depend_on_how_points_are_split(params_t1, real):
    # no product of complex arrays may depend on the array's length: numpy
    # runs an operator on a large temporary in place, operands swapped
    n = 200_000
    x, y = reduce_many(np.random.default_rng(31).random(n), 0.25 * 2.0**-14)
    whole = eisenstein_values(x, y, params_t1, real=real)
    for size in (1000, 16_383, 40_000):
        parts = [eisenstein_values(x[i:i + size], y[i:i + size], params_t1, real=real) for i in range(0, n, size)]
        assert np.concatenate(parts).tobytes() == whole.tobytes()


def test_import_loads_no_scipy():
    # scipy, sympy and mpmath are test-only oracles; the package must not
    # need them at run time
    code = (
        "import sys, horolab; print(sorted(m for m in sys.modules"
        " if m.split('.')[0] in ('scipy', 'sympy', 'mpmath')))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# Hecke eigenvalues


def test_hecke_at_one(params_t1):
    assert hecke_eis(1, params_t1) == pytest.approx(1.0 / params_t1.zeta_1p2it)


def test_hecke_triangle_bound(params_t1):
    for m in (2, 12, 97, 360):
        bound = divisor_tau(m, 0) / abs(params_t1.zeta_1p2it)
        assert abs(hecke_eis(m, params_t1)) <= bound + 1e-12


def test_hecke_mean_square_subpolynomial(params_t1):
    # average Ramanujan: sum_{m<=X} |lambda(m)|^2 grows below X^1.1 (the
    # growth rate is the claim; the absolute level carries a constant ~6)
    sig = sigma_range(2j, 10**4)
    lam2 = np.abs(sig / params_t1.zeta_1p2it) ** 2
    csum = np.cumsum(lam2)
    Xs = np.array([100, 1000, 10**4])
    sums = csum[Xs - 1]
    slope = np.polyfit(np.log(Xs), np.log(sums), 1)[0]
    assert slope < 1.1


# ---------------------------------------------------------------------------
# Horocycle Fourier coefficients


def test_coeff_m0_is_constant_term(params_t1):
    phi = EisensteinTest(1.0, component="complex")
    for y in (0.2, 0.05):
        got = horocycle_fourier_coeff(phi, 0, y, 4096)
        assert abs(got - constant_term(y, params_t1)) < 1e-8


def test_coeff_matches_analytic_series_coefficient(params_t1):
    phi = EisensteinTest(1.0, component="complex")
    for y in (0.2, 0.05):
        for m in (1, 2, 5, 20):
            got = horocycle_fourier_coeff(phi, m, y, 4096)
            want = whittaker_coefficient(params_t1, m, y)
            assert abs(got - want) < 1e-7


def test_coeff_constant_function_vanishes():
    phi = ConstantTest(2.0)
    for m in (1, 3, 8):
        assert abs(horocycle_fourier_coeff(phi, m, 0.2, 512)) < 1e-14


def test_coeff_quadrature_preconditions():
    phi = ConstantTest()
    with pytest.raises(ValueError):
        horocycle_fourier_coeff(phi, 1, 0.2, 100)  # not a power of two
    with pytest.raises(ValueError):
        horocycle_fourier_coeff(phi, 200, 0.2, 512)  # below 4|m|


def test_spectral_gap_degenerate_for_constant():
    ys = 2.0 ** -np.arange(3, 8)
    report = spectral_gap_fit(ConstantTest(1.0), ys)
    assert report.status == "degenerate"


def test_spectral_gap_eisenstein_decays():
    ys = 2.0 ** -np.arange(3, 9)
    report = spectral_gap_fit(EisensteinTest(1.0, component="complex"), ys)
    assert report.status == "ok"
    assert report.exponent > 0.1  # decays, though slower than sqrt(y) at this scale


# ---------------------------------------------------------------------------
# Truncation tail and twisted sums


def test_truncation_tail_against_direct_oracle(params_t1):
    y, sigma = 0.05, 1.2
    tail = truncation_tail_mass(params_t1, y, sigma)
    m_start = math.floor(y**-sigma) + 1
    oracle = 0.0
    for m in range(m_start, m_start + 400):
        lam = abs(complex(divisor_tau(m, 2j))) / abs(params_t1.zeta_1p2it)
        oracle += lam * float(mp.re(mp.besselk(1j, 2 * math.pi * m * y)))
    oracle *= 2 * abs(params_t1.whittaker_norm) * math.sqrt(y)
    assert tail == pytest.approx(oracle, rel=1e-6)


def test_truncation_tail_monotone_in_sigma(params_t1):
    tails = [truncation_tail_mass(params_t1, 0.05, s) for s in (1.1, 1.3, 1.6, 2.0)]
    assert all(b <= a for a, b in zip(tails, tails[1:]))


def test_truncation_tail_tiny_at_deep_height(params_t1):
    assert truncation_tail_mass(params_t1, 0.01, 1.5) < 1e-12


def twisted_sum_at(spec, y):
    """The twisted sum at y, read off a sweep over [y, y/2]."""
    cols = twisted_sum_series(spec, [y, y / 2]).extra_columns
    return complex(cols["re"][0], cols["im"][0])


def test_twisted_sum_periodic_in_alpha():
    spec0 = TwistedSumSpec(t=1.0, delta=0.3, alpha=0.37)
    spec1 = TwistedSumSpec(t=1.0, delta=0.3, alpha=1.37)
    y = 0.1
    assert twisted_sum_at(spec0, y) == pytest.approx(twisted_sum_at(spec1, y), rel=1e-9)


def test_twisted_sum_against_mpmath_oracle():
    spec = TwistedSumSpec(t=1.0, delta=0.3, alpha=0.0)
    y = 0.125
    p = EisensteinParams(1.0)
    oracle = 0.0 + 0.0j
    for m in range(1, 260):  # terms beyond 260 are < 1e-80 at this height
        lam = m ** (-1j) * complex(divisor_tau(m, 2j)) / p.zeta_1p2it
        w = math.sqrt(m * y) * float(mp.re(mp.besselk(1j, 2 * math.pi * m * y)))
        oracle += lam * m ** (-spec.exponent) * w * 2.0
    assert twisted_sum_at(spec, y) == pytest.approx(oracle, rel=1e-8)


@pytest.mark.parametrize("k", [1, 2, 16, 997, 2999, 3000])
def test_sieve_prefix_is_bit_identical(k, params_t1):
    # the sieve adds d^z to index m in increasing d, and lambda is
    # elementwise, so a long table sliced to k is the short table
    assert sigma_range(2j, 3000)[:k].tobytes() == sigma_range(2j, k).tobytes()
    assert hecke_range(params_t1, 3000)[:k].tobytes() == hecke_range(params_t1, k).tobytes()
    m = min(k, 40)
    assert hecke_range(params_t1, k)[m - 1] == pytest.approx(hecke_eis(m, params_t1), rel=1e-13)


def test_coef_prefix_is_bit_identical(params_t1):
    # past 16384 entries numpy would scale an unnamed table in place, with
    # the operands swapped, and round complex products differently
    full = params_t1.coef(40_000)
    for k in (1, 8, 3000, 20_000):
        assert full[:k].tobytes() == params_t1.coef(k).tobytes()


def test_twisted_sum_series_sieves_once(monkeypatch):
    from horolab import automorphic

    calls = []
    real = automorphic.sigma_range
    monkeypatch.setattr(automorphic, "sigma_range", lambda z, m: calls.append(m) or real(z, m))
    spec = TwistedSumSpec(t=1.0, delta=0.3, alpha=0.37)
    twisted_sum_series(spec, 2.0 ** -np.arange(2, 9))
    # lambda is needed only where K is live, 2 pi m y < 46 at the smallest
    # y; EisensteinParams sieves its 8 reduced-point coefficients on its own
    assert [m for m in calls if m != 8] == [math.floor(46.0 / (2 * math.pi * 2.0**-8))]


def test_height_sweeps_keep_their_bytes_on_two_threads(monkeypatch):
    # the heights run longest first on two threads and come back in grid order
    from horolab import fitting
    from horolab.automorphic import eisenstein_series_prediction
    from horolab.measures import parse_measure

    monkeypatch.setattr(fitting, "_usable_cpus", lambda: 2)  # threads even on one CPU
    spec = TwistedSumSpec(t=1.0, delta=0.5, alpha=0.37)
    params = EisensteinParams(1.0)
    measure = parse_measure("cantor:3:0,2")
    heights = np.array([0.05, 0.2, 0.0125, 0.1, 0.025])  # not sorted: the output keeps this order

    def run():
        twisted = twisted_sum_series(spec, 0.25 * 2.0 ** -np.arange(8))
        predicted = eisenstein_series_prediction(measure, params, heights, 0.25, 2)
        return twisted.errors.tobytes(), twisted.extra_columns["re"].tobytes(), predicted.tobytes()

    started = []
    real_start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda t: started.append(t) or real_start(t))
    monkeypatch.setattr(fitting, "THREADS", 2)
    threaded = run()
    assert len(started) == 2  # one helper per sweep
    monkeypatch.setattr(fitting, "THREADS", 1)
    assert run() == threaded
    assert len(started) == 2
    single = [eisenstein_series_prediction(measure, params, h, 0.25, 2) for h in heights]
    assert threaded[2] == np.array(single).tobytes()


def _sigma_range_loop(z, m_max):
    # the plain sieve: one slice update per d, so index m - 1 receives its
    # divisors in increasing order
    out = np.zeros(m_max, dtype=complex)
    for d in range(1, m_max + 1):
        out[d - 1 :: d] += d ** complex(z)
    return out


@pytest.mark.parametrize(
    "m_max, t",
    [pytest.param(m, 1.0, id=str(m)) for m in (1, 2, 3, 4, 5, 9, 16, 97, 121, 997, 7919, 10201, 2228, 11140, 29987, 228164)]
    + [pytest.param(29987, t, id=f"29987-t{t:g}") for t in (5e-7, 0.5, 10.0, 30.0)],
)
def test_sigma_range_equals_per_divisor_loop(m_max, t):
    # squares, primes, m = 1..5 and twisted-sweep horizons at t = 1; the
    # vectorised powers keep the bits of d ** z at every order
    z = 2j * t
    assert sigma_range(z, m_max).tobytes() == _sigma_range_loop(z, m_max).tobytes()


TWISTED_YS = 0.25 * 2.0 ** -np.array([0, 3, 6, 9])


@pytest.fixture(scope="module")
def full_horizon_terms():
    """lambda(m) sqrt(m y) K_it(2 pi m y) on every m up to the underflow
    horizon, with K by quadrature on all of them (no spline, no 46 cut)."""
    p = EisensteinParams(1.0)
    ends = [math.floor(700.0 / (2 * math.pi * y)) for y in TWISTED_YS]
    lam = hecke_range(p, max(ends))
    terms = []
    for y, n in zip(TWISTED_YS, ends):
        m = np.arange(1, n + 1)
        u = m * y
        terms.append((m, lam[:n], np.sqrt(u) * bessel_K_imag(1.0, 2 * math.pi * u)))
    return terms


@pytest.mark.parametrize("regime", ["one_plus_delta", "half_plus_delta"])
@pytest.mark.parametrize(
    "alpha",
    [0.0, 0.5, float(np.random.default_rng(2024).random()), (math.sqrt(5) - 1) / 2, 1.0 / 3],
)
def test_twisted_sum_equals_full_horizon_oracle(alpha, regime, full_horizon_terms):
    # the spline, the 46 cut and rounding move each sum by at most 1e-14 of
    # its absolute mass sum 2 |lambda(m)| m^-e sqrt(m y)
    spec = TwistedSumSpec(t=1.0, delta=0.5, alpha=alpha, regime=regime)
    report = twisted_sum_series(spec, TWISTED_YS)
    got = report.extra_columns["re"] + 1j * report.extra_columns["im"]
    for y, value, (m, lam, w) in zip(TWISTED_YS, got, full_horizon_terms):
        oracle = np.sum(lam * m ** (-spec.exponent) * w * 2.0 * np.cos(2 * math.pi * m * alpha))
        mass = np.sum(2.0 * np.abs(lam) * m ** (-spec.exponent) * np.sqrt(m * y))
        assert abs(value - oracle) <= 1e-14 * mass


def test_twisted_sweep_evaluates_k_only_below_46(monkeypatch):
    from horolab import automorphic

    nodes = []
    real = automorphic.bessel_K_series
    monkeypatch.setattr(
        automorphic, "bessel_K_series", lambda t, x: nodes.append(np.asarray(x)) or real(t, x)
    )
    ys = [*2.0 ** -np.arange(2, 9), 0.01]
    spec = TwistedSumSpec(t=1.0, delta=0.3, alpha=0.37)
    twisted_sum_series(spec, ys)
    x = np.concatenate(nodes)
    assert x.max() < K_NEGLIGIBLE_X
    live = [
        np.count_nonzero(2 * math.pi * np.arange(1, math.floor(700.0 / (2 * math.pi * y)) + 1) * y
                         < K_NEGLIGIBLE_X)
        for y in ys
    ]
    assert x.size == sum(live)


def test_twisted_sum_decay_untwisted():
    spec = TwistedSumSpec(t=1.0, delta=0.3, alpha=0.0, regime="one_plus_delta")
    report = twisted_sum_series(spec, 2.0 ** -np.arange(3, 13))
    assert report.exponent >= 0.05
    assert report.errors[0] > report.errors[-1]


def test_twisted_sum_decay_irrational_twist():
    spec = TwistedSumSpec(t=1.0, delta=0.4, alpha=math.sqrt(2), regime="half_plus_delta")
    report = twisted_sum_series(spec, 2.0 ** -np.arange(3, 11))
    assert report.exponent > 0.0


def test_twisted_spec_validation():
    with pytest.raises(ValueError):
        TwistedSumSpec(t=1.0, delta=1.5, alpha=0.0)
    with pytest.raises(ValueError):
        TwistedSumSpec(t=1.0, delta=0.5, alpha=0.0, regime="sideways")


def test_twisted_csv_emission():
    from horolab.automorphic import twisted_csv

    spec = TwistedSumSpec(t=1.0, delta=0.3, alpha=0.0)
    report = twisted_sum_series(spec, 2.0 ** -np.arange(3, 7))
    text = twisted_csv(report)
    lines = text.strip().split("\r\n")
    assert lines[0] == "y,re,im,abs"
    assert len(lines) == 5
    y, re, im, ab = (float(v) for v in lines[1].split(","))
    assert ab == pytest.approx(math.hypot(re, im), rel=1e-12)
