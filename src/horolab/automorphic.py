"""Special functions and Eisenstein-series diagnostics.

The weight-zero real-analytic Eisenstein series at spectral parameter t
(Laplace eigenvalue 1/4 + t^2) is evaluated through its classical Fourier
expansion with completed-zeta factors,

    E(x + iy) = y^(1/2+it) + c(t) y^(1/2-it)
              + (4 / xi(1+2it)) sqrt(y) * sum_{n>=1} n^(it) sigma_{-2it}(n)
                K_it(2 pi n y) cos(2 pi n x),

    xi(u) = pi^(-u/2) Gamma(u/2) zeta(u),   c(t) = xi(1-2it)/xi(1+2it),

so |c(t)| = 1 on the unitary axis and only zeta values on the 1-line are
ever needed (xi(1-2it) is the conjugate of xi(1+2it) for real t).

K_it(x) = int_0^inf exp(-x cosh u) cos(t u) du is computed by trapezoid
quadrature after the doubly exponential substitution u = sinh v; the
integrand is even in v, so the rule converges superalgebraically.  A series
takes K by one rule, bessel_K_series: quadrature below sqrt(3) pi, a cubic
spline through quadrature values on [sqrt(3) pi, 46), and exactly 0 from 46
on, where K_it < 4e-21.  So a reduced point (y >= sqrt(3)/2) has 8 live
terms.  The coefficients come from EisensteinParams.coef and meet
sqrt(y) K_it(2 pi |m| y) in one place, _whittaker_terms, for
eisenstein_values and for eisenstein_series_prediction (horocycle averages).

Only the continuous (Eisenstein) spectrum is implemented.  Its Hecke
eigenvalues are divisor sums, which obey the Ramanujan-type bound m^eps;
on the cuspidal spectrum the best unconditional exponent toward that
bound is the Kim-Sarnak 7/64, which is why generic spectral-gap heuristics
quote the decay exponent 1/2 - 7/64 = 25/64 rather than 1/2.  Every
diagnostic here runs on the Eisenstein side, where 7/64 plays no role
beyond this remark.
"""

from __future__ import annotations

import cmath
import math
import threading
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .fitting import MAX_GRID_POINTS, DecayReport, csv_table, fit_decay_report
from .measures import fourier_transform
from .modular import reduce_many

TWO_PI = 2.0 * math.pi
SQRT3_HALF = math.sqrt(3.0) / 2.0
K_UNDERFLOW_X = 700.0           # exp(-x) underflows well before this
K_NEGLIGIBLE_X = 46.0           # K_it(x) < 4e-21 beyond; dropped in series
K_SPLINE_X0 = 5.0               # K-spline grid: uniform on [5, 46], below sqrt(3) pi
K_SPLINE_FROM = TWO_PI * SQRT3_HALF  # sqrt(3) pi, the smallest node of a reduced point
K_SPLINE_KNOTS = 8500
K_BASE_STEP = 1.0 / 64          # v-step of the K quadrature at orders t <= 8
MAX_BESSEL_ORDER = 30.0
# Budgets, refused before allocation: MAX_GRID_POINTS live series terms (128 MiB
# per complex table: lambda, coef, mu_hat at m/q) and 2**22 FFT points (64 MiB).
MAX_FFT_POINTS = 2**22


# ---------------------------------------------------------------------------
# Complex Gamma (Lanczos) and zeta on Re(s) >= 1

_LANCZOS_G = 607.0 / 128.0
_LANCZOS_COEF = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    3.3994649984811888699e-5,
    4.6523628927048575665e-5,
    -9.8374475304879564677e-5,
    1.5808870322491248884e-4,
    -2.1026444172410488319e-4,
    2.1743961811521264320e-4,
    -1.6431810653676389022e-4,
    8.4418223983852743293e-5,
    -2.6190838401581408670e-5,
    3.6899182659531622704e-6,
)


def log_gamma(z: complex) -> complex:
    """log Gamma by the 15-term Lanczos sum (g = 607/128).

    Relative error of exp(log_gamma) is ~1e-14 for |Im z| <= 60; the
    reflection formula covers Re(z) < 1/2.
    """
    z = complex(z)
    if z.real < 0.5:
        # log Gamma(z) = log(pi / sin(pi z)) - log Gamma(1 - z)
        return cmath.log(math.pi) - cmath.log(cmath.sin(math.pi * z)) - log_gamma(1.0 - z)
    z = z - 1.0
    acc = complex(_LANCZOS_COEF[0])
    for k in range(1, len(_LANCZOS_COEF)):
        acc += _LANCZOS_COEF[k] / (z + k)
    t = z + _LANCZOS_G + 0.5
    return (
        0.5 * math.log(2.0 * math.pi)
        + (z + 0.5) * cmath.log(t)
        - t
        + cmath.log(acc)
    )


def gamma_complex(z: complex) -> complex:
    return cmath.exp(log_gamma(z))


# zeta_1line sums ZETA_TERMS terms directly, then one Euler-Maclaurin
# correction per Bernoulli number B_2, ..., B_28
ZETA_TERMS = 100
_BERNOULLI_2K = (
    1.0 / 6, -1.0 / 30, 1.0 / 42, -1.0 / 30, 5.0 / 66, -691.0 / 2730,
    7.0 / 6, -3617.0 / 510, 43867.0 / 798, -174611.0 / 330, 854513.0 / 138,
    -236364091.0 / 2730, 8553103.0 / 6, -23749461029.0 / 870,
)


def zeta_1line(s: complex) -> complex:
    """Riemann zeta by Euler-Maclaurin, for Re(s) >= 1, |Im(s)| <= 62.

    zeta(s) = sum_{n<=N} n^-s + N^(1-s)/(s-1) - N^-s/2
            + sum_k B_2k/(2k)! * s(s+1)...(s+2k-2) * N^(-s-2k+1).
    """
    s = complex(s)
    if s.real < 1.0 - 1e-12:
        raise ValueError("zeta_1line requires Re(s) >= 1")
    if abs(s - 1.0) < 1e-6:
        raise ValueError("s within 1e-6 of the pole at 1")
    if abs(s.imag) > 62.0:
        raise ValueError("zeta_1line validated only for |Im(s)| <= 62")
    N = ZETA_TERMS
    n = np.arange(1, N + 1, dtype=float)
    total = complex(np.sum(n ** (-s)))
    total += N ** (1.0 - s) / (s - 1.0)
    total -= 0.5 * N ** (-s)
    rising = s  # s(s+1)...(s+2k-2), updated per correction term
    fact = 1.0
    for k, b2k in enumerate(_BERNOULLI_2K, 1):
        fact *= (2 * k - 1) * (2 * k)
        total += b2k / fact * rising * N ** (-s - 2 * k + 1)
        rising *= (s + 2 * k - 1) * (s + 2 * k)
    return total


# ---------------------------------------------------------------------------
# Divisor sums


def sigma_range(z: complex, m_max: int) -> np.ndarray:
    """tau_z(m) for m = 1..m_max via a divisor sieve (index m-1).

    Each m receives d^z for its divisors d in increasing order, the order
    of the plain loop over d = 1..m_max, so the bits match that loop; the
    sieve needs about 2 sqrt(m_max) slice updates instead of m_max.  Pass 1
    adds every d <= isqrt(m_max) to its multiples m >= d^2, which are the
    divisors with d <= sqrt(m).  Pass 2 adds, for q = isqrt(m_max) down to
    1, d = m/q to the multiples m = q d with d > q, which are the divisors
    with d > sqrt(m); as q falls, d = m/q rises, and every pass-2 divisor
    of m exceeds every pass-1 one.  The powers are Python's complex pow,
    as in the loop (np.power differs in the last bit).
    """
    pw = np.array([d ** complex(z) for d in range(1, m_max + 1)], dtype=complex)
    out = np.zeros(m_max, dtype=complex)
    root = math.isqrt(m_max)
    for d in range(1, root + 1):
        out[d * d - 1 :: d] += pw[d - 1]
    for q in range(root, 0, -1):
        out[q * (q + 1) - 1 : q * (m_max // q) : q] += pw[q : m_max // q]
    return out


# ---------------------------------------------------------------------------
# K-Bessel with imaginary order


def _de_weights(t: float, x_min: float, step: float):
    umax = math.acosh(max(math.log(1e18) / x_min, 2.0))
    vmax = math.asinh(umax) + step
    v = np.arange(0.0, vmax, step)
    u = np.sinh(v)
    w = np.cos(t * u) * np.cosh(v) * step
    w[0] *= 0.5
    return np.cosh(u), w


def bessel_K_imag(t: float, x):
    """K_it(x) for x > 0 (scalar or array), by doubly exponential quadrature.

    The v-grid step K_BASE_STEP shrinks as 1/max(1, t/8) so the
    cos(t sinh v) factor stays resolved up to t = 30; absolute error is
    below 1e-12 for x >= 1e-3 in that range.  x > 700 underflows: the value
    is exactly 0.
    """
    if t < 0 or t > MAX_BESSEL_ORDER:
        raise ValueError(f"supported order range is 0 <= t <= {MAX_BESSEL_ORDER}")
    x_arr = np.asarray(x, dtype=float)
    scalar = x_arr.ndim == 0
    x_arr = np.atleast_1d(x_arr)
    if np.any(x_arr <= 0.0):
        raise ValueError("require x > 0")
    out = np.zeros_like(x_arr)
    live = ~(x_arr > K_UNDERFLOW_X)
    if live.any():
        step = K_BASE_STEP / max(1.0, t / 8.0)
        ch, w = _de_weights(t, float(x_arr[live].min()), step)
        xs = x_arr[live]
        vals = np.empty(xs.size)
        chunk = max(1, 62_500 // ch.size)  # about 0.5 MB per temporary
        for lo in range(0, xs.size, chunk):
            hi = min(lo + chunk, xs.size)
            # explicit sum keeps the reduction order fixed
            vals[lo:hi] = (np.exp(-np.outer(xs[lo:hi], ch)) * w).sum(axis=1)
        out[live] = vals
    return float(out[0]) if scalar else out


def bessel_K_series(t: float, x) -> np.ndarray:
    """K_it(x) on the nodes of a series: the one K rule of every expansion.

    Below sqrt(3) pi the value is bessel_K_imag's; on [sqrt(3) pi, 46) it is
    the K-spline _k_spline(t), within 5e-15 of the quadrature; from 46 on it
    is exactly 0, which drops less than 4e-21 per term.  The knots are
    uniform, so the interval of x is floor((x - 5) / dx), clipped to the
    last interval, with no search; the value is the interval's cubic in
    Horner form.  The spline runs on every node and quadrature overwrites
    the nodes below sqrt(3) pi only when there are any: reduced points never
    have one.  bessel_K_imag's grid depends on the smallest x alone, so
    those nodes are bit-equal to a call on all of x.
    """
    with _K_SPLINE_LOCK:  # threads that miss the cache together build the spline once
        grid, coef = _k_spline(t)
    x = np.asarray(x, dtype=float)
    dx = (K_NEGLIGIBLE_X - K_SPLINE_X0) / (K_SPLINE_KNOTS - 1)
    i = np.clip((x - K_SPLINE_X0) / dx, 0, K_SPLINE_KNOTS - 2).astype(np.intp)
    s = x - grid[i]
    out = np.asarray(coef[0].take(i))
    for row in coef[1:]:  # Horner in place: one coefficient row alive at a time
        out *= s
        out += row.take(i)
    out[~(x < K_NEGLIGIBLE_X)] = 0.0
    if x.size and x.min() < K_SPLINE_FROM:
        low = x < K_SPLINE_FROM
        out[low] = bessel_K_imag(t, x[low])
    return out


def _not_a_knot_spline(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Cubic spline through (x, y) with not-a-knot ends (len(x) >= 4).

    Returns the (4, n-1) piecewise-polynomial coefficients: on [x[i], x[i+1]]
    the spline is sum_k c[k, i] (s - x[i])^(3-k).  The knot slopes solve the
    usual tridiagonal system, whose first and last rows make the third
    derivative continuous at x[1] and x[-2], by one Thomas sweep; on a
    uniform grid every pivot is at least 0.46 dx, so no pivoting is needed.
    """
    n = x.size
    dx = np.diff(x)
    slope = np.diff(y) / dx
    diag = np.empty(n)
    lower = np.empty(n - 1)  # lower[i] is the coefficient of s[i] in row i+1
    upper = np.empty(n - 1)  # upper[i] is the coefficient of s[i+1] in row i
    rhs = np.empty(n)
    diag[1:-1] = 2 * (dx[:-1] + dx[1:])
    lower[:-1] = dx[1:]
    upper[1:] = dx[:-1]
    rhs[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
    d = x[2] - x[0]
    diag[0], upper[0] = dx[1], d
    rhs[0] = ((dx[0] + 2 * d) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d
    d = x[-1] - x[-3]
    diag[-1], lower[-1] = dx[-2], d
    rhs[-1] = (dx[-1] ** 2 * slope[-2] + (2 * d + dx[-1]) * dx[-2] * slope[-1]) / d
    dg, lo, up, r = diag.tolist(), lower.tolist(), upper.tolist(), rhs.tolist()
    for i in range(n - 1):
        f = lo[i] / dg[i]
        dg[i + 1] -= f * up[i]
        r[i + 1] -= f * r[i]
    r[-1] /= dg[-1]
    for i in range(n - 2, -1, -1):
        r[i] = (r[i] - up[i] * r[i + 1]) / dg[i]
    s = np.array(r)
    t = (s[:-1] + s[1:] - 2 * slope) / dx
    return np.stack((t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1]))


_K_SPLINE_LOCK = threading.Lock()  # held around every _k_spline call


@cache
def _k_spline(t: float) -> tuple[np.ndarray, np.ndarray]:
    """The K-spline of order t: its K_SPLINE_KNOTS equispaced knots on
    [5, 46] and the not-a-knot coefficients through bessel_K_imag there.
    Built once per order: its caller holds _K_SPLINE_LOCK."""
    grid = np.linspace(K_SPLINE_X0, K_NEGLIGIBLE_X, K_SPLINE_KNOTS)
    coef = _not_a_knot_spline(grid, bessel_K_imag(t, grid))
    grid.flags.writeable = coef.flags.writeable = False  # shared by every caller
    return grid, coef


# ---------------------------------------------------------------------------
# Eisenstein parameters and evaluation


@dataclass
class EisensteinParams:
    """Precomputed data for E(z, 1/2 + it): zeta/xi factors.

    The scattering coefficient c(t) has |c| = 1 on the unitary axis; this
    is asserted at construction within 1e-9.
    """

    t: float
    zeta_1p2it: complex = field(init=False)
    c: complex = field(init=False)

    def __post_init__(self):
        # below 5e-7, s = 1 + 2it is within 1e-6 of zeta's pole; past 30, K_it is not resolved
        if not 5e-7 <= self.t <= MAX_BESSEL_ORDER:
            raise ValueError(f"spectral parameter t must satisfy 5e-07 <= t <= {MAX_BESSEL_ORDER:g}, got {self.t}")
        u = 1.0 + 2j * self.t
        self.zeta_1p2it = zeta_1line(u)
        # xi(u) = pi^(-u/2) Gamma(u/2) zeta(u)
        self._xi1 = cmath.exp(-u / 2.0 * math.log(math.pi)) * gamma_complex(u / 2.0) * self.zeta_1p2it
        self.c = self._xi1.conjugate() / self._xi1
        if abs(abs(self.c) - 1.0) > 1e-9:
            raise AssertionError("scattering coefficient lost unimodularity")

    @property
    def whittaker_norm(self) -> complex:
        """2 zeta(1+2it)/xi(1+2it): scales sqrt(u) K_it(2 pi u) to the
        expansion coefficients."""
        return 2.0 * self.zeta_1p2it / self._xi1

    def coef(self, m_max: int) -> np.ndarray:
        """whittaker_norm * lambda(m), m = 1..m_max: e(m x) has the coefficient
        coef[|m|-1] sqrt(y) K_it(2 pi |m| y).  coef(N)[:k] is coef(k) bit for
        bit (see constant_term for why the product is one np.multiply).
        """
        return np.multiply(self.whittaker_norm, hecke_range(self, m_max))


def constant_term(y, p: EisensteinParams):
    """y^(1/2+it) + c(t) y^(1/2-it); modulus at most 2 sqrt(y).

    A value's bits do not depend on the array's length: numpy runs `*` on a
    temporary of 256 KiB or more in place, operands swapped, and its complex
    product is not bit-commutative, so c(t) * conj(e) is one np.multiply.
    """
    y_arr = np.atleast_1d(np.asarray(y, dtype=float))
    if np.any(y_arr <= 0):
        raise ValueError("require y > 0")
    e = np.exp(1j * p.t * np.log(y_arr))
    out = np.sqrt(y_arr) * (e + np.multiply(p.c, np.conj(e)))
    return complex(out[0]) if np.asarray(y).ndim == 0 else out


def hecke_range(p: EisensteinParams, m_max: int) -> np.ndarray:
    """lambda(m) for m = 1..m_max (index m-1) from one sigma_range sieve.

    hecke_range(p, N)[:k] equals hecke_range(p, k) bit for bit, so a sweep
    sieves once, for its smallest height, and slices the table elsewhere.
    """
    m = np.arange(1, m_max + 1)
    return m ** (-1j * p.t) * sigma_range(2j * p.t, m_max) / p.zeta_1p2it


def _whittaker_terms(coef, t: float, m, y, phase):
    """coef * (sqrt(y) K_it(2 pi m y) phase), term by term.

    The one place where a Fourier coefficient meets its Whittaker function
    sqrt(y) K_it(2 pi |m| y); K follows bessel_K_series, so a term with
    2 pi m y >= 46 is exactly 0.  m and y broadcast against each other.
    """
    k = bessel_K_series(t, TWO_PI * m * y)  # before sqrt(y): K's temporaries peak alone
    return coef * (np.sqrt(y) * k * phase)


def eisenstein_values(x, y, p: EisensteinParams, real: bool = False) -> np.ndarray:
    """E(x + iy, 1/2 + it) on arrays of reduced coordinates (y >= sqrt3/2).

    The n-th term is live where w = 2 pi n y < 46 and exactly 0 elsewhere,
    so only live points are evaluated.  Points are ordered by their number
    of live terms, which makes each n's live set a prefix; their sums are
    accumulated there and scattered back once.  The result has the
    broadcast shape of x and y.

    real=True returns Re E, summed in real arrays: the real part of a
    complex coefficient a + ib times a real r is a*r rounded (b*0 drops
    out), so the values are bit for bit the real part of the complex result.
    """
    x, y = np.broadcast_arrays(
        np.atleast_1d(np.asarray(x, dtype=float)), np.atleast_1d(np.asarray(y, dtype=float))
    )
    xf, yf = x.reshape(-1), y.reshape(-1)
    val = constant_term(yf, p)
    if real:
        val = val.real.copy()
    coef = p.coef(_live_end(SQRT3_HALF))
    depth = np.zeros(yf.size, dtype=np.min_scalar_type(coef.size))
    live_counts = []
    for n in range(1, coef.size + 1):
        live = TWO_PI * n * yf < K_NEGLIGIBLE_X
        count = np.count_nonzero(live)
        if count == 0:
            break
        depth += live
        live_counts.append(count)
    order = np.argsort(depth, kind="stable")[::-1]
    live = order[: np.count_nonzero(depth)]
    xs, ys, acc = xf[live], yf[live], val[order]
    del val  # acc holds every point's sum from here on
    for n, k in enumerate(live_counts, start=1):
        # the +-m pair of e(m x) coefficients combines to 2 a_n cos(2 pi n x)
        lead = 2.0 * coef[n - 1]
        phase = np.cos(TWO_PI * n * xs[:k])
        acc[:k] += _whittaker_terms(lead.real if real else lead, p.t, n, ys[:k], phase)
    out = np.empty_like(acc)
    out[order] = acc
    return out.reshape(x.shape)


def eisenstein_series_prediction(measure, params: EisensteinParams, height, x0: float, q: int):
    """constant_term(height) + coefficient sum against mu_hat(m/q) phases.

    `height` is the height at which the horocycle points actually sit
    (y/q when the base point carries a(1/q)), a scalar or an array.  The
    coefficient sum runs over the live terms 2 pi m height < 46
    (_live_end, which refuses more than MAX_GRID_POINTS); every later term
    is exactly 0 under the series K rule.  The coefficient table is built
    once, for the smallest height, and sliced at the others.  The base
    point's a(1/q) takes q >= 1.
    """
    if q < 1:
        raise ValueError("require q >= 1")
    heights = np.atleast_1d(np.asarray(height, dtype=float)).tolist()
    ends = [_live_end(h) for h in heights]
    coef = params.coef(max(ends))
    out = []
    for h, k in zip(heights, ends):
        m = np.arange(1, k + 1)
        mu_hat = fourier_transform(measure, m / q)
        phases = np.exp(2j * np.pi * m * (x0 % 1.0))  # e(m x0) has period 1 in x0
        # +-m pairs: a_m is even in m and mu_hat(-u) conjugates for real measures
        pair = 2.0 * np.real(phases * mu_hat)
        total = np.sum(_whittaker_terms(coef[:k], params.t, m, h, pair))
        out.append(complex(constant_term(h, params) + total))
    return out[0] if np.ndim(height) == 0 else np.array(out)


# ---------------------------------------------------------------------------
# Horocycle Fourier coefficients and the spectral-gap diagnostic


def horocycle_fourier_coeff(phi, m: int, y: float, n_quad: int) -> complex:
    """(1/N) sum_j phi(reduce(x_j + iy)) e(-m x_j) on x_j = j/N.

    Equispaced quadrature of a smooth periodic integrand: spectrally
    accurate.  The value is read from the same FFT as the spectral-gap
    sweep.  n_quad must be a power of two with n_quad >= 4|m|.
    """
    if n_quad < 4 or n_quad & (n_quad - 1):
        raise ValueError("n_quad must be a power of two >= 4")
    if n_quad < 4 * abs(m):
        raise ValueError("n_quad must be at least 4|m|")
    return complex(_horocycle_spectrum(phi, y, n_quad)[m % n_quad])


def _horocycle_spectrum(phi, y: float, n_quad: int) -> np.ndarray:
    """One FFT of phi on x_j = j/n_quad at height y; index m (mod n_quad)
    holds the e(m x) coefficient."""
    xs = np.arange(n_quad) / n_quad
    xr, yr = reduce_many(xs, np.full(n_quad, y))
    vals = np.asarray(phi(xr, yr), dtype=complex)
    return np.fft.fft(vals) / n_quad


def spectral_gap_fit(phi, y_grid) -> DecayReport:
    """sup over 1 <= |m| <= ceil(1/y) of |phi_hat_y(m)|, fitted in y.

    One FFT of 4 ceil(1/y) points or more per height; MAX_FFT_POINTS refuses
    a grid before the first.  The report's exponent estimates the decay
    rate of the supremum; a constant test function yields an all-zero
    series flagged degenerate.
    """
    y_grid = np.asarray(sorted(y_grid, reverse=True), dtype=float)
    if y_grid.size < 4:
        raise ValueError("y_grid needs at least 4 points")
    if math.log2(y_grid[0] / y_grid[-1]) < 3.0 - 1e-9:
        raise ValueError("y_grid must span at least 3 dyadic decades")
    if not 4.0 / y_grid[-1] <= MAX_FFT_POINTS:
        raise ValueError(f"height y = {y_grid[-1]:g} needs over MAX_FFT_POINTS = {MAX_FFT_POINTS}")
    sups = []
    for y in y_grid:
        m_max = math.ceil(1.0 / y)
        spec = _horocycle_spectrum(phi, y, 1 << max(8, math.ceil(math.log2(4 * m_max))))
        # the reversed view keeps the bits: np.abs of a complex rounds by stride
        sups.append(np.maximum(np.abs(spec[1 : m_max + 1]), np.abs(spec[-m_max:][::-1])).max())
    return fit_decay_report(y_grid, np.array(sups))


def truncation_tail_mass(p: EisensteinParams, y: float, sigma: float) -> float:
    """Absolute coefficient mass beyond |m| > y^-sigma at height y.

    2 * sum_{m > y^-sigma} |coef(m)| sqrt(y) |K_it(2 pi m y)|, cut at the
    K-Bessel underflow horizon (terms are exactly 0 beyond).  K is
    bessel_K_imag's on every term, not the series rule: the tail measures
    the mass that the series rule drops from 46 on.
    """
    if sigma <= 1.0:
        raise ValueError("require sigma > 1")
    if not 0.0 < y < 0.5:
        raise ValueError("require 0 < y < 1/2")
    m_end = math.floor(K_UNDERFLOW_X / (TWO_PI * y))
    m_start = math.floor(y ** (-sigma)) + 1
    if m_end < m_start:
        return 0.0
    m = np.arange(m_start, m_end + 1)
    coef = np.abs(p.coef(m_end)[m_start - 1 :])
    kv = bessel_K_imag(p.t, TWO_PI * m * y)
    return float(2.0 * math.sqrt(y) * np.sum(coef * np.abs(kv)))


# ---------------------------------------------------------------------------
# Twisted Hecke sums


@dataclass(frozen=True)
class TwistedSumSpec:
    """Additively twisted coefficient sum parameters.

    regime selects the exponent on |m|: 'half_plus_delta' uses 1/2 + delta,
    'one_plus_delta' uses 1 + delta.
    """

    t: float
    delta: float
    alpha: float
    regime: str = "one_plus_delta"

    def __post_init__(self):
        if not 0.0 < self.delta <= 1.0:
            raise ValueError("delta must lie in (0, 1]")
        if self.regime not in ("half_plus_delta", "one_plus_delta"):
            raise ValueError("regime must be half_plus_delta or one_plus_delta")

    @property
    def exponent(self) -> float:
        return (0.5 if self.regime == "half_plus_delta" else 1.0) + self.delta


def _live_end(y: float) -> int:
    """The number of m >= 1 with 2 pi (m y) < 46 in floats, for y > 0: the
    live terms of a series (bessel_K_series), since 2 pi (m y) rises with m.

    It starts from the real quotient 46 / (2 pi y) and steps over the few
    m that rounding moves across 46, so nothing is built per m.
    """
    if not y > 0.0:
        raise ValueError("require y > 0")
    count = K_NEGLIGIBLE_X / (TWO_PI * y)
    if not count <= MAX_GRID_POINTS:
        raise ValueError(f"height y = {y:g} needs {count:.3g} series terms, "
                         f"over the budget of MAX_GRID_POINTS = {MAX_GRID_POINTS}")
    k = math.floor(count)
    while TWO_PI * ((k + 1) * y) < K_NEGLIGIBLE_X:
        k += 1
    while k > 0 and not TWO_PI * (k * y) < K_NEGLIGIBLE_X:
        k -= 1
    return k


def _twisted_sum(spec: TwistedSumSpec, y: float, lam: np.ndarray) -> complex:
    """sum over m != 0 of lambda(|m|) |m|^-e W(|m| y) e(m alpha), from
    lam = lambda(1..n), n >= _live_end(y).

    W(u) = sqrt(u) K_it(2 pi u); the +-m pair combines into
    2 cos(2 pi m alpha).  K follows bessel_K_series, so the sum runs over
    the live terms 2 pi m y < 46 only; the rest are below 4e-21.
    sqrt(m y) = sqrt(m) sqrt(y), so the coefficient of sqrt(y) K_it(2 pi m y)
    is 2 lambda(m) m^(1/2 - e).
    """
    m = np.arange(1, _live_end(y) + 1)
    coef = lam[: m.size] * m ** (0.5 - spec.exponent) * 2.0
    return complex(np.sum(_whittaker_terms(coef, spec.t, m, y, np.cos(TWO_PI * m * spec.alpha))))


def twisted_sum_series(spec: TwistedSumSpec, y_grid) -> DecayReport:
    """|_twisted_sum| over a descending y-grid with a decay fit; sieves once."""
    y_grid = np.asarray(sorted(y_grid, reverse=True), dtype=float)
    lam = hecke_range(EisensteinParams(spec.t), _live_end(float(y_grid[-1])))
    values = np.array([_twisted_sum(spec, float(y), lam) for y in y_grid])
    report = fit_decay_report(y_grid, np.abs(values))
    report.extra_columns = {
        "re": values.real,
        "im": values.imag,
    }
    return report


def spectral_gap_csv(report: DecayReport) -> str:
    """`y,sup_abs_coeff` rows for a spectral-gap sweep."""
    return csv_table("y,sup_abs_coeff", report.params, report.errors)


def twisted_csv(report: DecayReport) -> str:
    """`y,re,im,abs` rows for a twisted-sum sweep."""
    cols = report.extra_columns
    return csv_table("y,re,im,abs", report.params, cols["re"], cols["im"], report.errors)
