"""Oscillatory integrals of polynomial phases and their asymptotics.

The transform studied is I(xi) = int e(xi f(x)) w(x) dx for a real
polynomial phase f and a smooth nonnegative window w with int w = 1.
Stationary points of order k (f' vanishing to order k-1) give the leading
behavior w(x_i) * C_k * xi^(-1/k) built from the model integral

    int_0^inf e(lambda u^k) du = Gamma(1 + 1/k) (2 pi lambda)^(-1/k) e(1/(4k)).

Stationary points are certified in exact rational arithmetic on the exact
binary values of the coefficients: Yun's square-free decomposition splits
f' into factors of known multiplicity, a Sturm sequence isolates the real
roots of each factor, and bisection narrows each root until both ends of
its interval round to the same float, so every root is correctly rounded
and every order k_i is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .fitting import DecayReport, map_in_order, parse_literal, robust_loglog

GL_NODES, GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
GL_BLOCK = 2048  # panels evaluated at a time: 32 768 nodes, about 2.4 MB of temporaries
NODES_PER_OSCILLATION = 12
MAX_XI = 1e6
BOUNDARY_TOL = 1e-9
ENVELOPE_WINDOW = 2  # grid neighbours on each side of the decay envelope's running max
# A window's radius spans at least 2**26 float spacings at its support's
# endpoints, so (x - center) / radius keeps half the float digits.
WINDOW_RESOLUTION = 2.0**-26
# 2**24 panels are 2**28 nodes, about 25 s of work for one integral on one
# core; x^2 on coswin:0,1 starts at MAX_XI from 1.5e6 panels, three
# doublings below.  A count beyond it is refused before it is allocated.
MAX_PANELS = 2**24


class ToleranceNotReachedError(ValueError):
    """Refinement did not settle within tol; a looser tol may succeed."""


@dataclass(frozen=True)
class PhasePolynomial:
    """Real polynomial phase, coefficients in increasing degree order."""

    coeffs: tuple[float, ...]

    def __post_init__(self):
        trimmed = list(self.coeffs)
        while len(trimmed) > 1 and trimmed[-1] == 0.0:
            trimmed.pop()
        if len(trimmed) <= 1:
            raise ValueError("phase must be a non-constant polynomial")
        if not all(math.isfinite(c) for c in trimmed):
            raise ValueError(f"phase coefficients must be finite, got {self.coeffs}")
        object.__setattr__(self, "coeffs", tuple(float(c) for c in trimmed))

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        acc = np.zeros_like(x)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    @cached_property
    def critical_points(self) -> tuple[tuple[float, int], ...]:
        """Real roots of f' with their multiplicities, ascending, certified
        exactly (Yun's square-free decomposition, then Sturm bisection)."""
        df = _deriv([Fraction(c) for c in self.coeffs])
        return tuple(sorted((x, mult) for factor, mult in _squarefree(df) for x in _real_roots(factor)))

    def derivative_value(self, order: int, x: float) -> float:
        coeffs = list(self.coeffs)
        for _ in range(order):
            coeffs = [k * coeffs[k] for k in range(1, len(coeffs))]
        return float(sum(c * x**k for k, c in enumerate(coeffs)))


@dataclass
class Window:
    """Smooth nonnegative window of unit mass on [center - radius, center + radius]:
    w(x) = profile(u) / (mass * radius) at u = (x - center) / radius, |u| < 1,
    where a subclass gives the profile and its integral over (-1, 1), mass."""

    center: float = 0.0
    radius: float = 1.0

    def __post_init__(self):
        a, b = self.support  # _real_roots searches (-2**1023, 2**1023]
        if not (self.radius > 0 and -(2.0**1023) < a and b < 2.0**1023):
            raise ValueError(f"window needs radius > 0 and support in +-2**1023, got [{a}, {b}]")
        if not math.ulp(max(abs(a), abs(b))) <= self.radius * WINDOW_RESOLUTION:
            raise ValueError(
                f"window support [{a}, {b}] does not resolve the radius {self.radius}: "
                f"floats there are spaced above {WINDOW_RESOLUTION} * radius"
            )

    @property
    def support(self) -> tuple[float, float]:
        return (self.center - self.radius, self.center + self.radius)

    def __call__(self, x):
        u = (np.asarray(x, dtype=float) - self.center) / self.radius
        out = np.zeros_like(u)
        inside = np.abs(u) < 1.0
        out[inside] = self.profile(u[inside]) / (self.mass * self.radius)
        return out


class RaisedCosineWindow(Window):
    """w(x) = (1 + cos(pi (x-c)/r)) / (2r) on [c-r, c+r]; exact unit mass."""

    mass = 2.0

    @staticmethod
    def profile(u):
        return 1.0 + np.cos(np.pi * u)


# int_{-1}^{1} exp(-1/(1-u^2)) du: the bits of 200-node Gauss-Legendre, which
# tests recompute; a literal, so import builds no quadrature rule
_BUMP_MASS = 0.443993816168082


class SmoothBumpWindow(Window):
    """Classical bump exp(-1/(1-u^2)), normalized to unit mass."""

    mass = _BUMP_MASS

    @staticmethod
    def profile(u):
        return np.exp(-1.0 / (1.0 - u**2))


@dataclass(frozen=True)
class StationaryPoint:
    x: float
    order: int          # k: f - f(x) vanishes to order exactly k at x
    phase_value: float  # f(x)
    scale: float        # f^(k)(x)


def find_stationary_points(f: PhasePolynomial, w: Window) -> list[StationaryPoint]:
    """f.critical_points inside supp(w), as stationary points of order mult + 1,
    ascending; the largest order is k_{f,w}.

    A root within BOUNDARY_TOL of the support boundary raises: boundary
    stationary points change the asymptotics.
    """
    a, b = w.support
    points = []
    for xr, mult in f.critical_points:
        if xr <= a - BOUNDARY_TOL or xr >= b + BOUNDARY_TOL:
            continue
        if abs(xr - a) < BOUNDARY_TOL or abs(xr - b) < BOUNDARY_TOL:
            raise ValueError(f"stationary point {xr} at the support boundary")
        k = mult + 1
        points.append(StationaryPoint(xr, k, float(f(np.array(xr))), f.derivative_value(k, xr)))
    return points


# Exact polynomials are lists of Fractions by increasing degree with a
# nonzero last entry; [] is the zero polynomial.


def _trim(p: list) -> list:
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def _deriv(p: list) -> list:
    return [k * p[k] for k in range(1, len(p))]


def _divmod(n: list, d: list) -> tuple[list, list]:
    """Exact quotient and remainder of n by a nonzero d."""
    r = list(n)
    q = [Fraction(0)] * max(0, len(r) - len(d) + 1)
    for i in reversed(range(len(q))):
        q[i] = r[i + len(d) - 1] / d[-1]
        for j, dj in enumerate(d):
            r[i + j] -= q[i] * dj
    return q, _trim(r[: len(d) - 1])


def _gcd(p: list, q: list) -> list:
    while q:
        p, q = q, _divmod(p, q)[1]
    return [c / p[-1] for c in p]  # monic


def _squarefree(p: list) -> list[tuple[list, int]]:
    """Yun's square-free decomposition: p = const * prod(factor**mult)."""
    dp = _deriv(p)
    g = _gcd(p, dp)
    b, c = _divmod(p, g)[0], _divmod(dp, g)[0]
    out, mult = [], 1
    while len(b) > 1:  # here deg c = deg b - 1
        d = _trim([u - v for u, v in zip(c, _deriv(b))])
        factor = _gcd(b, d)
        if len(factor) > 1:
            out.append((factor, mult))
        b, c = _divmod(b, factor)[0], _divmod(d, factor)[0]
        mult += 1
    return out


def _scaled_value(p: list, x: Fraction) -> int:
    """p(x) * den(x)**deg(p), for integer coefficients: the sign of p(x)."""
    acc, power = 0, 1
    for c in reversed(p):
        acc, power = acc * x.numerator + c * power, power * x.denominator
    return acc


def _real_roots(p: list) -> list[float]:
    """Real roots of a square-free p, ascending, each correctly rounded.

    The Sturm sequence, scaled to integers, counts the roots in (lo, hi].
    Bisection starts from a power of two above the Cauchy bound, capped at
    2**1023 as every Window support lies strictly inside, so every midpoint
    is dyadic, and stops on a one-root interval whose ends round to the
    same float or whose upper end is the root.
    """
    if len(p) == 2:
        return [float(-p[0] / p[1])]
    seq = [p, _deriv(p)]
    while seq[-1]:
        seq.append([-c for c in _divmod(seq[-2], seq[-1])[1]])
    scale = math.lcm(*(c.denominator for q in seq for c in q))
    seq = [[int(c * scale) for c in q] for q in seq[:-1]]

    def changes(x):
        signs = [v > 0 for v in (_scaled_value(q, x) for q in seq) if v]
        return sum(s != t for s, t in zip(signs, signs[1:]))

    cauchy = math.ceil(1 + max(abs(c / p[-1]) for c in p))
    bound = Fraction(2 ** min(cauchy.bit_length(), 1023))
    roots, stack = [], [(-bound, bound, changes(-bound), changes(bound))]
    while stack:
        lo, hi, v_lo, v_hi = stack.pop()
        if v_lo - v_hi == 1 and (float(lo) == float(hi) or _scaled_value(seq[0], hi) == 0):
            roots.append(float(hi))
        elif v_lo > v_hi:
            mid = (lo + hi) / 2
            v_mid = changes(mid)
            stack += [(mid, hi, v_mid, v_hi), (lo, mid, v_lo, v_mid)]
    return roots


# ---------------------------------------------------------------------------
# Quadrature


def _total_variation(f: PhasePolynomial, a: float, b: float) -> float:
    crit = [x for x, _ in f.critical_points if a < x < b]
    grid = np.array([a, *crit, b])
    vals = f(grid)
    return float(np.sum(np.abs(np.diff(vals))))


def _composite_gl(f: PhasePolynomial, w: Window, xi: float, panels: int) -> complex:
    """Sum of the weighted node values over `panels` equal panels of supp(w).

    Each chunk of up to 125 000 panels fills one complex terms array,
    GL_BLOCK panels at a time, and sums it with one np.sum: 16 B per node
    plus two blocks' temporaries, and the summation order, hence every bit, of
    summing the chunk's terms computed at once.  The blocks write disjoint rows,
    so map_in_order runs two at a time (serially inside a sweep's job).
    """
    a, b = w.support
    edges = np.linspace(a, b, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    total = 0.0 + 0.0j
    chunk = max(1, 2_000_000 // GL_NODES.size)
    for lo in range(0, panels, chunk):
        hi = min(lo + chunk, panels)
        terms = np.empty((hi - lo, GL_NODES.size), dtype=complex)

        def block(p: int) -> None:
            q = min(p + GL_BLOCK, hi)
            xs = mid[p:q, None] + half[p:q, None] * GL_NODES[None, :]
            vals = np.exp(2j * np.pi * xi * f(xs)) * w(xs)
            np.multiply(vals, half[p:q, None] * GL_WEIGHTS[None, :], out=terms[p - lo : q - lo])

        map_in_order(block, range(lo, hi, GL_BLOCK))
        total += complex(np.sum(terms))
    return total


def oscillatory_integral(f: PhasePolynomial, w: Window, xi: float, tol: float = 1e-8) -> complex:
    """int e(xi f(x)) w(x) dx by composite Gauss-Legendre panels.

    Panel count starts at NODES_PER_OSCILLATION nodes per oscillation of
    xi*f and doubles until two successive refinements agree within tol;
    a count beyond MAX_PANELS raises ValueError, and a tol below the first
    sum's rounding floor, or twelve doublings that do not settle, raise
    ToleranceNotReachedError.
    """
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if not abs(xi) <= MAX_XI:
        raise ValueError(f"|xi| = {abs(xi)} beyond the maximum {MAX_XI}")
    a, b = w.support
    variation = _total_variation(f, a, b)
    if not math.isfinite(variation):
        raise ValueError(f"phase variation over the window support [{a}, {b}] is not finite")
    n_osc = abs(xi) * variation + 1.0
    panels = max(6, math.ceil(NODES_PER_OSCILLATION * n_osc / GL_NODES.size))
    val = None
    for _ in range(13):  # the start count, then 12 doublings
        if panels > MAX_PANELS:
            raise ValueError(
                f"xi = {xi} on window support [{a}, {b}] needs {panels} panels, "
                f"over the budget of {MAX_PANELS}"
            )
        nxt = _composite_gl(f, w, xi, panels)
        floor = math.ulp(1.0) * abs(nxt)  # eps*|sum|: closer agreement is rounding luck
        if val is None and tol < floor:
            break
        if val is not None and abs(nxt - val) <= tol:
            return nxt
        val, panels = nxt, panels * 2
    raise ToleranceNotReachedError(
        f"panel refinement did not reach tol {tol} at xi = {xi}; its rounding floor eps*|sum| is {floor:.3g}"
    )


def stationary_phase_leading(f: PhasePolynomial, w: Window, xi: float) -> complex:
    """Leading asymptotic term sum_i e(xi f(x_i)) a_i xi^(-1/k_i).

    a_i = w(x_i) times the model-integral constant for order k_i and the
    sign of f^(k_i)(x_i).  Returns 0 when f' has no zero in supp(w).
    """
    if xi < 1.0:
        raise ValueError("require xi >= 1")
    total = 0.0 + 0.0j
    for pt in find_stationary_points(f, w):
        k = pt.order
        c = pt.scale / math.factorial(k)
        lam = xi * abs(c)
        base = 2.0 * math.gamma(1.0 + 1.0 / k) * (2.0 * math.pi * lam) ** (-1.0 / k)
        if k % 2 == 0:
            phase = 1.0 / (4.0 * k) * (1.0 if c > 0 else -1.0)
            model = base * np.exp(2j * np.pi * phase)
        else:
            model = base * math.cos(math.pi / (2.0 * k))
        amp = float(w(np.array(pt.x)))
        total += np.exp(2j * np.pi * xi * pt.phase_value) * amp * model
    return complex(total)


def oscillatory_integrals(f: PhasePolynomial, w: Window, xi_grid, tol: float = 1e-8) -> list[complex]:
    """oscillatory_integral at each xi of xi_grid, in grid order.

    map_in_order runs two xi at a time, largest |xi| first so it does not run last
    and alone; every xi runs, and the first failing xi in grid order raises.
    """
    f.critical_points  # certified once here, not by two threads at once
    xis = [float(xi) for xi in xi_grid]

    def attempt(k: int) -> complex | ValueError:
        try:
            return oscillatory_integral(f, w, xis[k], tol=tol)
        except ValueError as exc:  # raised below, in grid order
            return exc

    order = sorted(range(len(xis)), key=lambda k: -abs(xis[k]))
    results = [value for _, value in sorted(zip(order, map_in_order(attempt, order)))]  # grid order
    for value in results:
        if isinstance(value, ValueError):
            raise value
    return results


def exponent_fit_oscillatory(
    f: PhasePolynomial, w: Window, xi_grid, tol: float = 1e-10
) -> DecayReport:
    """envelope_fit of |oscillatory_integral| on a xi_grid that passes check_xi_grid."""
    xi_grid = check_xi_grid(xi_grid)
    return envelope_fit(xi_grid, [abs(v) for v in oscillatory_integrals(f, w, xi_grid, tol)])


def check_xi_grid(xi_grid) -> np.ndarray:
    """xi_grid sorted, once it has at least 6 points in (0, MAX_XI] spanning two decades."""
    xi_grid = np.asarray(sorted(float(x) for x in xi_grid))
    if xi_grid.size < 6:
        raise ValueError(f"need at least 6 points, got {xi_grid.size}")
    if not np.all(xi_grid > 0):
        raise ValueError(f"xi must be positive, got {xi_grid.min()}")
    if not np.all(xi_grid <= MAX_XI):
        raise ValueError(f"|xi| = {xi_grid.max()} beyond the maximum {MAX_XI}")
    if math.log10(xi_grid[-1] / xi_grid[0]) < 2.0 - 1e-9:
        raise ValueError(f"xi from {xi_grid[0]} to {xi_grid[-1]} spans under two decades")
    return xi_grid


def envelope_fit(xi_grid, values) -> DecayReport:
    """Fit values |I(xi)| ~ xi^(-beta) on an ascending xi_grid by their envelope.

    The envelope takes the running max over +-ENVELOPE_WINDOW grid
    neighbors, suppressing interference nulls.  beta lands near 1/k for a
    worst stationary order k; beta > 2 marks superpolynomial decay (no
    stationary point inside the window).
    """
    xi_grid, values = np.asarray(xi_grid, dtype=float), np.asarray(values, dtype=float)
    m = ENVELOPE_WINDOW
    envelope = np.array(
        [values[max(0, i - m) : i + m + 1].max() for i in range(values.size)]
    )
    robust = robust_loglog(xi_grid, np.maximum(envelope, 1e-300))
    beta = -robust.slope
    status = "ok"
    if beta > 2.0:
        status = "superpolynomial"
    elif beta <= 0.0:
        status = "inconclusive"
    return DecayReport(
        xi_grid, values, np.zeros_like(values),
        exponent=beta, exponent_stderr=robust.stderr, r2=robust.r2,
        kept=robust.kept, status=status, param_name="xi",
        extra_columns={"envelope": envelope},
    )


def parse_phase(text: str) -> PhasePolynomial:
    """Parse `poly:c0,c1,c2,...` (coefficients by increasing degree)."""
    return parse_literal(text, "<phase>", {"poly:<c>,...": lambda *coeffs: PhasePolynomial(coeffs)})


def parse_window(text: str) -> Window:
    """Parse `coswin:center,radius` or `bumpwin:center,radius`."""
    return parse_literal(text, "<window>", {
        "coswin:<center>,<radius>": RaisedCosineWindow,
        "bumpwin:<center>,<radius>": SmoothBumpWindow,
    })
