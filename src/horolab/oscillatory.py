"""Oscillatory integrals of polynomial phases and their asymptotics.

The transform studied is I(xi) = int e(xi f(x)) w(x) dx for a real
polynomial phase f and a smooth nonnegative window w with int w = 1.
Stationary points of order k (f' vanishing to order k-1) give the leading
behavior w(x_i) * C_k * xi^(-1/k) built from the model integral

    int_0^inf e(lambda u^k) du = Gamma(1 + 1/k) (2 pi lambda)^(-1/k) e(1/(4k)).

Roots of f' are isolated with exact rational arithmetic (square-free
factorization, then certified real-root isolation), so multiplicities are
exact and the k_i are trustworthy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import sympy

from .fitting import DecayReport, least_squares_loglog, robust_loglog

GL_NODES, GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
NODES_PER_OSCILLATION = 12
MAX_XI = 1e6
BOUNDARY_TOL = 1e-9


class QuadratureBudgetError(RuntimeError):
    """|xi| beyond the configured maximum or refinement failed to settle."""


class BoundaryStationaryPointError(ValueError):
    """A stationary point sits at the window boundary; asymptotics invalid."""


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
        object.__setattr__(self, "coeffs", tuple(float(c) for c in trimmed))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        acc = np.zeros_like(x)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative_value(self, order: int, x: float) -> float:
        coeffs = list(self.coeffs)
        for _ in range(order):
            coeffs = [k * coeffs[k] for k in range(1, len(coeffs))]
        return float(sum(c * x**k for k, c in enumerate(coeffs)))


class Window:
    """Smooth nonnegative window with unit mass; see concrete subclasses."""

    center: float
    radius: float

    @property
    def support(self) -> tuple[float, float]:
        return (self.center - self.radius, self.center + self.radius)

    def __call__(self, x):  # pragma: no cover - abstract
        raise NotImplementedError


@dataclass
class RaisedCosineWindow(Window):
    """w(x) = (1 + cos(pi (x-c)/r)) / (2r) on [c-r, c+r]; exact unit mass."""

    center: float = 0.0
    radius: float = 1.0

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("radius must be positive")

    @property
    def label(self):
        return f"coswin:{self.center:g},{self.radius:g}"

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        u = (x - self.center) / self.radius
        out = np.zeros_like(u)
        inside = np.abs(u) < 1.0
        out[inside] = (1.0 + np.cos(np.pi * u[inside])) / (2.0 * self.radius)
        return out


# int_{-1}^{1} exp(-1/(1-u^2)) du, by 200-node Gauss-Legendre (stable to 1e-15)
_BUMP_NODES, _BUMP_WEIGHTS = np.polynomial.legendre.leggauss(200)
_BUMP_MASS = float(
    np.sum(_BUMP_WEIGHTS * np.exp(-1.0 / (1.0 - _BUMP_NODES**2)))
)


@dataclass
class SmoothBumpWindow(Window):
    """Classical bump exp(-1/(1-u^2)), normalized to unit mass."""

    center: float = 0.0
    radius: float = 1.0

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("radius must be positive")

    @property
    def label(self):
        return f"bumpwin:{self.center:g},{self.radius:g}"

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        u = (x - self.center) / self.radius
        out = np.zeros_like(u)
        inside = np.abs(u) < 1.0
        out[inside] = np.exp(-1.0 / (1.0 - u[inside] ** 2)) / (
            _BUMP_MASS * self.radius
        )
        return out


@dataclass(frozen=True)
class StationaryPoint:
    x: float
    order: int          # k: f - f(x) vanishes to order exactly k at x
    phase_value: float  # f(x)
    scale: float        # f^(k)(x)


@dataclass
class StationaryData:
    points: list[StationaryPoint]
    max_order: int  # k_{f,w}; 0 when there is no stationary point


def find_stationary_points(f: PhasePolynomial, w: Window) -> StationaryData:
    """Certified real roots of f' inside supp(w), with multiplicities.

    Exact rational square-free factorization splits f' into factors of
    known multiplicity; real-root isolation on each factor certifies the
    roots.  A root within BOUNDARY_TOL of the support boundary raises:
    boundary stationary points change the asymptotics.
    """
    if f.degree < 1:
        raise ValueError("degree must be at least 1")
    a, b = w.support
    x = sympy.Symbol("x")
    exact = [Fraction(c) for c in f.coeffs]
    poly = sympy.Poly(
        sum(sympy.Rational(c.numerator, c.denominator) * x**k for k, c in enumerate(exact)),
        x,
    )
    dpoly = poly.diff(x)
    if dpoly.is_zero:
        raise ValueError("phase is constant")
    points = []
    _, factors = sympy.Poly(dpoly, x).sqf_list()
    for factor, mult in factors:
        if factor.degree() < 1:
            continue
        for root in factor.real_roots():
            xr = float(root.evalf(30))
            if xr <= a - BOUNDARY_TOL or xr >= b + BOUNDARY_TOL:
                continue
            if abs(xr - a) < BOUNDARY_TOL or abs(xr - b) < BOUNDARY_TOL:
                raise BoundaryStationaryPointError(
                    f"stationary point {xr} at the support boundary"
                )
            k = mult + 1
            points.append(
                StationaryPoint(
                    x=xr,
                    order=k,
                    phase_value=float(f(np.array(xr))),
                    scale=f.derivative_value(k, xr),
                )
            )
    points.sort(key=lambda p: p.x)
    max_order = max((p.order for p in points), default=0)
    return StationaryData(points=points, max_order=max_order)


# ---------------------------------------------------------------------------
# Quadrature


def _total_variation(f: PhasePolynomial, a: float, b: float) -> float:
    dcoeffs = [k * f.coeffs[k] for k in range(1, len(f.coeffs))]
    crit = []
    if len(dcoeffs) > 1:
        roots = np.roots(dcoeffs[::-1])
        crit = [r.real for r in roots if abs(r.imag) < 1e-12 and a < r.real < b]
    grid = np.array(sorted([a, b, *crit]))
    vals = f(grid)
    return float(np.sum(np.abs(np.diff(vals))))


def _composite_gl(f: PhasePolynomial, w: Window, xi: float, panels: int) -> complex:
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


def oscillatory_integral(
    f: PhasePolynomial,
    w: Window,
    xi: float,
    tol: float = 1e-8,
    max_xi: float = MAX_XI,
) -> complex:
    """int e(xi f(x)) w(x) dx by composite Gauss-Legendre panels.

    Panel count starts at NODES_PER_OSCILLATION nodes per oscillation of
    xi*f and doubles until two successive refinements agree within tol.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if abs(xi) > max_xi:
        raise QuadratureBudgetError(f"|xi| = {abs(xi)} beyond configured maximum {max_xi}")
    a, b = w.support
    n_osc = abs(xi) * _total_variation(f, a, b) + 1.0
    panels = max(6, math.ceil(NODES_PER_OSCILLATION * n_osc / GL_NODES.size))
    val = _composite_gl(f, w, xi, panels)
    for _ in range(12):
        panels *= 2
        nxt = _composite_gl(f, w, xi, panels)
        delta = abs(nxt - val)
        val = nxt
        if delta <= tol:
            return val
    raise QuadratureBudgetError("panel refinement did not reach tolerance")


def stationary_phase_leading(f: PhasePolynomial, w: Window, xi: float) -> complex:
    """Leading asymptotic term sum_i e(xi f(x_i)) a_i xi^(-1/k_i).

    a_i = w(x_i) times the model-integral constant for order k_i and the
    sign of f^(k_i)(x_i).  Returns 0 when f' has no zero in supp(w).
    """
    if xi < 1.0:
        raise ValueError("require xi >= 1")
    data = find_stationary_points(f, w)
    total = 0.0 + 0.0j
    for pt in data.points:
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


def exponent_fit_oscillatory(
    f: PhasePolynomial,
    w: Window,
    xi_grid,
    tol: float = 1e-10,
    envelope_window: int = 2,
) -> DecayReport:
    """Fit |I(xi)| ~ xi^(-beta) on the upper envelope of a xi-sweep.

    The envelope takes the running max over +-envelope_window grid
    neighbors, suppressing interference nulls.  beta lands near 1/k for a
    worst stationary order k; beta > 2 marks superpolynomial decay (no
    stationary point inside the window).
    """
    xi_grid = np.asarray(sorted(float(x) for x in xi_grid))
    if xi_grid.size < 6:
        raise ValueError("xi_grid needs at least 6 points")
    if math.log10(xi_grid[-1] / xi_grid[0]) < 2.0 - 1e-9:
        raise ValueError("xi_grid must span at least two decades")
    values = np.array([abs(oscillatory_integral(f, w, x, tol=tol)) for x in xi_grid])
    m = envelope_window
    envelope = np.array(
        [values[max(0, i - m) : i + m + 1].max() for i in range(values.size)]
    )
    plain = least_squares_loglog(xi_grid, np.maximum(values, 1e-300))
    robust = robust_loglog(xi_grid, np.maximum(envelope, 1e-300))
    beta = -robust.slope
    status = "ok"
    if beta > 2.0:
        status = "superpolynomial"
    elif beta <= 0.0:
        status = "inconclusive"
    report = DecayReport(
        params=xi_grid,
        errors=values,
        error_bars=np.zeros_like(values),
        exponent=beta,
        exponent_stderr=robust.stderr,
        r2=robust.r2,
        exponent_plain=-plain.slope,
        r2_plain=plain.r2,
        kept=robust.kept,
        status=status,
        param_name="xi",
    )
    report.extra_columns = {"envelope": envelope}
    return report


class PhaseParseError(ValueError):
    def __init__(self, production: str, detail: str):
        self.production = production
        super().__init__(f"literal, production {production}: {detail}")


def parse_phase(text: str) -> PhasePolynomial:
    """Parse `poly:c0,c1,c2,...` (coefficients by increasing degree)."""
    text = text.strip()
    if not text.startswith("poly:"):
        raise PhaseParseError("<phase>", f"expected poly:c0,c1,..., got {text!r}")
    try:
        coeffs = tuple(float(c) for c in text[len("poly:"):].split(","))
    except ValueError:
        raise PhaseParseError("<phase>", f"bad coefficient in {text!r}") from None
    try:
        return PhasePolynomial(coeffs)
    except ValueError as exc:
        raise PhaseParseError("<phase>", str(exc)) from None


def parse_window(text: str) -> Window:
    """Parse `coswin:center,radius` or `bumpwin:center,radius`."""
    text = text.strip()
    for prefix, cls in (("coswin:", RaisedCosineWindow), ("bumpwin:", SmoothBumpWindow)):
        if text.startswith(prefix):
            parts = text[len(prefix):].split(",")
            if len(parts) != 2:
                raise PhaseParseError("<window>", f"expected {prefix}center,radius")
            try:
                return cls(float(parts[0]), float(parts[1]))
            except ValueError as exc:
                raise PhaseParseError("<window>", str(exc)) from None
    raise PhaseParseError("<window>", f"unknown window literal {text!r}")
