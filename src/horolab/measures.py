"""Fractal probability measures on the line and their Fourier analysis.

A FractalMeasure is the self-similar measure of the homogeneous IFS

    f_i(x) = (x + d_i)/b,        d_i in D,

with digit set D inside {0, ..., b-1}, each digit drawn with probability
1/|D|.  Its Fourier transform (in the e(xi*x) = exp(2*pi*i*xi*x)
convention) has the exact infinite-product form

    mu_hat(xi) = prod_{j>=1} g(xi / b^j),
    g(u) = (1/|D|) sum_{d in D} e(d u),

which this module evaluates with one certified truncation, product_depth,
quadratic in xi/b^J; mu_hat takes the omitted factors' phase in closed
form, e(c*xi/(b^J (b - 1))) with c the mean digit.  Convolutions, unit-interval
Lebesgue, and point masses combine freely in measure expressions;
transforms multiply across convolution, samples add.  A translate by x0 is
the convolution with the point mass at x0, however the literal spells it.

The partial sums S(X) = sum_{|m|<=X} |mu_hat(m)| and their sup-over-shift
variant drive the Fourier l^1-dimension estimate 1 - slope(log S / log X).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, singledispatch

import numpy as np

from .fitting import MAX_GRID_POINTS, LiteralParseError, least_squares_loglog, map_in_order
from .fitting import parse_literal, parse_real

TWO_PI = 2.0 * math.pi
DEFAULT_TAIL_TOL = 1e-12
B_OF_S_CEILING = 10**9
FOURIER_L1_THRESHOLD = 39.0 / 64.0  # spectral-gap barrier for the headline regime
ABS_BLOCK = 1 << 15  # entries per block of the mu_hat product: 256 KiB per float array
SAMPLE_BLOCK = 1 << 17  # digits per pass of sample: 1 MiB per index array


@dataclass(frozen=True)
class FractalMeasure:
    """Self-similar measure with base b and digits D (uniform), on [0, 1]."""

    base: int
    digits: tuple[int, ...]

    def __post_init__(self):
        b, D = self.base, self.digits
        if b < 2:
            raise ValueError("base must be >= 2")
        if len(D) < 1:
            raise ValueError("need at least one digit")
        if any(d < 0 or d >= b for d in D):
            raise ValueError("digits must lie in [0, base)")
        if any(D[i] >= D[i + 1] for i in range(len(D) - 1)):
            raise ValueError("digits must be strictly increasing")

    @property
    def n_digits(self) -> int:
        return len(self.digits)

    @cached_property
    def digit_progression(self) -> tuple[int, int] | None:
        """(first, step) when the digits form an arithmetic progression.

        Cached: every factor of the mu_hat product reads it.
        """
        D = self.digits
        if len(D) == 1:
            return (D[0], 1)
        step = D[1] - D[0]
        if all(D[i + 1] - D[i] == step for i in range(len(D) - 1)):
            return (D[0], step)
        return None

    def hausdorff_dimension(self) -> float:
        """log(#D)/log(b), the dimension of the attractor."""
        return math.log(len(self.digits)) / math.log(self.base)


@dataclass(frozen=True)
class LebesgueUnit:
    """Lebesgue measure restricted to [0, 1]."""


@dataclass(frozen=True)
class DiracMass:
    point: float

    def __post_init__(self):
        if not math.isfinite(self.point):
            raise ValueError(f"point must be finite, got {self.point}")


@dataclass(frozen=True)
class Convolution:
    left: "MeasureExpr"
    right: "MeasureExpr"


MeasureExpr = FractalMeasure | LebesgueUnit | DiracMass | Convolution


def split_translate(measure: MeasureExpr) -> tuple[MeasureExpr, float]:
    """(rest, x0) with measure the translate of rest by x0: the point masses
    of a chain of convolutions, peeled off from either side while there is
    one, their points summed in that order.  x0 is 0.0 when there is none."""
    rest, x0 = measure, 0.0
    while isinstance(rest, Convolution):
        if isinstance(rest.left, DiracMass):
            x0, rest = x0 + rest.left.point, rest.right
        elif isinstance(rest.right, DiracMass):
            x0, rest = x0 + rest.right.point, rest.left
        else:
            break
    return rest, x0


# ---------------------------------------------------------------------------
# The digit symbol g and the product-formula transform


def _reduced_ratio(v: np.ndarray, l: int) -> tuple[np.ndarray, np.ndarray]:
    """(n, sin(pi*l*delta) / (l*sin(pi*delta))) for v = n + delta, n = round(v).

    |delta| <= 1/2 keeps both sines away from catastrophic argument
    reduction; the ratio is 1 at delta = 0.
    """
    n = np.round(v)
    delta = v - n
    ratio = np.multiply(np.pi * l, delta)
    np.sin(ratio, out=ratio)
    den = np.multiply(np.pi, delta)
    np.sin(den, out=den)
    den *= l
    with np.errstate(divide="ignore", invalid="ignore"):  # 0/0 at delta = 0, overwritten below
        ratio /= den
    # below 1e-100 the ratio is 1 to within (pi l delta)^2/6, and subnormal
    # arithmetic would corrupt the quotient
    ratio[np.abs(delta) <= 1e-100] = 1.0
    return n, ratio


def _dirichlet_ratio(v: np.ndarray, l: int) -> np.ndarray:
    """sin(pi*l*v) / (l*sin(pi*v)), computed exactly at integers.

    The reduced ratio times (-1)^(n*(l-1)), which is also the exact limit
    at integer v.
    """
    n, ratio = _reduced_ratio(v, l)
    sign = np.where((n.astype(np.int64) * (l - 1)) % 2 == 0, 1.0, -1.0)
    return sign * ratio


def symbol_g(measure: FractalMeasure, xi) -> complex | np.ndarray:
    """g(xi) = (1/l) sum_{d in D} e(d xi) over the l digits; |g| <= 1.

    Digits in arithmetic progression collapse to a Dirichlet kernel,
    evaluated in closed form; any other digit set sums over its digits,
    each term times 1/l before the row sum.
    """
    xi_arr = np.asarray(xi, dtype=float)
    scalar = xi_arr.ndim == 0
    xi_arr = np.atleast_1d(xi_arr)
    prog = measure.digit_progression
    if prog is not None:
        a, step = prog
        l = measure.n_digits
        center = a + step * (l - 1) / 2.0
        out = np.exp(2j * np.pi * center * xi_arr) * _dirichlet_ratio(step * xi_arr, l)
    else:
        digits = np.asarray(measure.digits, dtype=float)
        w = np.full(digits.size, 1.0 / digits.size)
        out = np.empty(xi_arr.size, dtype=complex)
        rows = max(1, ABS_BLOCK // digits.size)  # xi per pass of at most ABS_BLOCK terms
        for lo in range(0, xi_arr.size, rows):
            # each row is reduced on its own, so no bit depends on the pass
            u = xi_arr[lo : lo + rows]
            out[lo : lo + rows] = (np.exp(2j * np.pi * np.outer(u, digits)) * w).sum(axis=1)
    return complex(out[0]) if scalar else out


def _symbol_abs(measure: FractalMeasure, xi_arr: np.ndarray) -> np.ndarray:
    """|g(xi)| on an array, the factor fourier_abs multiplies.

    Digits in arithmetic progression give the unsigned kernel
    |sin(pi*l*delta) / (l*sin(pi*delta))|: the sign (-1)^(n*(l-1)) and the
    phase e(center*xi) have modulus 1 exactly, so neither is computed.
    """
    prog = measure.digit_progression
    if prog is not None:
        _, step = prog
        _, ratio = _reduced_ratio(step * xi_arr, measure.n_digits)
        return np.abs(ratio, out=ratio)
    return np.abs(symbol_g(measure, xi_arr))


def product_depth(measure: FractalMeasure, xi_max: float, tail_tol: float) -> int:
    """Truncation depth J of mu_hat and |mu_hat| at |xi| <= xi_max: the smallest
    J >= 1 with A = 4 pi^2 Var(D) max(|xi|, 1)^2 b^(-2J) / (b^2 - 1) <= tail_tol.

    Write g(u) = e(c u) h(u), c the mean digit.  The d - c sum to 0 and
    |e(t) - 1 - 2 pi i t| <= 2 pi^2 t^2, so |h(u) - 1| <= 2 pi^2 Var(D) u^2 for
    every digit set D, and the omitted factors prod_{j>J} g(xi/b^j) are
    e(c xi / (b^J (b - 1))) times a product within exp(A/2) - 1 <= A of 1,
    for tail_tol <= 1.  _transform multiplies that phase in, so mu_hat errs
    by at most tail_tol relative.  |h| = |g| <= 1, so |mu_hat| drops a
    product in [1 - A/2, 1], for every tail_tol.  A one-digit leaf takes
    J = 1 and its phase is exact.
    """
    b, xi = measure.base, max(abs(xi_max), 1.0)
    arg = 4.0 * math.pi**2 * float(np.var(measure.digits)) * xi * xi / ((b * b - 1) * tail_tol)
    if not arg < math.inf:  # a tiny tail_tol or a huge xi overflows the bound
        raise ValueError(f"4 pi^2 Var(D) max(|xi|, 1)^2 / ((b^2 - 1) tail_tol) is not finite for b = {b}, "
                         f"|xi| <= {xi_max:g}, tail_tol = {tail_tol:g}")
    return next(J for J in itertools.count(1) if arg <= b ** (2 * J))  # float <= int: exact


def fourier_transform(measure, xi, tail_tol: float = DEFAULT_TAIL_TOL):
    """mu_hat(xi) = integral of e(xi*x) d mu(x); accepts scalar or array xi."""
    _check_tail_tol(tail_tol)
    xi_arr = np.asarray(xi, dtype=float)
    out = _transform(measure, xi_arr.reshape(-1), tail_tol).reshape(xi_arr.shape)
    return complex(out) if xi_arr.ndim == 0 else out


def fourier_abs(measure, xi, tail_tol: float = DEFAULT_TAIL_TOL) -> np.ndarray:
    """|mu_hat(xi)| on an array; a registration skips phase factors, and
    any other measure takes the modulus of its transform.

    |mu_hat| is even for every measure here (all are real), bit for bit:
    fourier_abs(mu, -xi) == fourier_abs(mu, xi).  _partial_sums relies on it.
    """
    _check_tail_tol(tail_tol)
    xi_arr = np.atleast_1d(np.asarray(xi, dtype=float))
    return _modulus(measure, xi_arr.reshape(-1), tail_tol).reshape(xi_arr.shape)


def _check_tail_tol(tail_tol: float) -> None:
    """The tail_tol check of both public transforms, for every kind of measure."""
    if not 0 < tail_tol < math.inf:
        raise ValueError(f"tail_tol must be positive and finite, got {tail_tol}")


def _product_walk(measure: FractalMeasure, xi: np.ndarray, tail_tol: float, factor, start):
    """start(xi, J) * prod_{j<=J} factor(measure, xi/b^j), J = product_depth at
    the max |xi|: the one product loop, in blocks of ABS_BLOCK entries so the
    temporaries stay cache-sized.  A block multiplies its slice of the result
    in place, block times factor in that order, so no bit depends on len(xi).
    Blocks write disjoint slices, so map_in_order runs them two at a time with
    the same bits.  xi is only read.
    """
    J = product_depth(measure, float(np.max(np.abs(xi), initial=0.0)), tail_tol)
    out = start(xi, J)

    def walk(lo: int) -> None:
        u, block = xi[lo : lo + ABS_BLOCK].copy(), out[lo : lo + ABS_BLOCK]
        for _ in range(J):
            u /= measure.base
            block *= factor(measure, u)

    map_in_order(walk, range(0, xi.size, ABS_BLOCK))
    return out


@singledispatch
def _transform(measure, xi: np.ndarray, tail_tol: float) -> np.ndarray:
    """mu_hat on a flat array; fourier_transform reshapes."""
    raise TypeError(f"not a measure expression: {measure!r}")


@_transform.register
def _(measure: FractalMeasure, xi, tail_tol):
    b, c = measure.base, float(np.mean(measure.digits))
    # the omitted factors' phase, e(c xi / ((b - 1) b^J))
    phase = lambda v, J: np.exp(2j * np.pi * (c / ((b - 1) * b**J) * v))  # noqa: E731
    return _product_walk(measure, xi, tail_tol, symbol_g, phase)


@_transform.register
def _(measure: LebesgueUnit, xi, tail_tol):
    out = np.exp(1j * np.pi * xi)
    n = np.round(xi)
    delta = xi - n
    sgn = np.where(n.astype(np.int64) % 2 == 0, 1.0, -1.0)
    nz = np.abs(xi) > 1e-100  # sinc -> 1 below; avoids subnormal quotients
    out[nz] *= sgn[nz] * np.sin(np.pi * delta[nz]) / (np.pi * xi[nz])
    out[~nz] = 1.0
    return out


@_transform.register
def _(measure: DiracMass, xi, tail_tol):
    return np.exp(2j * np.pi * measure.point * xi)


@_transform.register
def _(measure: Convolution, xi, tail_tol):
    return _transform(measure.left, xi, tail_tol) * _transform(measure.right, xi, tail_tol)


@singledispatch
def _modulus(measure, xi: np.ndarray, tail_tol: float) -> np.ndarray:
    return np.abs(_transform(measure, xi, tail_tol))


@_modulus.register
def _(measure: FractalMeasure, xi, tail_tol):
    return _product_walk(measure, xi, tail_tol, _symbol_abs, lambda v, J: np.ones_like(v))


@_modulus.register
def _(measure: DiracMass, xi, tail_tol):
    return np.ones(xi.size)


@_modulus.register
def _(measure: Convolution, xi, tail_tol):
    return _modulus(measure.left, xi, tail_tol) * _modulus(measure.right, xi, tail_tol)


# ---------------------------------------------------------------------------
# Sampling


@singledispatch
def sample(measure, depth: int, count: int, seed) -> np.ndarray:
    """count i.i.d. draws truncated at `depth` base-b digits.

    Deterministic given seed; seed may be an int or a numpy Generator
    (internal nodes share one stream in tree order).
    """
    raise TypeError(f"not a measure expression: {measure!r}")


@sample.register
def _(measure: FractalMeasure, depth: int, count: int, seed) -> np.ndarray:
    if count < 1:
        raise ValueError("count must be >= 1")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if float(measure.base) ** (-depth) == 0.0:
        raise ValueError(f"base^-depth underflows for base={measure.base}, depth={depth}")
    rng = np.random.default_rng(seed)  # a Generator passes through unchanged
    digits = np.asarray(measure.digits, dtype=float)
    out = np.zeros(count)
    chunk = max(1, min(count, SAMPLE_BLOCK // depth))  # rows per pass; draws do not depend on it
    inv_b = 1.0 / measure.base
    for lo in range(0, count, chunk):
        hi = min(lo + chunk, count)
        idx = rng.integers(0, measure.n_digits, size=(hi - lo, depth))
        x = np.zeros(hi - lo)
        for j in range(depth - 1, -1, -1):  # Horner: deterministic order
            x = (x + digits[idx[:, j]]) * inv_b
        out[lo:hi] = x
        del idx  # before the next pass draws its own
    return out


@sample.register
def _(measure: LebesgueUnit, depth: int, count: int, seed) -> np.ndarray:
    if count < 1:
        raise ValueError("count must be >= 1")
    return np.random.default_rng(seed).random(count)


@sample.register
def _(measure: DiracMass, depth: int, count: int, seed) -> np.ndarray:
    if count < 1:
        raise ValueError("count must be >= 1")
    return np.full(count, measure.point)


@sample.register
def _(measure: Convolution, depth: int, count: int, seed) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return sample(measure.left, depth, count, rng) + sample(measure.right, depth, count, rng)


@singledispatch
def default_sample_depth(measure) -> int:
    """Digit depth saturating double precision, 60 bits (largest base in the tree)."""
    raise TypeError(f"not a measure expression: {measure!r}")


@default_sample_depth.register
def _(measure: FractalMeasure) -> int:
    return max(1, math.ceil(60.0 * math.log(2) / math.log(measure.base)) + 1)


@default_sample_depth.register(LebesgueUnit)
@default_sample_depth.register(DiracMass)
def _(measure) -> int:
    return 1


@default_sample_depth.register
def _(measure: Convolution) -> int:
    return max(default_sample_depth(measure.left), default_sample_depth(measure.right))


@singledispatch
def support_radius(measure) -> float:
    """R with supp(mu) in [-R, R]: radii add across convolution factors; a
    fractal leaf and Lebesgue live in [0, 1]."""
    raise TypeError(f"not a measure expression: {measure!r}")


@support_radius.register(FractalMeasure)
@support_radius.register(LebesgueUnit)
def _(measure) -> float:
    return 1.0


@support_radius.register
def _(measure: DiracMass) -> float:
    return abs(measure.point)


@support_radius.register
def _(measure: Convolution) -> float:
    return support_radius(measure.left) + support_radius(measure.right)


# ---------------------------------------------------------------------------
# Cylinder nodes


@singledispatch
def cylinder_nodes(measure, y: float, budget: int, tol: float, lip):
    """Nodes, each of mass 1/len(nodes), and the error bound of their mean as mu_y at height y.

    A `cantor:` leaf takes its digit cylinders' midpoints at the shallowest
    depth whose width w gives lip * w / (2y) <= tol, for lip >= y|grad phi|;
    q cancels, since at height y/q a cylinder spans w/q, a hyperbolic length
    of w/y.  A point mass is one exact node, bound 0.0.  Lebesgue reports
    None: the midpoint rule on 2^max(8, ceil(log2(8/y))) nodes capped at
    2^floor(log2 budget), which the caller checks at half resolution: an
    estimate, not a bound, blind on an integrand even about the grid.
    """
    raise ValueError("cylinder method unavailable for this expression")


@cylinder_nodes.register
def _(measure: FractalMeasure, y: float, budget: int, tol: float, lip):
    if lip is None:
        raise ValueError("cylinder method needs a test function with a "
                         "declared Lipschitz constant")
    if not tol > 0:  # else the depth search below would not end
        raise ValueError(f"cylinder tol must be > 0, got {tol}")
    b, l = measure.base, measure.n_digits
    depth, scale = 1, 1.0 / b  # a constant (lip 0) is exact on one level
    while (bound := lip * scale / (2.0 * y)) > tol:
        depth, scale = depth + 1, scale / b
    if l**depth > budget:
        raise ValueError(
            f"cylinder enumeration needs {l}^{depth} nodes > budget {budget}; "
            "use method='montecarlo'"
        )
    digits = np.asarray(measure.digits, dtype=float)
    xs, scale = np.zeros(1), 1.0
    for _ in range(depth):  # digit prefixes in lexicographic order
        scale /= b
        xs = (xs[:, None] + digits * scale).ravel()
    xs += 0.5 * scale  # cylinder midpoints
    return xs, bound


@cylinder_nodes.register
def _(measure: LebesgueUnit, y: float, budget: int, tol: float, lip):
    if budget < 2:  # the half-resolution check takes every other node
        raise ValueError(f"cylinder budget must be >= 2 for the Lebesgue leaf, got {budget}")
    n = 1 << max(8, math.ceil(math.log2(8.0 / y)))
    n = min(n, 1 << math.floor(math.log2(budget)))
    return (np.arange(n) + 0.5) / n, None


@cylinder_nodes.register
def _(measure: DiracMass, y: float, budget: int, tol: float, lip):
    return np.array([measure.point]), 0.0


@cylinder_nodes.register
def _(measure: Convolution, y: float, budget: int, tol: float, lip):
    # a translate moves the nodes of what it translates; anything else has
    # no cylinder structure worth enumerating
    leaf, x0 = split_translate(measure)
    if isinstance(leaf, Convolution):
        raise ValueError(
            "cylinder method does not enumerate general convolutions; "
            "use method='montecarlo'"
        )
    xs, bound = cylinder_nodes(leaf, y, budget, tol, lip)
    return xs + x0, bound


# ---------------------------------------------------------------------------
# Fourier l^1 partial sums and dimension estimation


def l1_partial_sum(
    measure: MeasureExpr,
    X: int,
    star: bool = False,
    theta_grid: int = 64,
) -> float:
    """S(X) = sum_{|m|<=X} |mu_hat(m)|; star mode maximizes over shifts.

    Star mode evaluates the sum at m + theta over a uniform theta-grid on
    [0, 1) and returns the maximum; the grid contains theta = 0, so the
    star sum dominates the plain one.
    """
    if X < 1:
        raise ValueError("X must be >= 1")
    return float(_partial_sums(measure, np.array([X]), star, theta_grid)[0])


def _partial_sums(measure, X_grid: np.ndarray, star: bool, theta_grid: int):
    """S(X) at every X of the ascending integer X_grid, from one cumulative
    sum per shift theta; star mode takes the maximum over the theta-grid.

    At theta = 0 the terms at -m are the terms at m, since fourier_abs is
    even bit for bit, so |mu_hat| is evaluated once on m = 1..X_max itself.
    The nonzero shifts k/G (G = theta_grid) are taken in pairs k/G and
    (G - k)/G, and one job evaluates |mu_hat| at n + k/G and n + (G - k)/G
    for n = 0..X_max.  By evenness the term at -m + k/G is |mu_hat| at
    m - k/G, which the job reads at (m - 1) + (G - k)/G, and symmetrically;
    theta = 1/2 is its own partner.  On a power-of-two grid the two
    arguments are the same float, so every sum has the bits of evaluating
    m + theta and -m + theta directly, unless the depth J differs
    between X_max - theta and X_max + 1 - theta; on other grids they may
    round apart and a sum may move in its last bits.  The centre
    |mu_hat(theta)| takes its own J(theta).  The pairs run two at a time
    through map_in_order; the maximum is exact, so the order in which it
    meets them changes no bit.
    """
    if star and theta_grid < 1:
        raise ValueError("theta_grid must be >= 1")
    if star and theta_grid > MAX_GRID_POINTS:  # map_in_order lists every shift pair first
        raise ValueError(f"theta_grid must be at most MAX_GRID_POINTS = {MAX_GRID_POINTS}")
    if X_grid[-1] > MAX_GRID_POINTS:  # n below holds X_max + 1 floats
        raise ValueError(f"X must be at most MAX_GRID_POINTS = {MAX_GRID_POINTS}")
    n = np.arange(int(X_grid[-1]) + 1, dtype=float)

    def sums_from(terms: np.ndarray, theta: float) -> np.ndarray:
        center = fourier_abs(measure, np.array([theta]))[0]
        return center + np.cumsum(terms, out=terms)[X_grid - 1]

    def sums_for_pair(k: int) -> np.ndarray:
        lo = fourier_abs(measure, n + k / theta_grid)
        if 2 * k == theta_grid:  # theta = 1/2 is its own partner
            return sums_from(lo[1:] + lo[:-1], 0.5)
        hi = fourier_abs(measure, n + (theta_grid - k) / theta_grid)
        terms = lo[1:] + hi[:-1]
        S_lo = sums_from(terms, k / theta_grid)
        np.add(hi[1:], lo[:-1], out=terms)
        return np.maximum(S_lo, sums_from(terms, (theta_grid - k) / theta_grid))

    terms = fourier_abs(measure, n[1:])
    S = sums_from(np.add(terms, terms, out=terms), 0.0)
    del terms  # not held while the shift pairs run
    if star:
        for shifted in map_in_order(sums_for_pair, range(1, theta_grid // 2 + 1)):
            S = np.maximum(S, shifted)
    return S


@dataclass
class DimensionEstimate:
    """Fitted growth of S(X) and the induced Fourier l^1-dimension.

    ``slope`` is fitted on the upper half of the grid (closest to the
    asymptotic regime); ``slope_full`` uses every point.  The dimension is
    1 - slope.  Finite-X estimates carry uncontrolled bias: the standard
    error quantifies fit scatter only, never convergence.
    """

    X_grid: np.ndarray
    sums: np.ndarray
    slope: float
    slope_full: float
    dimension: float
    stderr: float
    degenerate: bool = False


def estimate_dim_l1(
    measure: MeasureExpr,
    X_grid,
    star: bool = False,
    theta_grid: int = 64,
) -> DimensionEstimate:
    """Least-squares slope of log S(X) on log X; dimension = 1 - slope."""
    X_grid = np.asarray(sorted(int(x) for x in X_grid))
    if X_grid.size < 4:
        raise ValueError("X_grid needs at least 4 points")
    if X_grid[0] < 1:  # X = 0 would read S(X_max) from the cumulative sum
        raise ValueError("X must be >= 1")
    if math.log10(X_grid[-1] / X_grid[0]) < 2.0 - 1e-9:
        raise ValueError("X_grid must span at least two decades")

    S = _partial_sums(measure, X_grid, star, theta_grid)

    degenerate = bool(np.allclose(S, S[0], rtol=1e-12, atol=0.0))
    if degenerate:
        slope = slope_full = 0.0
        stderr = 0.0
    else:
        half = X_grid.size // 2
        tail_fit = least_squares_loglog(X_grid[half:], S[half:])
        full_fit = least_squares_loglog(X_grid, S)
        slope, slope_full, stderr = tail_fit.slope, full_fit.slope, tail_fit.stderr
    return DimensionEstimate(
        X_grid=X_grid, sums=S, slope=slope, slope_full=slope_full,
        dimension=1.0 - slope, stderr=stderr, degenerate=degenerate,
    )


# ---------------------------------------------------------------------------
# Closed-form dimension bounds


def cvy_lower_bound(b: int, l: int) -> float:
    """log l/log b - log(4 + log(2l))/log b, for digits in progression.

    A lower bound on the Fourier l^1-dimension of the uniform measure on
    a missing-digit set whose l digits form an arithmetic progression.
    """
    if not 2 <= l <= b:
        raise ValueError("need 2 <= l <= b")
    return (math.log(l) - math.log(4.0 + math.log(2.0 * l))) / math.log(b)


def cvy_bound_for_measure(measure: FractalMeasure) -> float | None:
    """cvy_lower_bound for a concrete measure, or None: the bound is only
    certified for two or more digits in arithmetic progression."""
    if measure.n_digits < 2 or measure.digit_progression is None:
        return None
    return cvy_lower_bound(measure.base, measure.n_digits)


def b_of_s(s: float) -> int:
    """Smallest b >= 3 with s - log(4+log(2b))/log b > 39/64 and b - b^s >= 2.

    Both constraints are monotone in b (the log-ratio term is strictly
    decreasing, b - b^s strictly increasing), so an upward scan finds the
    threshold and every larger b satisfies both.
    """
    if not FOURIER_L1_THRESHOLD < s < 1.0:
        raise ValueError("s must lie in (39/64, 1)")

    def ok(b: int) -> bool:
        lhs = s - math.log(4.0 + math.log(2.0 * b)) / math.log(b)
        return lhs > FOURIER_L1_THRESHOLD and b - b**s >= 2.0

    lo, b = 3, 3
    if not ok(lo):
        # exponential bracket then bisect; predicate is monotone in b
        hi = 6
        while not ok(hi):
            lo = hi
            hi *= 2
            if hi > B_OF_S_CEILING:
                raise ValueError(f"no admissible b below ceiling {B_OF_S_CEILING}")
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if ok(mid):
                hi = mid
            else:
                lo = mid
        b = hi
    assert ok(b) and (b == 3 or not ok(b - 1))
    return b


# ---------------------------------------------------------------------------
# Measure literals

def parse_measure(text: str) -> MeasureExpr:
    """Parse `cantor:<b>:<digits>`, `leb`, `dirac:<x>`, `*`, `+<x0>`; a
    term `<atom>+<x0>` is `<atom>*dirac:<x0>`, the same object."""
    parts = [p.strip() for p in text.strip().split("*")]
    if any(not p for p in parts):
        raise LiteralParseError("<measure>", f"empty convolution factor in {text!r}")
    expr = _parse_term(parts[0])
    for p in parts[1:]:
        expr = Convolution(expr, _parse_term(p))
    return expr


def _parse_term(text: str) -> MeasureExpr:
    base_text, plus, shift_text = text.partition("+")
    shift = parse_real(shift_text, "<shift>") if plus else 0.0
    atom = parse_literal(base_text, "<atom>", {
        "cantor:<b>:<digits>": (_cantor_fields, FractalMeasure),
        "leb": LebesgueUnit,
        "dirac:<x>": DiracMass,
    })
    return atom if shift == 0.0 else Convolution(atom, DiracMass(shift))


def _cantor_fields(body: str) -> tuple[int, tuple[int, ...]]:
    """The base and digits of a `cantor:<b>:<digits>` body, the digits
    `<d1>,<d2>,...` or `<lo>..<hi>`."""
    fields = body.split(":")
    if len(fields) != 2:
        raise LiteralParseError("<atom>", f"expected <b>:<digits>, got {body!r}")
    base, digits = fields
    try:
        b = int(base)
    except ValueError:
        raise LiteralParseError("<atom>", f"bad base {base!r}") from None
    try:
        if ".." in digits:
            lo_text, hi_text = digits.split("..", 1)
            lo, hi = int(lo_text), int(hi_text)
            if hi < lo:
                raise ValueError
            return b, tuple(range(lo, hi + 1))
        return b, tuple(int(d) for d in digits.split(","))
    except ValueError:
        raise LiteralParseError("<digits>", f"bad digit list {digits!r}") from None
