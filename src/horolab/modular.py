"""Geometry of the modular surface: reduction and horocycle averages.

Points x + iy of the upper half-plane reduce to the standard fundamental
domain {|x| <= 1/2, x^2 + y^2 >= 1} by alternating integer translations
and inversions z -> -1/z.
"""

from __future__ import annotations

import math

import numpy as np

from . import measures as _measures
from .fitting import MAX_GRID_POINTS

BOUNDARY_BAND = 1e-12
MAX_REDUCE_STEPS = 10_000
EVAL_BLOCK = 1 << 15  # most points per block of mu_y_value


def reduce_many(x, y) -> tuple[np.ndarray, np.ndarray]:
    """Translate/invert every x + iy into the closed fundamental domain.

    Boundary points keep whichever representative the last step produced:
    x = 1/2 and x = -1/2 both occur, and within BOUNDARY_BAND of the unit
    arc z and -1/conj(z) are both left as they are.  Raises ValueError
    unless every y > 0, every y*y is a normal float (about y >= 1.5e-154;
    below it x^2 + y^2 underflows and the inversion returns NaN or inf)
    and every x is finite.  Steps never lower y, so checking the input
    suffices.

    The first step runs in place on the output; later steps carry only the
    points still live, in compact arrays with their output indices.  A step
    translates its points and writes them back, then keeps those inside the
    unit circle (one np.flatnonzero), inverts them in place and writes them
    back.  Per point the arithmetic and its order are the same at every
    array length and live count, so the result does not depend on how the
    points are grouped.  The rounding temporary is reused for x^2 + y^2,
    and the survivors are compacted one array at a time and inverted in
    place, so few temporaries of a step's size are alive at once.
    """
    x = np.array(x, dtype=float, copy=True, order="C")  # so xf below is a view
    y = np.broadcast_to(np.asarray(y, dtype=float), x.shape).copy()
    if not (y > 0).all():
        raise ValueError("require y > 0")
    if not (y * y >= np.finfo(float).tiny).all():
        raise ValueError("require y*y >= the smallest normal float (y >= ~1.5e-154)")
    if not np.isfinite(x).all():
        raise ValueError("require finite x")
    xf, yf = x.reshape(-1), y.reshape(-1)
    xs, ys, live = xf, yf, None  # live: output indices of xs, ys (None: all, in place)
    for _ in range(MAX_REDUCE_STEPS):
        r2 = np.round(xs)
        xs -= r2
        if live is not None:
            xf[live] = xs  # final for the points that stop here
        r2 = np.multiply(xs, xs, out=r2)
        r2 += ys * ys
        keep = np.flatnonzero(r2 < 1.0 - BOUNDARY_BAND)
        live = keep if live is None else live[keep]
        r2 = r2[keep]
        xs = xs[keep]
        ys = ys[keep]
        np.negative(xs, out=xs)
        xs /= r2
        ys /= r2
        xf[live], yf[live] = xs, ys
        if keep.size == 0:
            break
    else:
        raise ValueError(f"no convergence after {MAX_REDUCE_STEPS} steps")
    return x, y


def _mean_stderr(values: np.ndarray) -> tuple[float | complex, float]:
    n = values.size
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing sum is refused by the caller
        mean = values.mean()
        if np.iscomplexobj(values):
            var = values.real.var(ddof=1) + values.imag.var(ddof=1)
            return complex(mean), math.sqrt(var / n)
        return float(mean), float(values.std(ddof=1) / math.sqrt(n))


# ---------------------------------------------------------------------------
# mu_y against a fractal measure


def mu_y_value(
    measure,
    phi,
    y: float,
    x0: float = 0.0,
    q: int = 1,
    method: str = "montecarlo",
    budget: int = 10**5,
    seed=0,
    tol: float = 1e-6,
) -> tuple[float | complex, float]:
    """integral of phi(n(x0 + x/q) a(y/q)) d mu(x) with an error estimate.

    The base point n(x0) a(1/q) takes q >= 1, and the height 0 < y <= 1.
    n(x0) is 1-periodic, so x0 enters as x0 % 1.0, which is exact.  The
    budget, the number of Monte-Carlo points or the most cylinder nodes,
    lies in [1, MAX_GRID_POINTS].

    cylinder: the mean of phi over measures.cylinder_nodes, erring by at
    most the bound they report (phi.lipschitz * width / (2y) <= tol on a
    `cantor:` leaf, whatever q, the only one that reads phi.lipschitz; 0 for
    a point mass).  The Lebesgue leaf reports none;
    its error, the distance to the mean over every other node, is a
    half-resolution estimate, not a bound, that evaluates phi nowhere else:
    on an integrand even about the grid (phi even in x at x0 = 0 or 0.25,
    q = 1) both means alias the same frequencies and it reads 0.
    montecarlo: seeded sample mean with its standard error.

    The points are reduced and passed to phi in slices of at most
    EVAL_BLOCK, into one array; each value depends only on its own point,
    so the result is bit for bit that of one unblocked evaluation.
    Cylinder nodes are enumerated at once.  Monte-Carlo points are drawn
    block by block from one Generator, so no whole sample is held; for a
    leaf measure the draws are bit for bit those of one call (numpy's draws
    do not depend on how the calls are split), while a Convolution
    alternates its left and right draws per block.  A budget below 2 is
    refused: the standard error needs two samples.
    """
    if q < 1:
        raise ValueError("require q >= 1")
    if not 0.0 < y <= 1.0:
        raise ValueError("require 0 < y <= 1")
    if not 1 <= budget <= MAX_GRID_POINTS:
        raise ValueError(f"budget must lie in [1, MAX_GRID_POINTS = {MAX_GRID_POINTS}], got {budget}")
    x0 = x0 % 1.0

    def evaluate(n: int, points) -> np.ndarray:
        """phi on the n points, points(lo, hi) giving those of block [lo, hi)."""
        out = None
        for lo in range(0, n, EVAL_BLOCK):
            hi = min(lo + EVAL_BLOCK, n)
            vals = np.asarray(phi(*reduce_many(x0 + points(lo, hi) / q, y / q)))
            if hi - lo == n:  # one block: its values are the result, uncopied
                return vals
            if out is None:
                out = np.empty(n, dtype=vals.dtype)
            out[lo:hi] = vals
            del vals  # so the next block is drawn with no array of this one alive
        return out

    if method == "cylinder":
        xs, err = _measures.cylinder_nodes(measure, y, budget, tol, phi)
        vals = evaluate(xs.size, lambda lo, hi: xs[lo:hi])
        with np.errstate(over="ignore", invalid="ignore"):  # an overflowing sum is refused by the caller
            total = np.sum(vals * (1.0 / vals.size))
            if err is None:  # Lebesgue leaf: compare against every other node
                err = abs(total - vals[::2].mean())
        out = complex(total) if np.iscomplexobj(vals) else float(total)
        return out, float(err)

    if method == "montecarlo":
        if budget < 2:
            raise ValueError(f"montecarlo budget must be >= 2 for a standard error, got {budget}")
        depth = _measures.default_sample_depth(measure)
        rng = np.random.default_rng(seed)

        def draw(lo: int, hi: int) -> np.ndarray:
            return _measures.sample(measure, depth, hi - lo, rng)

        return _mean_stderr(evaluate(budget, draw))

    raise ValueError(f"unknown method {method!r}")
