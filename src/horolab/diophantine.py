"""Continued fractions, Dirichlet approximation, and Khintchine counting.

Approximation counts are the finite-scale surrogate for the almost-sure
statements: whether `dist(q x, Z) < psi(q)` holds for infinitely many q is
undecidable from samples, so the experiments report the counting profile
N_x(Q) = #{2 <= q <= Q : dist(q x, Z) < psi(q)} against the pair-counting
heuristic 2 * sum_{q<=Q} psi(q), whose divergence governs the dichotomy.

Continued fractions run on exact rationals (floats are converted to their
exact binary value), so partial quotients never corrupt at large Q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import measures as _measures
from .fitting import LiteralParseError, csv_table

RATIONAL_DETECTION_TOL = 1e-15
# A window's two binary searches cost about ten row tests of one sample
# (measured for 10^3 to 10^5 sorted samples).
WINDOW_COST = 10
HIT_BLOCK = 1 << 18  # (x, q) pairs per pass of _count_hits: 2 MiB per float array


@dataclass(frozen=True)
class RationalApprox:
    p: int
    q: int
    quality: float  # |alpha - p/q|, 0.0 when within exact-detection tolerance

    def __post_init__(self):
        if self.q < 1:
            raise ValueError("require q >= 1")
        if math.gcd(self.p, self.q) != 1:
            raise ValueError("p/q must be in lowest terms")


class ApproximationFunction:
    """Non-increasing psi: {2, 3, ...} -> (0, inf)."""

    label = "psi"

    def __call__(self, q):
        raise NotImplementedError

    def check_monotone(self, q_max: int = 10_000):
        qs = np.unique(np.geomspace(2, q_max, 64).astype(int))
        vals = self(qs)
        if np.any(np.diff(vals) > 1e-15):
            raise ValueError(f"{self.label} is not non-increasing on [2, {q_max}]")
        if np.any(vals <= 0):
            raise ValueError(f"{self.label} is not positive")


@dataclass
class PowerPsi(ApproximationFunction):
    """psi(q) = q^-tau."""

    tau: float

    def __post_init__(self):
        if not 0 < self.tau < math.inf:
            raise ValueError(f"require finite tau > 0, got {self.tau}")

    @property
    def label(self):
        return f"pow:{self.tau:g}"

    def __call__(self, q):
        return np.asarray(q, dtype=float) ** (-self.tau)


@dataclass
class QLogQPsi(ApproximationFunction):
    """psi(q) = 1/(q log q); the borderline divergent family."""

    @property
    def label(self):
        return "qlogq"

    def __call__(self, q):
        q = np.asarray(q, dtype=float)
        return 1.0 / (q * np.log(q))


@dataclass
class ConstPsi(ApproximationFunction):
    value: float

    def __post_init__(self):
        if not 0 < self.value < math.inf:
            raise ValueError(f"require a positive finite constant, got {self.value}")

    @property
    def label(self):
        return f"const:{self.value:g}"

    def __call__(self, q):
        return np.full(np.shape(q) or (), self.value)


def parse_psi(text: str) -> ApproximationFunction:
    """Parse `pow:<tau>`, `qlogq`, `const:<c>`."""
    text = text.strip()
    if text == "qlogq":
        return QLogQPsi()
    for prefix, cls in (("pow:", PowerPsi), ("const:", ConstPsi)):
        if text.startswith(prefix):
            try:
                return cls(float(text[len(prefix):]))
            except ValueError as exc:
                raise LiteralParseError("<psi>", str(exc)) from None
    raise LiteralParseError("<psi>", f"unknown psi literal {text!r}")


# ---------------------------------------------------------------------------
# Continued fractions


def _as_fraction(alpha) -> Fraction:
    if isinstance(alpha, Fraction):
        return alpha
    if isinstance(alpha, int):
        return Fraction(alpha)
    return Fraction(float(alpha))  # exact binary value of the double


def convergents(alpha, Q: int) -> list[RationalApprox]:
    """All continued-fraction convergents p/q with q <= Q, increasing q.

    Runs the Euclidean algorithm on the exact rational value of alpha.
    Terminates early once a convergent matches alpha within 1e-15 (exact
    rational detected; its quality is reported as 0).
    """
    if Q < 1:
        raise ValueError("require Q >= 1")
    frac = _as_fraction(alpha)
    alpha_f = float(frac)
    out: list[RationalApprox] = []
    p_prev, q_prev = 1, 0
    p_cur, q_cur = int(math.floor(frac)), 1
    rem = frac - math.floor(frac)
    while q_cur <= Q:
        quality = abs(alpha_f - p_cur / q_cur)
        exact = quality < RATIONAL_DETECTION_TOL
        out.append(RationalApprox(p_cur, q_cur, 0.0 if exact else quality))
        if exact or rem == 0:
            break
        inv = 1 / rem
        a = int(math.floor(inv))
        rem = inv - a
        p_prev, p_cur = p_cur, a * p_cur + p_prev
        q_prev, q_cur = q_cur, a * q_cur + q_prev
    return out


def dirichlet_approx(alpha, Q: int) -> RationalApprox:
    """A fraction p/q with 1 <= q <= Q and |alpha - p/q| <= 1/(qQ).

    The last convergent with denominator <= Q works: its error is below
    1/(q q_next) <= 1/(q Q).
    """
    if Q < 1:
        raise ValueError("require Q >= 1")
    return convergents(alpha, Q)[-1]


# ---------------------------------------------------------------------------
# Khintchine counting


def _dist_to_integers(vals: np.ndarray) -> np.ndarray:
    return np.abs(vals - np.round(vals))


def _check_resolution(measure, name: str, q: int, psi_q: float) -> None:
    """Refuse q when floats near the support cannot resolve dist(q x, Z) < psi(q).

    With supp(mu) in [-R, R], fl(q x) may sit q spacing(R) / 2 away from
    q x; once q spacing(R) reaches psi(q) / 2 the predicate tests rounding,
    not approximation (on leb+1e300 every q would "hit").
    """
    radius = _measures.support_radius(measure)
    if not q * np.spacing(radius) < psi_q / 2:
        raise ValueError(
            f"support radius R = {radius:g} is too coarse for {name} = {q}: "
            f"{name} * spacing(R) = {q * np.spacing(radius):g} is not below "
            f"psi({name}) / 2 = {psi_q / 2:g}"
        )


def measure_of_Aq(
    measure,
    q: int,
    psi: ApproximationFunction,
    n_samples: int,
    seed,
) -> tuple[float, float]:
    """Monte-Carlo estimate of mu{x : dist(q x, Z) < psi(q)}."""
    if q < 1:
        raise ValueError("require q >= 1")
    if n_samples < 1000:
        raise ValueError("require at least 10^3 samples")
    _check_resolution(measure, "q", q, float(psi(q)))
    depth = max(40, _measures.default_sample_depth(measure))
    xs = _measures.sample(measure, depth, n_samples, seed)
    hits = _dist_to_integers(q * xs) < float(psi(q))
    rate = hits.mean()
    stderr = math.sqrt(max(rate * (1.0 - rate), 0.0) / n_samples)
    return float(rate), float(stderr)


def _count_hits(xs: np.ndarray, psi_all: np.ndarray, q_half: int):
    """Hits of dist(q x, Z) < psi(q) for q = 2..Q, where psi_all[q - 2] = psi(q).

    Returns int64 arrays (per_sample, per_sample_half, per_q): the hits of
    each x over all q and over q <= q_half, in the order of xs, and the hits
    at each q.  The hit set is exactly that of the float predicate
    _dist_to_integers(q * x) < psi(q) on every pair; khintchine_profile
    describes the two routes that evaluate it on fewer pairs.
    """
    n = xs.size
    order = np.argsort(xs, kind="stable")
    xs = xs[order]
    qs_all = np.arange(2, psi_all.size + 2)
    per_sample = np.zeros(n, dtype=np.int64)
    per_sample_half = np.zeros(n, dtype=np.int64)
    per_q = np.zeros(qs_all.size, dtype=np.int64)

    x_min, x_max = float(xs[0]), float(xs[-1])
    slack = 8.0 * float(np.spacing(max(-x_min, x_max) + 2.0))
    windowed = (WINDOW_COST * (qs_all * (x_max - x_min) + 3) < n) & (
        psi_all + 2 * qs_all * slack < 0.5
    )

    chunk = max(1, HIT_BLOCK // n)  # q's per pass
    window_qs = qs_all[windowed]
    for lo in range(0, window_qs.size, chunk):
        block = window_qs[lo:lo + chunk]
        psi_b = psi_all[block - 2]
        p_first = np.floor(block * x_min) - 1
        n_windows = (np.ceil(block * x_max) + 2 - p_first).astype(np.int64)
        first = np.cumsum(n_windows) - n_windows
        p = np.arange(n_windows.sum()) + np.repeat(p_first - first, n_windows)
        center = p * np.repeat(1.0 / block, n_windows)
        half_width = np.repeat(psi_b / block + slack, n_windows)
        start = np.searchsorted(xs, center - half_width, side="left")
        stop = np.searchsorted(xs, center + half_width, side="right")
        lengths = stop - start
        offsets = np.cumsum(lengths) - lengths
        idx = np.arange(lengths.sum()) + np.repeat(start - offsets, lengths)
        per_block_q = np.add.reduceat(lengths, first)
        q_c = np.repeat(block, per_block_q)
        hit = _dist_to_integers(xs[idx] * q_c) < np.repeat(psi_b, per_block_q)
        idx, q_c = idx[hit], q_c[hit]
        np.add.at(per_sample, idx, 1)
        np.add.at(per_sample_half, idx[q_c <= q_half], 1)
        np.add.at(per_q, q_c - 2, 1)

    row_qs = qs_all[~windowed]
    for lo in range(0, row_qs.size, chunk):
        block = row_qs[lo:lo + chunk]
        hits = _dist_to_integers(np.outer(xs, block)) < psi_all[block - 2]
        per_sample += hits.sum(axis=1)
        half_mask = block <= q_half
        if half_mask.any():
            per_sample_half += hits[:, half_mask].sum(axis=1)
        per_q[block - 2] = hits.sum(axis=0)

    inverse = np.empty_like(order)
    inverse[order] = np.arange(n)
    return per_sample[inverse], per_sample_half[inverse], per_q


@dataclass
class KhintchineProfile:
    """Counting profile N_x(Q) against the heuristic 2 sum psi."""

    qs: np.ndarray
    hit_rates: np.ndarray
    two_psi: np.ndarray
    mean_count: float
    mean_count_stderr: float
    comparison_sum: float  # 2 * sum_{q=2}^{Q} psi(q)
    regime: str  # "divergent-like" | "convergent-like"

    def to_csv(self) -> str:
        return csv_table("q,hit_rate,two_psi", self.qs, self.hit_rates, self.two_psi)


def khintchine_sum(psi: ApproximationFunction, Q: int) -> float:
    """2-to-Q partial sum of psi (exact, deterministic summation order)."""
    if Q < 2:
        raise ValueError("require Q >= 2")
    qs = np.arange(2, Q + 1)
    return float(np.sum(psi(qs)))


def khintchine_profile(
    measure,
    psi: ApproximationFunction,
    Q: int,
    n_samples: int,
    seed,
    rate_q_max: int | None = None,
) -> KhintchineProfile:
    """Per-q hit rates and the counting mean over sampled points.

    For each sampled x, counts N_x(Q) = #{2 <= q <= Q : dist(qx, Z) < psi(q)}.
    Per-q rates are tabulated up to rate_q_max (default: min(Q, 1000)),
    which must lie in [2, Q]; the counting mean uses the full range q <= Q.
    The regime flag compares the last doubling increment of the mean count
    against three standard errors: flat growth marks the convergent-like
    regime.

    The hit set is exactly that of the float predicate
    _dist_to_integers(q * x) < psi(q) on every (x, q) pair, but only some
    pairs are evaluated.  The n samples are sorted once (stable argsort) and
    the counts are scattered back to sample order, so the mean, the
    standard errors and the regime see the same floats as a full test.
    With s = max(x) - min(x):

    - Window route.  A hit at q has an integer p with |fl(q x) - p| < psi,
      so, up to rounding, x lies within psi/q of p/q for some p from
      floor(q min x) - 1 to ceil(q max x) + 1.  With M = max|x| and
      u = 2**-53, fl(q x) moves x by at most u M, and the bound computed
      as p fl(1/q) -/+ (psi/q + slack) errs by at most 4u (M + 2), since
      |p| / q <= M + 1 + u M.  Each window is therefore widened by
      slack = 8 spacing(M + 2) >= 8u (M + 2); two np.searchsorted calls
      find its sample range, and only those samples run the predicate.
    - Row route.  Where windows would cost more than rows
      (WINDOW_COST (q s + 3) >= n) or could overlap
      (psi(q) + 2 q slack >= 1/2), every pair is tested in chunked rows.
      As q rises and psi does not, these are a suffix and a prefix of the
      q range; the input size picks the route.  Below the overlap bound the
      computed windows are disjoint, so no sample is tested twice at one q.

    Cost: about q s + 3 windows at O(log n) each, plus the hits, at each
    windowed q, against n pair tests at each row q: O(Q^2 s log n + hits)
    against O(n Q) in all.  Q is refused once Q spacing(R) >= psi(Q)/2 for
    the support radius R: then fl(q x) cannot resolve the target
    (leb+1e300 would "hit" every q).
    """
    if Q < 10:
        raise ValueError("require Q >= 10")
    if n_samples < 2:  # the standard errors use ddof=1
        raise ValueError(f"require n_samples >= 2, got {n_samples}")
    if rate_q_max is None:
        rate_q_max = min(Q, 1000)
    if not 2 <= rate_q_max <= Q:
        raise ValueError(f"rate_q_max must lie in [2, Q = {Q}], got {rate_q_max}")
    psi.check_monotone(Q)
    _check_resolution(measure, "Q", Q, float(psi(Q)))
    depth = max(40, _measures.default_sample_depth(measure))
    xs = _measures.sample(measure, depth, n_samples, seed)

    psi_all = np.asarray(psi(np.arange(2, Q + 1)), dtype=float)
    per_sample, per_sample_half, per_q = _count_hits(xs, psi_all, Q // 2)
    # exact: integer counts below 2**53 as floats, and hits / n is a bool mean
    counts = per_sample.astype(float)
    counts_half = per_sample_half.astype(float)
    rate_hits = per_q[: rate_q_max - 1] / n_samples

    mean_count = float(counts.mean())
    stderr = float(counts.std(ddof=1) / math.sqrt(n_samples))
    increment = counts - counts_half
    inc_stderr = float(increment.std(ddof=1) / math.sqrt(n_samples)) or 1e-300
    regime = "divergent-like" if increment.mean() > 3.0 * inc_stderr else "convergent-like"

    qs = np.arange(2, rate_q_max + 1)
    return KhintchineProfile(
        qs=qs,
        hit_rates=rate_hits,
        two_psi=2.0 * np.asarray(psi(qs), dtype=float),
        mean_count=mean_count,
        mean_count_stderr=stderr,
        comparison_sum=2.0 * khintchine_sum(psi, Q),
        regime=regime,
    )
