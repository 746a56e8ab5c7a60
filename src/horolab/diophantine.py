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
    depth = max(40, _measures.default_sample_depth(measure))
    xs = _measures.sample(measure, depth, n_samples, seed)
    hits = _dist_to_integers(q * xs) < float(psi(q))
    rate = hits.mean()
    stderr = math.sqrt(max(rate * (1.0 - rate), 0.0) / n_samples)
    return float(rate), float(stderr)


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
    depth = max(40, _measures.default_sample_depth(measure))
    xs = _measures.sample(measure, depth, n_samples, seed)

    qs_all = np.arange(2, Q + 1)
    psi_all = np.asarray(psi(qs_all), dtype=float)
    counts = np.zeros(n_samples)
    counts_half = np.zeros(n_samples)  # counts at Q/2, for the regime flag
    rate_hits = np.zeros(rate_q_max - 1)

    chunk = max(1, 4_000_000 // max(1, n_samples))
    for lo in range(0, qs_all.size, chunk):
        hi = min(lo + chunk, qs_all.size)
        block = qs_all[lo:hi]
        hits = _dist_to_integers(np.outer(xs, block)) < psi_all[lo:hi]
        counts += hits.sum(axis=1)
        half_mask = block <= Q // 2
        if half_mask.any():
            counts_half += hits[:, half_mask].sum(axis=1)
        rate_mask = block <= rate_q_max
        if rate_mask.any():
            rate_hits[block[rate_mask] - 2] = hits[:, rate_mask].mean(axis=0)

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
