"""Khintchine counting.

Approximation counts are the finite-scale surrogate for the almost-sure
statements: whether `dist(q x, Z) < psi(q)` holds for infinitely many q is
undecidable from samples, so the experiments report the counting profile
N_x(Q) = #{2 <= q <= Q : dist(q x, Z) < psi(q)} against the pair-counting
heuristic 2 * sum_{q<=Q} psi(q), whose divergence governs the dichotomy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import measures as _measures
from .fitting import MAX_GRID_POINTS, THREADS, LiteralParseError, csv_table, map_in_order, parse_real

# A window's two binary searches cost about ten row tests of one sample
# (measured for 10^3 to 10^5 sorted samples).
WINDOW_COST = 10
HIT_BLOCK = 1 << 17  # entries of the _count_hits passes running at once: 1 MiB per float array


@dataclass
class PowerPsi:
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
class QLogQPsi:
    """psi(q) = 1/(q log q); the borderline divergent family."""

    @property
    def label(self):
        return "qlogq"

    def __call__(self, q):
        q = np.asarray(q, dtype=float)
        return 1.0 / (q * np.log(q))


@dataclass
class ConstPsi:
    value: float

    def __post_init__(self):
        if not 0 < self.value < math.inf:
            raise ValueError(f"require a positive finite constant, got {self.value}")

    @property
    def label(self):
        return f"const:{self.value:g}"

    def __call__(self, q):
        return np.full(np.shape(q) or (), self.value)


def parse_psi(text: str) -> PowerPsi | QLogQPsi | ConstPsi:
    """Parse `pow:<tau>`, `qlogq`, `const:<c>`: a labelled psi on {2, 3, ...},
    positive and non-increasing."""
    text = text.strip()
    if text == "qlogq":
        return QLogQPsi()
    for prefix, cls in (("pow:", PowerPsi), ("const:", ConstPsi)):
        if text.startswith(prefix):
            value = parse_real(text[len(prefix):], "<psi>")
            try:
                return cls(value)
            except ValueError as exc:
                raise LiteralParseError("<psi>", str(exc)) from None
    raise LiteralParseError("<psi>", f"unknown psi literal {text!r}")


# ---------------------------------------------------------------------------
# Khintchine counting


def _dist_to_integers(vals: np.ndarray) -> np.ndarray:
    """|vals - round(vals)|, computed in place in vals."""
    vals -= np.round(vals)
    return np.abs(vals, out=vals)


def _check_resolution(measure, Q: int, psi_Q: float) -> None:
    """Refuse Q when floats near the support cannot resolve dist(Q x, Z) < psi(Q).

    With supp(mu) in [-R, R], fl(Q x) may sit Q spacing(R) / 2 away from
    Q x; once Q spacing(R) reaches psi(Q) / 2 the predicate tests rounding,
    not approximation (on leb+1e300 every q would "hit").
    """
    radius = _measures.support_radius(measure)
    if not Q * np.spacing(radius) < psi_Q / 2:
        raise ValueError(
            f"support radius R = {radius:g} is too coarse for Q = {Q}: "
            f"Q * spacing(R) = {Q * np.spacing(radius):g} is not below "
            f"psi(Q) / 2 = {psi_Q / 2:g}"
        )


def _runs(sizes: np.ndarray, cap: int):
    """Consecutive runs [lo, hi) of items whose sizes sum to at most cap;
    an item larger than cap runs alone."""
    ends = np.cumsum(sizes)
    lo = 0
    while lo < sizes.size:
        hi = max(lo + 1, int(np.searchsorted(ends, ends[lo] - sizes[lo] + cap, side="right")))
        yield lo, hi
        lo = hi


def _count_hits(xs: np.ndarray, psi_all: np.ndarray, q_half: int):
    """Hits of dist(q x, Z) < psi(q) for q = 2..Q, where psi_all[q - 2] = psi(q).

    Returns int64 arrays (per_sample, per_sample_half, per_q): the hits of
    each x over all q and over q <= q_half, in the order of xs, and the hits
    at each q.  The hit set is exactly that of the float predicate
    _dist_to_integers(q * x) < psi(q) on every pair; khintchine_profile
    describes the two routes that evaluate it on fewer pairs.

    The q are dealt to THREADS lanes in turn (q = 2, 4, ... and 3, 5, ...
    for two), so the lanes share the windows and the candidates about
    evenly, and map_in_order runs them at once.  Each lane adds its hits
    into its own int64 counts and the lanes' counts are summed: integer
    sums are exact, so no count depends on the lanes.  A lane works in
    passes of at most HIT_BLOCK // THREADS entries: windows (a search
    pass), candidates, which stop - start counts exactly (a predicate pass
    over some windows of one search pass), or (q, x) pairs (a row pass).
    """
    n = xs.size
    cap = HIT_BLOCK // THREADS  # entries per pass
    order = np.argsort(xs, kind="stable")
    xs = xs[order]
    qs_all = np.arange(2, psi_all.size + 2)

    x_min, x_max = float(xs[0]), float(xs[-1])
    slack = 8.0 * float(np.spacing(max(-x_min, x_max) + 2.0))
    windowed = (WINDOW_COST * (qs_all * (x_max - x_min) + 3) < n) & (
        psi_all + 2 * qs_all * slack < 0.5
    )

    def lane(j: int):
        per_sample = np.zeros(n, dtype=np.int64)
        per_sample_half = np.zeros(n, dtype=np.int64)
        per_q = np.zeros(qs_all.size, dtype=np.int64)

        qs, by_window = qs_all[j::THREADS], windowed[j::THREADS]
        window_qs, row_qs = qs[by_window], qs[~by_window]
        p_first = np.floor(window_qs * x_min) - 1
        n_windows = (np.ceil(window_qs * x_max) + 2 - p_first).astype(np.int64)
        for lo, hi in _runs(n_windows, cap):
            block, n_w = window_qs[lo:hi], n_windows[lo:hi]
            first = np.cumsum(n_w) - n_w
            # window centres p/q, p from floor(q min x) - 1 to ceil(q max x) + 1,
            # built in place so that a search pass holds four arrays of windows
            center = np.arange(n_w.sum()) + np.repeat(p_first[lo:hi] - first, n_w)
            center *= np.repeat(1.0 / block, n_w)
            half_width = np.repeat(psi_all[block - 2] / block + slack, n_w)
            edge = center - half_width
            start = np.searchsorted(xs, edge, side="left")
            lengths = np.searchsorted(xs, np.add(center, half_width, out=edge), side="right")
            lengths -= start
            del center, half_width, edge  # the predicate passes read start and lengths only
            window_q = np.repeat(block, n_w)
            for a, b in _runs(lengths, cap):
                size = lengths[a:b]
                offsets = np.cumsum(size) - size
                idx = np.arange(size.sum()) + np.repeat(start[a:b] - offsets, size)
                q_c = np.repeat(window_q[a:b], size)
                hit = _dist_to_integers(xs[idx] * q_c) < psi_all[q_c - 2]
                idx, q_c = idx[hit], q_c[hit]
                per_sample += np.bincount(idx, minlength=n)
                per_sample_half += np.bincount(idx[q_c <= q_half], minlength=n)
                per_q += np.bincount(q_c - 2, minlength=qs_all.size)

        chunk = max(1, cap // n)  # q's per row pass
        for lo in range(0, row_qs.size, chunk):
            block = row_qs[lo:lo + chunk]
            hits = _dist_to_integers(np.outer(block, xs)) < psi_all[block - 2, None]
            per_sample += hits.sum(axis=0)
            per_sample_half += hits[block <= q_half].sum(axis=0)
            per_q[block - 2] = hits.sum(axis=1)
        return per_sample, per_sample_half, per_q

    per_sample, per_sample_half, per_q = (sum(c) for c in zip(*map_in_order(lane, range(THREADS))))
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


def khintchine_profile(
    measure,
    psi: PowerPsi | QLogQPsi | ConstPsi,
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
    (leb+1e300 would "hit" every q).  psi is evaluated once, on all of
    [2, Q], which must be positive and non-increasing; Q and n_samples past
    MAX_GRID_POINTS are refused before that.
    """
    if Q < 10:
        raise ValueError("require Q >= 10")
    if n_samples < 2:  # the standard errors use ddof=1
        raise ValueError(f"require n_samples >= 2, got {n_samples}")
    if rate_q_max is None:
        rate_q_max = min(Q, 1000)
    if not 2 <= rate_q_max <= Q:
        raise ValueError(f"rate_q_max must lie in [2, Q = {Q}], got {rate_q_max}")
    for name, count in (("Q", Q), ("n_samples", n_samples)):
        if count > MAX_GRID_POINTS:
            raise ValueError(f"{name} must be at most MAX_GRID_POINTS = {MAX_GRID_POINTS}")
    psi_all = np.asarray(psi(np.arange(2, Q + 1)), dtype=float)  # psi_all[q - 2] = psi(q)
    if np.any(np.diff(psi_all) > 1e-15) or np.any(psi_all <= 0):
        raise ValueError(f"{psi.label} is not positive and non-increasing on [2, {Q}]")
    _check_resolution(measure, Q, float(psi(Q)))
    depth = max(40, _measures.default_sample_depth(measure))
    xs = _measures.sample(measure, depth, n_samples, seed)

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

    return KhintchineProfile(
        qs=np.arange(2, rate_q_max + 1),
        hit_rates=rate_hits,
        two_psi=2.0 * psi_all[: rate_q_max - 1],
        mean_count=mean_count,
        mean_count_stderr=stderr,
        comparison_sum=2.0 * float(np.sum(psi_all)),
        regime=regime,
    )
