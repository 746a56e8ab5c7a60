import math
import threading

import numpy as np
import pytest

from horolab import diophantine, fitting
from horolab.diophantine import (
    ConstPsi,
    PowerPsi,
    QLogQPsi,
    khintchine_profile,
    parse_psi,
)
from horolab.fitting import LiteralParseError
from horolab.measures import default_sample_depth, parse_measure, sample

# ---------------------------------------------------------------------------
# psi families


def test_psi_literals_round_trip():
    assert isinstance(parse_psi("pow:1.5"), PowerPsi)
    assert isinstance(parse_psi("qlogq"), QLogQPsi)
    assert isinstance(parse_psi("const:0.5"), ConstPsi)
    assert parse_psi("pow: 1") == parse_psi("pow:1")  # numbers may be spaced
    with pytest.raises(LiteralParseError) as err:
        parse_psi("exp:1")
    assert err.value.production == "<psi>"


def test_psi_monotonicity_check():
    leb = parse_measure("leb")
    khintchine_profile(leb, parse_psi("pow:2"), 10_000, 2, seed=0)
    with pytest.raises(ValueError, match=r"is not positive and non-increasing on \[2, 10000\]"):
        # an increasing "psi" is rejected
        class Increasing(PowerPsi):
            def __call__(self, q):
                return np.asarray(q, dtype=float)

        khintchine_profile(leb, Increasing(1.0), 10_000, 2, seed=0)


def test_khintchine_sum_values():
    # comparison_sum = 2 sum_{q=2}^{Q} psi(q); dirac:0 has support radius 0,
    # so the resolution check admits any Q
    def half_sum(psi, Q):
        return khintchine_profile(parse_measure("dirac:0"), psi, Q, 2, seed=0).comparison_sum / 2

    # sum_{q=2}^{inf} q^-2 = pi^2/6 - 1
    assert half_sum(PowerPsi(2.0), 10**6) == pytest.approx(math.pi**2 / 6 - 1, abs=2e-6)
    # harmonic tail: ln Q + gamma - 1
    expect = math.log(10**6) + 0.5772156649015329 - 1.0
    assert half_sum(PowerPsi(1.0), 10**6) == pytest.approx(expect, abs=1e-3)
    assert half_sum(ConstPsi(0.5), 10) == pytest.approx(4.5)


def test_khintchine_profile_evaluates_psi_on_one_array():
    # psi runs on [2, Q] once; two_psi and comparison_sum read that array,
    # with the bits of evaluating psi on their own ranges
    calls = []

    class Counted:
        def __init__(self, psi):
            self.psi, self.label = psi, psi.label

        def __call__(self, q):
            calls.append(np.shape(q))
            return self.psi(q)

    for psi in (PowerPsi(1.0), PowerPsi(1.5), QLogQPsi(), ConstPsi(0.01)):
        calls.clear()
        profile = khintchine_profile(parse_measure("leb"), Counted(psi), 3000, 200, seed=4, rate_q_max=700)
        assert calls == [(2999,), ()]  # the array, and the scalar psi(Q) of the resolution check
        assert np.array_equal(profile.two_psi, 2.0 * psi(np.arange(2, 701)))
        assert profile.comparison_sum == 2.0 * float(np.sum(psi(np.arange(2, 3001))))


def test_khintchine_profile_refuses_counts_over_max_grid_points(monkeypatch):
    # Q = 10^12 would ask np.arange for psi on 10^12 q, n_samples = 10^12
    # np.zeros for 10^12 samples (8 TB each); the refusal comes before both
    for allocator in ("arange", "zeros"):
        monkeypatch.setattr(np, allocator, lambda *a, **k: pytest.fail("an allocator was reached"))
    cap = f"must be at most MAX_GRID_POINTS = {fitting.MAX_GRID_POINTS}"
    with pytest.raises(ValueError, match=f"Q {cap}"):
        khintchine_profile(parse_measure("leb"), ConstPsi(0.4), 10**12, 100, seed=0)
    with pytest.raises(ValueError, match=f"n_samples {cap}"):
        khintchine_profile(parse_measure("cantor:3:0,2"), PowerPsi(1.0), 100, 10**12, seed=0)


# ---------------------------------------------------------------------------
# Monte-Carlo measures of approximation sets


def rate_of_Aq(measure, q, psi, n_samples, seed):
    """mu{x : dist(q x, Z) < psi(q)} and its standard error, read off the
    profile's hit rate at q."""
    profile = khintchine_profile(measure, psi, max(q, 10), n_samples, seed, rate_q_max=q)
    rate = float(profile.hit_rates[q - 2])
    return rate, math.sqrt(rate * (1.0 - rate) / n_samples)


def direct_rate_of_Aq(measure, q, psi, n_samples, seed):
    """The same rate from fresh samples, each tested at q alone."""
    xs = sample(measure, max(40, default_sample_depth(measure)), n_samples, seed)
    rate = float((np.abs(q * xs - np.round(q * xs)) < float(psi(q))).mean())
    return rate, math.sqrt(rate * (1.0 - rate) / n_samples)


def test_measure_Aq_lebesgue_closed_form():
    psi = PowerPsi(1.5)
    q = 10
    val, err = rate_of_Aq(parse_measure("leb"), q, psi, 100_000, seed=1)
    assert abs(val - 2 * 10**-1.5) < 3 * err + 1e-9


def test_measure_Aq_vacuous_threshold():
    val, err = rate_of_Aq(parse_measure("leb"), 7, ConstPsi(0.6), 2000, seed=2)
    assert val == 1.0 and err == 0.0


def test_measure_Aq_monotone_in_psi():
    leb = parse_measure("leb")
    small, e1 = rate_of_Aq(leb, 50, PowerPsi(1.8), 50_000, seed=3)
    large, e2 = rate_of_Aq(leb, 50, PowerPsi(1.2), 50_000, seed=3)
    assert large - small > -3 * (e1 + e2)
    assert large > small


def test_measure_Aq_cantor_near_lebesgue_heuristic():
    m = parse_measure("cantor:450:0..446")
    psi = PowerPsi(1.0)
    ratios = []
    for q in (5, 17, 40, 99):
        val, err = rate_of_Aq(m, q, psi, 50_000, seed=q)
        ratios.append(val / (2.0 / q))
    assert abs(np.mean(ratios) - 1.0) < 0.15


# ---------------------------------------------------------------------------
# Khintchine profiles


def test_profile_lebesgue_matches_pair_counting():
    profile = khintchine_profile(parse_measure("leb"), PowerPsi(1.0), 10_000, 1000, seed=4)
    assert abs(profile.mean_count / profile.comparison_sum - 1.0) < 0.10
    assert profile.regime == "divergent-like"


def test_profile_convergent_series_plateaus():
    profile = khintchine_profile(parse_measure("leb"), PowerPsi(2.0), 10_000, 1000, seed=5)
    assert profile.regime == "convergent-like"


def test_profile_dirac_half_closed_form():
    # dist(q/2, Z) = 0 for even q, 1/2 for odd q: hits exactly the even q
    Q = 500
    profile = khintchine_profile(parse_measure("dirac:0.5"), PowerPsi(1.0), Q, 1000, seed=6)
    evens = Q // 2  # even q in [2, Q]
    assert profile.mean_count == pytest.approx(evens)
    assert profile.mean_count_stderr == 0.0


def test_profile_consistent_with_measure_Aq():
    leb = parse_measure("leb")
    psi = PowerPsi(1.0)
    profile = khintchine_profile(leb, psi, 200, 20_000, seed=7)
    for q in (2, 10, 100):
        rate_profile = profile.hit_rates[q - 2]
        rate_direct, err = direct_rate_of_Aq(leb, q, psi, 20_000, seed=100 + q)
        se = math.sqrt(rate_profile * (1 - rate_profile) / 20_000) + err
        assert abs(rate_profile - rate_direct) < 4 * se + 1e-12


def test_profile_validation():
    with pytest.raises(ValueError):
        khintchine_profile(parse_measure("leb"), PowerPsi(1.0), 5, 1000, seed=0)
    # the standard errors use ddof=1: one sample would report NaN
    for n_samples in (0, 1):
        with pytest.raises(ValueError, match="n_samples"):
            khintchine_profile(parse_measure("leb"), PowerPsi(1.0), 20, n_samples, seed=0)
    assert math.isfinite(
        khintchine_profile(parse_measure("leb"), PowerPsi(1.0), 20, 2, seed=0).mean_count_stderr
    )
    # per-q rates exist only for 2 <= q <= Q: no fake zero rows, no numpy error
    for rate_q_max in (0, 1, 21, 30):
        with pytest.raises(ValueError, match="rate_q_max"):
            khintchine_profile(
                parse_measure("leb"), PowerPsi(1.0), 20, 1000, seed=0, rate_q_max=rate_q_max
            )
    for rate_q_max in (2, 20):
        profile = khintchine_profile(
            parse_measure("leb"), PowerPsi(1.0), 20, 1000, seed=0, rate_q_max=rate_q_max
        )
        assert profile.qs[-1] == rate_q_max == profile.hit_rates.size + 1


def test_profile_refuses_supports_floats_cannot_resolve():
    # every sample of leb+1e300 rounds to 1e300, so every q would "hit"
    far = parse_measure("leb+1e300")
    with pytest.raises(ValueError, match=r"R = 1e\+300 .* Q = 20: .* psi\(Q\) / 2 = 0.025"):
        khintchine_profile(far, PowerPsi(1.0), 20, 100, seed=0)
    # the bound is Q spacing(R) < psi(Q) / 2: spacing(1e10 + 1) is 2**-19
    near = parse_measure("leb+1e10")
    assert khintchine_profile(near, PowerPsi(1.0), 20, 100, seed=0).mean_count > 0
    with pytest.raises(ValueError, match="too coarse for Q = 1000"):
        khintchine_profile(near, PowerPsi(2.0), 1000, 100, seed=0)


# ---------------------------------------------------------------------------
# Window counting against the full outer-product test


def outer_product_counts(xs, psi_all, Q, rate_q_max):
    """The chunked loop that tests every (x, q) pair: the oracle for windows."""
    n_samples = xs.size
    qs_all = np.arange(2, Q + 1)
    counts = np.zeros(n_samples)
    counts_half = np.zeros(n_samples)
    rate_hits = np.zeros(rate_q_max - 1)
    chunk = max(1, 4_000_000 // max(1, n_samples))
    for lo in range(0, qs_all.size, chunk):
        hi = min(lo + chunk, qs_all.size)
        block = qs_all[lo:hi]
        hits = np.abs(np.outer(xs, block) - np.round(np.outer(xs, block))) < psi_all[lo:hi]
        counts += hits.sum(axis=1)
        half_mask = block <= Q // 2
        if half_mask.any():
            counts_half += hits[:, half_mask].sum(axis=1)
        rate_mask = block <= rate_q_max
        if rate_mask.any():
            rate_hits[block[rate_mask] - 2] = hits[:, rate_mask].mean(axis=0)
    return counts, counts_half, rate_hits


def outer_product_profile(measure, psi, Q, n_samples, seed, rate_q_max):
    """(hit_rates, mean_count, mean_count_stderr, regime) from the oracle loop."""
    depth = max(40, default_sample_depth(measure))
    xs = sample(measure, depth, n_samples, seed)
    psi_all = np.asarray(psi(np.arange(2, Q + 1)), dtype=float)
    counts, counts_half, rate_hits = outer_product_counts(xs, psi_all, Q, rate_q_max)
    stderr = float(counts.std(ddof=1) / math.sqrt(n_samples))
    increment = counts - counts_half
    inc_stderr = float(increment.std(ddof=1) / math.sqrt(n_samples)) or 1e-300
    regime = "divergent-like" if increment.mean() > 3.0 * inc_stderr else "convergent-like"
    return rate_hits, float(counts.mean()), stderr, regime


def _bytes(x):
    return np.asarray(x, dtype=float).tobytes()


@pytest.mark.parametrize(
    "measure, psi, Q, n_samples, seed, rate_q_max",
    [
        ("cantor:450:0..446", "pow:1", 1000, 100_000, 202, 1000),  # criterion 9
        ("leb", "pow:1", 10_000, 1000, 101, 1000),  # criterion 9
        ("cantor:450:0..446", "pow:1", 200, 2000, 2024, 200),  # golden command
        ("leb", "pow:1", 3000, 500, 2024, 1000),  # golden command
        ("dirac:0.5", "pow:1", 500, 1000, 6, 500),
        ("leb", "const:0.5", 300, 1000, 1, 300),
        ("leb", "const:0.49", 300, 1000, 1, 300),
        ("leb", "qlogq", 2000, 3000, 3, 1000),
        ("cantor:3:0,2+-7.3", "pow:1", 500, 2000, 4, 500),
        ("cantor:3:0,2*leb", "pow:1.5", 800, 2000, 5, 800),
    ],
)
def test_profile_byte_equal_to_outer_product(
    monkeypatch, measure, psi, Q, n_samples, seed, rate_q_max
):
    monkeypatch.setattr(fitting, "_usable_cpus", lambda: 2)  # lanes threaded even on one CPU
    m, p = parse_measure(measure), parse_psi(psi)
    profile = khintchine_profile(m, p, Q, n_samples, seed, rate_q_max=rate_q_max)
    rates, mean, stderr, regime = outer_product_profile(m, p, Q, n_samples, seed, rate_q_max)
    assert profile.hit_rates.tobytes() == rates.tobytes()
    assert _bytes(profile.mean_count) == _bytes(mean)
    assert _bytes(profile.mean_count_stderr) == _bytes(stderr)
    assert profile.regime == regime


def _adversarial_samples(psi, q_max, shift):
    """Floats at and one ulp either side of every window edge (p -/+ psi(q))/q,
    at p/q and at the round-half-even ties (2p + 1)/(2q), each twice."""
    points = []
    for q in range(2, q_max + 1):
        psi_q = float(psi(q))
        for p in range(0, q + 1):
            for edge in ((p - psi_q) / q, (p + psi_q) / q, p / q, (2 * p + 1) / (2 * q)):
                edge += shift
                points += [np.nextafter(edge, -np.inf), edge, np.nextafter(edge, np.inf)]
    xs = np.array(points * 2)
    return np.random.default_rng(q_max).permutation(xs)  # the counts go back to this order


@pytest.mark.parametrize("psi", [PowerPsi(1.0), ConstPsi(0.3), QLogQPsi()], ids=lambda p: p.label)
@pytest.mark.parametrize("shift", [0.0, -7.3, 1e6])
def test_count_hits_byte_equal_on_window_edges(psi, shift):
    Q = 60
    xs = _adversarial_samples(psi, Q, shift)
    psi_all = np.asarray(psi(np.arange(2, Q + 1)), dtype=float)
    per_sample, per_sample_half, per_q = diophantine._count_hits(xs, psi_all, Q // 2)
    counts, counts_half, rate_hits = outer_product_counts(xs, psi_all, Q, Q)
    assert per_sample.astype(float).tobytes() == counts.tobytes()
    assert per_sample_half.astype(float).tobytes() == counts_half.tobytes()
    assert (per_q / xs.size).tobytes() == rate_hits.tobytes()
    assert per_q.sum() > 0


def test_window_route_tests_only_candidates(monkeypatch):
    # testing every pair runs the predicate n (Q - 1) = 398000 times
    monkeypatch.setattr(fitting, "_usable_cpus", lambda: 2)  # lanes threaded even on one CPU
    real = diophantine._dist_to_integers
    lock = threading.Lock()  # two lanes call the predicate at once
    Q, n = 200, 2000
    m = parse_measure("cantor:450:0..446")
    xs = sample(m, max(40, default_sample_depth(m)), n, 2024)
    span = xs.max() - xs.min()
    windows = sum(math.ceil(q * span) + 5 for q in range(2, Q + 1))
    # the default passes, and passes small enough that each route takes several
    for hit_block in (diophantine.HIT_BLOCK, 1 << 13):
        evaluated = {1: 0, 2: 0}  # window candidates, row pairs
        row_qs, largest = [], [0]

        def counting(vals):
            with lock:
                evaluated[vals.ndim] += vals.size
                largest[0] = max(largest[0], vals.size)
                if vals.ndim == 2:
                    row_qs.append(vals.shape[0])
            return real(vals)

        monkeypatch.setattr(diophantine, "_dist_to_integers", counting)
        monkeypatch.setattr(diophantine, "HIT_BLOCK", hit_block)
        profile = khintchine_profile(m, PowerPsi(1.0), Q, n, seed=2024, rate_q_max=Q)
        hits = int(np.rint(profile.hit_rates * n).sum())
        # q = 2 (psi = 1/2: windows could overlap) and the last q, where windows cost more
        assert sum(row_qs) <= 3 and evaluated[2] == n * sum(row_qs)
        assert evaluated[1] <= hits + 2 * windows
        assert evaluated[1] + evaluated[2] < n * (Q - 1) / 5
        assert largest[0] <= hit_block // fitting.THREADS
