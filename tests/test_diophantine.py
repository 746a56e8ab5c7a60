import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from horolab.diophantine import (
    ConstPsi,
    PowerPsi,
    QLogQPsi,
    convergents,
    dirichlet_approx,
    khintchine_profile,
    khintchine_sum,
    measure_of_Aq,
    parse_psi,
)
from horolab.fitting import LiteralParseError
from horolab.measures import parse_measure

GOLDEN = (1 + math.sqrt(5)) / 2


def brute_force_best(alpha: float, Q: int):
    """Best rational with denominator at most Q, by exhaustion."""
    best = (0, 1, abs(alpha))
    for q in range(1, Q + 1):
        p = round(alpha * q)
        err = abs(alpha - p / q)
        if err < best[2] - 1e-18:
            best = (p, q, err)
    return best


# ---------------------------------------------------------------------------
# Continued fractions


def test_rational_input_terminates_exactly():
    convs = convergents(3 / 7, 100)
    last = convs[-1]
    assert (last.p, last.q) == (3, 7)
    assert last.quality == 0.0


def test_golden_ratio_gives_fibonacci_denominators():
    qs = [c.q for c in convergents(GOLDEN, 100)]
    assert qs == [1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89]


def test_pi_convergents_include_the_classics():
    convs = convergents(math.pi, 120)
    pairs = {(c.p, c.q) for c in convs}
    assert (22, 7) in pairs and (355, 113) in pairs
    # every convergent (q >= 2) beats all smaller denominators: best approximations
    for c in convs:
        if c.q < 2:
            continue
        _, _, best_err = brute_force_best(math.pi, c.q)
        assert c.quality <= best_err + 1e-15


def test_convergents_quality_bound():
    # |q alpha - p| < 1/q_next for consecutive convergents
    for alpha in (math.pi, math.sqrt(2), 0.37137):
        convs = convergents(alpha, 10**6)
        for cur, nxt in zip(convs, convs[1:]):
            assert abs(cur.q * alpha - cur.p) < 1.0 / nxt.q + 1e-15


def test_convergents_exact_fraction_input():
    convs = convergents(Fraction(355, 113), 200)
    assert (convs[-1].p, convs[-1].q) == (355, 113)


@settings(max_examples=30, derandomize=True)
@given(st.floats(-10, 10), st.integers(1, 5000))
def test_convergents_lowest_terms_property(alpha, Q):
    for c in convergents(alpha, Q):
        assert math.gcd(c.p, c.q) == 1
        assert c.q <= Q


def test_dirichlet_examples():
    r = dirichlet_approx(1 / 3, 10)
    assert (r.p, r.q) == (1, 3)
    r = dirichlet_approx(0.0, 5)
    assert (r.p, r.q) == (0, 1)


def test_dirichlet_bound_verified_by_brute_force():
    Q = 100
    alpha = math.sqrt(2)
    r = dirichlet_approx(alpha, Q)
    assert 1 <= r.q <= Q
    assert abs(alpha - r.p / r.q) <= 1.0 / (r.q * Q) + 1e-15
    # exhaustive check that some q <= Q achieves the Dirichlet bound as well
    ok = any(
        abs(alpha - round(alpha * q) / q) <= 1.0 / (q * Q)
        for q in range(1, Q + 1)
    )
    assert ok


@settings(max_examples=30, derandomize=True)
@given(st.floats(0, 1), st.integers(1, 2000))
def test_dirichlet_bound_property(alpha, Q):
    r = dirichlet_approx(alpha, Q)
    assert 1 <= r.q <= Q
    assert abs(alpha - r.p / r.q) <= 1.0 / (r.q * Q) + 1e-12


# ---------------------------------------------------------------------------
# psi families


def test_psi_literals_round_trip():
    assert isinstance(parse_psi("pow:1.5"), PowerPsi)
    assert isinstance(parse_psi("qlogq"), QLogQPsi)
    assert isinstance(parse_psi("const:0.5"), ConstPsi)
    with pytest.raises(LiteralParseError) as err:
        parse_psi("exp:1")
    assert err.value.production == "<psi>"


def test_psi_monotonicity_check():
    parse_psi("pow:2").check_monotone()
    with pytest.raises(ValueError):
        # an increasing "psi" is rejected
        class Increasing(PowerPsi):
            def __call__(self, q):
                return np.asarray(q, dtype=float)

        Increasing(1.0).check_monotone()


def test_khintchine_sum_values():
    # sum_{q=2}^{inf} q^-2 = pi^2/6 - 1
    assert khintchine_sum(PowerPsi(2.0), 10**6) == pytest.approx(
        math.pi**2 / 6 - 1, abs=2e-6
    )
    # harmonic tail: ln Q + gamma - 1
    expect = math.log(10**6) + 0.5772156649015329 - 1.0
    assert khintchine_sum(PowerPsi(1.0), 10**6) == pytest.approx(expect, abs=1e-3)
    assert khintchine_sum(ConstPsi(0.5), 10) == pytest.approx(4.5)


# ---------------------------------------------------------------------------
# Monte-Carlo measures of approximation sets


def test_measure_Aq_lebesgue_closed_form():
    psi = PowerPsi(1.5)
    q = 10
    val, err = measure_of_Aq(parse_measure("leb"), q, psi, 100_000, seed=1)
    assert abs(val - 2 * 10**-1.5) < 3 * err + 1e-9


def test_measure_Aq_vacuous_threshold():
    val, err = measure_of_Aq(parse_measure("leb"), 7, ConstPsi(0.6), 2000, seed=2)
    assert val == 1.0 and err == 0.0


def test_measure_Aq_monotone_in_psi():
    leb = parse_measure("leb")
    small, e1 = measure_of_Aq(leb, 50, PowerPsi(1.8), 50_000, seed=3)
    large, e2 = measure_of_Aq(leb, 50, PowerPsi(1.2), 50_000, seed=3)
    assert large - small > -3 * (e1 + e2)
    assert large > small


def test_measure_Aq_cantor_near_lebesgue_heuristic():
    m = parse_measure("cantor:450:0..446")
    psi = PowerPsi(1.0)
    ratios = []
    for q in (5, 17, 40, 99):
        val, err = measure_of_Aq(m, q, psi, 50_000, seed=q)
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
        rate_direct, err = measure_of_Aq(leb, q, psi, 20_000, seed=100 + q)
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
