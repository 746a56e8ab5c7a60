"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines
as they complete.  Criteria 2, 7, and 9 cache their first run so criterion
10 can re-execute them with identical seeds and compare emitted CSV bytes.

Criteria 5a and 6a check the bounds that hold at their finite parameters.
The spectral-gap window [0.40, 0.60] (5a) applies to the fitted exponent
with the measured divisor growth max_m |tau_2it(m)| divided out.  The
coefficient tail at y = 0.05, sigma = 1.2 (6a) must match an mpmath oracle
and lie between its first omitted term and a proven envelope.
"""

import io
import math

import mpmath as mp
import numpy as np
import pytest

import horolab as hl
from horolab.automorphic import (
    EisensteinParams,
    spectral_gap_fit,
    truncation_tail_mass,
)
from horolab.diophantine import PowerPsi, khintchine_profile
from horolab.experiments import ExperimentConfig, run_basis_identity_check, run_equidistribution
from horolab.measures import Convolution, DiracMass, FractalMeasure, fourier_transform, sample, symbol_g
from horolab.oscillatory import (
    PhasePolynomial,
    RaisedCosineWindow,
    exponent_fit_oscillatory,
    oscillatory_integral,
)
from horolab.testfunctions import EisensteinTest

from conftest import ACCEPTANCE_LINES, divisor_tau, whittaker_coefficient

_cache: dict = {}


def record(tag: str, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    ACCEPTANCE_LINES.append(line)


# ---------------------------------------------------------------------------
# 1. CVY threshold reproduction


def test_criterion_1_cvy_threshold():
    bound = hl.measures.cvy_lower_bound(450, 447)
    dim_h = math.log(447) / math.log(450)
    ok = bound > 0.609375 and dim_h < 0.9992
    record("1", ok, f"cvy(450,447)={bound:.6f} > 0.609375; dim_H={dim_h:.6f} < 0.9992")
    assert bound > 0.609375
    assert dim_h < 0.9992


# ---------------------------------------------------------------------------
# 2. Fourier oracle equivalence (20 random measures, 1e6-sample Monte Carlo)


def _random_measure(rng) -> FractalMeasure:
    b = int(rng.integers(2, 200))
    n = int(rng.integers(2, min(b, 24) + 1)) if b > 2 else 2
    digits = tuple(sorted(rng.choice(b, size=n, replace=False).tolist()))
    return FractalMeasure(b, digits)


def _criterion_2_run():
    if "c2" in _cache:
        return _cache["c2"]
    rng = np.random.default_rng(31415)
    rows, worst = [], 0.0
    for idx in range(20):
        m = _random_measure(rng)
        xi = float(rng.uniform(0.0, 100.0))
        depth = hl.measures.default_sample_depth(m)
        xs = sample(m, depth, 10**6, seed=rng.integers(2**63))
        vals = np.exp(2j * np.pi * xi * xs)
        mc = complex(vals.mean())
        se = math.sqrt((vals.real.var() + vals.imag.var()) / vals.size)
        exact = fourier_transform(m, xi)
        rows.append((idx, m.base, m.n_digits, xi, exact, mc, se))
        worst = max(worst, abs(exact - mc) / (3 * se))
    buf = io.StringIO()
    buf.write("idx,base,n_digits,xi,prod_re,prod_im,mc_re,mc_im,se\r\n")
    for idx, b, n, xi, exact, mc, se in rows:
        buf.write(
            f"{idx},{b},{n},{xi!r},{exact.real!r},{exact.imag!r},"
            f"{mc.real!r},{mc.imag!r},{se!r}\r\n"
        )
    _cache["c2"] = (rows, worst, buf.getvalue())
    return _cache["c2"]


def test_criterion_2_fourier_oracle_equivalence():
    rows, worst, _ = _criterion_2_run()
    ok = worst <= 1.0
    record("2", ok, f"20 measures: max |prod - mc| = {worst:.3f} x (3 SE)")
    for idx, b, n, xi, exact, mc, se in rows:
        assert abs(exact - mc) <= 3 * se, (b, n, xi)


# ---------------------------------------------------------------------------
# 3. Refinement and shift identities across a 1e3-point sweep


def test_criterion_3_refinement_and_shift_identities():
    xi = np.linspace(0.0, 50.0, 1000)
    worst = 0.0
    for base, digits in ((3, (0, 2)), (10, tuple(range(9))), (450, tuple(range(447)))):
        m0 = FractalMeasure(base, digits)
        ms = Convolution(m0, DiracMass(0.37))  # the translate by 0.37
        lhs = fourier_transform(m0, xi)
        rhs = symbol_g(m0, xi / base) * fourier_transform(m0, xi / base)
        worst = max(worst, float(np.abs(lhs - rhs).max()))
        worst = max(
            worst,
            float(np.abs(np.abs(fourier_transform(ms, xi)) - np.abs(lhs)).max()),
        )
    ok = worst < 1e-10
    record("3", ok, f"max identity violation {worst:.2e} < 1e-10 over 1000-point sweep")
    assert worst < 1e-10


# ---------------------------------------------------------------------------
# 4. Constant-term identity and the classical decay rate


def test_criterion_4_constant_term_identity():
    cfg = ExperimentConfig(
        measure="leb", test="eisenstein:t=1",
        y_max=0.25, y_ratio=0.5, y_count=11,
        method="cylinder", budget=10**6, seed=4, tol=1e-8,
    )
    basis = run_basis_identity_check(cfg)
    p = EisensteinParams(1.0)
    direct = max(
        abs(mu - hl.automorphic.constant_term(float(y), p))
        for y, mu in zip(basis.ys, basis.measured)
    )
    decay = run_equidistribution(cfg)
    ok = direct < 1e-6 and abs(decay.exponent - 0.5) <= 0.03
    record(
        "4", ok,
        f"max |mu_y - constant term| = {direct:.2e} < 1e-6; "
        f"fitted eta = {decay.exponent:.4f} in 0.50 +- 0.03",
    )
    assert direct < 1e-6
    assert abs(decay.exponent - 0.5) <= 0.03


# ---------------------------------------------------------------------------
# 5. Spectral-gap diagnostic


def test_criterion_5a_spectral_gap_window():
    ys = 2.0 ** -np.arange(3, 13)
    phi = EisensteinTest(1.0, component="complex")
    report = spectral_gap_fit(phi, ys)
    p = phi.params
    xs = np.ceil(1.0 / report.params).astype(int)
    # the same suprema from the analytic coefficients, without the FFT
    analytic = np.array([
        max(abs(whittaker_coefficient(p, m, y)) for m in range(1, x + 1))
        for y, x in zip(report.params, xs)
    ])
    sup_err = float(np.max(np.abs(report.errors - analytic)))
    # The tempered coefficients decay like y^(1/2 - eps): eps is the growth
    # of max_{m <= 1/y} |tau_2it(m)|, exact finite sums, which is far from
    # its limit 0 on m <= 4096.  The window applies with it divided out.
    tau = np.abs([divisor_tau(m, 2j * p.t) for m in range(1, xs.max() + 1)])
    tau_max = np.maximum.accumulate(tau)[xs - 1]
    kept = report.kept
    log_y = np.log(report.params[kept])
    eps = -np.polyfit(log_y, np.log(tau_max[kept]), 1)[0]
    eta = np.polyfit(log_y, np.log(report.errors[kept] / tau_max[kept]), 1)[0]
    ok = sup_err < 1e-7 and 0.40 <= eta <= 0.60
    record(
        "5a", ok,
        f"sup-coefficient decay exponent {report.exponent:.4f} + divisor growth "
        f"eps = {eps:.4f} -> {eta:.4f} in [0.40, 0.60]; "
        f"FFT vs analytic sup {sup_err:.2e} < 1e-7",
    )
    assert sup_err < 1e-7, f"FFT suprema differ from the analytic ones by {sup_err:.2e}"
    assert 0.40 <= eta <= 0.60, (
        f"divisor-normalised exponent {eta:.4f} (raw {report.exponent:.4f}, "
        f"eps = {eps:.4f}) over y in 2^-3..2^-12 is outside [0.40, 0.60]"
    )


def test_criterion_5b_coefficients_match_series():
    phi = EisensteinTest(1.0, component="complex")
    p = phi.params
    worst = 0.0
    for y in (0.2, 0.05):
        for m in range(1, 21):
            got = hl.automorphic.horocycle_fourier_coeff(phi, m, y, 4096)
            worst = max(worst, abs(got - whittaker_coefficient(p, m, y)))
    ok = worst < 1e-7
    record("5b", ok, f"numeric vs analytic coefficients: max diff {worst:.2e} < 1e-7")
    assert worst < 1e-7


# ---------------------------------------------------------------------------
# 6. Truncation tail mass


def test_criterion_6a_tail_mass_shallow():
    t, y, sigma = 1.0, 0.05, 1.2
    tail = truncation_tail_mass(EisensteinParams(t), y, sigma)
    m_start = math.floor(y ** -sigma) + 1
    # Oracle: 2 sum_{m > y^-sigma} (2/|xi(1+2it)|) sqrt(y) |tau_2it(m)| |K_it(2 pi m y)|
    # in mpmath, with exact divisor sums and xi from zeta and gamma.  Terms
    # past 2 pi m y = 60 add below 1e-25 (by the envelope below).
    with mp.workdps(20):
        u = 1 + 2j * t
        xi = abs(mp.pi ** (-u / 2) * mp.gamma(u / 2) * mp.zeta(u))
        terms = [
            4 / xi * mp.sqrt(y)
            * abs(mp.fsum(mp.power(d, 2j * t) for d in range(1, m + 1) if m % d == 0))
            * abs(mp.besselk(1j * t, 2 * mp.pi * m * y))
            for m in range(m_start, math.floor(60 / (2 * math.pi * y)) + 1)
        ]
        oracle, first = float(mp.fsum(terms)), float(terms[0])
    # Envelope from |tau_2it(m)| <= d(m), |K_it(x)| <= K_0(x) and
    # K_0(x) <= sqrt(pi/(2x)) e^-x, summed until e^-x underflows.
    m = np.arange(m_start, math.ceil(750 / (2 * math.pi * y)) + 1)
    d = np.array([divisor_tau(int(k), 0) for k in m])
    envelope = float(
        4 / xi * math.sqrt(y) * np.sum(d * (4 * m * y) ** -0.5 * np.exp(-2 * math.pi * m * y))
    )
    rel = abs(tail - oracle) / oracle
    ok = rel < 1e-9 and first <= tail <= envelope
    record(
        "6a", ok,
        f"tail(y=0.05, sigma=1.2) = {tail:.3e} vs mpmath {oracle:.3e} "
        f"(rel {rel:.1e} < 1e-9); first omitted term {first:.3e} <= tail "
        f"<= envelope {envelope:.3e}",
    )
    assert rel < 1e-9, f"tail {tail!r} vs mpmath oracle {oracle!r}"
    assert first <= tail, f"tail {tail:.3e} below its first omitted term {first:.3e}"
    assert tail <= envelope, f"tail {tail:.3e} above the envelope {envelope:.3e}"


def test_criterion_6b_tail_mass_deep():
    p = EisensteinParams(1.0)
    tail = truncation_tail_mass(p, 0.01, 1.5)
    ok = tail < 1e-12
    record("6b", ok, f"tail(y=0.01, sigma=1.5) = {tail:.3e} < 1e-12")
    assert tail < 1e-12


# ---------------------------------------------------------------------------
# 7. Fractal equidistribution (headline experiment)


def _criterion_7_run():
    if "c7" in _cache:
        return _cache["c7"]
    cfg = ExperimentConfig(
        measure="cantor:450:0..446", test="eisenstein:t=1",
        y_max=0.25, y_ratio=0.5, y_count=15,
        method="montecarlo", budget=10**6, seed=2024,
    )
    report = run_equidistribution(cfg)
    _cache["c7"] = (report, report.to_csv())
    return _cache["c7"]


def test_criterion_7_fractal_equidistribution():
    report, _ = _criterion_7_run()
    decreasing = float(np.max(report.errors[-3:])) < float(np.min(report.errors[:3]))
    ok = (
        report.status == "ok"
        and report.exponent > 0.05
        and report.r2 > 0.9
        and decreasing
    )
    record(
        "7", ok,
        f"eta = {report.exponent:.3f} > 0.05, R2 = {report.r2:.3f} > 0.9, "
        f"errors fall {report.errors[0]:.3f} -> {report.errors[-1]:.4f}",
    )
    assert report.status == "ok", "inconclusive fit must never fabricate an exponent"
    assert report.exponent > 0.05
    assert report.r2 > 0.9
    assert decreasing


# ---------------------------------------------------------------------------
# 8. Stationary phase


def test_criterion_8_stationary_phase():
    w = RaisedCosineWindow(0.0, 1.0)
    x2 = PhasePolynomial((0.0, 0.0, 1.0))
    x3 = PhasePolynomial((0.0, 0.0, 0.0, 1.0))
    fresnel = abs(oscillatory_integral(x2, w, 1e4, tol=1e-9)) * math.sqrt(2e4)
    grid = np.geomspace(10, 10**4, 19)
    beta2 = exponent_fit_oscillatory(x2, w, grid, tol=1e-10).exponent
    beta3 = exponent_fit_oscillatory(x3, w, grid, tol=1e-10).exponent
    ok = abs(fresnel - 1.0) < 0.02 and abs(beta2 - 0.5) <= 0.05 and abs(beta3 - 1 / 3) <= 0.05
    record(
        "8", ok,
        f"|I| sqrt(2 xi) = {fresnel:.4f} (w(0)=1 within 2%); "
        f"beta(x^2) = {beta2:.3f}, beta(x^3) = {beta3:.3f}",
    )
    assert abs(fresnel - 1.0) < 0.02
    assert abs(beta2 - 0.5) <= 0.05
    assert abs(beta3 - 1.0 / 3.0) <= 0.05


# ---------------------------------------------------------------------------
# 9. Khintchine profile


def _criterion_9_run():
    if "c9" in _cache:
        return _cache["c9"]
    leb = khintchine_profile(
        hl.measures.parse_measure("leb"), PowerPsi(1.0), 10**4, 1000, seed=101
    )
    cantor = khintchine_profile(
        hl.measures.parse_measure("cantor:450:0..446"), PowerPsi(1.0), 1000, 100_000,
        seed=202, rate_q_max=1000,
    )
    _cache["c9"] = (leb, cantor, leb.to_csv() + cantor.to_csv())
    return _cache["c9"]


def test_criterion_9_khintchine_profile():
    leb, cantor, _ = _criterion_9_run()
    leb_ratio = leb.mean_count / leb.comparison_sum
    dev = float(np.abs(cantor.hit_rates / cantor.two_psi - 1.0).mean())
    ok = abs(leb_ratio - 1.0) <= 0.10 and dev <= 0.15
    record(
        "9", ok,
        f"Lebesgue count ratio {leb_ratio:.4f} within 10%; "
        f"cantor mean |rate/2psi - 1| = {dev:.4f} within 15%",
    )
    assert abs(leb_ratio - 1.0) <= 0.10
    assert dev <= 0.15


# ---------------------------------------------------------------------------
# 10. Determinism: byte-identical CSV on reruns of criteria 2, 7, 9


def test_criterion_10_determinism():
    _, _, csv2 = _criterion_2_run()
    _, csv7 = _criterion_7_run()
    _, _, csv9 = _criterion_9_run()
    _cache.clear()
    _, _, csv2b = _criterion_2_run()
    _, csv7b = _criterion_7_run()
    _, _, csv9b = _criterion_9_run()
    ok = csv2 == csv2b and csv7 == csv7b and csv9 == csv9b
    record("10", ok, "criteria 2, 7, 9 reruns byte-identical: "
           f"{csv2 == csv2b}, {csv7 == csv7b}, {csv9 == csv9b}")
    assert csv2 == csv2b
    assert csv7 == csv7b
    assert csv9 == csv9b
