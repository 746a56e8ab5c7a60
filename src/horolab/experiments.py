"""End-to-end experiment drivers: equidistribution sweeps and identity checks.

run_equidistribution pushes a fractal measure along horocycles of shrinking
height, measures the deviation of the test-function average from its
hyperbolic-measure mean, and fits the decay exponent.  When the fit signal
drowns in Monte-Carlo noise on most of the grid the report is flagged
inconclusive rather than quoting a meaningless exponent.

run_basis_identity_check verifies that the measured horocycle average of an
Eisenstein observable matches its Fourier-expansion prediction

    constant_term(y) + sum_{0 < |m| <= M(y)} a_m(y) e(m x0) mu_hat(m/q),

where M(y) is the last m with 2 pi m y < 46: from there on the series K
rule (automorphic.bessel_K_series) makes every term exactly 0, dropping
less than 4e-21 each.  automorphic.eisenstein_series_prediction sums it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import measures as _measures
from .automorphic import eisenstein_series_prediction
from .fitting import DecayReport, csv_table, fit_decay_report, geometric_grid, map_in_order
from .modular import mu_y_value
from .testfunctions import EisensteinTest, parse_test_function

@dataclass
class ExperimentConfig:
    """Configuration shared by the experiment drivers."""

    measure: str = "leb"
    test: str = "eisenstein:t=1"
    y_max: float = 0.25
    y_ratio: float = 0.5
    y_count: int = 15
    x0: float = 0.0
    q: int = 1
    method: str = "montecarlo"
    budget: int = 10**6
    seed: int = 0
    tol: float = 1e-6

    def __post_init__(self):
        geometric_grid(self.y_max, self.y_ratio, self.y_count)  # checks the y-grid rule
        if self.q < 1:  # before run_basis_identity_check divides the y-grid by q
            raise ValueError("require q >= 1")
        if not all(map(math.isfinite, (self.x0, self.tol))) or self.tol <= 0:
            raise ValueError(f"x0, tol must be finite and tol > 0, got {self.x0}, {self.tol}")

    @property
    def y_grid(self) -> np.ndarray:
        return geometric_grid(self.y_max, self.y_ratio, self.y_count)


def _sub_seed(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))


def _mu_y_series(measure, phi, cfg: ExperimentConfig):
    """mu_y(phi) and its error estimate at each height of cfg.y_grid.

    Height k draws from its own sub-seed, so every row is reproducible on
    its own, and the rows do not depend on which thread computed them:
    map_in_order runs two heights at a time, so peak memory is two heights'
    working sets.  The smallest y starts first: it has the most cylinder
    nodes, and would otherwise run last and alone.  Every height runs, and
    the ValueError raised is that of the first failing height in grid
    order.  A value or error that is not finite (an observable near the
    float range overflows its sum) is refused with its height.
    """
    ys = cfg.y_grid

    def height(k: int):
        try:
            value, err = mu_y_value(
                measure, phi, float(ys[k]), cfg.x0, cfg.q, method=cfg.method, budget=cfg.budget,
                seed=_sub_seed(cfg.seed, k), tol=cfg.tol,
            )
            if not (np.isfinite(value) and np.isfinite(err)):
                raise ValueError(f"mu_y at y = {float(ys[k])!r} is not finite: value {value}, error {err}")
        except ValueError as exc:  # raised below, in grid order
            return exc
        return value, err

    order = sorted(range(ys.size), key=lambda k: ys[k])  # smallest y first
    rows = [row for _, row in sorted(zip(order, map_in_order(height, order)))]  # grid order
    for row in rows:
        if isinstance(row, ValueError):
            raise row
    values, errs = zip(*rows)
    return np.array(values), np.array(errs)


def run_equidistribution(cfg: ExperimentConfig) -> DecayReport:
    """Decay of |mu_y(phi) - m_X(phi)| over the configured y-grid.

    m_X(phi) is the test function's own mean (0 for the Eisenstein
    observable), exact up to rounding, so the error bars are mu_y's alone.
    """
    measure = _measures.parse_measure(cfg.measure)
    phi = parse_test_function(cfg.test)
    values, errs = _mu_y_series(measure, phi, cfg)
    return fit_decay_report(cfg.y_grid, np.abs(values - phi.mean), errs)


@dataclass
class BasisCheckReport:
    """Per-height discrepancy between measured and series-predicted mu_y."""

    ys: np.ndarray
    measured: np.ndarray          # complex mu_y values
    predicted: np.ndarray         # complex series values
    discrepancies: np.ndarray
    max_discrepancy: float
    envelope_constant: float      # max discrepancy / sqrt(y)

    def to_csv(self) -> str:
        return csv_table(
            "y,mu_re,mu_im,series_re,series_im,discrepancy",
            self.ys, self.measured.real, self.measured.imag,
            self.predicted.real, self.predicted.imag, self.discrepancies,
        )


def run_basis_identity_check(cfg: ExperimentConfig) -> BasisCheckReport:
    """Compare mu_y of the Eisenstein observable against its expansion."""
    measure = _measures.parse_measure(cfg.measure)
    phi = parse_test_function(cfg.test)
    if not isinstance(phi, EisensteinTest):
        raise ValueError("basis identity check requires an eisenstein test function")
    complex_phi = EisensteinTest(t=phi.t, component="complex")
    params = complex_phi.params

    ys = cfg.y_grid
    # first: it refuses a grid whose series is too long before any sampling
    predicted = eisenstein_series_prediction(measure, params, ys / cfg.q, cfg.x0, cfg.q)
    measured, _ = _mu_y_series(measure, complex_phi, cfg)
    disc = np.abs(measured - predicted)
    return BasisCheckReport(
        ys=ys,
        measured=measured,
        predicted=predicted,
        discrepancies=disc,
        max_discrepancy=float(disc.max()),
        envelope_constant=float((disc / np.sqrt(ys)).max()),
    )
