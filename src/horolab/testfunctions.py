"""Observables on the modular surface for equidistribution experiments.

All test functions are K-invariant: they depend only on the reduced point
(x, y) and are called with coordinate arrays.  Each carries
  - mean: its integral m_X against the hyperbolic probability measure
    (3/pi) y^-2 dx dy on the fundamental domain, in closed form or, for the
    bump, by a fixed Gauss-Legendre rule,
  - lipschitz: a hyperbolic-gradient bound sup y * |grad phi| used to pick
    cylinder depths (None disables the cylinder method).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .automorphic import EisensteinParams, eisenstein_values
from .fitting import parse_literal
from .oscillatory import GL_NODES, GL_WEIGHTS

MEAN_PANELS = 64  # equal panels per piece of BumpTest.mean; doubling them moves no tested mean by 1e-15


class EisensteinTest:
    """Re E(z, 1/2 + it) (or the complex value with component='complex').

    Mean zero against the hyperbolic measure: the canonical mean-zero
    observable.  The Lipschitz constant is calibrated empirically by
    finite differences over a fundamental-domain grid; the series grows
    like sqrt(y) in the cusp, so the calibration window is capped and the
    constant is an estimate, not a certificate.
    """

    def __init__(self, t: float = 1.0, component: str = "re"):
        if component not in ("re", "complex"):
            raise ValueError("component must be re or complex")
        self.t = t
        self.component = component
        self.params = EisensteinParams(t)
        self.mean = 0.0 if component != "complex" else 0.0 + 0.0j

    @cached_property
    def lipschitz(self) -> float:
        """Calibrated on y <= 8 (see the class docstring); computed once."""
        xs = np.linspace(-0.5, 0.5, 41)
        ys = np.geomspace(math.sqrt(3) / 2, 8.0, 41)
        X, Y = np.meshgrid(xs, ys)
        h = 1e-5
        p = self.params
        fx = (eisenstein_values(X + h, Y, p) - eisenstein_values(X - h, Y, p)) / (2 * h)
        fy = (eisenstein_values(X, Y + h, p) - eisenstein_values(X, Y - h, p)) / (2 * h)
        grad = Y * np.hypot(np.abs(fx), np.abs(fy))
        return 2.0 * float(grad.max())

    def __call__(self, x, y):
        if self.component == "re":
            return eisenstein_values(x, y, self.params, real=True)
        return eisenstein_values(x, y, self.params)


@dataclass
class BumpTest:
    """Smooth bump in the height coordinate, supported on [y0, y1]."""

    y0: float
    y1: float

    def __post_init__(self):
        if not 0 < self.y0 < self.y1:
            raise ValueError("require 0 < y0 < y1")

    @cached_property
    def mean(self) -> float:
        """m_X = (3/pi) int w(y) width(y) y^-2 dy, computed once.  The width is
        1 - 2 cos(th) at y = sin(th) in [sqrt(3)/2, 1) and 1 above; each piece,
        clipped to [y0, y1], where w is flat at both ends, takes the GL_NODES
        rule on MEAN_PANELS equal panels."""
        lo = min(max(self.y0, math.sqrt(3) / 2), 1.0)
        total = 0.0
        for f, a, b in (
            (lambda th: self(None, np.sin(th)) * (1.0 - 2.0 * np.cos(th)) * np.cos(th) / np.sin(th) ** 2,
             math.asin(lo), math.asin(min(self.y1, 1.0))),
            (lambda y: self(None, y) / y**2, max(self.y0, 1.0), self.y1),
        ):
            if a < b:
                edges = np.linspace(a, b, MEAN_PANELS + 1)
                half = 0.5 * np.diff(edges)[:, None]
                with np.errstate(over="ignore"):  # 2y and y^2 past 8.9e307, where w / y^2 is 0 anyway
                    vals = f(edges[:-1, None] + half * (1.0 + GL_NODES))
                total += float(np.sum(vals * (half * GL_WEIGHTS)))
        return 3.0 / math.pi * total

    @cached_property
    def lipschitz(self) -> float:
        # sup of y |w'(y)| = y / (y1 - y0) * w 4|u| / (1 - u^2)^2 at 4001
        # points of u in (-1, 1), times a margin of 1.1
        u = np.linspace(-1.0, 1.0, 4003)[1:-1]
        y = (0.5 * self.y0 + 0.5 * self.y1) + 0.5 * (self.y1 - self.y0) * u
        slope = np.exp(1.0 - 1.0 / (1.0 - u**2)) * 4.0 * np.abs(u) / (1.0 - u**2) ** 2
        return 1.1 * float((y / (self.y1 - self.y0) * slope).max())

    def __call__(self, x, y):
        y = np.asarray(y, dtype=float)
        u = (2.0 * y - self.y0 - self.y1) / (self.y1 - self.y0)
        out = np.zeros_like(u)
        inside = np.abs(u) < 1.0
        out[inside] = np.exp(1.0 - 1.0 / (1.0 - u[inside] ** 2))
        return out


@dataclass
class IndicatorTest:
    """Indicator of {y > c}, with its mean m_X in closed form."""

    c: float

    def __post_init__(self):
        if self.c <= 0:
            raise ValueError("require c > 0")

    @property
    def mean(self) -> float:
        """1 below sqrt(3)/2, 3/(pi c) from 1 on, and in between
        (3/pi) [1/c - 2 (sqrt(1 - c^2)/c + arcsin c - pi/2)], where the
        region above c is cut by the unit circle."""
        c = self.c
        if c < math.sqrt(3) / 2:
            return 1.0
        if c >= 1.0:
            return 3.0 / (math.pi * c)
        return 3.0 / math.pi * (1.0 / c - 2.0 * (math.sqrt(1.0 - c * c) / c + math.asin(c) - math.pi / 2))

    lipschitz = None  # not Lipschitz: cylinder method refuses

    def __call__(self, x, y):
        return (np.asarray(y, dtype=float) > self.c).astype(float)


@dataclass
class ConstantTest:
    value: float = 1.0

    @property
    def mean(self) -> float:
        return self.value

    lipschitz = 0.0

    def __call__(self, x, y):
        return np.full(np.shape(y), self.value)


def parse_test_function(text: str):
    """Parse `eisenstein:t=<t>`, `bump:y0=<a>,y1=<b>`, `indicator:ygt=<c>`,
    `const:<c>`."""
    return parse_literal(text, "<test>", {
        "eisenstein:t=<real>": EisensteinTest,
        "bump:y0=<real>,y1=<real>": BumpTest,
        "indicator:ygt=<real>": IndicatorTest,
        "const:<c>": ConstantTest,
    }, named=True)
