import numpy as np

from horolab.automorphic import bessel_K_imag, hecke_eis

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance PASS/FAIL lines after the run, capture or not."""
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def whittaker_coefficient(p, m: int, y):
    """a_m(y) = whittaker_norm * lambda(m) * sqrt(y) * K_it(2 pi m y), m >= 1.

    An oracle for the series code that shares none of its rules: lambda is
    the scalar divisor sum (hecke_eis) and K is bessel_K_imag's quadrature
    on every node, with no spline and no cut at 46.
    """
    y = np.asarray(y, dtype=float)
    return p.whittaker_norm * hecke_eis(m, p) * np.sqrt(y) * bessel_K_imag(p.t, 2 * np.pi * m * y)
