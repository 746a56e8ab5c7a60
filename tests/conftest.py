import numpy as np

from horolab.automorphic import bessel_K_imag

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance PASS/FAIL lines after the run, capture or not."""
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def sample_fundamental_domain(n: int, rng: np.random.Generator):
    """n exact draws from (3/pi) y^-2 dx dy on the fundamental domain.

    The x-marginal is (3/pi)(1 - x^2)^(-1/2), so x = sin(pi(2u - 1)/6), and
    then y = sqrt(1 - x^2)/(1 - v), for independent uniforms u, v: an oracle
    for the means m_X the test functions declare.
    """
    u = rng.random(n)
    v = rng.random(n)
    x = np.sin(np.pi * (2.0 * u - 1.0) / 6.0)
    return x, np.sqrt(1.0 - x * x) / (1.0 - v)


def divisor_tau(m: int, z) -> complex | int:
    """tau_z(m) = sum over divisors d of m of d^z (exact finite sum).

    The scalar oracle of the sieve automorphic.sigma_range: one trial
    division per d <= sqrt(m), no slicing and no shared table.
    """
    if m < 1:
        raise ValueError("m must be a positive integer")
    divisors = []
    d = 1
    while d * d <= m:
        if m % d == 0:
            divisors.append(d)
            if d != m // d:
                divisors.append(m // d)
        d += 1
    if isinstance(z, int) and z >= 0:
        return sum(d**z for d in divisors)
    return sum(d ** complex(z) for d in divisors)


def hecke_eis(m: int, p) -> complex:
    """lambda(m) = m^(-it) tau_(2it)(m) / zeta(1+2it) on the Eisenstein line,
    by divisor_tau: the scalar oracle of automorphic.hecke_range."""
    if m < 1:
        raise ValueError("m must be a positive integer")
    return m ** (-1j * p.t) * complex(divisor_tau(m, 2j * p.t)) / p.zeta_1p2it


def whittaker_coefficient(p, m: int, y):
    """a_m(y) = whittaker_norm * lambda(m) * sqrt(y) * K_it(2 pi m y), m >= 1.

    An oracle for the series code that shares none of its rules: lambda is
    the scalar divisor sum (hecke_eis) and K is bessel_K_imag's quadrature
    on every node, with no spline and no cut at 46.
    """
    y = np.asarray(y, dtype=float)
    return p.whittaker_norm * hecke_eis(m, p) * np.sqrt(y) * bessel_K_imag(p.t, 2 * np.pi * m * y)
