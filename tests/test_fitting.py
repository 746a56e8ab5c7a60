import re
import sys
import threading
import time

import numpy as np
import pytest

from horolab import fitting
from horolab.fitting import (
    LiteralParseError,
    csv_table,
    fit_decay_report,
    geometric_grid,
    least_squares_loglog,
    map_in_order,
    parse_literal,
    robust_loglog,
)


def test_plain_fit_recovers_exact_power_law():
    ys = geometric_grid(0.25, 0.5, 12)
    errs = 3.0 * ys**0.7
    fit = least_squares_loglog(ys, errs)
    assert fit.slope == pytest.approx(0.7, abs=1e-12)
    assert fit.r2 == pytest.approx(1.0)
    assert fit.stderr == pytest.approx(0.0, abs=1e-12)


def test_robust_fit_equals_plain_on_clean_data():
    ys = geometric_grid(0.5, 0.5, 10)
    errs = ys**0.5
    plain = least_squares_loglog(ys, errs)
    robust = robust_loglog(ys, errs)
    assert robust.slope == plain.slope
    assert robust.kept.all()


def test_robust_fit_rejects_oscillation_nulls():
    # power law times |cos| with one near-zero: the null corrupts the plain
    # fit but is dropped by the robust one
    ys = geometric_grid(0.25, 0.5, 12)
    osc = np.abs(np.cos(np.log(ys) * 1.7 + 0.3))
    osc[4] = 1e-6
    errs = ys**0.5 * np.maximum(osc, 1e-6)
    plain = least_squares_loglog(ys, errs)
    robust = robust_loglog(ys, errs)
    assert abs(robust.slope - 0.5) < abs(plain.slope - 0.5)
    assert not robust.kept[4]


def test_degenerate_on_single_abscissa():
    with pytest.raises(ValueError, match="need at least two distinct abscissae"):
        least_squares_loglog([1.0, 1.0], [2.0, 3.0])


def test_report_status_for_flat_series():
    # identically zero: degenerate; flat but nonzero: no decay, inconclusive
    rep = fit_decay_report(geometric_grid(0.5, 0.5, 8), np.zeros(8))
    assert rep.status == "degenerate"
    rep = fit_decay_report(geometric_grid(0.5, 0.5, 8), np.full(8, 0.25))
    assert rep.status == "inconclusive"
    assert rep.exponent == 0.0


def test_report_status_inconclusive_when_noise_dominates():
    ys = geometric_grid(0.5, 0.5, 8)
    errs = np.full(8, 1e-4)
    errs[0] = 2e-4
    bars = np.full(8, 1e-3)  # everything below 3 error bars
    rep = fit_decay_report(ys, errs, bars)
    assert rep.status == "inconclusive"


def test_report_rows_sorted_and_csv_round_trip():
    ys = np.array([0.1, 0.4, 0.2])
    errs = np.array([0.1**0.5, 0.4**0.5, 0.2**0.5])
    rep = fit_decay_report(ys, errs)
    assert (np.diff(rep.params) < 0).all()
    csv = rep.to_csv()
    lines = csv.strip().split("\r\n")
    assert lines[0] == "y,error,error_bar,kept"
    assert len(lines) == 4
    # external least-squares on kept rows reproduces the exponent
    rows = [line.split(",") for line in lines[1:]]
    kept = [r for r in rows if r[3] == "1"]
    fit = least_squares_loglog([float(r[0]) for r in kept], [float(r[1]) for r in kept])
    assert fit.slope == pytest.approx(rep.exponent, abs=1e-9)


def test_csv_table_format():
    text = csv_table(
        "q,flag,u,x",
        np.array([2, -3]), np.array([True, False]), np.array([7, 8], dtype=np.uint8),
        [0.1, 1e-20],
    )
    assert text == "q,flag,u,x\r\n2,1,7,0.1\r\n-3,0,8,1e-20\r\n"
    # floats print with repr, so every bit survives a round trip
    x = np.array([1 / 3, 2.0**-1074, np.nan, -np.inf, 1e300])
    rows = csv_table("x", x).split("\r\n")
    assert rows[0] == "x" and rows[-1] == ""
    assert rows[1:-1] == [repr(float(v)) for v in x]
    assert csv_table("a,b") == "a,b\r\n"
    with pytest.raises(ValueError, match="length"):
        csv_table("a,b", [1.0, 2.0], [1.0])


def test_geometric_grid_values():
    g = geometric_grid(0.25, 0.5, 3)
    assert np.allclose(g, [0.25, 0.125, 0.0625])
    assert geometric_grid(0.25, 0.5, 3.0).tobytes() == g.tobytes()  # a whole real count
    with pytest.raises(ValueError):
        geometric_grid(1.0, -0.5, 3)
    with pytest.raises(ValueError, match="y_count must be positive and whole, got 2.5"):
        geometric_grid(0.25, 0.5, 2.5)


def test_a_positional_form_splits_on_colons_into_reals():
    forms = {"<a>:<b>:<n>": lambda a, b, n: (a, b, n)}
    assert parse_literal(" 1:-2e3:4 ", "<p>", forms) == (1.0, -2000.0, 4.0)
    for text, detail in (
        ("1:2", "expected <a>:<b>:<n>, got '1:2'"),
        ("1:2:3:4", "expected <a>:<b>:<n>, got '1:2:3:4'"),
        ("1:x:3", "bad number 'x'"),
        ("1:inf:3", "bad number 'inf'"),
    ):
        with pytest.raises(LiteralParseError, match=re.escape(f"literal, production <p>: {detail}")):
            parse_literal(text, "<p>", forms)

    def build(a, b, n):
        raise ValueError("b must exceed a")

    with pytest.raises(LiteralParseError, match=re.escape("literal, production <p>: b must exceed a")):
        parse_literal("1:2:3", "<p>", {"<a>:<b>:<n>": build})


def test_geometric_grid_refuses_a_count_over_max_grid_points(monkeypatch):
    monkeypatch.setattr(np, "arange", lambda *a: pytest.fail("np.arange was reached"))
    with pytest.raises(ValueError, match=f"y_count must be at most MAX_GRID_POINTS = {fitting.MAX_GRID_POINTS}"):
        geometric_grid(0.25, 0.5, 10**12)


# ---------------------------------------------------------------------------
# The ordered thread map


@pytest.fixture
def two_cpus(monkeypatch):
    monkeypatch.setattr(fitting, "_usable_cpus", lambda: 2)  # threads even on one CPU


def test_map_in_order_keeps_item_order(two_cpus):
    before = threading.active_count()
    runners = set()

    def job(x):
        runners.add(threading.get_ident())
        time.sleep(0.05 if x == 0 else 0.0)  # item 0 ends after the others
        return x * x

    assert map_in_order(job, range(12)) == [x * x for x in range(12)]
    assert len(runners) == fitting.THREADS
    assert threading.active_count() == before
    assert map_in_order(job, []) == []


@pytest.mark.parametrize("threads", [1, 2])
def test_map_in_order_raises_the_first_failing_item(monkeypatch, two_cpus, threads):
    monkeypatch.setattr(fitting, "THREADS", threads)
    before = threading.active_count()
    started = []

    def job(x):
        started.append(x)
        if x == 2:  # fails late, after item 3 has failed in the other thread
            time.sleep(0.3)
            raise ValueError("item 2")
        if x == 3:
            raise ValueError("item 3")
        return x

    with pytest.raises(ValueError, match="item 2"):
        map_in_order(job, range(8))
    assert sorted(started) == list(range(threads + 2))  # no item after the failures starts
    assert threading.active_count() == before


def test_nested_map_in_order_runs_inline(two_cpus):
    before = threading.active_count()
    inner = {}  # inner item -> (its thread, threads alive)

    def inner_job(y):
        inner[y] = (threading.get_ident(), threading.active_count())
        return y + 1

    def outer_job(x):
        time.sleep(0.05)  # both outer items overlap
        return threading.get_ident(), map_in_order(inner_job, range(x, x + 4))

    results = map_in_order(outer_job, [0, 10])
    assert [values for _, values in results] == [[1, 2, 3, 4], [11, 12, 13, 14]]
    assert len({ident for ident, _ in results}) == 2
    # each inner item ran on the thread of its outer job, and no third thread started
    for (ident, _), x in zip(results, [0, 10]):
        assert [inner[y][0] for y in range(x, x + 4)] == [ident] * 4
    assert max(count for _, count in inner.values()) == before + 1
    assert threading.active_count() == before
    # the calling thread is no longer marked: its next map uses threads again
    runners = set()
    map_in_order(lambda x: runners.add(threading.get_ident()) or time.sleep(0.05), range(4))
    assert len(runners) == 2


@pytest.mark.parametrize("cpus, threads", [(1, 2), (2, 1)])
def test_map_in_order_on_one_thread_starts_none(monkeypatch, cpus, threads):
    monkeypatch.setattr(fitting, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(fitting, "THREADS", threads)
    before = threading.active_count()
    runners, counts = set(), []

    def job(x):
        runners.add(threading.get_ident())
        counts.append(threading.active_count())
        return -x

    assert map_in_order(job, range(6)) == [-x for x in range(6)]
    assert runners == {threading.get_ident()}
    assert counts == [before] * 6


def test_map_in_order_under_thread_switch_stress(monkeypatch):
    # more threads than this machine's two CPUs, switching every microsecond:
    # a lost claim would run an item twice or leave a result unset
    monkeypatch.setattr(fitting, "_usable_cpus", lambda: 8)
    monkeypatch.setattr(fitting, "THREADS", 8)
    runs = [0] * 3000
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        def job(x):
            runs[x] += 1
            return sum(range(x % 50))

        got = map_in_order(job, range(len(runs)))
    finally:
        sys.setswitchinterval(interval)
    assert got == [sum(range(x % 50)) for x in range(len(runs))]
    assert runs == [1] * len(runs)
