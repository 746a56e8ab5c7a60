"""Power-law decay fitting, the DecayReport container and the shared base.

Decay experiments produce series (parameter, error) with error expected to
behave like C * param^eta.  Many of these series oscillate (constant-term
phases, stationary-phase interference), so a plain least-squares fit of
log(error) against log(param) is corrupted by near-zeros of the oscillating
factor.  The primary exponent reported here therefore comes from an
iterative null-rejecting fit: rows falling more than one e-fold below the
current fit line are treated as oscillation nulls and excluded, and the fit
is repeated until stable.  On non-oscillatory data no row is rejected and
the robust fit coincides with the plain one.

The shared base every layer may use lives here too: csv_table (the one CSV
writer), parse_literal (the one literal reader), map_in_order (the one
thread map) and MAX_GRID_POINTS (the one cap on an allocated grid).
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, field

import numpy as np

# Rows more than this many log-units below the fit line count as nulls.
NULL_REJECT_LOGRATIO = 1.0
# Rejection rounds of robust_loglog before the last fit is kept.
MAX_REJECT_ROUNDS = 10
# Floor for taking logs of error values.
_LOG_FLOOR = 1e-300
# Items map_in_order runs at a time, on as many threads, the calling thread
# being one: peak memory is this many items' working sets.  1 where only one
# CPU is usable.
THREADS = 2
# Largest grid or count a command allocates (xi, m, theta, X, y, q, series
# term or sample grids): 64 MiB per float array.  A larger one is refused first.
MAX_GRID_POINTS = 1 << 23

_in_job = threading.local()  # .active: this thread runs a job of a threaded map


def _usable_cpus() -> int:
    """The CPUs this process may run on (its affinity mask where there is one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def map_in_order(fn, items) -> list:
    """[fn(item) for item in items], up to THREADS items at a time.

    numpy releases the GIL in its array loops, so jobs that compute
    disjoint, order-independent pieces overlap on two CPUs and give the bits
    of the serial loop.  The calling thread is one of the threads; the
    others are started here and joined before the call returns, so no
    thread outlives it.  Items are taken in order, and after one raises none
    later is started: the exception raised is that of the first failing item
    in item order, as in a serial loop.  A call from inside a job of a
    threaded map runs serially, so nested maps never run more than THREADS
    threads.
    """
    items = list(items)
    threads = 1 if getattr(_in_job, "active", False) else min(THREADS, _usable_cpus(), len(items))
    if threads <= 1:
        return [fn(item) for item in items]
    results: list = [None] * len(items)
    errors: dict[int, BaseException] = {}
    claim = threading.Lock()
    state = {"next": 0, "stop": len(items)}  # next item to start; none from stop on

    def work():
        _in_job.active = True
        try:
            while True:
                with claim:
                    k = state["next"]
                    if k >= state["stop"]:
                        return
                    state["next"] = k + 1
                try:
                    results[k] = fn(items[k])
                except BaseException as exc:  # raised below, in item order
                    with claim:
                        errors[k] = exc
                        state["stop"] = min(state["stop"], k)
        finally:
            _in_job.active = False

    helpers = [threading.Thread(target=work) for _ in range(threads - 1)]
    for t in helpers:
        t.start()
    try:
        work()
    finally:  # also when the calling thread is interrupted: start no more items
        with claim:
            state["stop"] = 0
        for t in helpers:
            t.join()
    if errors:
        raise errors[min(errors)]
    return results


def csv_table(header: str, *columns) -> str:
    """CSV text: the header line, then one row per index of the columns.

    Integer and boolean columns print as integers, every other column as
    repr(float(v)), so a rerun reproduces the bytes; lines end in CRLF.
    """
    cells = []
    for col in columns:
        col = np.asarray(col)
        if col.dtype.kind in "biu":
            cells.append([str(int(v)) for v in col.tolist()])
        else:
            cells.append([repr(float(v)) for v in col.tolist()])
    if len({len(c) for c in cells}) > 1:
        raise ValueError("CSV columns differ in length")
    return "\r\n".join([header, *(",".join(row) for row in zip(*cells))]) + "\r\n"


class LiteralParseError(ValueError):
    """A malformed command-line literal; production names the grammar rule."""

    def __init__(self, production: str, detail: str):
        self.production = production
        super().__init__(f"literal, production {production}: {detail}")


def parse_real(text: str, production: str) -> float:
    """float(text) if finite, else a LiteralParseError naming production."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise LiteralParseError(production, f"bad number {text!r}")
    return value


def parse_literal(text: str, production: str, forms: dict, named: bool = False):
    """build(*values) for the form of forms that text takes; every refusal
    is a LiteralParseError.

    forms maps each form to its build.  A form is a bare name (`leb`), which
    text must equal, or `name:` and its body: `key=<real>` items, each key
    once in any order, passed in the form's order (`bump:y0=<real>,y1=<real>`);
    comma-separated reals, as many as the form names (`coswin:<center>,<radius>`)
    or one or more after `,...` (`poly:<c>,...`); or a grammar of its own when
    build is a pair (read, build), read(body) giving the arguments.  A form
    whose head is a field (`<start>:<stop>:<step>`) takes any text, split on
    `:` into exactly its fields.  Numbers are read by parse_real.  A name no
    form takes names production; a malformed body, or a ValueError of build,
    names the form's production: production, or `<p:name>` if named.
    """
    text = text.strip()
    name, colon, body = text.partition(":")
    for form, build in forms.items():
        head, form_colon, fields = form.partition(":")
        if head.startswith("<") or (head, form_colon) == (name, colon):
            break
    else:
        raise LiteralParseError(production, f"expected {' | '.join(forms)}, got {text!r}")
    if named:
        production = f"{production[:-1]}:{name}>"
    if isinstance(build, tuple):
        read, build = build
        args = read(body)
    elif head.startswith("<"):
        if text.count(":") != form.count(":"):
            raise LiteralParseError(production, f"expected {form}, got {text!r}")
        args = [parse_real(part, production) for part in text.split(":")]
    elif "=" in fields:
        keys, values = [item.partition("=")[0] for item in fields.split(",")], {}
        for item in body.split(","):
            key, equals, value = item.partition("=")
            key = key.strip()
            if not equals:
                raise LiteralParseError(production, f"expected key=value, got {item!r}")
            if key in values:
                raise LiteralParseError(production, f"repeated key {key!r} in {body!r}")
            values[key] = parse_real(value, production)
        if set(values) != set(keys):
            raise LiteralParseError(production, f"expected {fields}, got {body!r}")
        args = [values[key] for key in keys]
    elif colon:
        items = body.split(",")
        if not fields.endswith(",...") and len(items) != fields.count(",") + 1:
            raise LiteralParseError(production, f"expected {fields}, got {body!r}")
        args = [parse_real(item, production) for item in items]
    else:
        args = []
    try:  # the constructor's own refusal, e.g. y0 >= y1, names the production too
        return build(*args)
    except ValueError as exc:
        raise LiteralParseError(production, str(exc)) from None


@dataclass
class FitResult:
    slope: float
    intercept: float
    stderr: float
    r2: float
    kept: np.ndarray  # boolean mask over the input rows


def least_squares_loglog(params, values, mask=None) -> FitResult:
    """Plain least-squares fit of log(values) against log(params)."""
    params = np.asarray(params, dtype=float)
    values = np.maximum(np.asarray(values, dtype=float), _LOG_FLOOR)
    if mask is None:
        mask = np.ones(params.shape, dtype=bool)
    L = np.log(params[mask])
    E = np.log(values[mask])
    n = L.size
    if n < 2 or np.ptp(L) == 0.0:
        raise ValueError("need at least two distinct abscissae")
    Lb, Eb = L.mean(), E.mean()
    sxx = np.sum((L - Lb) ** 2)
    slope = float(np.sum((L - Lb) * (E - Eb)) / sxx)
    intercept = float(Eb - slope * Lb)
    resid = E - (slope * L + intercept)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((E - Eb) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    stderr = 0.0 if n <= 2 else math.sqrt(ss_res / (n - 2) / sxx)
    return FitResult(slope, intercept, stderr, r2, np.array(mask, dtype=bool))


def robust_loglog(params, values) -> FitResult:
    """Null-rejecting log-log fit.

    Iteratively drops rows whose residual is below -NULL_REJECT_LOGRATIO
    (a factor e below the fitted line): those are nulls of an oscillating
    prefactor, not information about the decay rate.  Keeps at least half
    of the rows; if rejection would go further, the last stable fit wins.
    """
    params = np.asarray(params, dtype=float)
    values = np.asarray(values, dtype=float)
    n = params.size
    mask = np.ones(n, dtype=bool)
    fit = least_squares_loglog(params, values, mask)
    for _ in range(MAX_REJECT_ROUNDS):
        resid = np.log(np.maximum(values, _LOG_FLOOR)) - (
            fit.slope * np.log(params) + fit.intercept
        )
        new_mask = resid > -NULL_REJECT_LOGRATIO
        if new_mask.sum() < max(4, n // 2):
            break
        if (new_mask == mask).all():
            break
        mask = new_mask
        fit = least_squares_loglog(params, values, mask)
    return FitResult(fit.slope, fit.intercept, fit.stderr, fit.r2, mask)


@dataclass
class DecayReport:
    """Table of (parameter, error, error bar) rows with fitted exponent.

    ``exponent`` is the null-rejecting fit (see module docstring); the rows
    it used are marked in the ``kept`` column of the CSV, so the value is
    reproducible externally by a least-squares fit on exactly those rows.
    """

    params: np.ndarray
    errors: np.ndarray
    error_bars: np.ndarray
    exponent: float
    exponent_stderr: float
    r2: float
    kept: np.ndarray
    status: str = "ok"  # ok | inconclusive | degenerate | superpolynomial
    param_name: str = "y"
    extra_columns: dict = field(default_factory=dict)

    def to_csv(self) -> str:
        """`<param>,error,error_bar,<extra columns>,kept` rows."""
        header = ",".join([self.param_name, "error", "error_bar", *self.extra_columns, "kept"])
        return csv_table(
            header, self.params, self.errors, self.error_bars,
            *self.extra_columns.values(), self.kept,
        )


def fit_decay_report(
    params,
    errors,
    error_bars=None,
) -> DecayReport:
    """Build a DecayReport for error ~ C*param^eta (eta > 0 means decay).

    Rows are sorted by decreasing parameter.  Status rules:
    degenerate when all errors coincide; inconclusive when more than half
    of the rows are below 3 error bars (noise), or the fitted exponent is
    not positive beyond twice its standard error.
    """
    params = np.asarray(params, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if error_bars is None:
        error_bars = np.zeros_like(errors)
    error_bars = np.asarray(error_bars, dtype=float)
    order = np.argsort(-params)
    params, errors, error_bars = params[order], errors[order], error_bars[order]

    if np.all(errors < 1e-14) or np.allclose(errors, errors[0], rtol=1e-12, atol=0.0):
        # an identically-zero series is degenerate (nothing to fit); a flat
        # nonzero one shows no decay at all: inconclusive, never a fake slope
        status = "degenerate" if np.all(errors < 1e-14) else "inconclusive"
        return DecayReport(
            params, errors, error_bars,
            exponent=0.0, exponent_stderr=0.0, r2=1.0,
            kept=np.ones(params.size, dtype=bool),
            status=status,
        )

    status = "ok"
    robust = robust_loglog(params, errors)

    noisy = errors < 3.0 * error_bars
    if noisy.sum() > params.size // 2:
        status = "inconclusive"
    elif robust.slope <= 0.0 or robust.slope < 2.0 * robust.stderr:
        status = "inconclusive"

    return DecayReport(
        params, errors, error_bars,
        exponent=robust.slope, exponent_stderr=robust.stderr, r2=robust.r2,
        kept=robust.kept, status=status,
    )


def geometric_grid(y_max: float, ratio: float, count: int) -> np.ndarray:
    """The descending y-grid y_max, y_max*ratio, ..., of count heights.

    The one y-grid rule: y_max in (0, 1], ratio in (0, 1), and a whole
    count in [1, MAX_GRID_POINTS].
    """
    if not 0.0 < y_max <= 1.0:
        raise ValueError(f"y_max must lie in (0, 1], got {y_max}")
    if not 0.0 < ratio < 1.0:
        raise ValueError(f"y_ratio must lie in (0, 1) for a decreasing grid, got {ratio}")
    if count < 1 or count % 1 != 0:
        raise ValueError(f"y_count must be positive and whole, got {count}")
    if count > MAX_GRID_POINTS:
        raise ValueError(f"y_count must be at most MAX_GRID_POINTS = {MAX_GRID_POINTS}, got {count}")
    return y_max * ratio ** np.arange(int(count))
