"""Outside-in span recorder for the benchmark's traced repetitions.

`instrument` wraps, from outside the package, the public functions and the
public methods (plus `__call__` and `__post_init__`) of every horolab layer
module, and rebinds every name through which each one is reached: horolab
imports by name, so `reduce_many` lives in both `horolab.modular` and
`horolab.automorphic`, `eisenstein_values` is called through
`horolab.testfunctions`, and methods are reached through their class.  A
missed binding shows as `trace.coverage` below 1.

A span records its id, name, start, end, parent span id and run id.  Spans
stay in memory and are handed over once, when the repetition ends.  A span's
self time is its duration minus the part of it that its child spans cover.
Work counts are recorded by per-function hooks at the same boundaries.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = (
    "measures",
    "modular",
    "automorphic",
    "testfunctions",
    "diophantine",
    "oscillatory",
    "fitting",
    "experiments",
)


class Recorder:
    """Collects spans and counters while `active`; a no-op pass-through otherwise."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [id, name, start, end, parent]
        self.counters: Counter = Counter()
        self.active = False
        self._stack: list[int] = []

    def wrap(self, name: str, fn, hook=None):
        signature = inspect.signature(fn) if hook is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = [len(self.spans), name, 0.0, 0.0, self._stack[-1] if self._stack else None]
            self.spans.append(span)
            self._stack.append(span[0])
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    self.counters.update(hook(bound.arguments, result))
                return result
            finally:
                span[3] = time.perf_counter()
                self._stack.pop()

        return traced

    def dump(self) -> list[dict]:
        return [
            {"id": s[0], "name": s[1], "start": s[2], "end": s[3], "parent": s[4], "run": self.run_id}
            for s in self.spans
        ]


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append(s)
    out = {}
    for s in spans:
        covered, reach = 0.0, s["start"]
        for c in sorted(children[s["id"]], key=lambda c: c["start"]):
            lo, hi = max(c["start"], reach), min(c["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def _span_name(module: str, owner: str | None, attr: str) -> str:
    if owner is None:
        return f"{module}.{attr}"
    if attr == "__post_init__":
        return f"{module}.{owner}"  # construction of a dataclass
    if attr == "__call__":
        return f"{module}.{owner}.call"
    return f"{module}.{owner}.{attr}"


def _hooks(hl) -> dict:
    """Work counters per span name, computed from arguments and results."""
    fractal = hl.measures.FractalMeasure
    product_depth = hl.measures.product_depth  # captured before wrapping
    k_negligible = hl.automorphic.K_NEGLIGIBLE_X
    cusp_y = k_negligible / hl.automorphic.TWO_PI

    def sample(a, r):
        if not isinstance(a["measure"], fractal):
            return {}
        return {"measures.sample.digits": a["count"] * a["depth"]}

    def fourier_abs(a, r):
        if not isinstance(a["measure"], fractal):
            return {}
        xi = np.atleast_1d(np.asarray(a["xi"], dtype=float))
        depth = product_depth(a["measure"], float(np.max(np.abs(xi), initial=0.0)), a["tail_tol"])
        return {"measures.fourier_abs.factor_evals": xi.size * depth}

    def reduce_many(a, r):
        y = np.asarray(r[1])
        return {"modular.reduce_many.points": y.size, "modular.reduce_many.cusp": int((y > cusp_y).sum())}

    def k_fast(a, r):
        w = np.asarray(a["w"])
        return {"automorphic.k_fast.points": w.size, "automorphic.k_fast.live": int((w < k_negligible).sum())}

    def bessel(a, r):
        x = np.asarray(a["x"], dtype=float)
        return {
            "automorphic.bessel_K_imag.x": x.size,
            "automorphic.bessel_K_imag.negligible": int((x >= k_negligible).sum()),
        }

    return {
        "measures.sample": sample,
        "measures.fourier_abs": fourier_abs,
        "modular.reduce_many": reduce_many,
        "automorphic.eisenstein_values": lambda a, r: {"automorphic.eisenstein_values.points": np.size(a["x"])},
        "automorphic.EisensteinParams.k_fast": k_fast,
        "automorphic.bessel_K_imag": bessel,
        "automorphic.sigma_range": lambda a, r: {"automorphic.sigma_range.m": a["m_max"]},
        "diophantine.khintchine_profile": lambda a, r: {
            "diophantine.khintchine_profile.pairs": a["n_samples"] * (a["Q"] - 1)
        },
    }


def instrument(recorder: Recorder) -> None:
    """Wrap every public callable of the layer modules and rebind all names."""
    import horolab as hl

    hooks = _hooks(hl)
    replaced = {}  # id(original) -> (original, wrapper)
    for layer in LAYERS:
        mod = importlib.import_module(f"horolab.{layer}")
        for name, obj in list(vars(mod).items()):
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                span = _span_name(layer, None, name)
                replaced[id(obj)] = (obj, recorder.wrap(span, obj, hooks.get(span)))
            elif inspect.isclass(obj):
                for attr, fn in list(vars(obj).items()):
                    if inspect.isfunction(fn) and (
                        not attr.startswith("_") or attr in ("__call__", "__post_init__")
                    ):
                        span = _span_name(layer, name, attr)
                        setattr(obj, attr, recorder.wrap(span, fn, hooks.get(span)))
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "horolab" or mod_name.startswith("horolab.")):
            continue
        for name, obj in list(vars(mod).items()):
            hit = replaced.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, name, hit[1])


# ---------------------------------------------------------------------------
# Per-layer metrics from one traced repetition

# (metric, unit, better, kind, source): kind "self" sums self time of the
# spans named source, "calls" counts them, "count" reads a counter, "ratio"
# divides two counters, "layer" sums self time over a whole module.
METRICS = (
    ("measures.sample.self_s", "s", "lower", "self", "measures.sample"),
    ("measures.sample.digits", "count", "lower", "count", "measures.sample.digits"),
    ("measures.fourier_abs.self_s", "s", "lower", "self", "measures.fourier_abs"),
    ("measures.fourier_abs.factor_evals", "count", "lower", "count", "measures.fourier_abs.factor_evals"),
    ("measures.fourier_transform.self_s", "s", "lower", "self", "measures.fourier_transform"),
    ("modular.reduce_many.self_s", "s", "lower", "self", "modular.reduce_many"),
    ("modular.reduce_many.points", "count", "lower", "count", "modular.reduce_many.points"),
    ("modular.mu_y_value.self_s", "s", "lower", "self", "modular.mu_y_value"),
    ("modular.cusp_frac", "ratio", "lower", "ratio", ("modular.reduce_many.cusp", "modular.reduce_many.points")),
    ("automorphic.eisenstein_values.self_s", "s", "lower", "self", "automorphic.eisenstein_values"),
    ("automorphic.eisenstein_values.points", "count", "lower", "count", "automorphic.eisenstein_values.points"),
    ("automorphic.constant_term.self_s", "s", "lower", "self", "automorphic.constant_term"),
    ("automorphic.k_fast.self_s", "s", "lower", "self", "automorphic.EisensteinParams.k_fast"),
    ("automorphic.k_fast.points", "count", "lower", "count", "automorphic.k_fast.points"),
    ("automorphic.k_fast.live_frac", "ratio", "higher", "ratio", ("automorphic.k_fast.live", "automorphic.k_fast.points")),
    ("automorphic.bessel_K_imag.self_s", "s", "lower", "self", "automorphic.bessel_K_imag"),
    ("automorphic.bessel_K_imag.x", "count", "lower", "count", "automorphic.bessel_K_imag.x"),
    (
        "automorphic.bessel_K_imag.negligible_frac", "ratio", "lower", "ratio",
        ("automorphic.bessel_K_imag.negligible", "automorphic.bessel_K_imag.x"),
    ),
    ("automorphic.sigma_range.self_s", "s", "lower", "self", "automorphic.sigma_range"),
    ("automorphic.sigma_range.m", "count", "lower", "count", "automorphic.sigma_range.m"),
    ("automorphic.EisensteinParams.count", "count", "lower", "calls", "automorphic.EisensteinParams"),
    ("automorphic.EisensteinParams.self_s", "s", "lower", "self", "automorphic.EisensteinParams"),
    ("testfunctions.EisensteinTest.call.self_s", "s", "lower", "self", "testfunctions.EisensteinTest.call"),
    ("diophantine.khintchine_profile.self_s", "s", "lower", "self", "diophantine.khintchine_profile"),
    ("diophantine.khintchine_profile.pairs", "count", "lower", "count", "diophantine.khintchine_profile.pairs"),
    ("oscillatory.oscillatory_integral.self_s", "s", "lower", "self", "oscillatory.oscillatory_integral"),
    ("oscillatory.oscillatory_integral.calls", "count", "lower", "calls", "oscillatory.oscillatory_integral"),
    ("oscillatory.find_stationary_points.self_s", "s", "lower", "self", "oscillatory.find_stationary_points"),
    ("fitting.fit_decay_report.self_s", "s", "lower", "self", "fitting.fit_decay_report"),
    ("experiments.run_equidistribution.self_s", "s", "lower", "self", "experiments.run_equidistribution"),
) + tuple((f"{layer}.self_s", "s", "lower", "layer", layer) for layer in LAYERS)


def layer_metrics(spans: list[dict], counters: dict, wall_s: float) -> dict[str, float]:
    """Every METRICS entry plus trace.coverage for one traced repetition."""
    own = self_times(spans)
    self_by_name, calls = Counter(), Counter()
    for s in spans:
        self_by_name[s["name"]] += own[s["id"]]
        calls[s["name"]] += 1
    out = {}
    for metric, _unit, _better, kind, source in METRICS:
        if kind == "self":
            out[metric] = self_by_name[source]
        elif kind == "calls":
            out[metric] = calls[source]
        elif kind == "count":
            out[metric] = counters.get(source, 0)
        elif kind == "ratio":
            num, den = counters.get(source[0], 0), counters.get(source[1], 0)
            out[metric] = num / den if den else 0.0
        else:
            out[metric] = sum(v for k, v in self_by_name.items() if k.startswith(source + "."))
    top = sum(s["end"] - s["start"] for s in spans if s["parent"] is None)
    out["trace.coverage"] = top / wall_s if wall_s > 0 else math.nan
    return out
