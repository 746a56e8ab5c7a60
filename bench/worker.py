"""Benchmark child processes.  Run with src/ on PYTHONPATH.

    python3 bench/worker.py setup <workload> <seed> <launch>

is a fresh interpreter that imports horolab, builds the workload's inputs
and prints {"setup_s": ready - launch, ...}; <launch> is the parent's
time.monotonic() just before it started the process, so setup_s is the cold
start: interpreter, `import horolab` and input parsing.

    python3 bench/worker.py serve <workload> <seed>

imports horolab once and then, for each line `plain` or `traced` read from
stdin, forks a repetition: a child that builds the inputs, runs the body
once, checks the outputs and exits.  Every repetition thus starts from the
same interpreter state, imports done and nothing else run, and a first-use
cost such as a lazy import is paid in each one.  One JSON line per
repetition goes to stdout.  `traced` records spans between the start and
the end of the body.

    python3 bench/worker.py record

runs each workload once on the default seed and rewrites reference.json.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path

import spans
import workloads

REFERENCE = Path(__file__).with_name("reference.json")


def setup(name: str, seed: int, launch: float) -> dict:
    workloads.WORKLOADS[name].build(seed)
    ready = time.monotonic()
    # from package metadata: importing a package only to learn its version
    # would hide its removal from the program's own imports
    versions = {"python": sys.version.split()[0]}
    for package in ("numpy", "scipy", "sympy"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = None
    return {"setup_s": ready - launch, "versions": versions, "held_out_seed": workloads.HELD_OUT_SEEDS[name]}


def repetition(name: str, seed: int, traced: bool) -> dict:
    wl = workloads.WORKLOADS[name]
    recorder = None
    if traced:
        recorder = spans.Recorder(run_id=f"{name}-{seed}-{os.getpid()}")
        spans.instrument(recorder)
    inputs = wl.build(seed)
    if recorder is not None:
        recorder.active = True
    t0 = time.perf_counter()
    csv_text, outputs = wl.body(inputs)
    wall = time.perf_counter() - t0
    result = {"wall_s": wall}
    if recorder is not None:
        recorder.active = False
        result["spans"] = recorder.dump()
        result["counters"] = dict(recorder.counters)
    result["csv_sha256"] = hashlib.sha256(csv_text.encode()).hexdigest()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    reference = json.loads(REFERENCE.read_text())[name]
    try:
        values = wl.values(outputs)
        checks = workloads.check(wl, values, seed, reference)
        result["values"] = {k: format(values[k], spec) for k, spec in wl.formats.items()}
    except Exception:  # a check that raises counts as failed
        checks = [("checks_raised", False)]
        result["error"] = traceback.format_exc()
    result["checks"] = [[check, bool(ok)] for check, ok in checks]
    return result


def serve(name: str, seed: int) -> None:
    workloads.WORKLOADS[name]  # fail here, not in every child, on a bad name
    for line in sys.stdin:
        traced = line.strip() == "traced"
        read_end, write_end = os.pipe()
        sys.stdout.flush()
        pid = os.fork()
        if pid == 0:  # the repetition; never returns into this loop
            try:
                os.close(read_end)
                try:
                    payload = json.dumps(repetition(name, seed, traced))
                except Exception:
                    payload = json.dumps({"error": traceback.format_exc()})
                with os.fdopen(write_end, "w") as fh:
                    fh.write(payload)
            finally:
                os._exit(0)
        os.close(write_end)
        with os.fdopen(read_end) as fh:
            payload = fh.read()
        _, status = os.waitpid(pid, 0)
        if not payload:
            payload = json.dumps({"error": f"repetition process ended with wait status {status}"})
        print(payload, flush=True)


def record() -> None:
    """Rewrite reference.json from one run of each workload on the default seed."""
    ref = {}
    for name, wl in workloads.WORKLOADS.items():
        _, outputs = wl.body(wl.build(workloads.DEFAULT_SEED))
        values = wl.values(outputs)
        ref[name] = {k: format(values[k], spec) for k, spec in wl.formats.items()}
        print(name, ref[name], flush=True)
    REFERENCE.write_text(json.dumps(ref, indent=2, sort_keys=True) + "\n")


def main(argv: list[str]) -> int:
    if argv[:1] == ["record"]:
        record()
    elif argv[:1] == ["serve"]:
        serve(argv[1], int(argv[2]))
    elif argv[:1] == ["setup"]:
        try:
            result = setup(argv[1], int(argv[2]), float(argv[3]))
        except Exception:
            print(json.dumps({"error": traceback.format_exc()}))
            return 1
        print(json.dumps(result))
    else:
        sys.stderr.write(__doc__)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
