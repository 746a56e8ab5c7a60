"""horolab benchmark: one command, one workload per call.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout; horolab is imported from src/ and
not installed, single-threaded (OMP/OPENBLAS/MKL_NUM_THREADS=1).  A first,
untimed fresh interpreter compiles the bytecode and fills the page cache.
Repetitions of the workload body then run one at a time, each in a process
forked from an interpreter whose imports are done (bench/worker.py serve),
until the next one would end after S seconds, with at least MIN_REPS of
them.  Between the first repetitions, SIDE_RUNS fresh interpreters measure
the cold start.

--trace 0 prints the end-to-end metrics, medians over a run:
  wall_s       time to solution of the workload body, from inputs built to
               outputs serialised
  setup_s      cold start: a fresh interpreter until `import horolab` is done
               and the workload's inputs are parsed
  peak_rss_mb  peak resident memory of a repetition's process
--trace 1 alternates untraced and traced repetitions and prints the
per-layer metrics of bench/spans.py (medians over traced repetitions),
trace.coverage, trace.overhead_s (traced minus untraced median wall_s) and
setup.import.*, read from fresh `python -X importtime -c "import horolab"`.

Every repetition's outputs are checked (workloads.check), and every
repetition's CSV, traced or not, must be byte-identical to the first one's.
`attempted` and `failed` count those checks; failed/attempted is the run's
failed_frac.  The last line printed is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = str(BENCH / "worker.py")
MIN_REPS = 3
SIDE_RUNS = 5  # fresh interpreters per run for setup_s (3 importtime runs when traced)
HARD_LIMIT_S = 170.0  # every run must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_PACKAGES = ("numpy", "scipy", "sympy", "horolab")


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.update({var: "1" for var in THREAD_VARS})
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def fresh(argv: list[str], deadline: float) -> subprocess.CompletedProcess:
    """Run a fresh interpreter to completion (killed and reaped at the deadline)."""
    return subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=child_env(),
        capture_output=True, text=True, timeout=max(1.0, deadline - time.monotonic()),
    )


def cold_start(workload: str, seed: int, deadline: float) -> dict:
    launch = time.monotonic()
    try:
        proc = fresh([WORKER, "setup", workload, str(seed), repr(launch)], deadline)
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (subprocess.TimeoutExpired, IndexError, json.JSONDecodeError) as exc:
        return {"error": f"cold start failed: {exc!r}"}


def import_times(deadline: float) -> dict[str, float]:
    """Package import times from one `python -X importtime -c "import horolab"`.

    A package's time is the cumulative time of its outermost entries, so its
    submodules and whatever they pull in count once.
    """
    try:
        proc = fresh(["-X", "importtime", "-c", "import horolab"], deadline)
    except subprocess.TimeoutExpired:
        return {"error": "importtime run timed out"}
    entries = []  # (depth, name, cumulative seconds), in the order printed
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or line.count("|") != 2:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if cumulative.strip().isdigit():  # skips the header line
            depth = (len(name) - len(name.lstrip())) // 2
            entries.append((depth, name.strip(), int(cumulative) * 1e-6))
    out = {f"setup.import.{p}_s": 0.0 for p in IMPORT_PACKAGES}
    # importtime prints a module after the modules it imported, one level
    # deeper; walking backwards puts every ancestor before its descendants
    ancestors: list[tuple[int, str]] = []
    for depth, name, cumulative in reversed(entries):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        package = name.split(".")[0]
        if package in IMPORT_PACKAGES and all(a.split(".")[0] != package for _, a in ancestors):
            out[f"setup.import.{package}_s"] += cumulative
        ancestors.append((depth, name))
    return out


class Server:
    """`worker.py serve`: forks one repetition per request, in its own session."""

    def __init__(self, workload: str, seed: int):
        self.proc = subprocess.Popen(
            [sys.executable, WORKER, "serve", workload, str(seed)],
            cwd=ROOT, env=child_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            bufsize=0, start_new_session=True,
        )

    def request(self, mode: str, deadline: float) -> dict:
        try:
            self.proc.stdin.write(f"{mode}\n".encode())
        except BrokenPipeError:
            return {"error": "repetition server exited"}
        fd, buf = self.proc.stdout.fileno(), b""
        while not buf.endswith(b"\n"):
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                self.kill()
                return {"error": f"{mode} repetition did not finish before the run's time limit"}
            chunk = os.read(fd, 1 << 20)
            if not chunk:
                return {"error": "repetition server exited"}
            buf += chunk
        return json.loads(buf)

    def kill(self) -> None:
        """Stop the server and a repetition it may be running (same session)."""
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def close(self, deadline: float) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            self.kill()
            self.proc.wait()
        self.proc.stdout.close()


def git_commit() -> str:
    """HEAD of the checkout, read without running git; 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure(args) -> tuple[dict, list, list]:
    """Warm-up, then repetitions interleaved with the side runs."""
    hard_deadline = time.monotonic() + HARD_LIMIT_S
    warm = cold_start(args.workload, args.seed, hard_deadline)
    if "error" in warm:
        raise SystemExit(f"bench: {warm['error']}")
    modes = ("plain", "traced") if args.trace else ("plain",)
    side_runs = 3 if args.trace else SIDE_RUNS
    server = Server(args.workload, args.seed)
    reps, side = [], []
    try:
        deadline = time.monotonic() + args.seconds
        while True:
            began = time.monotonic()
            mode = modes[len(reps) % len(modes)]
            rep = server.request(mode, hard_deadline)
            reps.append((mode, rep))
            if "error" in rep:
                sys.stderr.write(rep["error"] + "\n")
                if "checks" not in rep:  # the repetition itself failed: stop here
                    break
            if len(side) < side_runs:
                side.append(
                    import_times(hard_deadline) if args.trace
                    else cold_start(args.workload, args.seed, hard_deadline)
                )
            step = time.monotonic() - began
            limit = deadline if len(reps) >= MIN_REPS * len(modes) else hard_deadline
            if time.monotonic() + step > limit:
                break
    finally:
        server.close(hard_deadline)
    return warm, reps, side


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "horolab" / "__init__.py").is_file():
        sys.stderr.write(f"bench: no horolab sources under {ROOT / 'src'}; run from a source checkout\n")
        return 2
    warm, reps, side = measure(args)

    attempted = failed = 0
    first_sha = None
    for _, rep in reps:
        checks = rep.get("checks", []) + ([["no_error", False]] if "error" in rep else [])
        if "csv_sha256" in rep:
            first_sha = first_sha or rep["csv_sha256"]
            # reruns of one seed, traced or not, serialise the same bytes
            checks.append(["csv_identical", rep["csv_sha256"] == first_sha])
        attempted += len(checks)
        failed += sum(not ok for _, ok in checks)
    attempted += sum("error" in s for s in side)
    failed += sum("error" in s for s in side)

    plain = [rep for mode, rep in reps if mode == "plain" and "wall_s" in rep]
    traced = [rep for mode, rep in reps if mode == "traced" and "wall_s" in rep]
    side = [s for s in side if "error" not in s]
    if not plain or not side or (args.trace and not traced):
        sys.stderr.write("bench: no repetition completed\n")
        return 1

    def med(key, rows):
        return statistics.median(r[key] for r in rows)

    if args.trace:
        sys.path.insert(0, str(BENCH))
        import spans

        per_rep = [spans.layer_metrics(r["spans"], r["counters"], r["wall_s"]) for r in traced]
        metrics = {name: {"value": med(name, per_rep), "unit": unit} for name, unit, *_ in spans.METRICS}
        metrics["trace.coverage"] = {"value": med("trace.coverage", per_rep), "unit": "ratio"}
        metrics["trace.overhead_s"] = {"value": med("wall_s", traced) - med("wall_s", plain), "unit": "s"}
        metrics.update({key: {"value": med(key, side), "unit": "s"} for key in side[0]})
    else:
        metrics = {
            "wall_s": {"value": med("wall_s", plain), "unit": "s"},
            "setup_s": {"value": med("setup_s", side), "unit": "s"},
            "peak_rss_mb": {"value": med("peak_rss_mb", plain), "unit": "MiB"},
        }

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": warm["held_out_seed"],
        "trace": args.trace,
        "repetitions": {"plain": len(plain), "traced": len(traced)},
        "wall_s_each": [round(r["wall_s"], 4) for r in plain],
        "side_each": [{k: round(v, 4) for k, v in s.items() if isinstance(v, float)} for s in side],
        "nproc": os.cpu_count(),
        "threads": {var: "1" for var in THREAD_VARS},
        "versions": warm["versions"],
        "git_commit": git_commit(),
        "values": plain[0].get("values"),
    }
    print("record " + json.dumps(record))
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"failed_frac = {failed}/{attempted} = {failed / attempted:.4g}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
