"""qarrival benchmark: cold scenario runs and a sweep, timed from outside.

    python3 bench/bench.py --workload {volume,point,sweep-k} --seed N \
        --seconds S --trace {0,1}

Run from anywhere; the repository root is the parent of this directory and
the package is imported from its `src`. The seed only rotates the scenario
geometry (see workloads.py), so every seed does the same work.

Each unit of a workload runs as `python -m qarrival.cli run|sweep` in a
fresh process, so the module-level caches start empty, exactly as a user
pays for it. Children run one at a time with BLAS and OpenMP pinned to one
thread; a sweep uses `--jobs` equal to the core count. Wall time, CPU time
and peak RSS of each child come from `os.wait4`.

`--trace 0` reports the end-to-end metrics:
  setup_s      median over fresh processes that import qarrival and parse
               the workload's input files (what `qarrival validate` pays)
  wall_s       median wall time of one pass over the workload's units
  cpu_s        median user + system CPU time of one pass
  peak_rss_mb  median over passes of the largest child's peak RSS
  ok_frac      share of scenario runs and sweep rows that passed the
               correctness gate (failed_frac = 1 - ok_frac)

`--trace 1` alternates untraced passes with passes of bench/traced.py and
reports per-layer self times (median over traced passes, summed over the
pass's runs), deterministic counts, and the tracing overhead (median traced
pass wall time minus median untraced pass wall time). Under the sweep's
threads a span also holds the time its thread waited for the interpreter
lock, so the sweep's span times add up to more than its wall time.

Every pass is checked: the correctness gate on each summary, byte-identical
files across passes of one seed, and byte-identical files between the traced
replica and `qarrival run`. Any failure makes `correct` false. The last line
of stdout is one JSON object with `correct`, `attempted`, `failed` and
`metrics`; the lines before it give quartiles, sample counts and the
recorded environment.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

from workloads import SWEEP_K_VALUES, WORKLOADS, Unit, Workload, write_inputs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

MIN_PASSES = 3          # untraced passes per run, however long they take
MIN_TRACED_PASSES = 2   # traced passes per traced run
SETUP_FIRST = 3         # set-up samples before the first pass
SETUP_PER_PASS = 2      # and after each untraced pass
DEADLINE_S = 170.0      # a run that has not finished by then gives up

RESIDUAL_MAX = 1e-6     # closure residual bound, as in acceptance criterion 3
RTOL = 1e-6             # relative tolerance against reference values
PENTRY_ATOL = 1e-12     # point detectors: p_entry_final = 1

PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1"}

SPAN_METRICS = ("scenario.parse_s", "wavepacket.amplitude_s",
                "probability.direction_s", "probability.entry_curve_s",
                "arrival.mean_arrival_s", "detector.schedule_s",
                "detector.closure_s", "scenario.write_s")
COUNT_UNITS = {"probability.curve_rows": "count", "probability.t_max": "time",
               "arrival.rows": "count", "detector.closure_intervals": "count",
               "scenario.bytes_written": "bytes"}

_SETUP_CODE = """\
import sys
import qarrival
for path in sys.argv[1:]:
    (qarrival.parse_sweep if path.endswith('.sweep') else qarrival.parse_scenario)(path)
"""

_FACTS_CODE = """\
import json, os, sys
import numpy, qarrival
blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
print(json.dumps({"package": os.path.dirname(os.path.realpath(qarrival.__file__)),
                  "python": sys.version.split()[0], "numpy": numpy.__version__,
                  "blas": blas.get("name"), "blas_version": blas.get("version")}))
"""


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


class _Deadline(BaseException):
    pass


def _on_alarm(signum, frame):
    raise _Deadline()


@dataclass
class Child:
    returncode: int
    wall: float
    cpu: float
    rss_mb: float


def spawn(argv: list[str], env: dict, cwd: str, stderr_path: str,
          stdout=subprocess.DEVNULL) -> Child:
    """Run one child to completion and take its wall time and rusage."""
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=stdout, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -9
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                 usage.ru_maxrss / 1024.0)


def tree_hashes(path: str) -> dict:
    """sha256 of every file under `path`, keyed by relative path."""
    out = {}
    for dirpath, _, files in os.walk(path):
        for name in files:
            full = os.path.join(dirpath, name)
            with open(full, "rb") as fh:
                out[os.path.relpath(full, path)] = hashlib.sha256(fh.read()).hexdigest()
    return out


# --- correctness gate ---------------------------------------------------------

def check_summary(summary: dict, unit: Unit, reference: dict) -> list[str]:
    """Problems with one scenario run's summary.json; empty when it passes."""
    problems = []
    if summary.get("converged") is not True:
        problems.append("not converged")
    residual = summary.get("consistency_residual_max")
    if not (isinstance(residual, float) and residual <= RESIDUAL_MAX):
        problems.append(f"consistency_residual_max = {residual!r}")
    p_entry = summary.get("p_entry_final")
    if unit.isotropic:
        expected = summary["omega"] / (4.0 * math.pi)
        if not abs(p_entry - expected) <= RTOL * expected:
            problems.append(f"p_entry_final = {p_entry!r}, omega / 4 pi = {expected!r}")
    if unit.reference is not None:
        if not abs(p_entry - 1.0) <= PENTRY_ATOL:
            problems.append(f"p_entry_final = {p_entry!r}, expected 1")
        expected = reference["mean_arrival"][unit.reference]
        mean = summary.get("mean_arrival")
        if not (isinstance(mean, float) and abs(mean - expected) <= RTOL * expected):
            problems.append(f"mean_arrival = {mean!r}, reference {expected!r}")
    return problems


def _read_summary(path: str) -> dict:
    with open(os.path.join(path, "summary.json"), encoding="utf-8") as fh:
        return json.load(fh)


def gate(unit: Unit, out_dir: str, reference: dict) -> dict:
    """Gate every item of a unit: {item: [problems]}; items are the scenario
    run itself, or each sweep row."""
    if unit.kind == "run":
        try:
            return {unit.name: check_summary(_read_summary(out_dir), unit, reference)}
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return {unit.name: [f"unreadable summary: {exc}"]}
    try:
        with open(os.path.join(out_dir, "sweep.csv"), encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
    except OSError:
        rows = []
    results = {f"{unit.name}[k={k:.17g}]": ["row missing"] for k in SWEEP_K_VALUES}
    for row in rows:
        item = f"{unit.name}[k={row['value']}]"
        if row["status"] != "ok":
            results[item] = [f"row failed: {row['error']}"]
            continue
        row_dir = os.path.join(out_dir, f"{row['parameter']}={row['value']}")
        try:
            problems = check_summary(_read_summary(row_dir), unit, reference)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems = [f"unreadable summary: {exc}"]
        k = float(row["value"])
        if not abs(float(row["p_registered_final"]) - k) <= RTOL:
            problems.append(f"p_registered_final = {row['p_registered_final']}, k = {k!r}")
        results[item] = problems
    return results


# --- passes -------------------------------------------------------------------

@dataclass
class PassResult:
    wall: float = 0.0
    cpu: float = 0.0
    rss_mb: float = 0.0
    problems: dict = field(default_factory=dict)   # item -> [problems]
    hashes: dict = field(default_factory=dict)     # unit name -> file hashes
    traces: list = field(default_factory=list)     # traced passes only


class Bench:
    def __init__(self, workload: Workload, work_dir: str, env: dict,
                 jobs: int, reference: dict):
        self.workload = workload
        self.work = work_dir
        self.env = env
        self.jobs = jobs
        self.reference = reference
        self.passes = 0

    def _argv(self, unit: Unit, out_dir: str, trace_path: str | None) -> list[str]:
        src = os.path.join(self.work, unit.path)
        if trace_path is not None:
            tail = [str(self.jobs)] if unit.kind == "sweep" else []
            return [sys.executable, os.path.join(HERE, "traced.py"), unit.kind,
                    src, out_dir, *tail, trace_path]
        argv = [sys.executable, "-m", "qarrival.cli", unit.kind, src, "--out", out_dir]
        return argv + (["--jobs", str(self.jobs)] if unit.kind == "sweep" else [])

    def run_pass(self, traced: bool) -> PassResult:
        self.passes += 1
        pass_dir = os.path.join(self.work, f"pass{self.passes}")
        os.makedirs(pass_dir)
        result = PassResult()
        for unit in self.workload.units:
            out_dir = os.path.join(pass_dir, unit.name)
            trace_path = os.path.join(pass_dir, f"{unit.name}.trace.json") if traced else None
            stderr_path = os.path.join(pass_dir, f"{unit.name}.stderr")
            child = spawn(self._argv(unit, out_dir, trace_path), self.env,
                          self.work, stderr_path)
            result.wall += child.wall
            result.cpu += child.cpu
            result.rss_mb = max(result.rss_mb, child.rss_mb)
            problems = gate(unit, out_dir, self.reference)
            if child.returncode != 0:
                with open(stderr_path, encoding="utf-8", errors="replace") as fh:
                    tail = fh.read()[-400:].strip()
                for item in problems:
                    problems[item] = [f"exit {child.returncode}: {tail}"] + problems[item]
            result.problems.update(problems)
            result.hashes[unit.name] = tree_hashes(out_dir)
            if traced and child.returncode == 0:
                with open(trace_path, encoding="utf-8") as fh:
                    result.traces.append(json.load(fh))
        shutil.rmtree(pass_dir)
        return result

    def setup_times(self, n: int) -> list[float]:
        """Wall times of `n` fresh processes that import qarrival and parse
        the workload's input files."""
        argv = [sys.executable, "-c", _SETUP_CODE,
                *(os.path.join(self.work, f) for f in self.workload.setup_files)]
        stderr_path = os.path.join(self.work, "setup.stderr")
        times = []
        for _ in range(n):
            child = spawn(argv, self.env, self.work, stderr_path)
            if child.returncode != 0:
                with open(stderr_path, encoding="utf-8", errors="replace") as fh:
                    raise BenchError(f"setup failed: {fh.read()[-400:]}")
            times.append(child.wall)
        return times


def mismatched(reference: dict, hashes: dict, unit: Unit) -> list[str]:
    """Items of `unit` whose files differ from the reference pass."""
    diff = {p for p in set(reference) | set(hashes) if reference.get(p) != hashes.get(p)}
    if not diff:
        return []
    if unit.kind == "run":
        return [unit.name]
    rows = sorted({p.split(os.sep)[0] for p in diff if os.sep in p})
    items = [f"{unit.name}[k={r.split('=', 1)[1]}]" for r in rows]
    return items or [f"{unit.name}[sweep.csv]"]


def count_failures(passes: list[PassResult], baseline: PassResult,
                   units, label: str) -> tuple[int, int]:
    """(attempted, failed) over passes; prints every problem to stderr.

    An item fails when the gate finds a problem or when its files differ
    from those of `baseline` (determinism, or the replica check).
    """
    attempted = failed = 0
    for n, result in enumerate(passes, start=1):
        bad = {item: list(p) for item, p in result.problems.items() if p}
        for unit in units:
            for item in mismatched(baseline.hashes[unit.name],
                                   result.hashes[unit.name], unit):
                bad.setdefault(item, []).append(f"files differ from the first "
                                                f"untraced pass ({label})")
        for item, problems in sorted(bad.items()):
            print(f"FAIL {label} pass {n} {item}: {'; '.join(problems)}",
                  file=sys.stderr)
        attempted += len(result.problems)
        failed += len(bad)
    return attempted, failed


def quartiles(values: list[float]) -> str:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"median {q2:.6g} q1 {q1:.6g} q3 {q3:.6g} n {len(values)}"


def self_times(trace: dict) -> dict:
    """Self time per span name: duration minus the time of its child spans."""
    spans = trace["spans"]
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    out = dict.fromkeys(SPAN_METRICS, 0.0)
    for s, t in zip(spans, own):
        if s["name"] in out:
            out[s["name"]] += t
    return out


def pass_layers(result: PassResult) -> tuple[dict, dict]:
    times = dict.fromkeys(SPAN_METRICS, 0.0)
    counts = dict.fromkeys(COUNT_UNITS, 0)
    for trace in result.traces:
        for name, t in self_times(trace).items():
            times[name] += t
        for name, value in trace["counts"].items():
            counts[name] = max(counts[name], value) if name == "probability.t_max" \
                else counts[name] + value
    return times, counts


# --- entry point ----------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED_THREADS)
    env["PYTHONPATH"] = SRC
    return env


def environment_facts(env: dict, work: str) -> dict:
    out_path = os.path.join(work, "facts.json")
    with open(out_path, "wb") as out:
        child = spawn([sys.executable, "-c", _FACTS_CODE], env, work,
                      os.path.join(work, "facts.stderr"), stdout=out)
    if child.returncode != 0:
        raise BenchError("cannot import qarrival and numpy from the checkout")
    with open(out_path, encoding="utf-8") as fh:
        facts = json.load(fh)
    if os.path.realpath(facts.pop("package")) != os.path.realpath(
            os.path.join(SRC, "qarrival")):
        raise BenchError("qarrival was imported from outside the checkout's src")
    facts["nproc"] = len(os.sched_getaffinity(0))
    facts["threads"] = PINNED_THREADS
    return facts


def measure(bench: Bench, seconds: float, traced_run: bool):
    """Passes until `seconds` have elapsed and the minimum pass count is met.

    An untraced run takes set-up samples before and between its passes, so
    that they see the same machine as the passes. A traced run alternates
    untraced and traced passes and takes no set-up samples.
    """
    plain, traced, setup = [], [], []
    start = time.monotonic()
    if not traced_run:
        setup += bench.setup_times(SETUP_FIRST)
    while True:
        done = traced if traced_run else plain
        if (len(done) >= (MIN_TRACED_PASSES if traced_run else MIN_PASSES)
                and time.monotonic() - start >= seconds):
            break
        plain.append(bench.run_pass(traced=False))
        if traced_run:
            traced.append(bench.run_pass(traced=True))
        else:
            setup += bench.setup_times(SETUP_PER_PASS)
    return plain, traced, setup


def report(args, bench: Bench, facts: dict) -> dict:
    workload = bench.workload
    plain, traced, setup = measure(bench, args.seconds, args.trace == 1)
    attempted, failed = count_failures(plain, plain[0], workload.units, "determinism")
    t_att, t_failed = count_failures(traced, plain[0], workload.units, "replica")
    attempted += t_att
    failed += t_failed

    lines = [f"env {json.dumps(facts, sort_keys=True)}",
             f"workload {workload.name} seed {args.seed}: {workload.why}",
             f"jobs {bench.jobs}; {len(plain)} untraced and {len(traced)} traced passes; "
             f"{attempted} runs attempted, {failed} failed "
             f"(failed_frac {failed / attempted:.6g})"]
    if not traced:
        samples = {"setup_s": (setup, "s"),
                   "wall_s": ([p.wall for p in plain], "s"),
                   "cpu_s": ([p.cpu for p in plain], "s"),
                   "peak_rss_mb": ([p.rss_mb for p in plain], "MB")}
        metrics = {name: {"value": statistics.median(v), "unit": unit}
                   for name, (v, unit) in samples.items()}
        metrics["ok_frac"] = {"value": 1.0 - failed / attempted, "unit": "ratio"}
        lines += [f"{name} [{unit}] {quartiles(v)}" for name, (v, unit) in samples.items()]
    else:
        layers = [pass_layers(r) for r in traced]
        metrics = {name: {"value": statistics.median(t[name] for t, _ in layers),
                          "unit": "s"} for name in SPAN_METRICS}
        counts = layers[0][1]
        for n, (_, c) in enumerate(layers[1:], start=2):
            if c != counts:
                failed += 1
                print(f"FAIL traced pass {n}: counts {c} differ from {counts}",
                      file=sys.stderr)
        for name, unit in COUNT_UNITS.items():
            metrics[name] = {"value": counts[name], "unit": unit}
        overhead = (statistics.median(r.wall for r in traced)
                    - statistics.median(r.wall for r in plain))
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        lines += [f"{name} [s] {quartiles([t[name] for t, _ in layers])}"
                  for name in SPAN_METRICS]
        lines.append(f"traced wall_s {quartiles([r.wall for r in traced])}; "
                     f"untraced wall_s {quartiles([r.wall for r in plain])}")
    for line in lines:
        print(line)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "qarrival", "__init__.py")):
        print(f"bench: no qarrival package under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
    work_root = os.path.join(ROOT, ".bench_work")
    os.makedirs(work_root, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    try:
        env = child_env()
        facts = environment_facts(env, work)   # also fills the bytecode cache
        workload = WORKLOADS[args.workload]
        write_inputs(workload, args.seed, work)
        bench = Bench(workload, work, env, jobs=facts["nproc"], reference=reference)
        result = report(args, bench, facts)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    except _Deadline:
        print(f"bench: run exceeded {DEADLINE_S:.0f} s", file=sys.stderr)
        return 1
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:
            pass        # another run still uses it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
