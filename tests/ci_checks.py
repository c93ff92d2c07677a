"""The CI gates beyond the pytest suite, one function per workflow step.

    python tests/ci_checks.py NAME...     # the named checks
    python tests/ci_checks.py all         # every check, in workflow order

Each check works in a fresh temporary directory and exits nonzero if its gate fails.
Several NAMEs, or `all`, run each in a fresh interpreter: Linux folds a parent's RSS
high-water mark into its children's maxrss, which the maxrss gates compare.
"""

import csv
import json
import math
import os
import resource
import subprocess
import sys
import tempfile
import time
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC, BENCH = ROOT / "src", ROOT / "bench"
ENV = {**os.environ,
       "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
SPHERE = "detector.kind = sphere\ndetector.center = 0 0 20\n"
TILT16 = ("amplitude.kind = separable\namplitude.axis = 0.6 0 0.8\n"
          "amplitude.angular_sigma = 0.2\n" + SPHERE + "detector.radius = 12\n"
          "quadrature.polar_nodes = 16\nquadrature.azimuth_nodes = 16\ngrid.dt = 0.05\n")


def require(ok: bool, what: str):
    if not ok:
        sys.exit(f"check failed: {what}")


def child(*args, limit: bool = False, env: dict = ENV) -> float:
    """`python ARGS` in a fresh interpreter, its address space capped at 1 GiB if `limit`
    (as `ulimit -v 1048576`); requires exit 0 and returns the child's maxrss in MB."""
    cap = partial(resource.setrlimit, resource.RLIMIT_AS, (2 ** 30, 2 ** 30)) if limit else None
    proc = subprocess.Popen([sys.executable, *map(str, args)], env=env, preexec_fn=cap)
    _, status, usage = os.wait4(proc.pid, 0)
    code = os.waitstatus_to_exitcode(status)
    shown = " ".join(str(arg).splitlines()[0] for arg in args)    # a program by its first line
    require(code == 0, f"exit {code}: python {shown}")
    return usage.ru_maxrss / 1024.0


def cli(*args, limit: bool = False, env: dict = ENV) -> float:
    return child("-m", "qarrival.cli", *args, limit=limit, env=env)


def run(scenario: Path, out: Path, limit: bool = False) -> dict:
    """`qarrival run SCENARIO --out OUT`, as `cli`; returns its summary.json."""
    cli("run", scenario, "--out", out, limit=limit)
    return json.loads((out / "summary.json").read_text())


def write(path: Path, text: str) -> Path:
    path.write_text(text, encoding="utf-8")
    return path


def identical(a: Path, b: Path):
    tool = ["diff", "-r"] if a.is_dir() else ["cmp"]
    require(subprocess.run([*tool, a, b]).returncode == 0, f"{a} and {b} differ")


def sweep_inputs(work: Path) -> str:
    """Writes the benchmark's sweep-k inputs at seed 0 (narrow.txt, k.sweep) into `work`
    and returns narrow.txt: the narrow point scenario, rotated by seed 0."""
    from workloads import WORKLOADS, write_inputs
    write_inputs(WORKLOADS["sweep-k"], 0, str(work))
    return (work / "narrow.txt").read_text()


def bench_gate(workload: str, trace: int, work: Path):
    """bench.py at seed 0 for 1 s must exit 0 and report `correct` true on its last line."""
    proc = subprocess.run([sys.executable, BENCH / "bench.py", "--workload", workload,
                           "--seed", "0", "--seconds", "1", "--trace", str(trace)],
                          env=ENV, stdout=subprocess.PIPE, text=True)
    print(proc.stdout, end="")
    require(proc.returncode == 0, f"bench.py exit {proc.returncode}")
    require(json.loads(proc.stdout.splitlines()[-1])["correct"] is True, "correct is not true")


# the real CLI under tracemalloc, started once json and math are loaded; argv: SCENARIO OUT BOUND
TRACED_RUN = """\
import json, math, runpy, sys, tracemalloc
scenario, out, bound = sys.argv[1:]
sys.argv = ["qarrival", "run", scenario, "--out", out]
tracemalloc.start()
try:
    runpy.run_module("qarrival.cli", run_name="__main__")
except SystemExit as stop:
    if stop.code:
        raise
peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
print(f"traced peak {peak:.1f} MiB, bound {bound} MiB")
sys.exit(0 if peak <= float(bound) else 1)
"""


def traced_run(work: Path, text: str, bound: float) -> dict:
    """`qarrival run` of `text` within a traced peak of `bound` MiB; returns its summary."""
    child("-c", TRACED_RUN, write(work / "scenario.txt", text), work / "out", bound)
    return json.loads((work / "out" / "summary.json").read_text())


def enters(s: dict, expected: float):
    require(s["converged"] is True and abs(s["p_entry_final"] - expected) <= 1e-6 * expected,
            f"converged {s['converged']}, p_entry_final {s['p_entry_final']!r} != {expected!r}")


def certified(s: dict, t_max: float):
    d = s["denominator"]
    require(d["converged"] is True and d["error_estimate"] <= 1e-6 * d["value"]
            and s["t_max"] < t_max, f"denominator {d}, t_max {s['t_max']!r}")


def csv_kernel(work: Path):
    """The CSV value kernel gives the bytes of "%.17g" % v on 10^7 seeded random doubles."""
    import numpy as np
    from test_csv_format import kernel_text

    rng = np.random.default_rng(20261019)
    checked = 0
    for batch in range(100):   # 10^5 values a batch: bit patterns, then values of every scale
        if batch % 2:
            values = rng.standard_normal(10 ** 5) * 10.0 ** rng.integers(-30, 30, 10 ** 5)
        else:
            values = rng.integers(0, 2 ** 64, 10 ** 5, dtype=np.uint64).view(float)
        got = kernel_text(values).split(b"\n")[:-1]
        expected = [("%.17g" % v).encode() for v in values.tolist()]
        bad = [(v, g, e) for v, g, e in zip(values.tolist(), got, expected) if g != e]
        require(len(got) == len(expected) and not bad,
                f"{len(got)} texts of {len(expected)}; (value, kernel, %) {bad[:3]}")
        checked += values.size
    print(f"kernel against %.17g: {checked} values, 0 mismatches")
    require(checked == 10 ** 7, f"{checked} values")


def sweep_jobs(work: Path):
    sweep_inputs(work)
    for jobs in (2, 1):
        cli("sweep", work / "k.sweep", "--out", work / f"jobs{jobs}", "--jobs", jobs)
    identical(work / "jobs1", work / "jobs2")


def shared_rows(work: Path):
    """The sweep-k rows (--jobs 1) at k = 0.5, 0.1 and 0.8 equal standalone runs, and all 8
    hold the k = 0.5 run's entry_curve.csv and arrival.csv."""
    narrow = sweep_inputs(work)
    rows = work / "jobs1"
    cli("sweep", work / "k.sweep", "--out", rows, "--jobs", 1)
    cli("run", work / "narrow.txt", "--out", work / "narrow")
    identical(work / "narrow", rows / "coupling.k=0.5")
    for k in ("0.1", "0.8"):       # rows are named by their value at %.17g
        scenario = write(work / f"narrow-{k}.txt", narrow + f"coupling.k = {k}\n")
        cli("run", scenario, "--out", work / f"narrow-{k}")
        identical(work / f"narrow-{k}", rows / f"coupling.k={float(k):.17g}")
    row_dirs = sorted(rows.glob("coupling.k=*"))
    for row in row_dirs:
        for name in ("entry_curve.csv", "arrival.csv"):
            identical(work / "narrow" / name, row / name)
    require(len(row_dirs) == 8, f"{len(row_dirs)} rows, not 8")


def grid_dt_row(work: Path):
    narrow = sweep_inputs(work)
    dt_sweep = write(work / "dt.sweep", "sweep.scenario = narrow.txt\n"
                     "sweep.parameter = grid.dt\nsweep.values = 0.05 0.25\n")
    cli("sweep", dt_sweep, "--out", work / "out", "--jobs", 2)
    cli("run", write(work / "dt.txt", narrow + "grid.dt = 0.25\n"), "--out", work / "single")
    identical(work / "single", work / "out" / "grid.dt=0.25")


def fine_step(work: Path):
    narrow = sweep_inputs(work)
    s = run(write(work / "fine.txt", narrow + "quadrature.dt = 0.0005\n"), work / "out")
    ref = json.loads((BENCH / "reference.json").read_text())["mean_arrival"]["narrow_point"]
    require(s["converged"] is True and s["mean_arrival"] is not None
            and abs(s["mean_arrival"] - ref) <= 1e-6 * ref,
            f"converged {s['converged']}, mean_arrival {s['mean_arrival']!r}, reference {ref!r}")


def sigma_row(work: Path):
    sweep_inputs(work)
    sigma_sweep = write(work / "sigma.sweep", "sweep.scenario = narrow.txt\n"
                        "sweep.parameter = amplitude.sigma_p\nsweep.values = -0.5 0.5\n")
    cli("sweep", sigma_sweep, "--out", work / "out")
    with open(work / "out" / "sweep.csv", newline="") as fh:
        errors = [row["error"] for row in csv.DictReader(fh)]
    require(any(e.startswith("amplitude.sigma_p:") for e in errors), f"errors {errors}")


def sphere_certified(work: Path):
    certified(run(write(work / "sphere.txt", SPHERE + "detector.radius = 0.5\n"),
                  work / "out"), 13)


def blocked_fold(work: Path):
    text = (SPHERE + "detector.radius = 0.5\n"
            "quadrature.polar_nodes = 24\nquadrature.azimuth_nodes = 24\n")
    s = run(write(work / "sphere24.txt", text), work / "out", limit=True)
    enters(s, s["omega"] / (4.0 * math.pi))


def sphere12(work: Path):
    s = traced_run(work, SPHERE + "detector.radius = 12\n", 12.0)
    enters(s, s["omega"] / (4.0 * math.pi))


def sphere18(work: Path):
    text = (SPHERE + "detector.radius = 18\n"
            "quadrature.polar_nodes = 4\nquadrature.azimuth_nodes = 4\n")
    s = traced_run(work, text, 13.0)
    enters(s, s["omega"] / (4.0 * math.pi))


def wide16(work: Path):
    """The closure residual (4.1e-4 at the default step) is not gated here."""
    text = ("amplitude.kind = separable\namplitude.axis = 0 0 1\n"
            "amplitude.angular_sigma = 0.05\n" + SPHERE + "detector.radius = 18\n"
            "quadrature.polar_nodes = 16\nquadrature.azimuth_nodes = 16\n")
    s = traced_run(work, text, 13.0)
    enters(s, s["p_direction"])


def tilt16(work: Path):
    s = traced_run(work, TILT16, 12.0)
    enters(s, s["p_direction"])


def threads(work: Path):
    """`qarrival run` writes the same bytes whatever BLAS thread count its environment
    asks for: the volume workload's iso.txt at seed 0, and the tilted sphere."""
    from workloads import WORKLOADS, write_inputs
    write_inputs(WORKLOADS["volume"], 0, str(work))
    unset = {k: v for k, v in ENV.items()
             if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    envs = {"unset": unset, "openblas1": {**unset, "OPENBLAS_NUM_THREADS": "1"},
            "openblas2": {**unset, "OPENBLAS_NUM_THREADS": "2"},
            "omp2": {**unset, "OMP_NUM_THREADS": "2"}}
    for scenario in (work / "iso.txt", write(work / "tilt16.txt", TILT16)):
        for name, env in envs.items():
            cli("run", scenario, "--out", work / f"{scenario.stem}-{name}", env=env)
            identical(work / f"{scenario.stem}-unset", work / f"{scenario.stem}-{name}")


# a cap's psi_D at 256 x 256 channels equals it at 32 x 32 to 1e-12
CAP_PSI_256 = """\
import sys, qarrival as qa
s = qa.EmissionEvent(x0=[0, 0, 0], t0=0.0, mass=1.0)
a = qa.isotropic_gaussian(5.0, 0.5)
d = qa.cap_detector([0, 0, 1], 0.05, 19.0, 21.0, s)
psi = lambda n: qa.eval_detector_wavefunction(
    a, [0.0, 0.05, 20.0], 4.0, d, s, qa.QuadratureSpec(polar_nodes=n, azimuth_nodes=n))
v, ref = psi(256), psi(32)
print(v, ref)
sys.exit(0 if abs(v - ref) <= 1e-12 * abs(ref) else 1)
"""

# half-angle 3e-8: the channel distances at 20 z span 2 ulps, and the fold takes
# one node; psi_D is the sum of its directions' components to 1e-12
THIN_CAP_PSI = """\
import sys, numpy as np, qarrival as qa
from qarrival import wavepacket as wp
s = qa.EmissionEvent(x0=[0, 0, 0], t0=0.0, mass=1.0)
a = qa.isotropic_gaussian(5.0, 0.5)
d = qa.cap_detector([0, 0, 1], 3e-8, 19.0, 21.0, s)
q = qa.QuadratureSpec()
x = np.array([0.0, 0.0, 20.0])
dirs, gains = wp._cap_channels(a, d, q)
v = qa.eval_detector_wavefunction(a, x, 4.0, d, s, q)
ref = sum(g * qa.eval_angular_component(a, wp.AngularComponentRequest(n, x, 4.0), s, q)
          for n, g in zip(dirs, gains))
print(v, ref)
sys.exit(0 if abs(v - ref) <= 1e-12 * abs(ref) else 1)
"""


def cap_psi(work: Path):
    child("-c", CAP_PSI_256, limit=True)
    child("-c", THIN_CAP_PSI)


def two_sided(work: Path):
    certified(run(write(work / "near.txt", "detector.position = 0 0 2\n"), work / "out"), 9)


def coarse_step(work: Path):
    s = run(write(work / "coarse.txt", "detector.position = 0 0 20\nquadrature.dt = 0.3\n"),
            work / "out")
    require(s["denominator"]["converged"] is True and s["mean_arrival"] is not None
            and abs(s["mean_arrival"] - 3.92233) <= 1e-5 * 3.92233,
            f"denominator {s['denominator']}, mean_arrival {s['mean_arrival']!r}")


def long_grid(work: Path):
    rss = {}
    for t_end in (5000, 20000):
        scenario = write(work / f"t{t_end}.txt",
                         SPHERE + f"detector.radius = 0.5\ngrid.t_end = {t_end}\n")
        rss[t_end] = cli("run", scenario, "--out", work / f"out{t_end}")
        print(f"grid.t_end = {t_end}: maxrss {rss[t_end]:.1f} MB")
    require(rss[20000] <= 1.1 * rss[5000], "maxrss grew with the grid")


def long_sweep(work: Path):
    """A coupling.k sweep (0.25 0.5) of the grid.t_end 5000 sphere is within 10% of one
    run's maxrss; the run's k is 0.5, and its row holds the same bytes."""
    scenario = write(work / "t5000.txt", SPHERE + "detector.radius = 0.5\ngrid.t_end = 5000\n")
    k_sweep = write(work / "k.sweep", "sweep.scenario = t5000.txt\n"
                    "sweep.parameter = coupling.k\nsweep.values = 0.25 0.5\n")
    run_rss = cli("run", scenario, "--out", work / "run")
    sweep_rss = cli("sweep", k_sweep, "--out", work / "sweep")
    print(f"maxrss: run {run_rss:.1f} MB, sweep {sweep_rss:.1f} MB")
    identical(work / "run", work / "sweep" / "coupling.k=0.5")
    require(sweep_rss <= 1.1 * run_rss, "the sweep's maxrss is above one run's")


CHECKS = {check.__name__: check for check in (
    csv_kernel, sweep_jobs, shared_rows, grid_dt_row, fine_step, sigma_row, sphere_certified,
    blocked_fold, sphere12, sphere18, wide16, tilt16, threads, cap_psi, two_sided, coarse_step,
    long_grid, long_sweep)} | {
    "bench_sweep_k": partial(bench_gate, "sweep-k", 0),
    "bench_volume": partial(bench_gate, "volume", 0),
    "bench_point": partial(bench_gate, "point", 0),
    "bench_point_traced": partial(bench_gate, "point", 1),
    "bench_sweep_k_traced": partial(bench_gate, "sweep-k", 1),
    "bench_volume_traced": partial(bench_gate, "volume", 1),
}


def main(argv: list) -> int:
    names = list(CHECKS) if argv == ["all"] else argv
    if not names or not set(names) <= set(CHECKS):
        print(f"usage: ci_checks.py all | NAME...\nchecks: {' '.join(CHECKS)}", file=sys.stderr)
        return 2
    sys.stdout.reconfigure(line_buffering=True)
    sys.path[1:1] = [str(SRC), str(BENCH)]     # for qarrival, test_csv_format and workloads
    if len(names) == 1:
        with tempfile.TemporaryDirectory(prefix=f"ci-{names[0]}-") as work:
            CHECKS[names[0]](Path(work))
        return 0
    failed = []
    for name in names:
        start = time.perf_counter()
        code = subprocess.run([sys.executable, __file__, name]).returncode
        print(f"== {name}: exit {code} in {time.perf_counter() - start:.1f} s")
        failed += [name] if code else []
    print(f"{len(names) - len(failed)} of {len(names)} checks passed; failed: {failed}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
