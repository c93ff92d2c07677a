import concurrent.futures
import json
import os
import sys
import time
from types import SimpleNamespace

import numpy as np
import pytest

import qarrival as qa
from qarrival import ScenarioError
from qarrival import arrival as arrival_mod
from qarrival import detector as detector_mod
from qarrival import probability as prob_mod
from qarrival import quadrature as quad_mod
from qarrival import scenario as scenario_mod
from qarrival.cli import main as cli_main
from qarrival.scenario import apply_parameter, load_table

MINIMAL = """
detector.kind = sphere
detector.center = 0 0 20
detector.radius = 0.5
"""

POINT_FAST = """
amplitude.p0 = 5
amplitude.sigma_p = 0.05
detector.kind = point
detector.position = 0 0 100
"""


def test_minimal_defaults():
    s = qa.parse_scenario_text(MINIMAL)
    assert s.emission.x0 == (0.0, 0.0, 0.0)
    assert s.emission.mass == 1.0
    assert s.amplitude.kind == "isotropic-gaussian"
    assert s.amplitude.p0 == 5.0
    assert s.coupling_k == 0.5
    assert s.quadrature.dt is None
    assert not s.is_point


def test_coupling_range_names_field():
    with pytest.raises(ScenarioError) as err:
        qa.parse_scenario_text(MINIMAL + "coupling.k = 1.5\n")
    assert err.value.field == "coupling.k"


def test_conflicting_detector_kinds():
    with pytest.raises(ScenarioError) as err:
        qa.parse_scenario_text(MINIMAL + "detector.position = 0 0 5\n")
    assert err.value.field == "detector.position"
    assert "exactly one" in str(err.value)


def test_unknown_and_duplicate_keys():
    with pytest.raises(ScenarioError) as err:
        qa.parse_scenario_text("detector.shape = box\n")
    assert err.value.field == "detector.shape"
    with pytest.raises(ScenarioError):
        qa.parse_scenario_text(MINIMAL + "detector.radius = 0.7\n")


def test_bad_values_name_fields():
    with pytest.raises(ScenarioError) as err:
        qa.parse_scenario_text(MINIMAL + "emission.mass = -2\n")
    assert err.value.field == "emission.mass"
    with pytest.raises(ScenarioError) as err:
        qa.parse_scenario_text(MINIMAL + "emission.x0 = 1 2\n")
    assert err.value.field == "emission.x0"
    with pytest.raises(ScenarioError) as err:
        qa.parse_scenario_text("detector.kind = cap\ndetector.axis = 0 0 1\n")
    assert err.value.field == "detector.half_angle"


@pytest.mark.parametrize("line", [
    "emission.t0 = nan",
    "quadrature.dt = inf",
    "amplitude.sigma_p = inf",
    "amplitude.p0 = inf",
    "emission.x0 = 0 nan 0",
])
def test_cli_nonfinite_value_names_key(tmp_path, capsys, line):
    path = tmp_path / "scn.txt"
    path.write_text(MINIMAL + line + "\n")
    assert cli_main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert line.split(" = ")[0] in capsys.readouterr().err


def test_round_trip_exact():
    texts = [
        MINIMAL,
        POINT_FAST,
        """
        emission.x0 = 0.1 -0.2 0.30000000000000004
        emission.t0 = 1.5
        emission.mass = 2.25
        amplitude.kind = separable
        amplitude.p0 = 4.75
        amplitude.sigma_p = 0.3331
        amplitude.axis = 0 1 0
        amplitude.angular_sigma = 0.04
        detector.kind = cap
        detector.axis = 0 1 0
        detector.half_angle = 0.12
        detector.r_inner = 18.7
        detector.r_outer = 21.1
        coupling.k = 0.75
        quadrature.dt = 0.003
        quadrature.eps_tail = 1e-07
        grid.t_end = 40
        """,
    ]
    for text in texts:
        s = qa.parse_scenario_text(text)
        assert qa.parse_scenario_text(qa.emit_scenario(s)) == s


def test_table_loading(tmp_path):
    table = tmp_path / "radial.txt"
    table.write_text("# momentum table\n1.0 0.5\n2.0 0.25,-0.75\n3.0 0\n")
    grid, vals = load_table(table)
    np.testing.assert_allclose(grid, [1.0, 2.0, 3.0])
    np.testing.assert_allclose(vals, [0.5, 0.25 - 0.75j, 0.0])


def test_tabulated_scenario_runs(tmp_path):
    p = np.linspace(1.0, 9.0, 401)
    lines = [f"{x:.17g} {v:.17g}" for x, v in
             zip(p, np.exp(-((p - 5.0) ** 2) / (4 * 0.25)))]
    (tmp_path / "radial.txt").write_text("\n".join(lines) + "\n")
    (tmp_path / "scn.txt").write_text(
        "amplitude.kind = tabulated\n"
        "amplitude.radial_file = radial.txt\n"
        "detector.kind = point\n"
        "detector.position = 0 0 30\n")
    s = qa.parse_scenario(tmp_path / "scn.txt")
    summary = qa.run_scenario(s, tmp_path / "out")
    assert summary["converged"]
    assert summary["classical_flight"] is None
    assert 5.0 < summary["mean_arrival"] < 7.5


def test_run_outputs_and_determinism(tmp_path):
    s = qa.parse_scenario_text(POINT_FAST)
    a, b = tmp_path / "a", tmp_path / "b"
    sa = qa.run_scenario(s, a)
    sb = qa.run_scenario(s, b)
    assert sa == sb
    for name in ("entry_curve.csv", "schedule.csv", "arrival.csv", "summary.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    summary = json.loads((a / "summary.json").read_text())
    assert summary["schema_version"] == 1
    assert summary["point_detector"] is True
    assert abs(summary["mean_arrival"] - 20.0) <= 0.2
    assert summary["classical_flight"] == 20.0
    assert summary["consistency_residual_max"] <= 1e-6


def test_point_run_builds_one_occupation_profile(tmp_path, monkeypatch):
    real = quad_mod.semiinfinite_profile
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    # patch every binding a module may have imported, so a second pass
    # anywhere in the pipeline is counted
    for mod in (quad_mod, prob_mod, arrival_mod):
        if hasattr(mod, "semiinfinite_profile"):
            monkeypatch.setattr(mod, "semiinfinite_profile", counted)
    monkeypatch.setattr(prob_mod, "_PROFILE_CACHE", {})
    qa.run_scenario(qa.parse_scenario_text(POINT_FAST), tmp_path)
    assert len(calls) == 1

    def t_column(name):
        lines = (tmp_path / name).read_bytes().splitlines()[1:]
        return [line.split(b",")[0] for line in lines]

    assert t_column("arrival.csv") == t_column("entry_curve.csv")


def test_volume_run_has_no_arrival_csv(tmp_path):
    s = qa.parse_scenario_text(MINIMAL)
    summary = qa.run_scenario(s, tmp_path / "out")
    assert not (tmp_path / "out" / "arrival.csv").exists()
    assert summary["mean_arrival"] is None
    assert summary["omega"] == pytest.approx(0.0019638023005622307)


def test_sweep_single_value_equals_run(tmp_path):
    (tmp_path / "scn.txt").write_text(POINT_FAST)
    (tmp_path / "sweep.txt").write_text(
        "sweep.scenario = scn.txt\n"
        "sweep.parameter = coupling.k\n"
        "sweep.values = 0.5\n")
    spec = qa.parse_sweep(tmp_path / "sweep.txt")
    rows = qa.run_sweep(spec, tmp_path / "sweep_out")
    single = qa.run_scenario(qa.parse_scenario(tmp_path / "scn.txt"),
                             tmp_path / "single_out")
    assert len(rows) == 1 and rows[0]["status"] == "ok"
    for key in ("p_direction", "p_entry_final", "p_registered_final",
                "mean_arrival", "classical_flight", "t_max", "converged"):
        assert rows[0][key] == single[key]
    row_summary = (tmp_path / "sweep_out" / "coupling.k=0.5" / "summary.json").read_bytes()
    assert row_summary == (tmp_path / "single_out" / "summary.json").read_bytes()


def test_sweep_distance_tracks_classical_flight(tmp_path):
    (tmp_path / "scn.txt").write_text(POINT_FAST)
    (tmp_path / "sweep.txt").write_text(
        "sweep.scenario = scn.txt\n"
        "sweep.parameter = detector.distance\n"
        "sweep.values = 100 50 200\n")
    rows = qa.run_sweep(qa.parse_sweep(tmp_path / "sweep.txt"),
                        tmp_path / "out", jobs=2)
    assert [r["value"] for r in rows] == [50.0, 100.0, 200.0]
    for row, expected in zip(rows, (10.0, 20.0, 40.0)):
        assert row["status"] == "ok"
        assert abs(row["mean_arrival"] - expected) <= 0.01 * expected


def test_threaded_sweep_survives_profile_eviction(tmp_path, monkeypatch):
    # a one-entry cache makes every row evict the previous row's profile
    monkeypatch.setattr(prob_mod, "_PROFILE_CACHE", {})
    monkeypatch.setattr(prob_mod, "_PROFILE_CACHE_MAX", 1)
    (tmp_path / "scn.txt").write_text(POINT_FAST)
    (tmp_path / "sweep.txt").write_text(
        "sweep.scenario = scn.txt\n"
        "sweep.parameter = detector.distance\n"
        "sweep.values = 50 75 100 150\n")
    spec = qa.parse_sweep(tmp_path / "sweep.txt")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = qa.run_sweep(spec, tmp_path / "threaded", jobs=2)
    finally:
        sys.setswitchinterval(interval)
    single = qa.run_sweep(spec, tmp_path / "single", jobs=1)
    assert [row["status"] for row in threaded] == ["ok"] * 4
    assert threaded == single


def _tree_bytes(root):
    files = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                files[os.path.relpath(path, root)] = fh.read()
    return files


@pytest.mark.parametrize("parameter, values", [
    ("coupling.k", "0.25 0.5 0.75"),          # one profile shared by every row
    ("detector.distance", "50 100 150"),      # one profile per row
])
def test_process_pool_sweep_matches_single_job(tmp_path, monkeypatch, parameter, values):
    monkeypatch.setattr(scenario_mod, "_usable_cores", lambda: 2)
    (tmp_path / "scn.txt").write_text(POINT_FAST)
    (tmp_path / "sweep.txt").write_text(
        f"sweep.scenario = scn.txt\nsweep.parameter = {parameter}\n"
        f"sweep.values = {values}\n")
    spec = qa.parse_sweep(tmp_path / "sweep.txt")
    pooled = qa.run_sweep(spec, tmp_path / "pooled", jobs=2)
    single = qa.run_sweep(spec, tmp_path / "single", jobs=1)
    assert [row["status"] for row in pooled] == ["ok"] * 3
    assert pooled == single
    pooled_files = _tree_bytes(tmp_path / "pooled")
    assert len(pooled_files) == 1 + 3 * 4        # sweep.csv + 4 files per row
    assert pooled_files == _tree_bytes(tmp_path / "single")


def test_sweep_survives_dead_worker(tmp_path, monkeypatch, capsys):
    # the worker of the last row exits once the other rows have written
    # their summaries; fork children inherit the patched run_scenario
    monkeypatch.setattr(scenario_mod, "_usable_cores", lambda: 2)
    run_scenario = scenario_mod.run_scenario
    out = tmp_path / "out"
    others = [out / "coupling.k=0.25" / "summary.json",
              out / "coupling.k=0.5" / "summary.json"]

    def dying_run_scenario(s, out_dir):
        if s.coupling_k != 0.75:
            return run_scenario(s, out_dir)
        deadline = time.monotonic() + 60.0
        while not all(p.exists() for p in others) and time.monotonic() < deadline:
            time.sleep(0.01)
        time.sleep(0.5)                  # let the finished rows reach the parent
        os._exit(1)

    monkeypatch.setattr(scenario_mod, "run_scenario", dying_run_scenario)
    (tmp_path / "scn.txt").write_text(POINT_FAST)
    sweep = tmp_path / "k.sweep"
    sweep.write_text("sweep.scenario = scn.txt\nsweep.parameter = coupling.k\n"
                     "sweep.values = 0.25 0.5 0.75\n")
    assert cli_main(["sweep", str(sweep), "--out", str(out), "--jobs", "2"]) == 0
    assert "(3 rows, 1 failed)" in capsys.readouterr().out
    lines = (out / "sweep.csv").read_text().splitlines()
    assert len(lines) == 4
    statuses = [line.split(",")[2] for line in lines[1:]]
    assert statuses == ["ok", "ok", "error"]
    assert "worker process exited" in lines[3]


class _RecordingExecutor:
    """Stands in for ProcessPoolExecutor: records the worker count and runs
    each row in this process."""

    started: list = []

    def __init__(self, max_workers, mp_context=None):
        self.started.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = concurrent.futures.Future()
        future.set_result(fn(*args))
        return future


@pytest.mark.parametrize("jobs, n_values, cores, expected", [
    (64, 3, 4, [3]),            # capped by the row count
    (64, 8, 4, [4]),            # capped by the usable cores
    (2, 8, 4, [2]),             # as asked
    (8, 8, 1, []),              # one usable core: the plain loop, no pool
    (1, 8, 4, []),
])
def test_sweep_worker_count_is_bounded(tmp_path, monkeypatch, jobs, n_values, cores,
                                       expected):
    monkeypatch.setattr(_RecordingExecutor, "started", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingExecutor)
    monkeypatch.setattr(scenario_mod, "_usable_cores", lambda: cores)
    monkeypatch.setattr(scenario_mod, "run_scenario", lambda s, out_dir: {
        name: 0.0 for name in ("p_direction", "p_entry_final", "p_registered_final",
                               "mean_arrival", "classical_flight", "t_max",
                               "converged", "consistency_residual_max")})
    (tmp_path / "scn.txt").write_text(POINT_FAST)
    values = " ".join(str(0.1 * (i + 1)) for i in range(n_values))
    (tmp_path / "k.sweep").write_text("sweep.scenario = scn.txt\n"
                                      "sweep.parameter = coupling.k\n"
                                      f"sweep.values = {values}\n")
    rows = qa.run_sweep(qa.parse_sweep(tmp_path / "k.sweep"), tmp_path / "out", jobs=jobs)
    assert [row["status"] for row in rows] == ["ok"] * n_values
    assert _RecordingExecutor.started == expected


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_cli_rejects_jobs_below_one(tmp_path, capsys, jobs):
    with pytest.raises(SystemExit) as exit_info:
        cli_main(["sweep", str(tmp_path / "k.sweep"), "--jobs", jobs])
    assert exit_info.value.code == 2
    assert "--jobs" in capsys.readouterr().err


def test_sweep_coupling_ratio(tmp_path):
    (tmp_path / "scn.txt").write_text(POINT_FAST)
    (tmp_path / "sweep.txt").write_text(
        "sweep.scenario = scn.txt\n"
        "sweep.parameter = coupling.k\n"
        "sweep.values = 0.25 0.5 0.75\n")
    rows = qa.run_sweep(qa.parse_sweep(tmp_path / "sweep.txt"), tmp_path / "out")
    for row in rows:
        ratio = row["p_registered_final"] / row["p_entry_final"]
        assert abs(ratio - row["value"]) <= 1e-6


def test_sweep_row_failure_recorded(tmp_path):
    (tmp_path / "scn.txt").write_text(POINT_FAST)
    (tmp_path / "sweep.txt").write_text(
        "sweep.scenario = scn.txt\n"
        "sweep.parameter = coupling.k\n"
        "sweep.values = 0.5 1.5\n")
    rows = qa.run_sweep(qa.parse_sweep(tmp_path / "sweep.txt"), tmp_path / "out")
    by_value = {row["value"]: row for row in rows}
    assert by_value[0.5]["status"] == "ok"
    assert by_value[1.5]["status"] == "error"
    assert "k" in by_value[1.5]["error"]
    sweep_csv = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
    assert sweep_csv[0].startswith("parameter,value,status")
    assert len(sweep_csv) == 3


def test_apply_distance_moves_along_line_of_sight():
    s = qa.parse_scenario_text(POINT_FAST)
    moved = apply_parameter(s, "detector.distance", 42.0)
    np.testing.assert_allclose(moved.detector.position, (0.0, 0.0, 42.0))
    with pytest.raises(ScenarioError):
        apply_parameter(s, "detector.ghost", 1.0)


def test_cli_validate(tmp_path, capsys):
    path = tmp_path / "scn.txt"
    path.write_text(MINIMAL)
    assert cli_main(["validate", str(path)]) == 0
    path.write_text(MINIMAL + "coupling.k = 7\n")
    assert cli_main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert "coupling.k" in err


def test_cli_run(tmp_path):
    path = tmp_path / "scn.txt"
    path.write_text(POINT_FAST)
    out = tmp_path / "out"
    assert cli_main(["run", str(path), "--out", str(out)]) == 0
    assert (out / "summary.json").exists()


def test_cli_run_scenario_output_dir(tmp_path):
    path = tmp_path / "scn.txt"
    path.write_text(POINT_FAST + "output.dir = from_key\n")
    s = qa.parse_scenario(path)
    assert s.output_dir == "from_key"
    assert qa.parse_scenario_text(qa.emit_scenario(s), str(tmp_path)) == s
    assert cli_main(["run", str(path)]) == 0
    assert (tmp_path / "from_key" / "summary.json").exists()


def test_cli_io_error(tmp_path):
    path = tmp_path / "scn.txt"
    path.write_text(POINT_FAST)
    blocker = tmp_path / "blocked"
    blocker.write_text("a file, not a directory")
    assert cli_main(["run", str(path), "--out", str(blocker)]) == 4


def test_cli_strict_nonconvergence(tmp_path):
    path = tmp_path / "scn.txt"
    path.write_text(POINT_FAST + "quadrature.t_cap = 5\nquadrature.dt = 0.05\n")
    out = tmp_path / "out"
    assert cli_main(["run", str(path), "--out", str(out), "--strict"]) == 3
    summary = json.loads((out / "summary.json").read_text())
    assert summary["converged"] is False
    assert cli_main(["run", str(path), "--out", str(tmp_path / "out2")]) == 0


def test_cli_strict_closure_residual(tmp_path, capsys):
    # a 4-node grid leaves the closure residual far above criterion 3's 1e-6
    path = tmp_path / "scn.txt"
    path.write_text("amplitude.sigma_p = 0.05\ndetector.kind = point\n"
                    "detector.position = 0 0 100\ncoupling.k = 0.5\n"
                    "grid.dt = 60\n")
    assert cli_main(["run", str(path), "--out", str(tmp_path / "lax")]) == 0
    summary = json.loads((tmp_path / "lax" / "summary.json").read_text())
    assert summary["converged"] is True
    assert summary["consistency_residual_max"] > 0.1
    capsys.readouterr()
    assert cli_main(["run", str(path), "--out", str(tmp_path / "strict"),
                     "--strict"]) == 3
    err = capsys.readouterr().err
    assert f"closure residual {summary['consistency_residual_max']:.3e}" in err
    assert ((tmp_path / "strict" / "summary.json").read_bytes()
            == (tmp_path / "lax" / "summary.json").read_bytes())
    sweep = tmp_path / "k.sweep"
    sweep.write_text("sweep.scenario = scn.txt\nsweep.parameter = coupling.k\n"
                     "sweep.values = 0.5\n")
    assert cli_main(["sweep", str(sweep), "--out", str(tmp_path / "sw")]) == 0
    assert cli_main(["sweep", str(sweep), "--out", str(tmp_path / "sw2"),
                     "--strict"]) == 3
    assert "closure residual" in capsys.readouterr().err


def test_cli_closure_underflow_is_numerical_error(tmp_path, capsys):
    path = tmp_path / "scn.txt"
    path.write_text("amplitude.sigma_p = 0.05\ndetector.kind = point\n"
                    "detector.position = 0 0 100\ncoupling.k = 0.99\n"
                    "grid.dt = 60\n")
    assert cli_main(["run", str(path), "--out", str(tmp_path / "out")]) == 3
    assert "numerical error: detector propagation" in capsys.readouterr().err


def test_cli_missing_file(tmp_path):
    missing = str(tmp_path / "nope.txt")
    assert cli_main(["validate", missing]) == 4


def csv_columns():
    """Five columns of 5000 rows (two write blocks) with signed zeros,
    subnormals, huge values, exact integers and values that need all 17
    significant digits."""
    rng = np.random.default_rng(3)
    cols = rng.standard_normal((5, 5000)) * 10.0 ** rng.integers(-300, 300, (5, 5000))
    special = [-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, 1.0, 42.0, -7.0,
               2.0 ** 53, 0.1, 1.0 / 3.0, np.pi, 1e-300, 2.2250738585072014e-308]
    for j, col in enumerate(cols):
        col[j:j + len(special)] = special
        col[4090 + j:4090 + j + len(special)] = special[::-1]
    return cols


@pytest.mark.parametrize("writer", ["entry_curve", "schedule", "arrival"])
def test_csv_writers_match_per_row_format(tmp_path, writer):
    t, a, b, c, d = csv_columns()
    if writer == "entry_curve":
        obj = SimpleNamespace(t=t, p_conditional=a, p_entry=b)
        header, columns = "t,p_conditional,p_entry", (t, a, b)
        prob_mod.write_entry_curve_csv(obj, tmp_path / "out.csv")
    elif writer == "schedule":
        obj = SimpleNamespace(t=t, rate=a, angle=b, entry_rate=d)
        header = "t,rate,angle,p_registered,entry_rate"
        columns = (t, a, b, np.sin(b) ** 2, d)
        detector_mod.write_schedule_csv(obj, tmp_path / "out.csv")
    else:
        obj = SimpleNamespace(t=t, density=a)
        header, columns = "t,density", (t, a)
        arrival_mod.write_arrival_csv(obj, tmp_path / "out.csv")
    expected = header + "\n" + "".join(
        ",".join(f"{v:.17g}" for v in row) + "\n" for row in zip(*columns))
    assert (tmp_path / "out.csv").read_bytes() == expected.encode("utf-8")
