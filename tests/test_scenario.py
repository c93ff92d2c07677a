import csv
import json
import os
import subprocess
import sys
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import qarrival as qa
from qarrival import IntegrationError, ScenarioError
from qarrival import arrival as arrival_mod
from qarrival import detector as detector_mod
from qarrival import probability as prob_mod
from qarrival import quadrature as quad_mod
from qarrival import scenario as scenario_mod
from qarrival.cli import main as cli_main
from qarrival.probability import TimeGridSpec
from qarrival.quadrature import QuadratureSpec
from qarrival.scenario import (Scenario, ScenarioAmplitude, ScenarioDetector,
                               ScenarioEmission, apply_parameter, load_table)

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
    with pytest.raises(ScenarioError) as err:
        qa.parse_scenario_text(MINIMAL + "quadrature.eps_tail = 2\n")
    assert err.value.field == "quadrature.eps_tail"
    with pytest.raises(ScenarioError) as err:
        qa.parse_scenario_text(MINIMAL + "quadrature.polar_nodes = 0\n")
    assert err.value.field == "quadrature.polar_nodes"


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


HEADER = "# scenario file (flat keys; units: hbar = 1, kinetic energy p^2 / 2m)\n"

# one scenario per detector kind and per amplitude kind, with the text
# emit_scenario writes for it: keys in registry order, unset keys and
# quadrature keys at their defaults left out, floats at 17 digits
GOLDEN_EMIT = [
    (Scenario(detector=ScenarioDetector(kind="sphere", center=(0.0, 0.0, 20.0),
                                        radius=0.5)),
     HEADER
     + "emission.x0 = 0 0 0\n"
       "emission.t0 = 0\n"
       "emission.mass = 1\n"
       "amplitude.kind = isotropic-gaussian\n"
       "amplitude.p0 = 5\n"
       "amplitude.sigma_p = 0.5\n"
       "detector.kind = sphere\n"
       "detector.center = 0 0 20\n"
       "detector.radius = 0.5\n"
       "coupling.k = 0.5\n"),
    (Scenario(emission=ScenarioEmission(x0=(0.1, -0.2, 1e-300), t0=1.5, mass=2.25),
              amplitude=ScenarioAmplitude(kind="separable", p0=4.75, sigma_p=1 / 3,
                                          axis=(0.0, 1.0, 0.0), angular_sigma=0.04),
              detector=ScenarioDetector(kind="cap", axis=(0.0, 1.0, 0.0),
                                        half_angle=0.12, r_inner=18.7, r_outer=21.1),
              coupling_k=0.75,
              quadrature=QuadratureSpec(polar_nodes=12, dt=0.003,
                                        eps_tail=1e-6, rtol=1e-7),
              grid=TimeGridSpec(t_end=40.0)),
     HEADER
     + "emission.x0 = 0.10000000000000001 -0.20000000000000001 1e-300\n"
       "emission.t0 = 1.5\n"
       "emission.mass = 2.25\n"
       "amplitude.kind = separable\n"
       "amplitude.p0 = 4.75\n"
       "amplitude.sigma_p = 0.33333333333333331\n"
       "amplitude.axis = 0 1 0\n"
       "amplitude.angular_sigma = 0.040000000000000001\n"
       "detector.kind = cap\n"
       "detector.axis = 0 1 0\n"
       "detector.half_angle = 0.12\n"
       "detector.r_inner = 18.699999999999999\n"
       "detector.r_outer = 21.100000000000001\n"
       "coupling.k = 0.75\n"
       "quadrature.polar_nodes = 12\n"
       "quadrature.dt = 0.0030000000000000001\n"
       "quadrature.rtol = 9.9999999999999995e-08\n"
       "grid.t_end = 40\n"),
    (Scenario(amplitude=ScenarioAmplitude(kind="tabulated", p0=None, sigma_p=None,
                                          axis=(0.0, 0.0, 1.0),
                                          radial_file="radial.txt",
                                          angular_file="angular.txt"),
              detector=ScenarioDetector(kind="point", position=(0.0, 0.0, 100.0),
                                        reference_solid_angle=0.01),
              quadrature=QuadratureSpec(t_cap=500.0),
              grid=TimeGridSpec(dt=0.25), output_dir="out/tab"),
     HEADER
     + "emission.x0 = 0 0 0\n"
       "emission.t0 = 0\n"
       "emission.mass = 1\n"
       "amplitude.kind = tabulated\n"
       "amplitude.axis = 0 0 1\n"
       "amplitude.radial_file = radial.txt\n"
       "amplitude.angular_file = angular.txt\n"
       "detector.kind = point\n"
       "detector.position = 0 0 100\n"
       "detector.reference_solid_angle = 0.01\n"
       "coupling.k = 0.5\n"
       "quadrature.t_cap = 500\n"
       "grid.dt = 0.25\n"
       "output.dir = out/tab\n"),
]


@pytest.mark.parametrize("scenario, text", GOLDEN_EMIT,
                         ids=["sphere-isotropic", "cap-separable", "point-tabulated"])
def test_emit_golden_text(scenario, text):
    assert qa.emit_scenario(scenario) == text
    assert qa.parse_scenario_text(text) == scenario


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
    # every t_max is absolute, also after a late emission, and the curves
    # end at or before it
    late = qa.run_scenario(qa.parse_scenario_text(POINT_FAST + "emission.t0 = 3.25\n"),
                           tmp_path / "late")
    for out, summary in ((a, sa), (tmp_path / "late", late)):
        assert summary["t_max"] == summary["denominator"]["t_max"] \
            == summary["normalizer"]["t_max"]
        last_t = float((out / "entry_curve.csv").read_text().splitlines()[-1]
                       .split(",")[0])
        assert summary["t0"] < last_t <= summary["t_max"]
    assert late["t_max"] == sa["t_max"] + 3.25


def count_profiles(monkeypatch) -> list:
    """Count semiinfinite_profile calls: one entry per occupation profile."""
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
    return calls


@pytest.mark.parametrize("text", [
    POINT_FAST,
    # the direction factor must not change the time step: the arrival
    # statistics read the entry curve's profile
    POINT_FAST + "detector.reference_solid_angle = 0.01\n",
], ids=["no_direction_factor", "reference_solid_angle"])
def test_point_run_builds_one_occupation_profile(tmp_path, monkeypatch, text):
    calls = count_profiles(monkeypatch)
    qa.run_scenario(qa.parse_scenario_text(text), tmp_path)
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


@pytest.mark.parametrize("parameter, value", [("coupling.k", "0.5"),
                                              ("grid.dt", "0.25"),
                                              ("grid.t_end", "30"),
                                              ("quadrature.dt", "0.02"),
                                              ("quadrature.eps_tail", "0.5"),
                                              ("quadrature.t_cap", "30")])
def test_sweep_single_value_equals_run(tmp_path, parameter, value):
    # the row runs on the stages it shares with the template, the single run
    # computes its own
    (tmp_path / "scn.txt").write_text(POINT_FAST)
    (tmp_path / "sweep.txt").write_text(
        "sweep.scenario = scn.txt\n"
        f"sweep.parameter = {parameter}\n"
        f"sweep.values = {value}\n")
    spec = qa.parse_sweep(tmp_path / "sweep.txt")
    rows = qa.run_sweep(spec, tmp_path / "sweep_out")
    single = qa.run_scenario(
        qa.parse_scenario_text(POINT_FAST + f"{parameter} = {value}\n"),
        tmp_path / "single_out")
    assert len(rows) == 1 and rows[0]["status"] == "ok"
    for key in ("p_direction", "p_entry_final", "p_registered_final",
                "mean_arrival", "classical_flight", "t_max", "converged"):
        assert rows[0][key] == single[key]
    row_files = _tree_bytes(tmp_path / "sweep_out" / f"{parameter}={value}")
    assert len(row_files) == 4
    assert row_files == _tree_bytes(tmp_path / "single_out")


@pytest.mark.parametrize("parameter, values, profiles", [
    ("coupling.k", "0.25 0.5 0.75", 1),
    ("grid.dt", "0.1 0.2 0.4", 1),
    ("grid.t_end", "25 30 40", 1),
    ("detector.distance", "50 100 150", 3),
])
def test_sweep_profile_count(tmp_path, monkeypatch, parameter, values, profiles):
    calls = count_profiles(monkeypatch)
    (tmp_path / "scn.txt").write_text(POINT_FAST)
    (tmp_path / "sweep.txt").write_text(
        f"sweep.scenario = scn.txt\nsweep.parameter = {parameter}\n"
        f"sweep.values = {values}\n")
    rows = qa.run_sweep(qa.parse_sweep(tmp_path / "sweep.txt"), tmp_path / "out")
    assert [row["status"] for row in rows] == ["ok"] * 3
    assert len(calls) == profiles


def test_over_budget_template_shares_its_profile(tmp_path, monkeypatch):
    # the template's own grid (step 0.0002, 4,999,001 samples) is past the row
    # budget, but every row of a grid.dt sweep replaces it: the template
    # builds no entry curve, and its profile serves every row
    calls = count_profiles(monkeypatch)
    (tmp_path / "scn.txt").write_text(POINT_FAST + "grid.dt = 0.0002\n")
    (tmp_path / "sweep.txt").write_text(
        "sweep.scenario = scn.txt\nsweep.parameter = grid.dt\n"
        "sweep.values = 0.1 0.2 0.4\n")
    rows = qa.run_sweep(qa.parse_sweep(tmp_path / "sweep.txt"), tmp_path / "out")
    assert [row["status"] for row in rows] == ["ok"] * 3
    assert len(calls) == 1
    for dt in (0.1, 0.2, 0.4):
        qa.run_scenario(qa.parse_scenario_text(POINT_FAST + f"grid.dt = {dt}\n"),
                        tmp_path / "single" / str(dt))
        assert _tree_bytes(tmp_path / "out" / f"grid.dt={dt:.17g}") \
            == _tree_bytes(tmp_path / "single" / str(dt))


@pytest.mark.parametrize("text", [MINIMAL, POINT_FAST], ids=["volume", "point"])
def test_time_controls_resolved_once(tmp_path, monkeypatch, text):
    # one resolution per run, per validation and per coupling.k sweep: the
    # bound check, the profile and every row read the controls stage
    real = prob_mod.resolve_time_controls
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(prob_mod, "resolve_time_controls", counted)
    s = qa.parse_scenario_text(text)
    qa.run_scenario(s, tmp_path / "run")
    assert len(calls) == 1
    scenario_mod.check_scenario(s)
    assert len(calls) == 2
    (tmp_path / "scn.txt").write_text(text)
    (tmp_path / "sweep.txt").write_text(
        "sweep.scenario = scn.txt\nsweep.parameter = coupling.k\n"
        "sweep.values = 0.25 0.5 0.75\n")
    rows = qa.run_sweep(qa.parse_sweep(tmp_path / "sweep.txt"), tmp_path / "sweep")
    assert [row["status"] for row in rows] == ["ok"] * 3
    assert len(calls) == 3


def count_column_formats(monkeypatch) -> list:
    """Record each column block the CSV writers format, whether its table
    is written to a file or kept as text: the blocks of a block of rows go
    to `_format_columns` together, and to one `_format_block` call."""
    real = prob_mod._format_columns
    blocks = []

    def counted(group):
        blocks.extend(block.tobytes() for block in group)
        return real(group)

    monkeypatch.setattr(prob_mod, "_format_columns", counted)
    return blocks


def block_formats(formatted: list, column) -> set:
    """How many times each _CSV_BLOCK block of `column` was formatted."""
    return {formatted.count(column[lo:lo + prob_mod._CSV_BLOCK].tobytes())
            for lo in range(0, len(column), prob_mod._CSV_BLOCK)}


def test_coupling_sweep_formats_each_column_once(tmp_path, monkeypatch):
    formatted = count_column_formats(monkeypatch)
    (tmp_path / "scn.txt").write_text(POINT_FAST)
    (tmp_path / "sweep.txt").write_text(
        "sweep.scenario = scn.txt\nsweep.parameter = coupling.k\n"
        "sweep.values = 0.25 0.5 0.75\n")
    rows = qa.run_sweep(qa.parse_sweep(tmp_path / "sweep.txt"), tmp_path / "out", jobs=1)
    assert [row["status"] for row in rows] == ["ok"] * 3
    r = scenario_mod._prepare(qa.parse_scenario_text(POINT_FAST))
    curve, arrival = r["curve"].whole(), r["arrival"].whole()
    scheds = [detector_mod.coupling_schedule(curve, k) for k in (0.25, 0.5, 0.75)]
    # p_direction is 1, so p_entry has the bits of p_conditional and is never
    # formatted on its own; t, p_conditional, density and entry_rate once in
    # the sweep, rate, angle and p_registered once in each of the three rows
    assert curve.p_entry.tobytes() == curve.p_conditional.tobytes()
    assert arrival.t.tobytes() == curve.t.tobytes()
    once = [curve.t, curve.p_conditional, arrival.density, scheds[0].entry_rate]
    per_row = [c for sched in scheds for c in sched.csv_table()[1][1:4]]
    for column in once + per_row:
        assert block_formats(formatted, column) == {1}
    blocks = -(-curve.t.size // prob_mod._CSV_BLOCK)
    assert len(formatted) == blocks * (len(once) + len(per_row))
    for k in ("0.25", "0.5", "0.75"):
        qa.run_scenario(qa.parse_scenario_text(POINT_FAST + f"coupling.k = {k}\n"),
                        tmp_path / "single" / k)
        assert _tree_bytes(tmp_path / "out" / f"coupling.k={k}") \
            == _tree_bytes(tmp_path / "single" / k)


def write_k_sweep(tmp_path, text: str, values: str):
    (tmp_path / "scn.txt").write_text(text)
    (tmp_path / "sweep.txt").write_text(
        "sweep.scenario = scn.txt\nsweep.parameter = coupling.k\n"
        f"sweep.values = {values}\n")
    return qa.parse_sweep(tmp_path / "sweep.txt")


def test_coupling_sweep_holds_what_one_run_holds(tmp_path):
    # the template streams its shared files, and the texts of the schedule's
    # t and entry_rate, to temporary files, and each row reads them back a
    # block at a time; held whole, at ~150 B a row, they would lift the
    # sweep's peak to ~5x a run's at this grid
    text = POINT_FAST + "grid.t_end = 200\n"
    spec = write_k_sweep(tmp_path, text, "0.25 0.5 0.75")
    peaks = []
    # the sweep goes first, so it also builds the module caches
    for run in (lambda: qa.run_sweep(spec, tmp_path / "sweep"),
                lambda: qa.run_scenario(qa.parse_scenario_text(text), tmp_path / "run")):
        tracemalloc.start()
        try:
            run()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    rows = (tmp_path / "run" / "schedule.csv").read_bytes().count(b"\n") - 1
    assert rows > 30 * prob_mod._CSV_BLOCK
    assert peaks[0] <= 1.25 * peaks[1]


def test_coupling_sweep_checks_each_curve_block_once(tmp_path, monkeypatch):
    # the template's shared pass checks every block of the entry curve the
    # rows share; the rows read the same blocks without checking them again,
    # and a single run checks every block
    calls = []
    check = detector_mod._check_entry_rows

    def counted(*args, **kwargs):
        calls.append(kwargs["starts"])
        return check(*args, **kwargs)

    monkeypatch.setattr(detector_mod, "_check_entry_rows", counted)
    text = POINT_FAST + "grid.t_end = 200\n"
    spec = write_k_sweep(tmp_path, text, "0.25 0.5 0.75")
    assert [row["status"] for row in qa.run_sweep(spec, tmp_path / "sweep")] == ["ok"] * 3
    swept = list(calls)
    calls.clear()
    qa.run_scenario(qa.parse_scenario_text(text), tmp_path / "run")
    rows = (tmp_path / "run" / "entry_curve.csv").read_bytes().count(b"\n") - 1
    blocks = -(-rows // prob_mod._CSV_BLOCK)
    assert blocks > 30
    assert swept == calls == [True] + [False] * (blocks - 1)
    assert _tree_bytes(tmp_path / "sweep" / "coupling.k=0.5") == _tree_bytes(tmp_path / "run")


def fail_after_first_block(p_conditional, p_entry, starts):
    if not starts:
        raise IntegrationError("entry probability is not nondecreasing")


@pytest.mark.parametrize("case", ["ok", "template fails", "rows fail"])
def test_coupling_sweep_leaves_only_its_rows(tmp_path, monkeypatch, case):
    # the template's shared files are unnamed temporary files in the output
    # directory: none is left, none stays open, and a failed row writes no CSV
    if case == "template fails":    # in its shared pass, past the first block
        monkeypatch.setattr(detector_mod, "_check_entry_rows", fail_after_first_block)
    elif case == "rows fail":       # in each row's closure; the template has none
        monkeypatch.setattr(detector_mod, "_LOCAL_TOL", 1e-300)
    spec = write_k_sweep(tmp_path, POINT_FAST, "0.25 0.5")
    open_files = len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None
    rows = qa.run_sweep(spec, tmp_path / "out")
    if open_files is not None:
        assert len(os.listdir("/proc/self/fd")) == open_files
    names = ["coupling.k=0.25", "coupling.k=0.5"]
    assert sorted(os.listdir(tmp_path / "out")) == names + ["sweep.csv"]
    error = {"ok": "", "template fails": "entry probability is not nondecreasing",
             "rows fail": "detector propagation step size underflow"}[case]
    for name, row in zip(names, rows):
        assert row["error"].startswith(error)
        assert sorted(os.listdir(tmp_path / "out" / name)) == ([] if error else [
            "arrival.csv", "entry_curve.csv", "schedule.csv", "summary.json"])


def test_grid_sweep_rows_share_arrival_csv(tmp_path):
    # the arrival statistics are read off the profile, not the output grid
    (tmp_path / "scn.txt").write_text(POINT_FAST)
    (tmp_path / "sweep.txt").write_text(
        "sweep.scenario = scn.txt\nsweep.parameter = grid.dt\n"
        "sweep.values = 0.1 0.2 0.4\n")
    rows = qa.run_sweep(qa.parse_sweep(tmp_path / "sweep.txt"), tmp_path / "out")
    assert [row["status"] for row in rows] == ["ok"] * 3
    qa.run_scenario(qa.parse_scenario_text(POINT_FAST + "grid.dt = 0.2\n"),
                    tmp_path / "single")
    single = (tmp_path / "single" / "arrival.csv").read_bytes()
    for dt in (0.1, 0.2, 0.4):
        assert (tmp_path / "out" / f"grid.dt={dt:.17g}" / "arrival.csv").read_bytes() == single
    assert _tree_bytes(tmp_path / "out" / f"grid.dt={0.2:.17g}") \
        == _tree_bytes(tmp_path / "single")


def test_grid_sweep_row_runs_the_bound_check(tmp_path):
    # a row that shares its template's profile is refused on the bounds of
    # its own output grid, as a standalone run is (4,999,001 samples)
    (tmp_path / "scn.txt").write_text(POINT_FAST)
    (tmp_path / "sweep.txt").write_text(
        "sweep.scenario = scn.txt\nsweep.parameter = grid.dt\n"
        "sweep.values = 0.0002 0.25\n")
    rows = qa.run_sweep(qa.parse_sweep(tmp_path / "sweep.txt"), tmp_path / "out")
    assert [row["status"] for row in rows] == ["error", "ok"]
    assert rows[0]["error"].startswith("grid.dt: ")
    with pytest.raises(qa.ScenarioError) as exc:
        qa.run_scenario(qa.parse_scenario_text(POINT_FAST + "grid.dt = 0.0002\n"),
                        tmp_path / "single")
    assert str(exc.value) == rows[0]["error"]


def test_shared_profile_failure_recorded_in_every_row(tmp_path):
    (tmp_path / "scn.txt").write_text("amplitude.kind = tabulated\n"
                                      "amplitude.radial_file = missing.txt\n"
                                      "detector.position = 0 0 20\n")
    (tmp_path / "sweep.txt").write_text(
        "sweep.scenario = scn.txt\nsweep.parameter = coupling.k\n"
        "sweep.values = 0.25 0.5\n")
    rows = qa.run_sweep(qa.parse_sweep(tmp_path / "sweep.txt"), tmp_path / "out")
    assert [row["status"] for row in rows] == ["error", "error"]
    assert all(row["error"].startswith("amplitude.radial_file: ") for row in rows)
    # each row made its directory before it failed, as a standalone run does
    assert sorted(os.listdir(tmp_path / "out")) == [
        "coupling.k=0.25", "coupling.k=0.5", "sweep.csv"]
    assert os.listdir(tmp_path / "out" / "coupling.k=0.25") == []
    assert os.listdir(tmp_path / "out" / "coupling.k=0.5") == []


def test_shared_profile_failure_built_once(tmp_path, monkeypatch):
    # every row records the template's failed profile (the radial budget)
    # instead of building it again; each still makes its directory
    calls = count_profiles(monkeypatch)
    (tmp_path / "scn.txt").write_text("detector.position = 0 0 20\n"
                                      "quadrature.t_cap = 1e5\n"
                                      "quadrature.eps_tail = 1e-300\n"
                                      "grid.t_end = 5\n")
    (tmp_path / "sweep.txt").write_text(
        "sweep.scenario = scn.txt\nsweep.parameter = coupling.k\n"
        "sweep.values = 0.25 0.5 1.5\n")
    rows = qa.run_sweep(qa.parse_sweep(tmp_path / "sweep.txt"), tmp_path / "out")
    assert len(calls) == 1
    assert [row["status"] for row in rows] == ["error"] * 3
    assert "budget of 262144 nodes" in rows[0]["error"]
    assert rows[1]["error"] == rows[0]["error"]
    # a row whose own value is out of range reports that first
    assert rows[2]["error"].startswith("coupling.k: ")
    assert sorted(os.listdir(tmp_path / "out")) == [
        "coupling.k=0.25", "coupling.k=0.5", "sweep.csv"]


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
    ("grid.dt", "0.1 0.2 0.4"),               # one profile shared by every row
    ("detector.distance", "50 100 150"),      # one profile per row
])
def test_process_pool_sweep_matches_single_job(tmp_path, parameter, values):
    # --jobs is accepted and ignored: it changes no byte
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


def test_sweep_starts_no_process(tmp_path, monkeypatch):
    # rows run one after another in the sweep's own process, whatever --jobs asks
    def no_fork():
        raise AssertionError("a sweep started a process")

    monkeypatch.setattr(os, "fork", no_fork)
    (tmp_path / "scn.txt").write_text(POINT_FAST)
    (tmp_path / "k.sweep").write_text("sweep.scenario = scn.txt\n"
                                      "sweep.parameter = coupling.k\n"
                                      "sweep.values = 0.25 0.5 0.75\n")
    rows = qa.run_sweep(qa.parse_sweep(tmp_path / "k.sweep"), tmp_path / "out", jobs=4)
    assert [row["status"] for row in rows] == ["ok"] * 3


@pytest.mark.parametrize("jobs", ["0", "-3", "abc"])
def test_cli_rejects_jobs_below_one(tmp_path, capsys, jobs):
    with pytest.raises(SystemExit) as exit_info:
        cli_main(["sweep", str(tmp_path / "k.sweep"), "--jobs", jobs])
    assert exit_info.value.code == 2
    assert f"argument --jobs: {'expected an integer' if jobs == 'abc' else 'must be >= 1'}" \
        in capsys.readouterr().err


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
    # the error message holds commas; quoting keeps it in one cell
    with open(tmp_path / "out" / "sweep.csv", encoding="utf-8", newline="") as fh:
        table = list(csv.reader(fh))
    assert [len(cells) for cells in table] == [11, 11, 11]
    assert table[2][3] == by_value[1.5]["error"]


@pytest.mark.parametrize("value", ["-100", "0"])
def test_sweep_distance_not_positive_refused(tmp_path, value):
    # a negative distance would mirror the detector through the source
    (tmp_path / "scn.txt").write_text(POINT_FAST)
    (tmp_path / "sweep.txt").write_text(
        "sweep.scenario = scn.txt\nsweep.parameter = detector.distance\n"
        f"sweep.values = {value} 100\n")
    rows = qa.run_sweep(qa.parse_sweep(tmp_path / "sweep.txt"), tmp_path / "out")
    assert [row["status"] for row in rows] == ["error", "ok"]
    assert rows[0]["error"] == f"detector.distance: must be positive, got {float(value)}"


def test_cli_sweep_duplicate_key_names_it(tmp_path, capsys):
    (tmp_path / "scn.txt").write_text(POINT_FAST)
    sweep = tmp_path / "k.sweep"
    sweep.write_text("sweep.scenario = scn.txt\n"
                     "sweep.parameter = coupling.k\n"
                     "sweep.values = 0.25\n"
                     "sweep.values = 0.75\n")
    assert cli_main(["sweep", str(sweep), "--out", str(tmp_path / "out")]) == 2
    assert "sweep.values: duplicate key" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("parameter, values", [
    ("coupling.k", "0.5 0.5"),
    ("coupling.k", "0.25 0.5 0.75 0.5"),
    ("emission.t0", "-0 0"),
])
def test_cli_sweep_repeated_value_rejected(tmp_path, capsys, parameter, values):
    # a repeated value would run twice into one row directory
    (tmp_path / "narrow.txt").write_text("amplitude.sigma_p = 0.05\ndetector.kind = point\n"
                                         "detector.position = 0 0 100\n")
    sweep = tmp_path / "repeat.sweep"
    sweep.write_text(f"sweep.scenario = narrow.txt\nsweep.parameter = {parameter}\n"
                     f"sweep.values = {values}\n")
    assert cli_main(["sweep", str(sweep), "--out", str(tmp_path / "out"),
                     "--jobs", "2"]) == 2
    assert "validation error: sweep.values: repeats " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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


CAP = ("detector.kind = cap\ndetector.axis = 0 0 1\ndetector.half_angle = 0.1\n"
       "detector.r_inner = {}\ndetector.r_outer = {}\n")
TABLE = "amplitude.kind = tabulated\namplitude.radial_file = radial.txt\ndetector.position = 0 0 10\n"


def sweep_of(parameter="coupling.k", values="0.5"):
    return f"sweep.scenario = scn.txt\nsweep.parameter = {parameter}\nsweep.values = {values}\n"


# a refused input: its scenario file scn.txt, or its sweep file k.sweep (over
# scn.txt), the radial table radial.txt it reads, and the key its error names;
# a scenario is refused by both validate and run, a sweep by sweep
@pytest.mark.parametrize("files, key", [
    ({"scn.txt": "amplitude.sigma_p = 1e200\ndetector.position = 0 0 10\n"},
     "amplitude.sigma_p"),
    ({"scn.txt": "amplitude.kind = separable\namplitude.axis = 0 0 1\n"
                 "amplitude.angular_sigma = 1e160\ndetector.position = 0 0 10\n"},
     "amplitude.angular_sigma"),
    ({"scn.txt": "detector.kind = sphere\ndetector.center = 0 0 1e150\n"
                 "detector.radius = 1e149\n"}, "detector.radius"),
    ({"scn.txt": CAP.format(1e119, 1e120)}, "detector.r_outer"),
    ({"scn.txt": "amplitude.sigma_p = 1e-300\ndetector.position = 0 0 10\n"},
     "amplitude.sigma_p"),
    ({"scn.txt": "detector.position = 0 0 1e155\n"}, "detector.position"),
    ({"scn.txt": "emission.x0 = 1e300 0 0\ndetector.position = 0 0 10\n"}, "emission.x0"),
    ({"scn.txt": "emission.t0 = 1e17\ndetector.position = 0 0 10\n"}, "emission.t0"),
    ({"scn.txt": CAP.format(21, 19)}, "detector.r_inner"),
    ({"scn.txt": TABLE + "amplitude.angular_file = angular.txt\n"}, "amplitude.axis"),
    ({"scn.txt": "detector.position 0 0 10\n"}, "line 1"),
    ({"scn.txt": "detector.kind = cube\n"}, "detector.kind"),
    ({"scn.txt": TABLE, "radial.txt": "4 0.5\n5 1 2\n"}, "amplitude.radial_file"),
    ({"scn.txt": TABLE, "radial.txt": "5 1\n4 0.5\n"}, "amplitude.radial_file"),
    ({"scn.txt": POINT_FAST, "k.sweep": sweep_of(values="")}, "sweep.values"),
    ({"scn.txt": POINT_FAST, "k.sweep": "sweep.scenario = scn.txt\nsweep.values = 0.5\n"},
     "sweep.parameter"),
    ({"scn.txt": POINT_FAST, "k.sweep": sweep_of(values="0.5 half")}, "sweep.values"),
    ({"scn.txt": CAP.format(19, 21), "k.sweep": sweep_of("detector.distance", "20")},
     "sweep.parameter"),
    ({"scn.txt": "detector.position = 0 0 0\n",
      "k.sweep": sweep_of("detector.distance", "20")}, "sweep.parameter"),
], ids=["huge sigma_p", "huge angular_sigma", "huge sphere", "huge cap", "tiny sigma_p",
        "far point", "far source", "late emission", "inverted cap", "angular table no axis",
        "line without =", "unknown detector kind", "malformed table line",
        "decreasing radial grid", "sweep no values", "sweep missing key",
        "sweep unparsable value", "distance sweep of a cap",
        "distance sweep of a point at the source"])
def test_cli_refusal_names_its_key(tmp_path, capsys, files, key):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    out = str(tmp_path / "out")
    commands = [["sweep", str(tmp_path / "k.sweep"), "--out", out]] if "k.sweep" in files \
        else [["validate", str(tmp_path / "scn.txt")], ["run", str(tmp_path / "scn.txt"),
                                                        "--out", out]]
    for argv in commands:
        assert cli_main(argv) == 2, argv
        assert capsys.readouterr().err.startswith(f"validation error: {key}:"), argv



@pytest.mark.parametrize("sigma_p", ["1e80", "1e90", "1e99"])
@pytest.mark.filterwarnings("ignore:sigma_p")     # the clipped-support warning
def test_cli_huge_sigma_p_runs_or_fails_numerically(tmp_path, capsys, sigma_p):
    # the radial moments of these supports overflowed, and `validate` and `run`
    # printed "dt must be positive, got nan", which names no key: now each
    # runs, exits 2 naming amplitude.sigma_p, or exits 3
    path = tmp_path / "scn.txt"
    path.write_text(f"amplitude.sigma_p = {sigma_p}\ndetector.position = 0 0 10\n")
    for argv in (["validate", str(path)], ["run", str(path), "--out", str(tmp_path / "o")]):
        status, err = cli_main(argv), capsys.readouterr().err
        assert status in (0, 2, 3) and "nan" not in err, (argv, err)
        if status == 2:
            assert err.startswith("validation error: amplitude.sigma_p:"), err


@pytest.mark.parametrize("sigma_p", ["1e6", "1e80"])
@pytest.mark.filterwarnings("ignore:sigma_p")     # the clipped-support warning
def test_cli_huge_sigma_p_sphere_fails_on_the_radial_budget(tmp_path, capsys, sigma_p):
    # the band of these supports would ask the channel fold for up to ~1e68
    # Chebyshev nodes: the tau = 0 rule's budget refuses it first
    path = tmp_path / "scn.txt"
    path.write_text(MINIMAL + f"amplitude.sigma_p = {sigma_p}\n")
    status = cli_main(["run", str(path), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert status == 3 and "budget of 262144 nodes" in err, err


def test_late_emission_keeps_the_step_schedule_and_closure(tmp_path):
    # the schedule and its closure step over the elapsed grid dt k, so a
    # late emission time moves the t column only; t[1] - t[0] of t0 = 1e13
    # read 0.005859375 (+7%) and the closure residual 0.052
    runs = {}
    for t0 in ("0", "1e6", "1e12", "1e13"):
        out = tmp_path / t0
        summary = qa.run_scenario(qa.parse_scenario_text(
            POINT_FAST + f"emission.t0 = {t0}\n"), out)
        with open(out / "schedule.csv", newline="") as fh:
            columns = [row[1:] for row in csv.reader(fh)]
        runs[t0] = summary["dt"], summary["consistency_residual_max"], columns
    for t0 in ("1e6", "1e12", "1e13"):
        assert runs[t0] == runs["0"], t0


def test_cli_run(tmp_path):
    path = tmp_path / "scn.txt"
    path.write_text(POINT_FAST)
    out = tmp_path / "out"
    assert cli_main(["run", str(path), "--out", str(out)]) == 0
    assert (out / "summary.json").exists()


@pytest.mark.parametrize("kind", ["gaussian", "tabulated", "sphere"])
def test_cli_run_does_not_import_numpy_ma(tmp_path, kind):
    # np.unique and friends import numpy.ma on first use, which costs every
    # run about 1.5 MB of peak memory; numpy's leggauss imports numpy.polynomial
    # and calls LAPACK (~0.9 MB), which the Gauss-Legendre rule does not; a
    # volume's ring fold transforms its gains by a small matrix product, not
    # numpy.fft (~0.6 MB on import and first call); and the occupation's Gram
    # is not factored: after one matrix product, the resident pages that one
    # LAPACK call adds are 0.77 MB for a QR of a (64, 19) map, 1.22 MB for
    # eigh of 19 x 19 (0.13 MB of 1 x 1) and 0.32 MB for a Cholesky, so the
    # child's numpy.linalg factorizations and solvers raise
    (tmp_path / "radial.txt").write_text("4 0.5\n5 1\n6 0.5\n")
    (tmp_path / "scn.txt").write_text({
        "gaussian": POINT_FAST,
        "tabulated": "amplitude.kind = tabulated\namplitude.radial_file = radial.txt\n"
                     "detector.position = 0 0 30\n",
        "sphere": "amplitude.kind = separable\namplitude.axis = 0.6 0 0.8\n"
                  "amplitude.angular_sigma = 0.2\ndetector.kind = sphere\n"
                  "detector.center = 0 0 20\ndetector.radius = 0.5\n"}[kind])
    code = ("import sys, numpy.linalg as la; from qarrival.cli import main\n"
            "def stub(*args, **kwargs): raise AssertionError('LAPACK called')\n"
            "for name in ('qr', 'eigh', 'eigvalsh', 'svd', 'cholesky', 'eig', 'solve', "
            "'lstsq', 'inv'): setattr(la, name, stub)\n"
            "status = main(['run', sys.argv[1], '--out', sys.argv[2]]); "
            "print([m for m in ('numpy.ma', 'numpy.polynomial', 'numpy.fft') "
            "if m in sys.modules]); "
            "sys.exit(status)")
    src = os.path.dirname(os.path.dirname(os.path.abspath(qa.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    result = subprocess.run([sys.executable, "-c", code, str(tmp_path / "scn.txt"),
                             str(tmp_path / "out")], env=env, capture_output=True,
                            text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[]"


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
                    "grid.dt = 60\ngrid.t_end = 180\n")
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
                    "grid.dt = 60\ngrid.t_end = 180\n")
    assert cli_main(["run", str(path), "--out", str(tmp_path / "out")]) == 3
    assert "numerical error: detector propagation" in capsys.readouterr().err
    assert os.listdir(tmp_path / "out") == []


@pytest.mark.parametrize("lines, key", [
    ("grid.t_end = 0.001\n", "grid.t_end"),
    ("grid.dt = 1000\n", "grid.dt"),
    ("emission.t0 = 5\ngrid.t_end = 1\n", "grid.t_end"),
])
def test_cli_short_grid_names_key(tmp_path, capsys, lines, key):
    path = tmp_path / "scn.txt"
    path.write_text("detector.position = 0 0 20\n" + lines)
    assert cli_main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert f"validation error: {key}: " in capsys.readouterr().err


def test_cli_missing_file(tmp_path):
    missing = str(tmp_path / "nope.txt")
    assert cli_main(["validate", missing]) == 4


def csv_columns():
    """Five columns of 5000 rows (three write blocks) with signed zeros,
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
        prob_mod.EntryProbabilityCurve.write_csv(obj, tmp_path / "out.csv")
    elif writer == "schedule":
        obj = SimpleNamespace(t=t, rate=a, angle=b, entry_rate=d)
        header = "t,rate,angle,p_registered,entry_rate"
        columns = (t, a, b, np.sin(b) ** 2, d)
        detector_mod.CouplingSchedule.write_csv(obj, tmp_path / "out.csv")
    else:
        obj = SimpleNamespace(t=t, density=a)
        header, columns = "t,density", (t, a)
        arrival_mod.ArrivalTimeStats.write_csv(obj, tmp_path / "out.csv")
    expected = header + "\n" + "".join(
        ",".join(f"{v:.17g}" for v in row) + "\n" for row in zip(*columns))
    assert (tmp_path / "out.csv").read_bytes() == expected.encode("utf-8")


def per_value_csv(header: str, columns) -> bytes:
    """The reference bytes of a CSV table: each value through f"{v:.17g}"."""
    return (header + "\n" + "".join(",".join(f"{v:.17g}" for v in row) + "\n"
                                   for row in zip(*columns))).encode("utf-8")


# a NaN whose payload differs from numpy's np.nan
NAN_PAYLOAD = np.array([0x7FF8000000000001], dtype=np.uint64).view(float)[0]


@pytest.mark.parametrize("value, twin", [(0.0, -0.0), (np.nan, NAN_PAYLOAD)],
                         ids=["signed zero", "nan payload"])
def test_csv_columns_merge_only_equal_bits(tmp_path, monkeypatch, value, twin):
    formatted = count_column_formats(monkeypatch)
    a = csv_columns()[0]
    b = a.copy()
    a[:100], b[:100] = value, twin
    assert np.array_equal(a, b, equal_nan=True) and a.tobytes() != b.tobytes()
    prob_mod.write_tables([(tmp_path / "out.csv", "a,b,a", (a, b, a))])
    assert (tmp_path / "out.csv").read_bytes() == per_value_csv("a,b,a", (a, b, a))
    # the first block of b differs from a's in bits and is formatted on its
    # own; the later blocks are bitwise equal and formatted once
    blocks = [a[lo:lo + prob_mod._CSV_BLOCK].tobytes()
              for lo in range(0, a.size, prob_mod._CSV_BLOCK)]
    assert formatted == blocks[:1] + [b[:prob_mod._CSV_BLOCK].tobytes()] + blocks[1:]


def test_csv_tables_in_step_across_block_boundaries(tmp_path, monkeypatch):
    # the long tables cross two block boundaries; the short one shares its
    # first block of t, but not its shorter second one
    cols = csv_columns()
    short = prob_mod._CSV_BLOCK + 904
    t, a, b, c, d = np.concatenate((cols, cols), axis=1)[:, :2 * prob_mod._CSV_BLOCK + 808]
    tables = {"long.csv": ("t,a,b", (t, a, b)), "short.csv": ("t,c", (t[:short], c[:short])),
              "other.csv": ("t,d,a", (t, d, a))}
    formatted = count_column_formats(monkeypatch)
    prob_mod.write_tables([(tmp_path / name, header, columns)
                           for name, (header, columns) in tables.items()])
    for name, (header, columns) in tables.items():
        assert (tmp_path / name).read_bytes() == per_value_csv(header, columns)
    blocks = {column[lo:lo + prob_mod._CSV_BLOCK].tobytes()
              for _, columns in tables.values() for column in columns
              for lo in range(0, len(column), prob_mod._CSV_BLOCK)}
    assert len(formatted) == len(set(formatted)) == len(blocks) == 15
    assert set(formatted) == blocks


SEPARABLE_SPHERE = """
amplitude.kind = separable
amplitude.axis = 0 0 1
amplitude.angular_sigma = 0.3
detector.kind = sphere
detector.center = 0 0 20
detector.radius = 0.5
"""


@pytest.mark.parametrize("text", [SEPARABLE_SPHERE, POINT_FAST + "grid.dt = 0.2\n",
                                  POINT_FAST + "emission.t0 = 3.25\n"],
                         ids=["volume", "grid.dt", "t0"])
def test_run_csvs_match_per_value_format(tmp_path, text):
    s = qa.parse_scenario_text(text)
    qa.run_scenario(s, tmp_path)
    r = scenario_mod._prepare(s)
    curve = r["curve"].whole()
    arrival = r["arrival"] and r["arrival"].whole()
    sched = detector_mod.coupling_schedule(curve, s.coupling_k)
    files = {"entry_curve.csv": ("t,p_conditional,p_entry",
                                 (curve.t, curve.p_conditional, curve.p_entry)),
             "schedule.csv": ("t,rate,angle,p_registered,entry_rate",
                              (sched.t, sched.rate, sched.angle, np.sin(sched.angle) ** 2,
                               sched.entry_rate))}
    if s.is_point:
        files["arrival.csv"] = ("t,density", (arrival.t, arrival.density))
    assert sorted(os.listdir(tmp_path)) == sorted(files) + ["summary.json"]
    for name, (header, columns) in files.items():
        assert (tmp_path / name).read_bytes() == per_value_csv(header, columns)
    if not s.is_point:     # a direction factor below 1: p_entry keeps its own text
        assert curve.p_direction < 1.0 and curve.p_entry[-1] < curve.p_conditional[-1]
    elif s.grid.dt is not None:
        assert curve.t.size != arrival.t.size
    else:
        assert curve.t[0] == 3.25 and curve.t.tobytes() == arrival.t.tobytes()


def test_csv_writer_holds_one_block_per_distinct_column():
    # a run's three CSVs at 2^18 rows hold 7 distinct columns; a memo of
    # whole columns would hold ~150 MB of value texts, the writer one block
    # of each (~100 bytes a value: its string and its pointer)
    n = 2 ** 18
    rng = np.random.default_rng(5)
    t = 0.25 + 1e-3 * np.arange(n)
    p_conditional, rate, angle, entry_rate, density = rng.random((5, n))
    tables = [(os.devnull, "t,p_conditional,p_entry", (t, p_conditional, 1.0 * p_conditional)),
              (os.devnull, "t,rate,angle,p_registered,entry_rate",
               (t, rate, angle, np.sin(angle) ** 2, entry_rate)),
              (os.devnull, "t,density", (t, density))]
    tracemalloc.start()
    try:
        prob_mod.write_tables(tables)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 7 * prob_mod._CSV_BLOCK * 100


SPHERE_20 = "detector.kind = sphere\ndetector.center = 0 0 20\n"


@pytest.mark.parametrize("text, bound_mib", [
    (SPHERE_20 + "detector.radius = 0.5\n", 1.25),
    ("amplitude.kind = separable\namplitude.axis = 0 0 1\namplitude.angular_sigma = 0.0375\n"
     + SPHERE_20 + "detector.radius = 0.5\n", 1.25),
    (SPHERE_20 + "detector.radius = 12\ngrid.dt = 0.05\n", 3.5),
], ids=["iso", "sep", "r12"])
def test_occupation_build_memory_is_bounded(text, bound_mib):
    # the stages before the schedule, at default keys: the occupation's
    # folds hold at most _CELLS cells a block and its kernel _P_BLOCK = 256
    # momenta, so the traced peaks are 1.02, 0.94 and 2.70 MiB (1.86, 1.86
    # and 6.13 with 1024-momentum blocks and 2^16-cell folds)
    s = qa.parse_scenario_text(text)
    tracemalloc.start()
    try:
        scenario_mod._prepare(s, "schedule")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound_mib * 2 ** 20


@pytest.mark.parametrize("command, lines, key", [
    ("validate", "detector.center = 0 0 0.3\ndetector.radius = 0.5\n",
     "detector.center"),
    ("validate", "detector.position = 0 0 0\n", "detector.position"),
    ("validate", "detector.kind = cap\ndetector.axis = 0 0 0\n"
                 "detector.half_angle = 0.1\ndetector.r_inner = 10\n"
                 "detector.r_outer = 11\n", "detector.axis"),
    ("validate", "amplitude.kind = separable\namplitude.axis = 0 0 0\n"
                 "amplitude.angular_sigma = 0.1\ndetector.position = 0 0 20\n",
     "amplitude.axis"),
    ("run", "amplitude.kind = tabulated\namplitude.radial_file = radial.txt\n"
            "amplitude.angular_file = angular.txt\namplitude.axis = 0 0 0\n"
            "detector.position = 0 0 20\n", "amplitude.axis"),
    ("run", "amplitude.kind = tabulated\namplitude.radial_file = radial.txt\n"
            "amplitude.angular_file = unsorted.txt\namplitude.axis = 0 0 1\n"
            "detector.position = 0 0 20\n", "amplitude.angular_file"),
    ("sweep", "detector.center = 0 0 20\ndetector.radius = 0.5\n",
     "detector.center"),
    ("validate", "detector.center = 0 0 20\ndetector.radius = 1e-7\n",
     "detector.radius"),
    ("run", "detector.kind = cap\ndetector.axis = 0 0 1\n"
            "detector.half_angle = 1e-9\ndetector.r_inner = 19\n"
            "detector.r_outer = 21\n", "detector.half_angle"),
], ids=["inside-sphere", "point-at-source", "cap-axis", "separable-axis",
        "table-axis", "angular-table", "distance-row", "cone-of-sphere-rounds-to-1",
        "cone-of-cap-rounds-to-1"])
def test_cli_build_error_names_key(tmp_path, capsys, command, lines, key):
    (tmp_path / "radial.txt").write_text("4 1\n5 1\n6 1\n")
    (tmp_path / "angular.txt").write_text("0.5 1\n1 1\n")
    (tmp_path / "unsorted.txt").write_text("0.5 1\n0.2 1\n")
    (tmp_path / "scn.txt").write_text(lines)
    out = tmp_path / "out"
    if command != "sweep":
        args = [command, str(tmp_path / "scn.txt")]
        if command == "run":
            args += ["--out", str(out)]
        assert cli_main(args) == 2
        assert f"validation error: {key}: " in capsys.readouterr().err
        return
    # a detector.distance row that puts the source inside the sphere
    (tmp_path / "d.sweep").write_text("sweep.scenario = scn.txt\n"
                                      "sweep.parameter = detector.distance\n"
                                      "sweep.values = 0.3\n")
    assert cli_main(["sweep", str(tmp_path / "d.sweep"), "--out", str(out)]) == 0
    with open(out / "sweep.csv", encoding="utf-8", newline="") as fh:
        row = list(csv.DictReader(fh))[0]
    assert row["status"] == "error"
    assert row["error"].startswith(f"{key}: ")


def test_cli_unresolved_refinement_is_numerical_error(tmp_path, capsys):
    # no refinement can meet a relative tolerance of 1e-300
    path = tmp_path / "scn.txt"
    path.write_text("amplitude.kind = separable\namplitude.axis = 0 0 1\n"
                    "amplitude.angular_sigma = 0.04\n" + MINIMAL
                    + "quadrature.rtol = 1e-300\n")
    assert cli_main(["run", str(path), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical error: ") and " did not converge" in err
    assert not (tmp_path / "out" / "summary.json").exists()


def test_cli_beam_that_misses_the_sphere_channels_vanishes(tmp_path, capsys):
    # a 0.002 beam along the axis leaves every cap channel of a radius-18
    # sphere a zero gain, so the ring fold keeps no frequency and its Gram is
    # zero; this exited 2 with numpy's "cannot reshape array of size 0"
    path = tmp_path / "scn.txt"
    path.write_text("amplitude.kind = separable\namplitude.axis = 0 0 1\n"
                    "amplitude.angular_sigma = 0.002\ndetector.kind = sphere\n"
                    "detector.center = 0 0 20\ndetector.radius = 18\n")
    assert cli_main(["run", str(path), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical error: ") and "detector occupation vanishes" in err, err


def test_cli_time_curve_refinement_is_numerical_error(tmp_path, capsys):
    # a point has no direction factor: the first rule to miss 1e-300 is the
    # occupation curve's radial rule
    path = tmp_path / "scn.txt"
    path.write_text("detector.position = 0 0 20\nquadrature.rtol = 1e-300\n")
    assert cli_main(["run", str(path), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical error: time-curve radial quadrature did not converge")


def test_cli_radial_budget_is_numerical_error(tmp_path, capsys):
    # a tail criterion that never fires doubles the windows up to the time
    # cap, and the radial rule of psi grows with them until it would pass
    # its node budget
    path = tmp_path / "scn.txt"
    path.write_text("detector.position = 0 0 20\nquadrature.t_cap = 1e5\n"
                    "quadrature.eps_tail = 1e-300\ngrid.t_end = 5\n")
    assert cli_main(["run", str(path), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical error: the radial rule at tau = ")
    assert "budget of 262144 nodes" in err


@pytest.mark.parametrize("key", ["quadrature.radial_nodes", "quadrature.radial_panels",
                                 "quadrature.p_max"])
def test_removed_quadrature_keys_are_unknown(key):
    with pytest.raises(ScenarioError, match="unknown key") as err:
        qa.parse_scenario_text(MINIMAL + f"{key} = 12\n")
    assert err.value.field == key


def test_cli_narrow_beam_point_runs(tmp_path):
    # a beam this narrow spans ~2.5e-7 of cos theta: its normalization needs
    # the rule in the angle about the beam axis
    path = tmp_path / "scn.txt"
    path.write_text("amplitude.kind = separable\namplitude.axis = 0 0 1\n"
                    "detector.position = 0 0 20\namplitude.angular_sigma = 0.0005\n")
    assert cli_main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
    amp = scenario_mod.make_amplitude(qa.parse_scenario(path))
    assert abs(qa.momentum_norm_squared(amp) - 1.0) <= 1e-12


@pytest.mark.parametrize("text, parameter", [
    (POINT_FAST, "detector.radius"),
    (POINT_FAST, "detector.half_angle"),
    (MINIMAL, "amplitude.angular_sigma"),
    ("amplitude.kind = tabulated\namplitude.radial_file = radial.txt\n"
     "detector.position = 0 0 20\n", "amplitude.p0"),
])
def test_sweep_key_of_another_kind_names_it(text, parameter):
    # a row must not set a key its template's kind ignores
    with pytest.raises(ScenarioError) as err:
        apply_parameter(qa.parse_scenario_text(text), parameter, 0.5)
    assert err.value.field == parameter


def test_cli_sweep_nonfinite_value_names_key(tmp_path, capsys):
    (tmp_path / "scn.txt").write_text(POINT_FAST)
    (tmp_path / "t0.sweep").write_text("sweep.scenario = scn.txt\n"
                                       "sweep.parameter = emission.t0\n"
                                       "sweep.values = 0 nan\n")
    assert cli_main(["sweep", str(tmp_path / "t0.sweep"), "--out",
                     str(tmp_path / "out")]) == 2
    assert "validation error: sweep.values: must be finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
