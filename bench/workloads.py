"""Workload definitions for the qarrival benchmark and their seeded inputs.

A workload is a list of units. A unit is one `qarrival run` of a scenario
file or one `qarrival sweep` of a sweep file, each in a fresh process.

The seed draws one uniformly random rotation about the source (the origin)
and applies it to every vector of every scenario: detector center and
position and the amplitude axis. Every amplitude is symmetric about its
axis, so the seed changes the input files without changing the work
(time caps, grid sizes) or the reference values; summary scalars agree
across seeds to about 1e-13.

Which layer each workload loads (shares of one cold run, measured on a
2-core machine; they are what the workload exists for):

- volume: the volume occupation profile (`build_entry_curve`) takes 87-92%
  of each run and there is no arrival pass. It is the memory-heavy case
  (peak RSS about 450 MB). Closure and CSV writing are about 8%, so a
  change to those layers should show no change here.
- point: the arrival second pass (`mean_arrival_time`) takes about 62%,
  the point entry curve about 22%, closure plus CSV about 16%. Both
  module-level caches are filled once per cold process and never hit.
- sweep-k: one sweep over 8 coupling fractions of the narrow point
  scenario with `--jobs` equal to the core count. `coupling.k` does not
  enter the occupation profile, so the profile and the arrival samples
  are computed by the first rows and then served from the caches (the
  cache-hit path, shared by the sweep's threads). About 85% of the time goes to
  `coupling_schedule`, `ode_consistency` and the CSV writers.

Which end-to-end metric each traced span should move, and where:

  scenario.parse_s, wavepacket.amplitude_s  -> setup_s      all workloads
  probability.direction_s                   -> wall_s       volume
  probability.entry_curve_s                 -> wall_s, peak_rss_mb
                                                            volume, point
  arrival.mean_arrival_s                    -> wall_s       point
  detector.schedule_s, detector.closure_s   -> wall_s       sweep-k
  scenario.write_s                          -> wall_s       sweep-k
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass

Z = (0.0, 0.0, 1.0)
SWEEP_K_VALUES = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8)


@dataclass(frozen=True)
class Unit:
    """One process the benchmark starts: a scenario run or a sweep.

    Beyond the checks every run gets, an `isotropic` unit must give
    p_entry_final = omega / 4 pi, and a unit with a `reference` is a point
    detector: p_entry_final = 1 and mean_arrival equal to the value stored
    under that key in reference.json.
    """

    name: str
    kind: str                 # "run" or "sweep"
    path: str                 # input file, relative to the work directory
    isotropic: bool = False
    reference: str | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    units: tuple
    setup_files: tuple        # what `qarrival validate` would parse
    inputs: dict              # file name -> builder(rotation)


def _rotation(seed: int):
    """Uniform random rotation matrix from a normalized gaussian quaternion."""
    rng = random.Random(seed)
    while True:
        w, x, y, z = (rng.gauss(0.0, 1.0) for _ in range(4))
        n = math.sqrt(w * w + x * x + y * y + z * z)
        if n > 1e-6:
            break
    w, x, y, z = w / n, x / n, y / n, z / n
    return ((1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)),
            (2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)),
            (2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)))


def _vec(rot, v, scale: float = 1.0) -> str:
    out = (sum(r * c for r, c in zip(row, v)) * scale for row in rot)
    return " ".join(f"{c:.17g}" for c in out)


def _isotropic_sphere(rot) -> str:
    return ("detector.kind = sphere\n"
            f"detector.center = {_vec(rot, Z, 20.0)}\n"
            "detector.radius = 0.5\n")


def _separable_sphere(rot) -> str:
    return ("amplitude.kind = separable\n"
            f"amplitude.axis = {_vec(rot, Z)}\n"
            "amplitude.angular_sigma = 0.0375\n"
            "detector.kind = sphere\n"
            f"detector.center = {_vec(rot, Z, 20.0)}\n"
            "detector.radius = 0.5\n")


def _tabulated_point(rot) -> str:
    return ("amplitude.kind = tabulated\n"
            "amplitude.radial_file = radial.txt\n"
            "detector.kind = point\n"
            f"detector.position = {_vec(rot, Z, 30.0)}\n")


def _radial_table(rot) -> str:
    """401-row gaussian radial table on p in [1, 9], centered at p = 5."""
    rows = []
    for i in range(401):
        p = 9.0 if i == 400 else 1.0 + i * 0.02
        rows.append(f"{p:.17g} {math.exp(-((p - 5.0) ** 2) / (4 * 0.25)):.17g}")
    return "\n".join(rows) + "\n"


def _narrow_point(rot) -> str:
    return ("amplitude.sigma_p = 0.05\n"
            "detector.kind = point\n"
            f"detector.position = {_vec(rot, Z, 100.0)}\n")


def _k_sweep(rot) -> str:
    return ("sweep.scenario = narrow.txt\n"
            "sweep.parameter = coupling.k\n"
            f"sweep.values = {' '.join(repr(k) for k in SWEEP_K_VALUES)}\n")


WORKLOADS = {
    "volume": Workload(
        name="volume",
        why="cold runs on the isotropic (L=20, r=0.5) and separable sphere: "
            "the volume occupation profile is 87-92% and memory peaks",
        units=(Unit("isotropic_sphere", "run", "iso.txt", isotropic=True),
               Unit("separable_sphere", "run", "sep.txt")),
        setup_files=("iso.txt", "sep.txt"),
        inputs={"iso.txt": _isotropic_sphere, "sep.txt": _separable_sphere}),
    "point": Workload(
        name="point",
        why="cold runs on the tabulated (L=30) and narrow (L=100) point "
            "detector: the arrival pass is 62%, the point curve 22%",
        units=(Unit("tabulated_point", "run", "tab.txt",
                    reference="tabulated_point"),
               Unit("narrow_point", "run", "narrow.txt",
                    reference="narrow_point")),
        setup_files=("tab.txt", "narrow.txt"),
        inputs={"tab.txt": _tabulated_point, "radial.txt": _radial_table,
                "narrow.txt": _narrow_point}),
    "sweep-k": Workload(
        name="sweep-k",
        why="one sweep of 8 coupling.k values on the narrow point scenario: "
            "caches hit after row 1, schedule/closure/CSV take 85%",
        units=(Unit("k_sweep", "sweep", "k.sweep", reference="narrow_point"),),
        setup_files=("k.sweep", "narrow.txt"),
        inputs={"narrow.txt": _narrow_point, "k.sweep": _k_sweep}),
}


def write_inputs(workload: Workload, seed: int, work_dir: str):
    """Write the workload's input files for `seed` into `work_dir`."""
    rot = _rotation(seed)
    for name, build in workload.inputs.items():
        with open(os.path.join(work_dir, name), "w", encoding="utf-8",
                  newline="\n") as fh:
            fh.write(build(rot))
