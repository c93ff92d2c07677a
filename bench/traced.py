"""Traced child process: one workload unit with a span around each layer call.

    python bench/traced.py run SCENARIO OUT_DIR TRACE_JSON
    python bench/traced.py sweep SWEEP_FILE OUT_DIR JOBS TRACE_JSON

`traced_run_scenario` is a replica of `qarrival.scenario.run_scenario` that
makes the same calls in the same order, each inside a span. The benchmark
checks that its files are byte-identical to those of an untraced
`qarrival run`, so the replica stays the same program. A sweep runs the
library's own `run_sweep` with `run_scenario` replaced by the replica.
`direction_probability` is called inside the entry-curve builders, so it is
wrapped where they look it up and shows as a child span of the entry curve.

Spans (name, start, end, parent, run id) and deterministic counts are kept
in memory and written to TRACE_JSON when the unit ends.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from contextlib import contextmanager

import numpy as np

import qarrival.arrival as arrival_mod
import qarrival.detector as detector_mod
import qarrival.probability as prob_mod
import qarrival.scenario as scenario_mod
from qarrival.errors import IntegrationError


class Tracer:
    """In-memory spans and counts, safe to use from a sweep's threads."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict = {}
        self._lock = threading.Lock()
        self._local = threading.local()

    @contextmanager
    def span(self, name: str, run: str | None = None):
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        if run is None and parent is not None:
            run = self.spans[parent]["run"]
        record = {"name": name, "start": time.perf_counter(), "end": None,
                  "parent": parent, "run": run}
        with self._lock:
            self.spans.append(record)
            index = len(self.spans) - 1
        stack.append(index)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            stack.pop()

    def add(self, name: str, value):
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + value

    def maximum(self, name: str, value: float):
        with self._lock:
            self.counts[name] = max(self.counts.get(name, value), value)


TRACER = Tracer()


def _spanned(fn, name: str):
    def wrapper(*args, **kwargs):
        with TRACER.span(name):
            return fn(*args, **kwargs)
    return wrapper


def traced_run_scenario(s, out_dir) -> dict:
    """Replica of `qarrival.scenario.run_scenario` with spans and counts."""
    with TRACER.span("scenario.run", run=os.path.basename(os.fspath(out_dir))):
        os.makedirs(out_dir, exist_ok=True)
        source = scenario_mod.make_source(s)
        with TRACER.span("wavepacket.amplitude_s"):
            amp = scenario_mod.make_amplitude(s)
        det = scenario_mod.make_detector(s, source)

        arrival_stats = None
        arrival_converged = True
        if det is not None:
            distance = det.distance
            with TRACER.span("probability.entry_curve_s"):
                curve = prob_mod.build_entry_curve(amp, det, source, s.quadrature,
                                                   s.grid, allow_unconverged=True)
            omega = det.omega
            volume = det.volume
        else:
            position = np.asarray(s.detector.position, dtype=float)
            distance = float(np.linalg.norm(position - source.x0))
            with TRACER.span("probability.entry_curve_s"):
                curve = prob_mod.point_detector_curve(
                    amp, position, source, s.quadrature, s.grid,
                    reference_solid_angle=s.detector.reference_solid_angle,
                    allow_unconverged=True)
            omega = s.detector.reference_solid_angle
            volume = None
            with TRACER.span("arrival.mean_arrival_s"):
                try:
                    arrival_stats = arrival_mod.mean_arrival_time(
                        amp, position, source, s.quadrature)
                except IntegrationError:
                    arrival_converged = False

        with TRACER.span("detector.schedule_s"):
            sched = detector_mod.coupling_schedule(curve, s.coupling_k)
        with TRACER.span("detector.closure_s"):
            closure = detector_mod.ode_consistency(sched)

        with TRACER.span("scenario.write_s"):
            written = [os.path.join(out_dir, "entry_curve.csv"),
                       os.path.join(out_dir, "schedule.csv")]
            curve.write_csv(written[0])
            sched.write_csv(written[1])
            if arrival_stats is not None:
                written.append(os.path.join(out_dir, "arrival.csv"))
                arrival_stats.write_csv(written[-1])

            classical = None
            if amp.exposed_p0 is not None:
                classical = source.mass * distance / amp.exposed_p0

            summary = {
                "schema_version": scenario_mod.SCHEMA_VERSION,
                "point_detector": s.is_point,
                "k": s.coupling_k,
                "mass": source.mass,
                "t0": source.t0,
                "distance": distance,
                "omega": omega,
                "volume": volume,
                "p_direction": curve.p_direction,
                "p_conditional_final": float(curve.p_conditional[-1]),
                "p_entry_final": float(curve.p_entry[-1]),
                "p_registered_final": float(np.sin(sched.angle[-1]) ** 2),
                "mean_arrival": None if arrival_stats is None
                else arrival_stats.mean_time,
                "classical_flight": classical,
                "dt": curve.dt,
                "t_max": curve.denominator.t_max + source.t0,
                "denominator": curve.denominator.as_dict(),
                "normalizer": None if arrival_stats is None
                else arrival_stats.normalizer.as_dict(),
                "quad_error": curve.quad_error,
                "consistency_residual_max": closure["consistency_residual_max"],
                "unitarity_residual_max": closure["unitarity_residual_max"],
                "converged": bool(curve.denominator.converged and arrival_converged),
            }
            written.append(os.path.join(out_dir, "summary.json"))
            with open(written[-1], "w", encoding="utf-8", newline="\n") as fh:
                json.dump(summary, fh, indent=2)
                fh.write("\n")

    TRACER.add("probability.curve_rows", int(curve.t.size))
    TRACER.maximum("probability.t_max", summary["t_max"])
    TRACER.add("arrival.rows", 0 if arrival_stats is None else int(arrival_stats.t.size))
    TRACER.add("detector.closure_intervals", int(sched.t.size) - 1)
    TRACER.add("scenario.bytes_written", sum(os.path.getsize(p) for p in written))
    return summary


def main(argv: list[str]) -> int:
    prob_mod.direction_probability = _spanned(prob_mod.direction_probability,
                                              "probability.direction_s")
    kind, path, out_dir, *rest = argv
    trace_path = rest[-1]
    if kind == "run":
        with TRACER.span("scenario.parse_s", run="parse"):
            scenario = scenario_mod.parse_scenario(path)
        traced_run_scenario(scenario, out_dir)
    elif kind == "sweep":
        # run_sweep parses its template and runs each row through these names
        scenario_mod.parse_scenario = _spanned(scenario_mod.parse_scenario,
                                               "scenario.parse_s")
        scenario_mod.run_scenario = traced_run_scenario
        with TRACER.span("scenario.parse_s", run="parse"):
            spec = scenario_mod.parse_sweep(path)
        rows = scenario_mod.run_sweep(spec, out_dir, jobs=int(rest[0]))
        for row in rows:
            if row["status"] != "ok":
                print(f"row {row['value']!r}: {row['error']}", file=sys.stderr)
    else:
        raise SystemExit(f"unknown unit kind {kind!r}")
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump({"spans": TRACER.spans, "counts": TRACER.counts}, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
