"""The files every row of a sweep shares, formatted once by its template.

`scenario.run_sweep` imports this module, so a single run compiles none of
it.  The template writes the files of the stages it shares in one pass, a
block of rows at a time (`detector._run_blocks` without a closure), into
unnamed temporary files in the sweep's output directory.  With the entry
curve it also writes there the fixed-width texts of the schedule's columns
that do not depend on k (`t`, `entry_rate`), block after block, so a row
formats only its own columns.  The sweep holds none of these texts.
"""

from __future__ import annotations

import shutil
import tempfile
from dataclasses import replace
from functools import partial

import numpy as np

from . import detector as detector_mod
from . import probability as prob_mod


def share(prepared: dict, tables, k: float, out_dir, stack) -> dict:
    """`prepared` with, by name, a function that writes each file its stages
    write to a path and, under "columns" when they include the entry curve,
    one that gives the texts of the `t` and `entry_rate` of block i of a
    row's schedule, with the curve marked checked.  `tables` are a run's
    (name, stage, header) triples in the order of `detector._run_blocks`;
    the temporary files are closed by `stack`."""
    files = [(j, name, header) for j, (name, stage, header) in enumerate(tables)
             if prepared.get(stage) is not None]
    if not files:
        return prepared
    curve = prepared.get("curve")
    temp = [stack.enter_context(tempfile.TemporaryFile(dir=out_dir)) for _ in files]
    texts = None if curve is None else stack.enter_context(tempfile.TemporaryFile(dir=out_dir))
    sinks = prob_mod._open_tables(stack, [(fh, header) for fh, (_, _, header) in zip(temp, files)])
    for blocks in detector_mod._run_blocks(curve, k, prob_mod._CSV_BLOCK,
                                           arrival=prepared["arrival"]):
        columns = {}
        if blocks[1]:
            t, entry_rate = blocks[1][0], blocks[1][-1]
            cells = prob_mod._format_columns([t, entry_rate])
            texts.writelines(cells)
            columns = {t.tobytes(): cells[0], entry_rate.tobytes(): cells[1]}
        prob_mod._write_rows(sinks, [blocks[j] for j, _, _ in files], columns)
    shared = {name: partial(_copy, fh) for fh, (_, name, _) in zip(temp, files)}
    if texts is not None:
        # this pass checked every block of the curve the rows read
        shared |= {"columns": partial(_read_columns, texts),
                   "curve": replace(curve, checked=True)}
    return prepared | shared


def _read_columns(texts, i: int, schedule: tuple) -> dict:
    """The texts of the `t` and `entry_rate` of block i, whose schedule
    columns are `schedule`, by their bits (none past the schedule's end)."""
    if not schedule:
        return {}
    t, entry_rate = schedule[0], schedule[-1]
    texts.seek(2 * i * prob_mod._CSV_BLOCK * prob_mod._CSV_WIDTH)
    cells = np.frombuffer(texts.read(2 * t.size * prob_mod._CSV_WIDTH),
                          np.uint8).reshape(2, t.size, prob_mod._CSV_WIDTH)
    return {t.tobytes(): cells[0], entry_rate.tobytes(): cells[1]}


def _copy(src, path):
    """Write the bytes of the open file `src` to `path`."""
    src.seek(0)
    with open(path, "wb") as dst:
        shutil.copyfileobj(src, dst)
