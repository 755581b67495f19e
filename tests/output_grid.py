"""A committed output-regression grid: 32 small runs whose every output value
and count is pinned in ``output_grid.json``.

The grid is both modes x jx in {-1, -0.6} x {identity at gamma = 0.5,
projector_ee at gamma = 0.1} x {phi, psi} x c in {0, 0.24}, with the
reference jy, jz and beta, at 300 samples, 40 steps, output stride 10 and
seed 3.  Each run records, per output time, the 16 complex elements, their
16 standard errors and the trace's standard error, plus the run's member
and hop counts.  ``test_output_grid.py`` reruns it.

A change that moves any value regenerates the table, and states the largest
change per column in CHANGES.md.  ``--diff`` prints those numbers against
the committed table, for each run that moved, and leaves the table as it is:

    PYTHONPATH=src python tests/output_grid.py --diff
    PYTHONPATH=src python tests/output_grid.py
"""

import itertools
import json
import sys
from pathlib import Path

import numpy as np

from nhqc.model import REFERENCE_BP, REFERENCE_SP, BathParams, SimConfig, SpinChainParams, decay_operator
from nhqc.propagator import simulate

TABLE = Path(__file__).with_name("output_grid.json")
SETTINGS = {"jy": REFERENCE_SP.jy, "jz": REFERENCE_SP.jz, "beta": REFERENCE_BP.beta,
            "samples": 300, "steps": 40, "output_stride": 10, "seed": 3}
DECAYS = (("identity", 0.5), ("projector_ee", 0.1))
COLUMNS = ("re", "im", "stderr", "trace_stderr")


def grid() -> list[dict]:
    """The grid's configurations, in table order."""
    return [
        {"mode": mode, "jx": jx, "gamma_kind": kind, "gamma": gamma, "initial_state": state, "c": c}
        for mode, jx, (kind, gamma), state, c in itertools.product(
            ("adiabatic", "nonadiabatic"), (-1.0, -0.6), DECAYS, ("phi", "psi"), (0.0, 0.24)
        )
    ]


def point_id(point: dict) -> str:
    return "{mode}-jx{jx}-{gamma_kind}{gamma}-{initial_state}-c{c}".format(**point)


def run(point: dict) -> dict:
    """One configuration's outputs and counts, as the table holds them."""
    sp = SpinChainParams(jx=point["jx"], jy=SETTINGS["jy"], jz=SETTINGS["jz"])
    bp = BathParams(c=point["c"], beta=SETTINGS["beta"])
    config = SimConfig(
        n_steps=SETTINGS["steps"], seed=SETTINGS["seed"], n_samples=SETTINGS["samples"],
        mode=point["mode"], initial_state=point["initial_state"], output_stride=SETTINGS["output_stride"],
    )
    series, summary = simulate(sp, bp, decay_operator(point["gamma_kind"], point["gamma"]), config)
    rows = [
        {
            "t": row.t,
            "re": row.density.elements.real.ravel().tolist(),
            "im": row.density.elements.imag.ravel().tolist(),
            "stderr": row.density.stderr.ravel().tolist(),
            "trace_stderr": row.trace_stderr,
        }
        for row in series.rows
    ]
    return {**point, "n_members": summary.n_members, "n_hops": summary.n_hops, "rows": rows}


def diff() -> None:
    """Print, for each run whose values or counts differ from the committed
    table, the largest |change| per column, how many values changed only
    their sign of zero, and any change in its member or hop counts; then
    the largest |change| per column over all runs."""
    largest = dict.fromkeys(COLUMNS, 0.0)
    moved = 0
    for point, want in zip(grid(), json.loads(TABLE.read_text())["runs"]):
        got = run(point)
        changes = [f"{key} {want[key]} -> {got[key]}" for key in ("n_members", "n_hops") if got[key] != want[key]]
        zero_signs = 0
        for column in COLUMNS:
            new, old = (np.array([row[column] for row in rows], dtype=float) for rows in (got["rows"], want["rows"]))
            delta = np.abs(new - old).max()
            zero_signs += np.count_nonzero((new == old) & (np.signbit(new) != np.signbit(old)))
            largest[column] = max(largest[column], delta)
            if delta:
                changes.append(f"{column} {delta:.2g}")
        if zero_signs:
            changes.append(f"signs of zero {zero_signs}")
        if changes:
            moved += 1
            print(f"{point_id(point)}: " + ", ".join(changes))
    print(f"{moved} of {len(grid())} runs moved; largest |change|: " + ", ".join(f"{c} {largest[c]:.2g}" for c in COLUMNS))


def main() -> None:
    # one line per output row, so that a regenerated table diffs row by row
    runs = []
    for point in grid():
        result = run(point)
        rows = ",\n".join("  " + json.dumps(row) for row in result.pop("rows"))
        runs.append(" " + json.dumps(result)[:-1] + ', "rows": [\n' + rows + "\n ]}")
    lines = ['{"settings": ' + json.dumps(SETTINGS) + ', "runs": [', ",\n".join(runs), "]}"]
    TABLE.write_text("\n".join(lines) + "\n")


if __name__ == "__main__":
    diff() if sys.argv[1:] == ["--diff"] else main()
