"""Tests of the benchmark itself: exact counts repeat, the tracer is robust,
the calibration kernel repeats and is independent of the program.

    python3 -m pytest -q perfbench/test_counts.py
"""

from __future__ import annotations

import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import layer_metrics, run_op  # noqa: E402
from tracer import TARGETS, Target, Tracer  # noqa: E402
from workloads import WORKLOADS, apply_d1_shim, load_nhqc  # noqa: E402

EXACT = (
    "propagator.members",
    "propagator.hops",
    "propagator.frustrated",
    "propagator.member_steps",
    "adiabatic.slot_frames.points",
    "observables.csv.bytes",
)

# Reduced sizes on the same code paths; fig3 keeps two chunks on two threads.
SMALL = {
    "fig1-dense": dict(samples=256, steps=20),
    "fig3-sparse-2t": dict(samples=8192 + 256, steps=20),
    "nonadiabatic-coupled": dict(samples=128, steps=20),
}


@pytest.fixture(scope="module")
def nhqc():
    package = load_nhqc()
    apply_d1_shim(package)
    return package


def traced_counts(nhqc, workload, seed, path):
    tracer = Tracer()
    op = run_op(nhqc, workload, seed, path, tracer)
    assert not op.failures, op.failures
    metrics, absent = layer_metrics(tracer, op, op.wall)
    assert absent == []
    return {name: metrics[name][0] for name in EXACT}, op.sha


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_counts_repeat_exactly(nhqc, name, tmp_path):
    workload = replace(WORKLOADS[name], **SMALL[name])
    first, sha1 = traced_counts(nhqc, workload, 5, tmp_path / "a.csv")
    second, sha2 = traced_counts(nhqc, workload, 5, tmp_path / "b.csv")
    assert first == second
    assert sha1 == sha2
    assert first["propagator.members"] > 0
    assert first["propagator.member_steps"] > 0
    assert first["adiabatic.slot_frames.points"] > 0
    assert first["observables.csv.bytes"] > 0
    if workload.mode == "nonadiabatic":
        assert first["propagator.hops"] > 0


def test_tracer_marks_removed_names_absent(nhqc):
    targets = TARGETS + (
        Target("gone.function", "nhqc.propagator", "no_such_function"),
        Target("gone.method", "nhqc.propagator", "NoSuchClass.method"),
        Target("gone.module", "nhqc.no_such_module", "f"),
    )
    with Tracer(targets=targets) as tracer:
        pass
    assert tracer.absent_layers() == ["gone.function", "gone.method", "gone.module"]


def test_tracer_restores_originals(nhqc):
    state = nhqc.propagator.EnsembleState
    before = (dict(vars(state)), dict(vars(nhqc.propagator)))
    moments = vars(nhqc.observables.MomentAccumulator)["from_samples"]
    with Tracer():
        assert vars(state)["advance"] is not before[0]["advance"]
    assert dict(vars(state)) == before[0]
    assert dict(vars(nhqc.propagator)) == before[1]
    assert vars(nhqc.observables.MomentAccumulator)["from_samples"] is moments


def test_d1_shim_does_nothing_once_the_name_is_bound(nhqc):
    assert hasattr(nhqc.propagator, "slot_frames")
    assert apply_d1_shim(nhqc) is False


def test_calibration_repeats_without_the_program():
    # a fresh interpreter: the kernel must not import nhqc, or a change to
    # the program could move the unit the timings are divided by
    code = (
        "import sys; from calibrate import Calibration; c = Calibration(rounds=1); "
        "c.run(); c.run(); "
        "assert not [m for m in sys.modules if m.split('.')[0] == 'nhqc'], 'nhqc imported'"
    )
    subprocess.run([sys.executable, "-c", code], cwd=Path(__file__).resolve().parent, check=True, timeout=120)
