"""Workload definitions, program loading and output checks for the nhqc benchmark.

The program is imported from the ``src`` directory next to this one, never
from an installed copy, so a checkout without its sources fails loudly.
"""

from __future__ import annotations

import importlib
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Reference couplings shared by every workload.
JZ = 0.5
COUPLING = 0.24
BETA = 0.1
DT = 0.01

# Trace-law tolerance of acceptance criteria 1 and 2.
TRACE_LAW_TOL = 1e-8


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    jx: float
    jy: float
    gamma_kind: str
    gamma: float
    initial_state: str
    mode: str
    samples: int
    steps: int
    stride: int
    threads: int
    trace_law: str | None  # "identity" | "projector" | None (no exact law)

    def params(self, nhqc, seed: int):
        """(sp, bp, decay, config) for this workload and seed."""
        model = nhqc.model
        sp = model.SpinChainParams(jx=self.jx, jy=self.jy, jz=JZ)
        bp = model.BathParams(c=COUPLING, beta=BETA)
        decay = model.decay_operator(self.gamma_kind, self.gamma)
        config = model.SimConfig(
            n_steps=self.steps,
            seed=seed % 2**64,
            dt=DT,
            n_samples=self.samples,
            mode=self.mode,
            initial_state=self.initial_state,
            output_stride=self.stride,
        )
        return sp, bp, decay, config

    def warmup(self) -> "Workload":
        """Tiny run with this workload's own parameters, for set-up."""
        return replace(self, samples=64, steps=2 * self.stride)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="fig1-dense",
            why="one 8192-sample chunk of the fig1 curve at stride 1: reduction-bound, the single-threaded baseline",
            jx=-1.0, jy=-1.0, gamma_kind="identity", gamma=0.5, initial_state="phi",
            mode="adiabatic", samples=8192, steps=100, stride=1, threads=1,
            trace_law="identity",
        ),
        Workload(
            name="fig3-sparse-2t",
            # Named for the two-thread design; at threads=2 its wall time spread
            # about 20 % between runs on a 2-core VM, so it runs on one thread.
            why="two chunks of PSI (K=6 pairs) at stride 10: step work, bath sampling and the chunk combine",
            jx=-1.0, jy=-1.0, gamma_kind="projector_ee", gamma=0.1, initial_state="psi",
            mode="adiabatic", samples=16384, steps=100, stride=10, threads=1,
            trace_law="projector",
        ),
        Workload(
            name="nonadiabatic-coupled",
            why="jx != jy couples both blocks: the hop stage and off-diagonal decay channels, which the other two bypass",
            jx=-1.0, jy=-0.6, gamma_kind="projector_ee", gamma=0.1, initial_state="psi",
            mode="nonadiabatic", samples=512, steps=60, stride=10, threads=1,
            trace_law=None,
        ),
    )
}


def load_nhqc():
    """Import nhqc from this checkout's sources and return the package.

    Raises ImportError when the sources are missing or another copy of the
    package would be imported instead.
    """
    init = SRC / "nhqc" / "__init__.py"
    if not init.is_file():
        raise ImportError(f"nhqc sources not found at {init}")
    sys.path.insert(0, str(SRC))
    nhqc = importlib.import_module("nhqc")
    if not Path(nhqc.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"imported nhqc from {nhqc.__file__}, not from {SRC}")
    for sub in ("model", "adiabatic", "propagator", "observables", "oracle", "cli"):
        importlib.import_module(f"nhqc.{sub}")
    return nhqc


def apply_d1_shim(nhqc) -> bool:
    """Bind the name ``EnsembleState.__init__`` needs but the propagator
    module does not import (defect D1 of the seed).

    Does nothing, and returns False, once the module binds the name itself
    or the constructor no longer refers to it.
    """
    prop = nhqc.propagator
    init = getattr(getattr(prop, "EnsembleState", None), "__init__", None)
    names = getattr(getattr(init, "__code__", None), "co_names", ())
    if "slot_frames" not in names or hasattr(prop, "slot_frames"):
        return False
    prop.slot_frames = nhqc.adiabatic.slot_frames
    return True


def check_output(nhqc, workload: Workload, series, decay) -> tuple[list[str], dict]:
    """Check one run's time series; return (failures, diagnostics).

    Failures gate the run.  Diagnostics are recorded only: the nonadiabatic
    mode has no exact trace law and is known to drift upward (defect D3).
    """
    failures: list[str] = []
    diagnostics: dict = {}
    oracle = nhqc.oracle
    times = series.times()
    traces = series.traces()
    expected_rows = workload.steps // workload.stride + 1
    if len(traces) != expected_rows:
        failures.append(f"expected {expected_rows} rows, got {len(traces)}")
        return failures, diagnostics

    if workload.trace_law == "identity":
        law = np.array([oracle.trace_law_identity(workload.gamma, t) for t in times])
    else:
        # |ee> population of PSI is 1/2; exact only for jx == jy (adiabatic)
        law = np.array([oracle.trace_law_projector(workload.gamma, t, 0.5) for t in times])
    error = float(np.max(np.abs(traces - law)))

    if workload.trace_law is not None:
        diagnostics["trace_law_max_abs_error"] = error
        if not error < TRACE_LAW_TOL:
            failures.append(f"trace law error {error:.3e} >= {TRACE_LAW_TOL:g}")
    if workload.mode == "adiabatic":
        try:
            nhqc.cli.check_run_invariants(series, decay)
        except ValueError as exc:
            failures.append(f"run invariants: {exc}")
    else:
        stderr = np.array([row.trace_stderr for row in series.rows])
        has_err = stderr > 0
        z = np.abs(traces - law)[has_err] / stderr[has_err]
        diagnostics["d3_trace_law_projector_max_z"] = float(z.max()) if z.size else 0.0
        diagnostics["d3_max_trace_increment"] = float(np.max(np.diff(traces)))
    return failures, diagnostics
