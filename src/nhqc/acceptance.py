"""Acceptance criteria for the simulator, runnable from the CLI and pytest.

Each criterion returns a CriterionResult with a human-readable detail line;
expensive time series are cached and shared between criteria.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, replace

import numpy as np

from .model import (
    PHI,
    PSI,
    REFERENCE_BP,
    REFERENCE_SP,
    SimConfig,
    decay_operator,
    subsystem_hamiltonian,
)
from .observables import write_csv
from .oracle import (
    analytic_energies,
    decay_matrix,
    frames_at,
    slot_sigma_z,
    solve_quantum,
    trace_law_identity,
    trace_law_projector,
)
from .propagator import simulate
from .sampler import bath_sigmas, initial_subsystem, sample_bath_point

__all__ = ["CriterionResult", "run_all"] + [f"criterion_{k}" for k in range(1, 8)]

ACCEPT_SEED = 20160914

_CACHE: dict = {}


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str


def _cached_run(kind, gamma, state, samples, steps=1000, stride=1, c=0.24):
    key = (kind, gamma, state, samples, steps, stride, c)
    if key not in _CACHE:
        bp = replace(REFERENCE_BP, c=c)
        config = SimConfig(
            n_steps=steps,
            seed=ACCEPT_SEED,
            dt=0.01,
            n_samples=samples,
            initial_state=state,
            output_stride=stride,
        )
        _CACHE[key] = simulate(REFERENCE_SP, bp, decay_operator(kind, gamma), config)
    return _CACHE[key]


def criterion_1() -> CriterionResult:
    """Identity-decay trace law at full coupling, plus the runtime target."""
    samples = 50_000
    budget = 120.0
    worst = 0.0
    slowest = 0.0
    for gamma1 in (0.1, 0.5, 1.0):
        series, summary = _cached_run("identity", gamma1, PHI, samples)
        times = series.times()
        law = np.array([trace_law_identity(gamma1, t) for t in times])
        worst = max(worst, float(np.max(np.abs(series.traces() - law))))
        slowest = max(slowest, summary.wall_time)
    series0, summary0 = _cached_run("identity", 0.0, PHI, samples)
    dev0 = float(np.max(np.abs(series0.traces() - 1.0)))
    slowest = max(slowest, summary0.wall_time)
    passed = worst < 1e-8 and dev0 < 1e-10 and slowest < budget
    return CriterionResult(
        1,
        "identity-decay trace law",
        passed,
        f"max |trace - exp(-2 g t)| = {worst:.2e} (tol 1e-8); "
        f"gamma=0 drift {dev0:.2e} (tol 1e-10); "
        f"slowest curve {slowest:.0f} s of {budget:.0f} s at {samples} samples",
    )


def criterion_2() -> CriterionResult:
    """Projector-decay trace law with the half plateau."""
    samples = 10_000
    worst = 0.0
    plateau_gap = None
    for gamma2 in (0.001, 0.01, 0.1):
        series, _ = _cached_run("projector_ee", gamma2, PSI, samples)
        times = series.times()
        law = np.array([trace_law_projector(gamma2, t, 0.5) for t in times])
        worst = max(worst, float(np.max(np.abs(series.traces() - law))))
        if gamma2 == 0.1:
            plateau_gap = float(series.traces()[-1] - 0.5)
    expected_gap = trace_law_projector(0.1, 10.0, 0.5) - 0.5
    plateau_ok = abs(plateau_gap - expected_gap) < 1e-8
    passed = worst < 1e-8 and plateau_ok
    return CriterionResult(
        2,
        "projector-decay trace law",
        passed,
        f"max |trace - (0.5 + 0.5 exp(-2 g t))| = {worst:.2e} (tol 1e-8); "
        f"t=10 sits {plateau_gap:.6f} above the 0.5 plateau (expected {expected_gap:.6f})",
    )


def criterion_3() -> CriterionResult:
    """Bath-decoupled runs reproduce the dense-matrix integrator."""
    samples = 256
    h_s = subsystem_hamiltonian(REFERENCE_SP)
    worst = 0.0
    for kind, gamma in (("identity", 0.5), ("projector_ee", 0.1)):
        for state in (PHI, PSI):
            series, _ = _cached_run(kind, gamma, state, samples, stride=10, c=0.0)
            states = solve_quantum(initial_subsystem(state), h_s, decay_matrix(decay_operator(kind, gamma)), 0.01, 1000)
            for row, k in zip(series.rows, range(0, 1001, 10)):
                dev = np.max(np.abs(row.density.elements - states[k].rho))
                worst = max(worst, float(dev))
    return CriterionResult(
        3,
        "pure-quantum reduction at zero coupling",
        worst < 1e-5,
        f"max elementwise |ensemble - RK4| = {worst:.2e} (tol 1e-5) over both "
        "decay operators and both initial states",
    )


def criterion_4() -> CriterionResult:
    """The engine's closed-form frame energies, forces and couplings against
    independent oracles."""
    sp, bp = REFERENCE_SP, REFERENCE_BP
    rng = np.random.default_rng(ACCEPT_SEED)
    n_energy = 1000
    R = rng.uniform(-10, 10, (2, n_energy))
    levels = np.sort(frames_at(sp, bp, R).energies, axis=0)
    worst_e = max(
        float(np.max(np.abs(levels[:, i] - analytic_energies(sp, bp, R[:, i]))))
        for i in range(n_energy)
    )

    # Hellmann-Feynman force of every slot, c <sz_k> - M omega^2 R_k,
    # against central differences of that slot's energy
    h = 1e-5
    R = rng.uniform(-4, 4, (2, 100))
    frames = frames_at(sp, bp, R)
    force = bp.c * slot_sigma_z(frames.blocks) - bp.mass * bp.omega**2 * R[:, None, :]
    worst_f = 0.0
    for k in range(2):
        dR = np.zeros((2, 1))
        dR[k] = h
        up = frames_at(sp, bp, R + dR).energies
        dn = frames_at(sp, bp, R - dR).energies
        worst_f = max(worst_f, float(np.max(np.abs(force[k] + (up - dn) / (2 * h)))))

    d = frames_at(sp, bp, np.zeros((2, 1))).couplings[(3, 2)][0]
    dev_d = float(np.max(np.abs(d - np.array([0.06, -0.06]))))

    # for jx = jy the |ee>, |gg> slots (block A) carry no coupling channel
    couplings = frames_at(sp, bp, rng.uniform(-3, 3, (2, 100))).couplings
    block_a = [np.max(np.abs(dv)) for (a, b), dv in couplings.items() if min(a, b) < 2]
    worst_block = float(max(block_a, default=0.0))

    passed = worst_e < 1e-12 and worst_f < 1e-6 and dev_d < 1e-10 and worst_block < 1e-12
    return CriterionResult(
        4,
        "eigen/force/coupling oracles",
        passed,
        f"energies vs closed form {worst_e:.2e} (1e-12); forces vs finite differences "
        f"{worst_f:.2e} (1e-6); block coupling at origin off by {dev_d:.2e} (1e-10); "
        f"|ee>/|gg> couplings {worst_block:.2e} (1e-12)",
    )


def criterion_5() -> CriterionResult:
    """Bath-sampling variance and 1/sqrt(N) scaling of the stderr."""
    n_draws = 1_000_000
    target = bath_sigmas(REFERENCE_BP)[0] ** 2
    R, P = sample_bath_point(REFERENCE_BP, ACCEPT_SEED + 1, 0, n_draws)
    variances = np.concatenate([R, P]).var(axis=1)
    var_dev = float(np.max(np.abs(variances / target - 1.0)))

    big_samples = 50_000
    small_samples = big_samples // 4
    big, _ = _cached_run("identity", 0.0, PHI, big_samples)
    small, _ = _cached_run("identity", 0.0, PHI, small_samples)
    err_big = big.rows[-1].density.stderr[1, 1]
    err_small = small.rows[-1].density.stderr[1, 1]
    ratio = float(err_small / err_big)
    passed = var_dev < 0.01 and 1.6 < ratio < 2.4
    return CriterionResult(
        5,
        "statistical machinery",
        passed,
        f"sampled variance off by {var_dev * 100:.3f}% of {target:.4f} (tol 1%) at {n_draws} draws; "
        f"stderr ratio {ratio:.3f} for x4 fewer samples (expect 2.0 +- 20%)",
    )


def criterion_6() -> CriterionResult:
    """Hermiticity and trace monotonicity on the reference runs."""
    samples_1 = 50_000
    samples_2 = 10_000
    worst_h = 0.0
    growth = -np.inf
    for kind, gamma, state, samples in (
        ("identity", 0.5, PHI, samples_1),
        ("identity", 1.0, PHI, samples_1),
        ("projector_ee", 0.1, PSI, samples_2),
        ("projector_ee", 0.01, PSI, samples_2),
    ):
        series, _ = _cached_run(kind, gamma, state, samples)
        for row in series.rows:
            worst_h = max(worst_h, row.density.hermiticity_defect())
        growth = max(growth, float(np.max(np.diff(series.traces()))))
    passed = worst_h < 1e-10 and growth <= 1e-12
    return CriterionResult(
        6,
        "hermiticity and monotone trace",
        passed,
        f"max ||rho - rho^dag|| = {worst_h:.2e} (tol 1e-10); "
        f"largest trace increment {growth:.2e} (tol 1e-12)",
    )


def criterion_7() -> CriterionResult:
    """Identical output bytes for 1, 2 and 8 worker threads."""
    samples = 20_000
    config = SimConfig(
        n_steps=100,
        seed=ACCEPT_SEED + 2,
        dt=0.01,
        n_samples=samples,
        initial_state=PSI,
        output_stride=10,
    )
    decay = decay_operator("projector_ee", 0.05)
    payloads = []
    for threads in (1, 2, 8):
        series, _ = simulate(REFERENCE_SP, REFERENCE_BP, decay, config, threads=threads)
        buf = io.StringIO()
        write_csv(series, buf)
        payloads.append(buf.getvalue())
    passed = payloads[0] == payloads[1] == payloads[2]
    return CriterionResult(
        7,
        "thread-count determinism",
        passed,
        f"CSV bytes {'identical' if passed else 'DIFFER'} across 1/2/8 threads "
        f"({samples} samples, {len(payloads[0])} bytes)",
    )


def run_all() -> list[CriterionResult]:
    checks = (
        criterion_1,
        criterion_2,
        criterion_3,
        criterion_4,
        criterion_5,
        criterion_6,
        criterion_7,
    )
    return [check() for check in checks]
