"""Independent references that cross-check the ensemble engine.

* The bath-decoupled limit (dense-matrix RK4) and the two closed-form trace
  laws, exact answers in the regimes where they exist.
* The generic eigensolver route: ``build_frame`` diagonalizes the full 4x4
  dressed Hamiltonian numerically (LAPACK), sorts energies ascending and
  fixes the eigenvector gauge; Hellmann-Feynman forces, derivative
  couplings and decay matrices follow from its frames.
* ``sstp_step``, the single-member short-time step on that route: a plain
  restatement of the engine's step (the SSTP scheme of Mac Kernan, Ciccotti
  and Kapral, JCP 116, 2346 (2002)).

Nothing here shares code with the ensemble engine, which runs on the
closed-form block frames of ``nhqc.adiabatic``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .model import (
    SZ1_DIAG,
    SZ2_DIAG,
    AdiabaticFrame,
    BathParams,
    DecaySpec,
    PairTrajectory,
    PhasePoint,
    SpinChainParams,
    bath_potential,
    coupling_hamiltonian,
    subsystem_hamiltonian,
)

__all__ = [
    "DEGENERACY_TOL",
    "DegeneratePairError",
    "DegeneratePairWarning",
    "GammaAdiabatic",
    "QuantumState",
    "TransitionTable",
    "analytic_energies",
    "build_frame",
    "classical_step",
    "dressed_hamiltonian",
    "frame_permutation",
    "gamma_in_adiabatic",
    "hamiltonian_gradient",
    "hellmann_feynman_force",
    "momentum_jump",
    "nonadiabatic_coupling",
    "rk4_step",
    "solve_quantum",
    "sstp_step",
    "trace_law_identity",
    "trace_law_projector",
    "transition_amplitudes",
]

DEGENERACY_TOL = 1e-9


@dataclass(frozen=True)
class QuantumState:
    """Dense 4x4 density matrix at time t."""

    rho: np.ndarray
    t: float = 0.0


def _rhs(rho: np.ndarray, h: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    # d rho/dt = -i [H, rho] - {Gamma, rho}   (hbar = 1)
    return -1j * (h @ rho - rho @ h) - (gamma @ rho + rho @ gamma)


def rk4_step(state: QuantumState, h: np.ndarray, gamma: np.ndarray, dt: float) -> QuantumState:
    """Classic fourth-order step of the non-unitary von Neumann equation."""
    if dt <= 0:
        raise ValueError("dt must be > 0")
    rho = np.asarray(state.rho, dtype=complex)
    k1 = _rhs(rho, h, gamma)
    k2 = _rhs(rho + 0.5 * dt * k1, h, gamma)
    k3 = _rhs(rho + 0.5 * dt * k2, h, gamma)
    k4 = _rhs(rho + dt * k3, h, gamma)
    return QuantumState(rho + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4), state.t + dt)


def solve_quantum(rho0: np.ndarray, h: np.ndarray, gamma: np.ndarray, dt: float, n_steps: int) -> list[QuantumState]:
    """Integrate n_steps and return the state after every step (t=0 included)."""
    states = [QuantumState(np.asarray(rho0, dtype=complex), 0.0)]
    for _ in range(n_steps):
        states.append(rk4_step(states[-1], h, gamma, dt))
    return states


def trace_law_identity(gamma1: float, t: float) -> float:
    """Trace of a unit-trace state under uniform decay: exp(-2 gamma1 t).

    Exact for any Hamiltonian and any bath coupling, because a uniform decay
    operator commutes with everything.
    """
    return float(np.exp(-2.0 * gamma1 * t))


def trace_law_projector(gamma2: float, t: float, p_ee0: float) -> float:
    """Trace under the doubly-excited-state drain, adiabatic dynamics.

    The |ee> population p_ee0 decays at rate 2*gamma2 while the rest is
    conserved; exact for this model because |ee> is an adiabatic state at
    every bath configuration and the decay operator has no off-diagonal
    part in the adiabatic basis.
    """
    if not 0.0 <= p_ee0 <= 1.0:
        raise ValueError("p_ee0 must be in [0, 1]")
    return float((1.0 - p_ee0) + p_ee0 * np.exp(-2.0 * gamma2 * t))


# ---------------------------------------------------------------------------
# Generic eigensolver route (one configuration at a time).
# ---------------------------------------------------------------------------

class DegeneratePairError(Exception):
    """Raised when a nonadiabatic coupling is requested across a degeneracy."""


class DegeneratePairWarning(UserWarning):
    """Emitted when a Hellmann-Feynman force touches a degenerate level."""


def dressed_hamiltonian(sp: SpinChainParams, bp: BathParams, R: np.ndarray) -> np.ndarray:
    """h(R): subsystem plus coupling plus the scalar bath potential."""
    R = np.asarray(R, dtype=float)
    return (
        subsystem_hamiltonian(sp)
        + coupling_hamiltonian(bp, R)
        + bath_potential(bp, R) * np.eye(4)
    )


def hamiltonian_gradient(bp: BathParams, R: np.ndarray) -> np.ndarray:
    """dh/dR_k, analytic: diagonal -c sz^(k) + M omega^2 R_k I, shape (2, 4, 4)."""
    R = np.asarray(R, dtype=float)
    grad = np.zeros((2, 4, 4), dtype=complex)
    restore = bp.mass * bp.omega**2
    grad[0] = np.diag(-bp.c * SZ1_DIAG + restore * R[0])
    grad[1] = np.diag(-bp.c * SZ2_DIAG + restore * R[1])
    return grad


def _resolve_degeneracies(energies: np.ndarray, vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rotate eigenvectors inside degenerate groups onto the coupling axes.

    Within each group the vectors are chosen to diagonalize the projection of
    sz^(1) (then sz^(2) for any remaining tie), ordered by descending
    expectation value.  For this model that yields exactly |ee>, |gg> at the
    crossing of block A.
    """
    i = 0
    while i < 4:
        j = i + 1
        while j < 4 and energies[j] - energies[i] < DEGENERACY_TOL:
            j += 1
        if j - i > 1:
            sub = vectors[:, i:j]
            # tiny symmetry-breaking sz2 admixture resolves ties deterministically
            op = np.diag(SZ1_DIAG + 1e-4 * SZ2_DIAG).astype(complex)
            proj = sub.conj().T @ op @ sub
            vals, rot = np.linalg.eigh(proj)
            order = np.argsort(vals)[::-1]
            vectors[:, i:j] = sub @ rot[:, order]
        i = j
    return energies, vectors


def _canonical_gauge(vectors: np.ndarray) -> np.ndarray:
    """Make the largest-magnitude component of each column real positive."""
    lead = np.argmax(np.abs(vectors), axis=0)
    for col in range(vectors.shape[1]):
        pivot = vectors[lead[col], col]
        if abs(pivot) > 0:
            vectors[:, col] *= np.conj(pivot) / abs(pivot)
    return vectors


def build_frame(
    sp: SpinChainParams,
    bp: BathParams,
    R: np.ndarray,
    previous: AdiabaticFrame | None = None,
) -> AdiabaticFrame:
    """Diagonalize h(R); energies ascending, gauge fixed, optionally phase-
    aligned against a previous frame for continuity along a trajectory.

    With ``previous`` given, each column is phase-rotated so its overlap with
    the same column of the previous frame is real positive; columns whose
    same-index overlap is small (a surface crossing happened in between) keep
    the canonical gauge, and ``frame_permutation`` recovers the relabeling.
    """
    R = np.asarray(R, dtype=float)
    h = dressed_hamiltonian(sp, bp, R)
    if not np.all(np.isfinite(h)):
        raise ValueError("non-finite Hamiltonian; cannot diagonalize")
    energies, vectors = np.linalg.eigh(h)
    energies, vectors = _resolve_degeneracies(energies, vectors)
    vectors = _canonical_gauge(vectors)
    if previous is not None:
        overlaps = np.einsum("ia,ia->a", previous.vectors.conj(), vectors)
        for col in range(4):
            if abs(overlaps[col]) > 0.1:
                vectors[:, col] *= np.conj(overlaps[col]) / abs(overlaps[col])
    return AdiabaticFrame(R_at=R, energies=energies, vectors=vectors)


def frame_permutation(previous: AdiabaticFrame, current: AdiabaticFrame) -> np.ndarray:
    """Column of ``current`` continuing each labeled state of ``previous``.

    Returns perm with perm[i] = j such that |<i;R_prev | j;R_now>| is maximal.
    Raises if the assignment is not a bijection (frames too far apart).
    """
    overlap = np.abs(previous.vectors.conj().T @ current.vectors)
    perm = np.argmax(overlap, axis=1)
    if len(set(perm.tolist())) != 4:
        raise ValueError("frames too far apart to track state labels")
    return perm


def analytic_energies(sp: SpinChainParams, bp: BathParams, R: np.ndarray) -> np.ndarray:
    """Closed-form spectrum of h(R) for jx = jy, sorted ascending.

    In that regime |ee> and |gg> are exact eigenstates while |eg>, |ge> mix
    inside their own block; an independent oracle for both frame routes.
    """
    if sp.jx != sp.jy:
        raise ValueError("closed form stated for jx = jy only")
    R = np.asarray(R, dtype=float)
    vb = bath_potential(bp, R)
    total = bp.c * (R[0] + R[1])
    diff = bp.c * (R[0] - R[1])
    wb = -(sp.jx + sp.jy)
    gap = np.hypot(wb, diff)
    levels = np.array(
        [-sp.jz - total, -sp.jz + total, sp.jz - gap, sp.jz + gap]
    )
    return np.sort(levels + vb)




def hellmann_feynman_force(
    sp: SpinChainParams, bp: BathParams, frame: AdiabaticFrame, alpha: int
) -> np.ndarray:
    """Force on surface alpha: -<alpha| dh/dR |alpha>.

    Warns (but still answers) when alpha sits within DEGENERACY_TOL of
    another level, where the adiabatic surface is not differentiable in
    general.
    """
    gaps = np.abs(frame.energies - frame.energies[alpha])
    gaps[alpha] = np.inf
    if np.min(gaps) < DEGENERACY_TOL:
        warnings.warn(
            f"force on level {alpha} within {DEGENERACY_TOL} of a degeneracy",
            DegeneratePairWarning,
            stacklevel=2,
        )
    grad = hamiltonian_gradient(bp, frame.R_at)
    vec = frame.vectors[:, alpha]
    return -np.real(np.einsum("i,kij,j->k", vec.conj(), grad, vec))


def _coupling_vector(bp: BathParams, frame: AdiabaticFrame, alpha: int, beta: int) -> np.ndarray:
    gap = frame.energies[beta] - frame.energies[alpha]
    if abs(gap) < DEGENERACY_TOL:
        raise DegeneratePairError(
            f"levels {alpha}, {beta} degenerate within {DEGENERACY_TOL}"
        )
    grad = hamiltonian_gradient(bp, frame.R_at)
    element = np.einsum("i,kij,j->k", frame.vectors[:, alpha].conj(), grad, frame.vectors[:, beta])
    return element / gap


def nonadiabatic_coupling(
    sp: SpinChainParams, bp: BathParams, frame: AdiabaticFrame, alpha: int, beta: int
) -> np.ndarray:
    """Derivative coupling d_ab = <a| dh/dR |b> / (E_b - E_a), length 2."""
    if alpha == beta:
        raise ValueError("coupling defined between distinct states")
    return _coupling_vector(bp, frame, alpha, beta)


@dataclass(frozen=True)
class GammaAdiabatic:
    """Decay operator in the adiabatic basis, split diagonal/off-diagonal."""

    full: np.ndarray
    diag: np.ndarray
    offdiag: np.ndarray


def gamma_in_adiabatic(decay: DecaySpec, frame: AdiabaticFrame) -> GammaAdiabatic:
    """Rotate the decay operator into the frame and split it."""
    full = frame.vectors.conj().T @ decay.matrix @ frame.vectors
    diag = np.real(np.diag(full)).copy()
    offdiag = full - np.diag(np.diag(full))
    return GammaAdiabatic(full=full, diag=diag, offdiag=offdiag)




@dataclass(frozen=True)
class TransitionTable:
    """Per-pair transition data at one phase-space point.

    ``d[a, b]`` is the coupling vector, ``hop_weight[a, b] = (P/M) . d_ab``
    the transition frequency (both zero across an exact degeneracy), and
    ``tgamma`` the off-diagonal decay transition tensor indexed [a, a', b, b'].
    """

    d: np.ndarray
    hop_weight: np.ndarray
    tgamma: np.ndarray


def transition_amplitudes(
    bp: BathParams, frame: AdiabaticFrame, point: PhasePoint, gadiab: GammaAdiabatic
) -> TransitionTable:
    """Tabulate everything the stochastic transition sampling needs."""
    velocity = point.P / bp.mass
    d = np.zeros((4, 4, 2), dtype=complex)
    hop = np.zeros((4, 4))
    for a in range(4):
        for b in range(4):
            if a == b:
                continue
            if abs(frame.energies[b] - frame.energies[a]) < DEGENERACY_TOL:
                continue  # no channel across an exact degeneracy
            d_ab = _coupling_vector(bp, frame, a, b)
            d[a, b] = d_ab
            hop[a, b] = float(np.real(velocity @ d_ab))
    tg = np.zeros((4, 4, 4, 4), dtype=complex)
    eye = np.eye(4)
    tg += np.einsum("ab,xy->axby", gadiab.offdiag, eye)
    tg += np.einsum("yx,ab->axby", gadiab.offdiag, eye)
    return TransitionTable(d=d, hop_weight=hop, tgamma=tg)


# ---------------------------------------------------------------------------
# Single-member reference step on the eigensolver route.
# ---------------------------------------------------------------------------

def classical_step(point: PhasePoint, force_pair, bp: BathParams, dt: float, force_fn=None) -> PhasePoint:
    """One velocity-Verlet step on the mean of two adiabatic surfaces.

    ``force_pair`` holds the two surface forces at the current position; the
    closing half-kick re-evaluates the mean force at the new position via
    ``force_fn(R)`` when given (a constant-force leapfrog otherwise).
    """
    if dt <= 0:
        raise ValueError("dt must be > 0")
    f0 = 0.5 * (np.asarray(force_pair[0], dtype=float) + np.asarray(force_pair[1], dtype=float))
    p_half = point.P + 0.5 * dt * f0
    r_new = point.R + dt * p_half / bp.mass
    f1 = f0 if force_fn is None else np.asarray(force_fn(r_new), dtype=float)
    return PhasePoint(R=r_new, P=p_half + 0.5 * dt * f1)


def momentum_jump(point: PhasePoint, d, delta_e: float, mass: float) -> PhasePoint | None:
    """Shift the momentum along the coupling direction to absorb delta_e.

    Returns the shifted point, or None for a frustrated hop (not enough
    kinetic energy along the coupling direction for an uphill transition).
    The coupling vector must be real up to gauge (true for this model).
    """
    direction = np.real(np.asarray(d))
    norm = np.linalg.norm(direction)
    if norm == 0.0:
        raise ValueError("coupling direction must be nonzero")
    dhat = direction / norm
    pdot = float(point.P @ dhat)
    radicand = pdot * pdot - 2.0 * mass * delta_e
    if radicand < 0.0:
        return None
    shifted = math.copysign(math.sqrt(radicand), pdot)
    return PhasePoint(R=point.R, P=point.P + (shifted - pdot) * dhat)


def _channel_ids(table) -> list[tuple[int, int, str]]:
    """Static transition-channel order shared by member and mirror."""
    ids = []
    for s in range(4):
        for t in range(4):
            if s != t and table.hop_weight[s, t] != 0.0:
                ids.append((s, t, "d"))
    for s in range(4):
        for t in range(4):
            if s != t and abs(table.tgamma[s, 0, t, 0]) > 0.0:
                ids.append((s, t, "gamma"))
    return ids


def sstp_step(
    member: PairTrajectory,
    frame: AdiabaticFrame,
    sp: SpinChainParams,
    bp: BathParams,
    decay: DecaySpec,
    dt: float,
    mode: str = "adiabatic",
    rng: np.random.Generator | None = None,
) -> tuple[PairTrajectory, AdiabaticFrame]:
    """Advance one member one step on the generic eigensolver route.

    Reference implementation of the engine step: velocity Verlet on the mean
    surface, trapezoidal phase and decay accumulation over the endpoint
    frames, state labels tracked through crossings by frame overlap, and (in
    nonadiabatic mode) one sampled transition with momentum jump.
    """
    alpha, alpha_p = member.alpha, member.alpha_prime
    store: dict = {}

    def mean_force(r_new):
        nxt = build_frame(sp, bp, r_new, previous=frame)
        perm = frame_permutation(frame, nxt)
        store["frame"] = nxt
        store["perm"] = perm
        fa = hellmann_feynman_force(sp, bp, nxt, int(perm[alpha]))
        fb = hellmann_feynman_force(sp, bp, nxt, int(perm[alpha_p]))
        return 0.5 * (fa + fb)

    f_a = hellmann_feynman_force(sp, bp, frame, alpha)
    f_b = hellmann_feynman_force(sp, bp, frame, alpha_p)
    point = classical_step(member.point, (f_a, f_b), bp, dt, mean_force)
    nxt: AdiabaticFrame = store["frame"]
    a1 = int(store["perm"][alpha])
    b1 = int(store["perm"][alpha_p])

    gad0 = gamma_in_adiabatic(decay, frame)
    gad1 = gamma_in_adiabatic(decay, nxt)
    omega0 = frame.energies[alpha] - frame.energies[alpha_p]
    omega1 = nxt.energies[a1] - nxt.energies[b1]
    gamma0 = gad0.diag[alpha] + gad0.diag[alpha_p]
    gamma1 = gad1.diag[a1] + gad1.diag[b1]
    out = PairTrajectory(
        alpha=a1,
        alpha_prime=b1,
        point=point,
        phase=member.phase + 0.5 * dt * (omega0 + omega1),
        decay=member.decay + 0.5 * dt * (gamma0 + gamma1),
        weight=member.weight,
    )
    if mode != "nonadiabatic":
        return out, nxt

    if rng is None:
        raise ValueError("nonadiabatic mode needs a random stream")
    table = transition_amplitudes(bp, nxt, point, gad1)
    entries = []  # (amplitude, side, source, target, kind)
    for s, t, kind in _channel_ids(table):
        if kind == "d":
            amp = dt * table.hop_weight[s, t]
        else:
            amp = dt * table.tgamma[s, 0, t, 0]  # off-diagonal decay element
        if out.alpha == s:
            entries.append((amp, "ket", s, t, kind))
        if out.alpha_prime == s:
            bra = dt * np.conj(table.hop_weight[s, t]) if kind == "d" else dt * np.conj(amp / dt)
            entries.append((bra, "bra", s, t, kind))
    total = sum(abs(a) for a, *_ in entries)
    u = rng.random() * (1.0 + total)
    cum = 0.0
    for amp, side, s, t, kind in entries:
        if u < cum + abs(amp):
            factor = -(1.0 + total) * amp / abs(amp)
            if kind == "d":
                delta_e = nxt.energies[t] - nxt.energies[s]
                jumped = momentum_jump(point, table.d[s, t], delta_e, bp.mass)
                if jumped is None:  # frustrated: fall through as a no-hop
                    break
                out = replace(out, point=jumped)
            if side == "ket":
                out = replace(out, alpha=t, weight=out.weight * factor)
            else:
                out = replace(out, alpha_prime=t, weight=out.weight * factor)
            return out, nxt
        cum += abs(amp)
    return replace(out, weight=out.weight * (1.0 + total)), nxt
