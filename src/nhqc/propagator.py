"""Sequential short-time propagation of the pair-trajectory ensemble.

Each sampled bath point spawns one member per nonzero initial adiabatic
element (alpha, alpha').  A member advects classically on the mean of its
two adiabatic surfaces while accumulating the frequency integral of its
phase factor and the damping integral of its decay factor (trapezoid over
each step, consistent with the second-order step splitting).  In
nonadiabatic mode a single stochastic transition per member per step is
sampled from the derivative-coupling and off-diagonal-decay channels, with
importance reweighting and the momentum-jump rule.

``EnsembleState`` propagates all members of a sample block at once on the
closed-form block frames, and ``simulate`` reduces it chunk by chunk into a
time series.  The same step restated for a single member on the generic
eigensolver route is ``nhqc.oracle.sstp_step``, its cross-check.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .adiabatic import SlotFrames, slot_coupling, slot_frames, slot_gamma_diag, slot_vectors
from .model import BathParams, DecayKind, DecaySpec, SimConfig, SpinChainParams
from .observables import MomentAccumulator, TimeRecord, TimeSeries
from .sampler import initial_subsystem, sample_bath_point, trajectory_stream

__all__ = [
    "CHUNK_SAMPLES",
    "EnsembleSnapshot",
    "EnsembleState",
    "RunSummary",
    "simulate",
]

# Samples per work chunk.  Fixed (never derived from the worker count) so
# that chunk boundaries, and therefore all floating-point reduction orders
# and stochastic streams, are identical for any number of threads.
CHUNK_SAMPLES = 8192

SPAWN_TOL = 1e-14
HOP_STREAM_TAG = 0x484F50  # distinguishes hop streams from sampling streams

# basis rows spanned by each slot's frame vector (block A: |ee>, |gg>;
# block B: |eg>, |ge>)
SLOT_ROWS = ((0, 3), (0, 3), (1, 2), (1, 2))
# unordered-pair rank of an ordered slot pair, used to key shared hop draws
UPAIR = np.array([[min(p, q) * 4 + max(p, q) for q in range(4)] for p in range(4)])


@dataclass
class RunSummary:
    """Bookkeeping attached to every run."""

    n_members: int = 0
    n_hops: int = 0
    n_frustrated: int = 0
    wall_time: float = 0.0

    def merge(self, other: "RunSummary") -> None:
        self.n_members += other.n_members
        self.n_hops += other.n_hops
        self.n_frustrated += other.n_frustrated


def _column_pieces(codes: np.ndarray, values: np.ndarray) -> list[tuple[int, np.ndarray]]:
    """Split one member column into (label code, values) pieces, one per
    distinct code, each zero where a member holds another code.  Adiabatic
    columns never change labels and come back whole."""
    first = int(codes[0])
    if np.all(codes == first):
        return [(first, values)]
    return [(int(c), np.where(codes == c, values, 0.0)) for c in np.unique(codes)]


@dataclass
class EnsembleSnapshot:
    """Member state at one output time for a block of samples.

    Members are stored column by column: every sample holds the same K
    members, and member ``k * n_samples + s`` is the k-th pair of local
    sample s.  The arrays are views of the engine's own, which later steps
    overwrite in place.
    """

    t: float
    n_samples: int
    alpha: np.ndarray
    alpha_prime: np.ndarray
    weight: np.ndarray
    phase: np.ndarray
    decay: np.ndarray
    frames: SlotFrames
    mirrored: np.ndarray

    def sample_matrices(self) -> np.ndarray:
        """Per-sample subsystem density matrices, shape (n_samples, 4, 4).

        Every member adds its weight * exp(-i phase - decay), back-rotated
        with its own current frame, to its sample's matrix; mirrored members
        also add the Hermitian-conjugate element of the implicit
        (alpha', alpha) partner.  The sum runs one member column at a time
        into the element rows of a (16, n_samples) array, direct terms in
        column order and then the mirrored ones.
        """
        n = self.n_samples
        factor = (self.weight * np.exp(-1j * self.phase - self.decay)).reshape(-1, n)
        codes = (self.alpha * 4 + self.alpha_prime).reshape(-1, n)
        # frame-vector components of each slot on its two SLOT_ROWS, as
        # member columns (scalars for an uncoupled block)
        xa, ya, xb, yb = (
            v.reshape(-1, n) if np.ndim(v) else v
            for v in (self.frames.xA, self.frames.yA, self.frames.xB, self.frames.yB)
        )
        slots = ((xa, ya), (-ya, xa), (xb, yb), (-yb, xb))
        out = np.zeros((16, n), dtype=complex)
        mirror_terms = []
        for k in range(factor.shape[0]):
            mirrored = self.mirrored[k * n]  # uniform down a column
            comps = [[c[k] if np.ndim(c) else c for c in slot] for slot in slots]
            for code, f in _column_pieces(codes[k], factor[k]):
                a, b = divmod(code, 4)
                for p, q in ((0, 0), (0, 1), (1, 0), (1, 1)):
                    coef = comps[a][p] * comps[b][q]
                    if np.ndim(coef) == 0 and coef == 0.0:
                        continue  # uncoupled block: the term vanishes identically
                    row, col = SLOT_ROWS[a][p], SLOT_ROWS[b][q]
                    val = f * coef
                    out[row * 4 + col] += val
                    if mirrored:
                        mirror_terms.append((col * 4 + row, val))
        for dest, val in mirror_terms:
            out[dest] += np.conj(val)
        return np.ascontiguousarray(out.T).reshape(n, 4, 4)


class EnsembleState:
    """Vectorized ensemble over samples [sample_start, sample_start + n).

    Member arrays are laid out column by column as in ``EnsembleSnapshot``.
    In adiabatic mode only ordered pairs with alpha <= alpha' are stored;
    the (alpha', alpha) partner of an off-diagonal pair follows the same
    trajectory with conjugate phase and identical decay, so it is carried
    implicitly (``mirrored``) and restored at reduction time.  Nonadiabatic
    mode stores all ordered pairs explicitly, with mirror partners coupled
    to the same transition draws so that they hop conjugately.
    """

    def __init__(
        self,
        sp: SpinChainParams,
        bp: BathParams,
        decay: DecaySpec,
        config: SimConfig,
        sample_start: int = 0,
        n_samples: int | None = None,
    ):
        if bp.n_osc != 2:
            raise ValueError("the ensemble engine is built for the two-oscillator bath")
        self.sp, self.bp, self.decay, self.config = sp, bp, decay, config
        self.n_local = config.n_samples if n_samples is None else n_samples
        self.mode = config.mode
        self.t = 0.0
        self._step_index = 0
        self.summary = RunSummary()

        r0 = np.empty((2, self.n_local))
        p0 = np.empty((2, self.n_local))
        for i in range(self.n_local):
            pt = sample_bath_point(bp, trajectory_stream(config.seed, sample_start + i))
            r0[:, i] = pt.R
            p0[:, i] = pt.P
        frames0 = slot_frames(sp, bp, r0)
        u0 = slot_vectors(frames0)
        rho0 = initial_subsystem(config.initial_state)
        elements0 = np.einsum("nip,ij,njq->npq", u0, rho0, u0)

        # a pair is carried by every sample of the block once its element
        # exceeds SPAWN_TOL in any of them, so each sample holds the same K
        # members; they are stored column by column (member k * n + s)
        canonical = self.mode == "adiabatic"
        pairs = [
            (p, q)
            for p in range(4)
            for q in range(4)
            if (p <= q or not canonical) and np.any(np.abs(elements0[:, p, q]) > SPAWN_TOL)
        ]
        al = np.array([p for p, _ in pairs], dtype=np.int64)
        ap = np.array([q for _, q in pairs], dtype=np.int64)
        samp_local = np.tile(np.arange(self.n_local), len(pairs))
        self.alpha = np.repeat(al, self.n_local)
        self.alpha_prime = np.repeat(ap, self.n_local)
        self.weight = elements0[:, al, ap].T.ravel().astype(complex)
        self.mirrored = np.repeat(canonical & (al < ap), self.n_local)
        n = samp_local.size
        # bath coordinates and momenta of every member, one row per oscillator
        self.R = r0.take(samp_local, axis=1)
        self.P = p0.take(samp_local, axis=1)
        self.phase = np.zeros(n)
        self.decay_acc = np.zeros(n)
        self._ar = np.arange(n)
        self.summary.n_members = int(n + np.count_nonzero(self.mirrored))

        if self.mode == "nonadiabatic":
            sample_global = samp_local + sample_start
            upair = UPAIR[self.alpha, self.alpha_prime]
            self._hop_chunk = sample_global // CHUNK_SAMPLES
            self._hop_offset = (sample_global % CHUNK_SAMPLES) * 16 + upair
            # off-diagonal decay channels exist only if the decay operator has
            # off-diagonal elements in the slot basis somewhere
            self._gamma_channels = decay.kind is DecayKind.CUSTOM or (
                decay.kind is DecayKind.PROJECTOR_EE and sp.jx != sp.jy
            )
        # decay expectations are configuration-independent unless a coupled
        # block mixes states that the operator distinguishes
        g = np.real(decay.matrix)
        varies_a = (sp.jx != sp.jy) and (g[0, 0] != g[3, 3] or g[0, 3] != 0.0)
        varies_b = (sp.jx != -sp.jy) and (g[1, 1] != g[2, 2] or g[1, 2] != 0.0)
        self._gdiag_constant = not (varies_a or varies_b)
        self._slot_indices_dirty = True
        self._refresh_frames()
        self._refresh_pair_caches()

    # -- frame-dependent caches ------------------------------------------

    def _refresh_frames(self) -> None:
        self._frames = slot_frames(self.sp, self.bp, self.R)
        if not self._gdiag_constant:
            self._gdiag = slot_gamma_diag(self.decay, self._frames)
        if self.mode == "nonadiabatic":
            self._couplings = slot_coupling(self.bp, self._frames)

    def _refresh_slot_indices(self) -> None:
        """Flat gather indices into the (4, n) per-slot tables; constant while
        no transitions change the member labels."""
        n = self._ar.size
        self._idx_a = self.alpha * n + self._ar
        self._idx_b = self.alpha_prime * n + self._ar
        if self._gdiag_constant:
            gd = slot_gamma_diag(self.decay, self._frames)[:, :1].ravel()
            self._gamma_const = gd[self.alpha] + gd[self.alpha_prime]
        self._slot_indices_dirty = False

    def _refresh_pair_caches(self) -> None:
        if self._slot_indices_dirty:
            self._refresh_slot_indices()
        fr = self._frames
        ia, ib = self._idx_a, self._idx_b
        self._omega = fr.energies.ravel().take(ia) - fr.energies.ravel().take(ib)
        if self._gdiag_constant:
            self._gamma = self._gamma_const
        else:
            self._gamma = self._gdiag.ravel().take(ia) + self._gdiag.ravel().take(ib)
        z = fr.z.reshape(2, -1)
        self._zmean = 0.5 * (z.take(ia, axis=1) + z.take(ib, axis=1))

    def _mean_force(self) -> np.ndarray:
        restore = self.bp.mass * self.bp.omega**2
        return self.bp.c * self._zmean - restore * self.R

    # -- time stepping ----------------------------------------------------

    def advance(self, n_steps: int) -> None:
        dt = self.config.dt
        over_mass = dt / self.bp.mass
        half_dt = 0.5 * dt
        for _ in range(n_steps):
            p_half = self.P + half_dt * self._mean_force()
            self.R += over_mass * p_half
            omega_old = self._omega
            gamma_old = self._gamma
            self._refresh_frames()
            self._refresh_pair_caches()
            self.P = p_half + half_dt * self._mean_force()
            self.phase += half_dt * (omega_old + self._omega)
            if self._gamma is gamma_old:  # configuration-independent rates
                self.decay_acc += dt * self._gamma
            else:
                self.decay_acc += half_dt * (gamma_old + self._gamma)
            if self.mode == "nonadiabatic":
                self._hop_stage(dt)
            self._step_index += 1
            self.t = self._step_index * dt

    # -- stochastic transitions (nonadiabatic mode) ------------------------

    def _hop_uniforms(self) -> np.ndarray:
        """One shared uniform per (sample, unordered pair) for this step,
        drawn from streams keyed by fixed sample blocks so the values do not
        depend on how samples were chunked across workers."""
        u = np.empty(self.weight.size)
        for chunk in np.unique(self._hop_chunk):
            seq = np.random.SeedSequence(
                [self.config.seed, HOP_STREAM_TAG, self._step_index, int(chunk)]
            )
            block = np.random.Generator(np.random.Philox(seq)).random(CHUNK_SAMPLES * 16)
            mask = self._hop_chunk == chunk
            u[mask] = block[self._hop_offset[mask]]
        return u

    def _slot_gamma_matrix(self) -> np.ndarray:
        u = slot_vectors(self._frames)
        return np.einsum("nip,ij,njq->npq", u, self.decay.matrix, u)

    def _hop_stage(self, dt: float) -> None:
        n = self.weight.size
        v1, v2 = self.P / self.bp.mass
        entries = []  # (amplitude (n,), side, source, target, kind)
        for (s, t), dvec in sorted(self._couplings.items()):
            amp = dt * (v1 * dvec[:, 0] + v2 * dvec[:, 1])
            entries.append((np.where(self.alpha == s, amp, 0.0), "ket", s, t, "d"))
            entries.append((np.where(self.alpha_prime == s, amp, 0.0), "bra", s, t, "d"))
        if self._gamma_channels:
            gs = self._slot_gamma_matrix()
            for s in range(4):
                for t in range(4):
                    if s == t:
                        continue
                    ket = np.where(self.alpha == s, dt * gs[:, s, t], 0.0)
                    bra = np.where(self.alpha_prime == s, dt * gs[:, t, s], 0.0)
                    if np.any(ket):
                        entries.append((ket, "ket", s, t, "gamma"))
                    if np.any(bra):
                        entries.append((bra, "bra", s, t, "gamma"))
        if not entries:
            return
        total = np.zeros(n)
        for amp, *_ in entries:
            total += np.abs(amp)
        u = self._hop_uniforms() * (1.0 + total)
        decided = np.zeros(n, dtype=bool)
        nohop_factor = np.zeros(n, dtype=bool)  # frustrated members
        cum = np.zeros(n)
        energies = self._frames.energies
        for amp, side, s, t, kind in entries:
            mag = np.abs(amp)
            hit = ~decided & (u >= cum) & (u < cum + mag)
            cum += mag
            if not np.any(hit):
                continue
            decided |= hit
            factor = -(1.0 + total[hit]) * amp[hit] / mag[hit]
            if kind == "d":
                dvec = self._couplings[(s, t)][hit]
                norm = np.sqrt(dvec[:, 0] ** 2 + dvec[:, 1] ** 2)
                d1 = dvec[:, 0] / norm
                d2 = dvec[:, 1] / norm
                pdot = self.P[0, hit] * d1 + self.P[1, hit] * d2
                delta_e = energies[t][hit] - energies[s][hit]
                radicand = pdot**2 - 2.0 * self.bp.mass * delta_e
                ok = radicand >= 0.0
                self.summary.n_frustrated += int(np.count_nonzero(~ok))
                idx = np.nonzero(hit)[0]
                nohop_factor[idx[~ok]] = True
                accepted = idx[ok]
                shifted = np.copysign(np.sqrt(radicand[ok]), pdot[ok])
                self.P[0, accepted] += (shifted - pdot[ok]) * d1[ok]
                self.P[1, accepted] += (shifted - pdot[ok]) * d2[ok]
                self.weight[accepted] *= factor[ok]
                if side == "ket":
                    self.alpha[accepted] = t
                else:
                    self.alpha_prime[accepted] = t
                self.summary.n_hops += int(accepted.size)
            else:
                idx = np.nonzero(hit)[0]
                self.weight[idx] *= factor
                if side == "ket":
                    self.alpha[idx] = t
                else:
                    self.alpha_prime[idx] = t
                self.summary.n_hops += int(idx.size)
        survivors = ~decided | nohop_factor
        self.weight[survivors] *= 1.0 + total[survivors]
        if np.any(decided):
            self._slot_indices_dirty = True  # labels may have changed
        self._refresh_pair_caches()

    # -- views -------------------------------------------------------------

    def snapshot(self) -> EnsembleSnapshot:
        """The current member state, as views of the engine's arrays."""
        return EnsembleSnapshot(
            t=self.t,
            n_samples=self.n_local,
            alpha=self.alpha,
            alpha_prime=self.alpha_prime,
            weight=self.weight,
            phase=self.phase,
            decay=self.decay_acc,
            frames=self._frames,
            mirrored=self.mirrored,
        )


def _run_metadata(sp, bp, decay, config) -> dict:
    state = config.initial_state
    return {
        "jx": sp.jx,
        "jy": sp.jy,
        "jz": sp.jz,
        "c": bp.c,
        "mass": bp.mass,
        "omega": bp.omega,
        "beta": bp.beta,
        "gamma_kind": decay.kind.value,
        "gamma": decay.strength if decay.strength is not None else "custom",
        "dt": config.dt,
        "steps": config.n_steps,
        "samples": config.n_samples,
        "seed": config.seed,
        "mode": config.mode,
        "initial_state": state if isinstance(state, str) else "custom",
        "output_stride": config.output_stride,
    }


def _chunk_accumulate(sp, bp, decay, config, bounds) -> tuple[list[MomentAccumulator], RunSummary]:
    start, stop = bounds
    engine = EnsembleState(sp, bp, decay, config, sample_start=start, n_samples=stop - start)
    accs = [MomentAccumulator.from_samples(engine.snapshot().sample_matrices())]
    for _ in range(config.n_steps // config.output_stride):
        engine.advance(config.output_stride)
        accs.append(MomentAccumulator.from_samples(engine.snapshot().sample_matrices()))
    return accs, engine.summary


def simulate(
    sp: SpinChainParams,
    bp: BathParams,
    decay: DecaySpec,
    config: SimConfig,
    threads: int = 1,
) -> tuple[TimeSeries, RunSummary]:
    """Full pipeline: sample, propagate, reduce to a time series.

    Samples are processed in fixed-size chunks and their statistics combined
    in chunk order, so the output bytes depend only on the configuration and
    seed, never on the worker count.
    """
    started = time.perf_counter()
    bounds = [
        (s, min(s + CHUNK_SAMPLES, config.n_samples))
        for s in range(0, config.n_samples, CHUNK_SAMPLES)
    ]
    if threads > 1 and len(bounds) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(lambda b: _chunk_accumulate(sp, bp, decay, config, b), bounds))
    else:
        results = [_chunk_accumulate(sp, bp, decay, config, b) for b in bounds]

    summary = RunSummary()
    accs = results[0][0]
    summary.merge(results[0][1])
    for chunk_accs, chunk_summary in results[1:]:
        accs = [a.combine(b) for a, b in zip(accs, chunk_accs)]
        summary.merge(chunk_summary)

    stride_t = config.output_stride * config.dt
    rows = [
        TimeRecord(t=k * stride_t, density=acc.density(), trace_stderr=acc.trace_stderr())
        for k, acc in enumerate(accs)
    ]
    summary.wall_time = time.perf_counter() - started
    return TimeSeries(rows=rows, metadata=_run_metadata(sp, bp, decay, config)), summary
