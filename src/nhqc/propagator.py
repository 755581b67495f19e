"""Sequential short-time propagation of the pair-trajectory ensemble.

Each sampled bath point spawns one member per nonzero initial adiabatic
element (alpha, alpha').  A member advects classically on the mean of its
two adiabatic surfaces while accumulating the frequency integral of its
phase factor and the damping integral of its decay factor (trapezoid over
each step, consistent with the second-order step splitting).  In
nonadiabatic mode a single stochastic transition per member per step is
sampled from the derivative-coupling and off-diagonal-decay channels, with
importance reweighting and the momentum-jump rule; that rule is stated
only here, in ``EnsembleState._hop_stage``.  The stage sums each channel's
label-masked |amplitude| row once for the no-hop total, chooses a channel
only for the members whose uniform falls below that total, and forms
decay amplitudes only for the entries where a channel is open.

``EnsembleState`` propagates all members of a sample block at once on the
closed-form block frames, and ``simulate`` reduces it chunk by chunk into a
time series.  Its velocity-Verlet step evaluates the mean force once: the
force is cached with each member's frequency and decay rate, and these rows
are rebuilt after every drift and, for the members that hopped, after the
hop stage.  Every slot-basis quantity here is built from the slot layout
of ``nhqc.adiabatic`` (``slot_vectors`` or ``SLOT_PARTS`` on ``SLOT_ROWS``,
and the force from the per-block <sigma_z> rows with the signs
``SLOT_SZ``).  The adiabatic step restated for a single member on the
generic eigensolver route is ``nhqc.oracle.sstp_step``, its cross-check;
the oracle has no nonadiabatic counterpart.

Each output reduces the members to per-sample matrices in an element
buffer the engine allocates once (``EnsembleSnapshot.sample_matrices``),
writing only the entries its members can reach; the dense member sum it
must equal bit for bit is ``nhqc.oracle.dense_sample_matrices``.
"""

from __future__ import annotations

import functools
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .adiabatic import (
    SLOT_PARTS,
    SLOT_ROWS,
    SLOT_SZ,
    SlotFrames,
    slot_coupling,
    slot_frames,
    slot_gamma_diag,
    slot_vectors,
)
from .model import CONFIG_KEYS, BathParams, DecayKind, DecaySpec, SimConfig, SpinChainParams
from .observables import ElementRows, MomentAccumulator, TimeRecord, TimeSeries
from .sampler import CHUNK_SAMPLES, block_stream, initial_subsystem, sample_bath_point

__all__ = [
    "CHUNK_SAMPLES",
    "EnsembleSnapshot",
    "EnsembleState",
    "RunSummary",
    "simulate",
]

SPAWN_TOL = 1e-14
HOP_STREAM_TAG = 0x484F50  # distinguishes hop streams from sampling streams

# unordered-pair rank of an ordered slot pair, used to key shared hop draws
UPAIR = np.array([[min(p, q) * 4 + max(p, q) for q in range(4)] for p in range(4)])
# each slot's spin-1 <sigma_z> as coefficients of the two blocks' sz rows
SZ_COEF = np.array([[sign, 0.0] if s < 2 else [0.0, sign] for s, (sign, _) in enumerate(SLOT_SZ)])


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


def _slot_entry(comps: tuple, m: np.ndarray, s: int, t: int, n: int) -> np.ndarray:
    """Entry (s, t) of u^T m u for slot components ``comps``, shape (n,):
    the terms (u_is * m[i, j]) * u_jt of numpy's unoptimized einsum
    "nip,ij,njq->npq" in its order, less those with m[i, j] == 0 or i, j off
    ``SLOT_ROWS``, so equal to it bit for bit."""
    out = np.zeros(n, dtype=np.result_type(float, m))
    for p, i in enumerate(SLOT_ROWS[s]):
        for q, j in enumerate(SLOT_ROWS[t]):
            if m[i, j] != 0:
                out += (comps[s][p] * m[i, j]) * comps[t][q]
    return out


def _open_gamma_channels(decay: DecaySpec, frames: SlotFrames) -> list[tuple[str, int, int]]:
    """Off-diagonal decay channels (side, s, t) that can be nonzero, in
    hop-stage order; the s -> t transition reads entry (s, t) of u^T Gamma u
    on the ket side and (t, s) on the bra side.  A slot spans the rows of its
    components other than a scalar 0.0, so an entry opens only where
    Gamma[i, j] != 0 for rows i, j the two slots span; the identity
    operator, diagonal in every orthonormal frame, opens none."""
    if decay.kind is DecayKind.IDENTITY_UNIFORM:
        return []
    spans = [
        [i for i, c in zip(SLOT_ROWS[s], comp) if np.ndim(c) or c != 0.0]
        for s, comp in enumerate(slot_vectors(frames))
    ]
    m = decay.matrix

    def opens(p: int, q: int) -> bool:
        return p != q and any(m[i, j] != 0 for i in spans[p] for j in spans[q])

    channels = []
    for s in range(4):
        for t in range(4):
            if opens(s, t):
                channels.append(("ket", s, t))
            if opens(t, s):
                channels.append(("bra", s, t))
    return channels


def _momentum_jump(
    P: np.ndarray, d: np.ndarray, delta_e: np.ndarray, mass: float
) -> tuple[np.ndarray, np.ndarray]:
    """Shift momenta P (2, k) along nonzero real coupling vectors d (k, 2) to
    absorb the energy gaps delta_e (k,).  Returns the allowed mask and the
    shifted momenta of the allowed members, shape (2, count); a frustrated
    member lacks the kinetic energy along d for an uphill transition."""
    norm = np.sqrt(d[:, 0] ** 2 + d[:, 1] ** 2)
    d1 = d[:, 0] / norm
    d2 = d[:, 1] / norm
    pdot = P[0] * d1 + P[1] * d2
    radicand = pdot**2 - 2.0 * mass * delta_e
    ok = radicand >= 0.0
    shift = np.copysign(np.sqrt(radicand[ok]), pdot[ok]) - pdot[ok]
    return ok, np.array([P[0, ok] + shift * d1[ok], P[1, ok] + shift * d2[ok]])


def _column_labels(codes: np.ndarray) -> tuple[tuple[int, int], ...]:
    """The distinct (alpha, alpha') of one member column, in ascending order
    of their codes alpha * 4 + alpha' (``codes``)."""
    first = int(codes[0])
    if np.all(codes == first):
        return (divmod(first, 4),)
    return tuple(divmod(int(c), 4) for c in np.unique(codes))


def _pair_terms(a: int, b: int, vanishing: frozenset) -> list[tuple[int, int, tuple]]:
    """The terms u_a[p] * u_b[q] of label pair (a, b) in (p, q) order, as
    (entry row * 4 + col, sign, product key), less those with a component
    in ``vanishing``.  A component is keyed (block, 0 for x or 1 for y); the
    key of a product is its two components in sorted order, so x * y and
    y * x, equal bit for bit, share it."""
    terms = []
    for p, q in ((0, 0), (0, 1), (1, 0), (1, 1)):
        (sa, i), (sb, j) = SLOT_PARTS[a][p], SLOT_PARTS[b][q]
        u, v = (a // 2, i), (b // 2, j)
        if u not in vanishing and v not in vanishing:
            terms.append((SLOT_ROWS[a][p] * 4 + SLOT_ROWS[b][q], sa * sb, tuple(sorted((u, v)))))
    return terms


@functools.lru_cache(maxsize=4)
def _reduction_plan(labels: tuple, mirrored: tuple, vanishing: frozenset) -> tuple:
    """The terms of the member sum for columns holding the label pairs
    ``labels`` (a tuple of pairs per column), of which ``mirrored`` carry an
    implicit conjugate partner.  It depends on nothing else, so an
    adiabatic run, whose labels never change, forms it once; the cache is
    kept small because a plan holds tens of kB and nonadiabatic labels
    change at almost every output.

    Returns the live entries in ascending order, the direct terms of each
    column and pair as (row among the live entries, first term of that
    row, sign, product key), and the conjugate terms of the mirrored
    columns, which follow them, as (row, first, sign, (column, pair), key).
    """
    direct = [[_pair_terms(*pair, vanishing) for pair in pairs] for pairs in labels]
    mirror = [
        (entry % 4 * 4 + entry // 4, sign, (k, pair), key)
        for k, pairs in enumerate(labels)
        if mirrored[k]
        for pair, terms in zip(pairs, direct[k])
        for entry, sign, key in terms
    ]
    entries = [t[0] for column in direct for terms in column for t in terms] + [t[0] for t in mirror]
    index = tuple(sorted(set(entries)))
    seen = set()

    def place(entry: int) -> tuple[int, bool]:
        first = entry not in seen
        seen.add(entry)
        return index.index(entry), first

    direct = tuple(
        tuple(tuple((*place(e), sign, key) for e, sign, key in terms) for terms in column) for column in direct
    )
    mirror = tuple((*place(e), sign, piece, key) for e, sign, piece, key in mirror)
    return index, direct, mirror


@dataclass
class EnsembleSnapshot:
    """Member state at one output time for a block of samples.

    Members are stored column by column: every sample holds the same K
    members, and member ``k * n_samples + s`` is the k-th pair of local
    sample s.  The arrays are views of the engine's own, which later steps
    overwrite in place; ``buffer`` is the engine's (16, n_samples) complex
    element buffer, which every ``sample_matrices`` call of that engine
    overwrites.  ``column_labels`` holds the (alpha, alpha') of each column
    where no member can change labels (adiabatic mode), else None.
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
    column_labels: tuple[tuple[int, int], ...] | None
    buffer: np.ndarray

    def sample_matrices(self) -> ElementRows:
        """Per-sample subsystem density matrices as their live element rows.

        Every member adds its weight * exp(-i phase - decay), back-rotated
        with its own current frame, to its sample's matrix; mirrored members
        also add the Hermitian-conjugate element of the implicit
        (alpha', alpha) partner.  A column whose phase is identically 0, as
        a diagonal pair's is in adiabatic mode, takes the real
        weight * exp(-decay) instead, which is cheaper and agrees to an ulp.

        Only the entries some term reaches are live: a term with an
        uncoupled block's scalar 0 component is left out.  Each live entry
        sums its terms from +0, the direct ones in member-column order and
        then the mirrored ones.  A column's terms share the products of two
        frame components and those products times the column factor, each
        formed once; a term whose slot components carry a minus sign
        (``SLOT_PARTS``) is subtracted.  Negation is exact and a sum started
        at +0 keeps no sign of zero, so every entry equals the dense sum of
        ``nhqc.oracle.dense_sample_matrices`` bit for bit.

        The live rows fill the first rows of ``buffer`` in ascending entry
        order, and the record returned holds a view of them: it is valid
        until this engine's next ``sample_matrices`` call.
        """
        n = self.n_samples
        weight, phase, decay = (v.reshape(-1, n) for v in (self.weight, self.phase, self.decay))
        # each block's x and y as member columns, keyed (block, 0 or 1); an
        # uncoupled block's are the scalars 1 and 0, and a term with the
        # scalar 0 vanishes identically
        comps = {
            (blk, i): c.reshape(-1, n) if isinstance(c, np.ndarray) else c
            for blk, block in enumerate(self.frames.blocks)
            for i, c in enumerate(block.vector)
        }
        vanishing = frozenset(key for key, c in comps.items() if not isinstance(c, np.ndarray) and c == 0.0)
        if self.column_labels is None:
            codes = (self.alpha * 4 + self.alpha_prime).reshape(-1, n)
            labels = tuple(_column_labels(column) for column in codes)
        else:
            labels = tuple((pair,) for pair in self.column_labels)
        mirrored = tuple(bool(self.mirrored[k * n]) for k in range(len(labels)))  # uniform down a column
        index, direct, mirror = _reduction_plan(labels, mirrored, vanishing)
        rows = self.buffer[: len(index)]

        def add(r: int, first: bool, sign: int, value: np.ndarray) -> None:
            (np.add if sign > 0 else np.subtract)(0.0 if first else rows[r], value, out=rows[r])

        conjugates = {}  # factor * product per (column, pair, product key), conjugated
        for k, pairs in enumerate(labels):
            if phase[k, 0] == 0.0 and not phase[k].any():  # one read rules out most columns
                factor = weight[k] * np.exp(-decay[k])
            else:
                factor = weight[k] * np.exp(-1j * phase[k] - decay[k])
            column = {key: c[k] if isinstance(c, np.ndarray) else c for key, c in comps.items()}
            products = {}
            for pair, terms in zip(pairs, direct[k]):
                # a column whose members hold several labels splits into one
                # piece per label, zero where a member holds another
                f = factor if len(pairs) == 1 else np.where(codes[k] == pair[0] * 4 + pair[1], factor, 0.0)
                values = {}
                for r, first, sign, key in terms:
                    if key not in values:
                        if key not in products:
                            products[key] = column[key[0]] * column[key[1]]
                        values[key] = f * products[key]
                        if mirrored[k]:
                            conjugates[(k, pair), key] = np.conj(values[key])
                    add(r, first, sign, values[key])
        for r, first, sign, piece, key in mirror:
            add(r, first, sign, conjugates[piece, key])
        return ElementRows(index, rows)


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
        self.sp, self.bp, self.decay, self.config = sp, bp, decay, config
        self.n_local = config.n_samples if n_samples is None else n_samples
        self.mode = config.mode
        self.t = 0.0
        self._step_index = 0
        self.summary = RunSummary()

        r0, p0 = sample_bath_point(bp, config.seed, sample_start, self.n_local)
        frames0 = slot_frames(sp, bp, r0)
        comps0 = slot_vectors(frames0)
        rho0 = initial_subsystem(config.initial_state)
        elements0 = np.empty((4, 4, self.n_local), dtype=complex)
        for p, q in np.ndindex(4, 4):
            elements0[p, q] = _slot_entry(comps0, rho0, p, q, self.n_local)

        # a pair is carried by every sample of the block once its element
        # exceeds SPAWN_TOL in any of them, so each sample holds the same K
        # members; they are stored column by column (member k * n + s)
        canonical = self.mode == "adiabatic"
        pairs = [
            (p, q)
            for p in range(4)
            for q in range(4)
            if (p <= q or not canonical) and np.any(np.abs(elements0[p, q]) > SPAWN_TOL)
        ]
        if not pairs:
            # a normalized state always spawns a pair unless its elements
            # overflowed to NaN; an empty ensemble would read trace 0
            raise ValueError(
                f"trace at t = 0 is 0: samples [{sample_start}, {sample_start + self.n_local}) "
                "spawn no pair (non-finite initial frames)"
            )
        al = np.array([p for p, _ in pairs], dtype=np.int64)
        ap = np.array([q for _, q in pairs], dtype=np.int64)
        samp_local = np.tile(np.arange(self.n_local), len(pairs))
        self.alpha = np.repeat(al, self.n_local)
        self.alpha_prime = np.repeat(ap, self.n_local)
        self.weight = elements0[al, ap].ravel().astype(complex)
        self.mirrored = np.repeat(canonical & (al < ap), self.n_local)
        n = samp_local.size
        # bath coordinates and momenta of every member, one row per oscillator
        self.R = r0.take(samp_local, axis=1)
        self.P = p0.take(samp_local, axis=1)
        self.phase = np.zeros(n)
        self.decay_acc = np.zeros(n)
        self._ar = np.arange(n)
        self.summary.n_members = int(n + np.count_nonzero(self.mirrored))
        # labels change only through transitions; the element buffer is
        # this engine's own, so chunks reduce independently
        self._column_labels = tuple(pairs) if canonical else None
        self._buffer = np.empty((16, self.n_local), dtype=complex)

        if self.mode == "nonadiabatic":
            sample_global = samp_local + sample_start
            upair = UPAIR[self.alpha, self.alpha_prime]
            self._hop_chunk = sample_global // CHUNK_SAMPLES
            self._hop_offset = (sample_global % CHUNK_SAMPLES) * 16 + upair
            # (block, members, their offsets, draw length) for each hop stream
            self._hop_blocks = []
            for chunk in np.unique(self._hop_chunk):
                mask = self._hop_chunk == chunk
                offsets = self._hop_offset[mask]
                self._hop_blocks.append((int(chunk), mask, offsets, int(offsets.max()) + 1))
            self._gamma_channels = _open_gamma_channels(decay, frames0)
        # decay expectations are configuration-independent unless a coupled
        # block mixes states that the operator distinguishes
        g = np.real(decay.matrix)
        self._gdiag_constant = not any(
            block.half_gap is not None and (g[i, i] != g[j, j] or g[i, j] != 0.0)
            for block in frames0.blocks
            for i, j in [block.rows]
        )
        self._restore = bp.mass * bp.omega**2
        self._refresh_frames()
        if self._gdiag_constant:
            # per-slot rates, read once from sample 0, whose frame vectors
            # ``slot_vectors(frames0)`` has built: they do not depend on R
            self._gd = slot_gamma_diag(decay, frames0)[:, :1].ravel()
            self._gamma_const = np.empty(n)
        self._idx_a = np.empty(n, dtype=np.int64)
        self._idx_b = np.empty(n, dtype=np.int64)
        self._sz_coef = np.empty((2, n))
        self._relabel(slice(None))
        self._refresh_pair_caches()

    # -- frame-dependent caches ------------------------------------------

    def _refresh_frames(self) -> None:
        self._frames = slot_frames(self.sp, self.bp, self.R)
        if not self._gdiag_constant:
            self._gdiag = slot_gamma_diag(self.decay, self._frames)
        if self.mode == "nonadiabatic":
            self._couplings = slot_coupling(self.bp, self._frames)

    def _relabel(self, members) -> None:
        """Flat gather indices into the (4, n) per-slot tables, the
        coefficients of the per-block <sigma_z> rows in the force, and the
        constant decay rates, of ``members`` (an index array or a slice);
        they change only where a transition changes a member's labels."""
        a, b = self.alpha[members], self.alpha_prime[members]
        self._idx_a[members] = a * self._ar.size + self._ar[members]
        self._idx_b[members] = b * self._ar.size + self._ar[members]
        self._sz_coef[:, members] = (SZ_COEF[a] + SZ_COEF[b]).T
        if self._gdiag_constant:
            self._gamma_const[members] = self._gd[a] + self._gd[b]

    def _pair_rows(self, members) -> tuple:
        """Bohr frequency, decay rate (None where the rates are constant) and
        mean force c * zmean - M omega^2 R of ``members`` on the current
        frames.  The force depends only on R and the labels.

        zmean is half the sum of the two labels' <sigma_z>, each a sign times
        its block's row (``SLOT_SZ``).  On spin 1 that sum is the block-A
        part plus the block-B part; on spin 2 it is their difference.  Two
        labels in one block give an exact multiple of its row, two in
        different blocks the same single addition as z[a] + z[b], and 0.5 c
        is exact, so the force equals c * 0.5 * (z[a] + z[b]) - M omega^2 R
        over the eight-row table ``nhqc.oracle.slot_sigma_z`` bit for bit."""
        fr = self._frames
        ia, ib = self._idx_a[members], self._idx_b[members]
        omega = fr.energies.ravel().take(ia) - fr.energies.ravel().take(ib)
        gamma = None
        if not self._gdiag_constant:
            gamma = self._gdiag.ravel().take(ia) + self._gdiag.ravel().take(ib)
        za, zb = (
            self._sz_coef[k, members] * (block.sz[members] if np.ndim(block.sz) else block.sz)
            for k, block in enumerate(fr.blocks)
        )
        half_c = 0.5 * self.bp.c
        force = np.empty((2, omega.size))
        np.multiply(half_c, za + zb, out=force[0])
        np.multiply(half_c, za - zb, out=force[1])
        force -= self._restore * self.R[:, members]
        return omega, gamma, force

    def _refresh_pair_caches(self) -> None:
        self._omega, gamma, self._force = self._pair_rows(slice(None))
        self._gamma = self._gamma_const if gamma is None else gamma

    # -- time stepping ----------------------------------------------------

    def advance(self, n_steps: int) -> None:
        dt = self.config.dt
        over_mass = dt / self.bp.mass
        half_dt = 0.5 * dt
        for _ in range(n_steps):
            # the force that ends one step starts the next: it is cached with
            # the frames, and refreshed wherever R or a label changes
            self.P += half_dt * self._force
            self.R += over_mass * self.P
            omega_old = self._omega
            gamma_old = self._gamma
            self._refresh_frames()
            self._refresh_pair_caches()
            self.P += half_dt * self._force
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
        depend on how samples were chunked across workers.  Each block's
        stream is drawn only up to the last offset read from it."""
        u = np.empty(self.weight.size)
        for chunk, mask, offsets, n_draw in self._hop_blocks:
            stream = block_stream(self.config.seed, HOP_STREAM_TAG, self._step_index, chunk)
            u[mask] = stream.random(n_draw)[offsets]
        return u

    def _hop_stage(self, dt: float) -> None:
        """Sample at most one transition per member.

        The channels, in order, are the derivative couplings (sorted, ket
        before bra) and the open decay channels, whose amplitudes are formed
        only for the open (s, t) entries.  Each is a record (side 0 = ket or
        1 = bra, source, target, amplitude, |amplitude|, coupling vectors or
        None); its row is |amplitude| where the side's label, as the stage
        found it, equals the source, else 0.  One pass sums the rows in
        channel order into ``total``.  Only a member whose uniform times
        1 + total falls below ``total`` hops, on the first channel where the
        running sum of its rows exceeds that product.  Every other member,
        frustrated ones included, gets the no-hop factor 1 + total.
        """
        n = self.weight.size
        labels = (self.alpha, self.alpha_prime)
        v1, v2 = self.P / self.bp.mass
        channels = []
        for (s, t), dvec in sorted(self._couplings.items()):
            amp = dt * (v1 * dvec[:, 0] + v2 * dvec[:, 1])
            mag = np.abs(amp)
            channels.append((0, s, t, amp, mag, dvec))
            channels.append((1, s, t, amp, mag, dvec))
        if self._gamma_channels:
            comps, entries = slot_vectors(self._frames), {}
            for side, s, t in self._gamma_channels:
                key = (s, t) if side == "ket" else (t, s)
                if key not in entries:
                    amp = dt * _slot_entry(comps, self.decay.matrix, *key, n)
                    entries[key] = amp, np.abs(amp)
                channels.append((0 if side == "ket" else 1, s, t, *entries[key], None))
        if not channels:
            return
        masks = {}
        total = np.zeros(n)
        for side, s, _, _, mag, _ in channels:
            if (side, s) not in masks:
                masks[side, s] = labels[side] == s
            total += np.where(masks[side, s], mag, 0.0)
        scale = 1.0 + total
        u = self._hop_uniforms() * scale
        hit = np.flatnonzero(u < total)  # False for NaN: no hop
        weight0 = self.weight[hit]
        self.weight *= scale  # the no-hop factor; hops overwrite theirs below
        if not hit.size:
            return
        rows = [np.where(masks[side, s][hit], mag[hit], 0.0) for side, s, _, _, mag, _ in channels]
        choice = np.argmax(u[hit] < np.cumsum(rows, axis=0), axis=0)
        energies = self._frames.energies
        moved = []
        for c in np.unique(choice):
            side, s, t, amp, mag, dvec = channels[c]
            sel = choice == c
            idx, w = hit[sel], weight0[sel]
            factor = -scale[idx] * amp[idx] / mag[idx]
            if dvec is not None:
                delta_e = energies[t, idx] - energies[s, idx]
                ok, p_new = _momentum_jump(self.P[:, idx], dvec[idx], delta_e, self.bp.mass)
                self.summary.n_frustrated += int(idx.size - np.count_nonzero(ok))
                idx, w, factor = idx[ok], w[ok], factor[ok]
                self.P[:, idx] = p_new
            w *= factor  # in place: numpy rounds a one-element complex product differently out of place
            self.weight[idx] = w
            labels[side][idx] = t
            self.summary.n_hops += int(idx.size)
            moved.append(idx)
        # every cached row is elementwise in its member (constant rates come
        # from the set-up table), so only the rows of the members that hopped
        # change; writing them in place keeps ``_gamma is _gamma_const``
        moved = np.concatenate(moved)
        self._relabel(moved)
        omega, gamma, force = self._pair_rows(moved)
        self._omega[moved] = omega
        if gamma is not None:
            self._gamma[moved] = gamma
        self._force[:, moved] = force

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
            column_labels=self._column_labels,
            buffer=self._buffer,
        )


def _run_metadata(sp, bp, decay, config) -> dict:
    """Each ``CONFIG_KEYS`` value of the run as a configuration file states
    it; a custom decay matrix or ket, which no key can state, reads "custom"."""
    params = {"sp": sp, "bp": bp, "decay": decay, "config": config}
    metadata = {}
    for key, (kind, owner, attr) in CONFIG_KEYS.items():
        value = getattr(params[owner], attr)
        if isinstance(value, DecayKind):
            value = value.value
        if value is None or (isinstance(kind, tuple) and value not in kind):
            value = "custom"
        metadata[key] = value
    return metadata


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
