"""Engines started from the thermal Wigner points of a configuration's seed,
the reduction of one engine snapshot to its sample-mean density, and
hand-built time series."""

import numpy as np

from nhqc.model import ReducedDensity
from nhqc.observables import MomentAccumulator, TimeRecord, TimeSeries
from nhqc.propagator import EnsembleState
from nhqc.sampler import sample_bath_point


def sampled_engine(sp, bp, decay, config, sample_start=0, n_samples=None):
    """An engine on samples [sample_start, sample_start + n_samples), all of
    the configuration's by default, started as ``simulate`` starts a chunk:
    block A's normal-mode rows R1 + R2, P1 + P2 and block B's R1 - R2,
    P1 - P2 of each sample's point."""
    n = config.n_samples if n_samples is None else n_samples
    (r1, r2), (p1, p2) = sample_bath_point(bp, config.seed, sample_start, n)
    return EnsembleState(sp, bp, decay, config, (r1 + r2, r1 - r2), (p1 + p2, p1 - p2), sample_start)


def reduce_snapshot(snapshot) -> ReducedDensity:
    """Average an ensemble snapshot into the subsystem basis, as ``simulate``
    reduces each output of a one-chunk run.

    Every member contributes weight * exp(-i phase) * exp(-decay) to its
    adiabatic element, back-rotated with the frame of its own trajectory;
    contributions are summed per sample, then averaged over samples.
    """
    return MomentAccumulator.from_samples(snapshot.sample_matrices()).density()


def diagonal_series(times, traces, **metadata) -> TimeSeries:
    """A time series whose density at times[k] is diag(traces[k], 0, 0, 0),
    with zero standard errors."""
    densities = [ReducedDensity(np.diag([trace, 0.0, 0.0, 0.0]).astype(complex), np.zeros((4, 4)), 10) for trace in traces]
    rows = [TimeRecord(t=t, density=density, trace_stderr=0.0) for t, density in zip(times, densities)]
    return TimeSeries(rows=rows, metadata=metadata)
