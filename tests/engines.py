"""Engines started from the thermal Wigner points of a configuration's seed."""

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
