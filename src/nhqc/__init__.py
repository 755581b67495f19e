"""Trajectory-ensemble simulator for non-Hermitian quantum dynamics embedded
in a classical harmonic bath."""

from .model import (
    PHI,
    PSI,
    BathParams,
    DecayKind,
    DecaySpec,
    ReducedDensity,
    SimConfig,
    SpinChainParams,
    bath_potential,
    coupling_hamiltonian,
    decay_operator,
    subsystem_hamiltonian,
)

__version__ = "0.1.0"
