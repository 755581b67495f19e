"""Acceptance gate: every criterion at its stated tolerance and size.

Run with `pytest tests/test_acceptance.py -v -s` (or `nhqc check`) to see one
verdict line per criterion.  The heavy reference runs are computed once and
shared between criteria; the module takes about 50 s on a 2-vCPU box.
"""

import pytest

from nhqc import acceptance


def _report(result):
    mark = "PASS" if result.passed else "FAIL"
    print(f"\n[{mark}] criterion {result.number}: {result.name} -- {result.detail}")
    assert type(result.passed) is bool
    assert result.passed, f"criterion {result.number} failed: {result.detail}"


def test_criterion_1_identity_trace_law():
    _report(acceptance.criterion_1())


def test_criterion_2_projector_trace_law():
    _report(acceptance.criterion_2())


def test_criterion_3_pure_quantum_reduction():
    _report(acceptance.criterion_3())


def test_criterion_4_eigen_force_coupling_oracles():
    _report(acceptance.criterion_4())


def test_criterion_5_statistical_machinery():
    _report(acceptance.criterion_5())


def test_criterion_6_hermiticity_and_monotonicity():
    _report(acceptance.criterion_6())


def test_criterion_7_thread_determinism():
    _report(acceptance.criterion_7())
