"""Shared cross-backend differential harness.

Every scenario family in this repository — session power runs, BIST power
campaigns, fault-detection campaigns, sweep grids — exists twice: once on
the cycle-accurate reference path and once on a vectorized engine (which
itself carries two kernels, segmented and flat).  The project-wide gate is
always the same: **verdicts bit-identical, energies within 1e-9**.

This module is the single home of that gate.  It collects the comparison
scaffolding that used to be duplicated across ``test_engine_equivalence``,
``test_prr_differential``, ``test_fault_campaign`` and
``test_grid_batched``, so each suite (and the banked/fault-class matrix in
``test_banked_differential``) instantiates one shared contract instead of
re-deriving its own:

* :func:`assert_energy_ledgers_match` — per-source energies, totals and
  average power at :data:`REL_TOL` (floating-point summation order is the
  only permitted difference between backends);
* :func:`assert_session_equivalent` / :func:`run_both_backends` — the
  full :class:`~repro.core.session.TestRunResult` contract, including the
  stress counters in :data:`COUNTER_FIELDS` (exact integers);
* :func:`assert_bist_equivalent` / :func:`measured_prr` — the BIST
  campaign contract (cycles, verdicts, ledger, planner attribution);
* :func:`fault_verdict` / :func:`assert_fault_verdicts_identical` — fault
  campaigns: detection triples must match **bit for bit**, no tolerance;
* :func:`kernel_pair` / :func:`kernel_engines` /
  :func:`kernel_matrix_tiers` / :func:`assert_aggregates_match` — the
  kernel-tier matrix on one engine configuration: the segmented oracle
  against the flat numpy kernel, plus the compiled ``jit`` tier wherever
  numba is importable;
* :func:`drop_elapsed` / :func:`assert_identical_records` /
  :func:`run_both_strategies` — sweep records across execution strategies
  (field-for-field identical; ``elapsed_s`` is the one wall-clock exempt
  field).
"""

from __future__ import annotations

import pytest

from repro import TestSession
from repro.bist import BistController
from repro.faults import FaultSimulator
from repro.march.element import AddressingDirection
from repro.sweep.runner import SweepRunner

#: Relative tolerance for energy/power comparisons across backends: the
#: two implementations sum identical per-event energies in different
#: orders, so they may differ by floating-point associativity only.
REL_TOL = 1e-9

#: Stress counters every pair of backends must agree on *exactly*.
COUNTER_FIELDS = (
    "cycles",
    "row_transitions",
    "full_restores",
    "full_res_column_cycles",
    "floating_column_cycles",
    "read_hazards",
    "bank_transitions",
)


# ----------------------------------------------------------------------
# Energy ledgers (shared by session and BIST results)
# ----------------------------------------------------------------------
def assert_energy_ledgers_match(reference, vectorized, label="",
                                rel=REL_TOL):
    """Per-source energy breakdown, total and average power at ``rel``."""
    assert set(reference.energy_by_source) == \
        set(vectorized.energy_by_source), label
    for source, expected in reference.energy_by_source.items():
        observed = vectorized.energy_by_source[source]
        assert observed == pytest.approx(expected, rel=rel), (label, source)
    assert vectorized.total_energy == pytest.approx(
        reference.total_energy, rel=rel), label
    assert vectorized.average_power == pytest.approx(
        reference.average_power, rel=rel), label


# ----------------------------------------------------------------------
# Session runs (TestSession / TestRunResult)
# ----------------------------------------------------------------------
def assert_session_equivalent(reference, vectorized, label=""):
    """Assert two TestRunResults agree on every reported measurement."""
    assert_energy_ledgers_match(reference, vectorized, label)
    for field in COUNTER_FIELDS:
        assert getattr(vectorized, field) == getattr(reference, field), \
            (label, field)
    assert reference.mismatches == [] and vectorized.mismatches == [], label
    assert reference.faulty_swaps == [] and vectorized.faulty_swaps == [], \
        label
    assert reference.passed and vectorized.passed, label
    assert vectorized.order == reference.order
    assert vectorized.geometry == reference.geometry


def run_both_backends(geometry, algorithm, mode, **session_kwargs):
    """Run one scenario on the reference and the vectorized session."""
    reference = TestSession(geometry, **session_kwargs).run(algorithm, mode)
    vectorized = TestSession(geometry, backend="vectorized",
                             **session_kwargs).run(algorithm, mode)
    return reference, vectorized


# ----------------------------------------------------------------------
# BIST power campaigns (BistController / BistRunResult)
# ----------------------------------------------------------------------
def assert_bist_equivalent(reference, vectorized, label=""):
    """Cycles, verdicts, ledger and planner of two BIST results."""
    assert vectorized.cycles == reference.cycles, label
    assert vectorized.passed and reference.passed, label
    assert vectorized.failures == reference.failures == 0, label
    assert_energy_ledgers_match(reference, vectorized, label)
    assert vectorized.planner == reference.planner, label


def measured_prr(controller: BistController, algorithm) -> float:
    """Measured Power Reduction Ratio of one algorithm on one controller."""
    functional = controller.run(algorithm, low_power=False)
    low_power = controller.run(algorithm, low_power=True)
    assert functional.passed and low_power.passed
    return 1.0 - low_power.average_power / functional.average_power


# ----------------------------------------------------------------------
# Fault campaigns (FaultSimulator / DetectionResult)
# ----------------------------------------------------------------------
def fault_verdict(result):
    """The triple both fault backends must agree on, bit for bit."""
    return (result.detected, result.first_detection_step, result.mismatches)


def assert_fault_verdicts_identical(geometry, algorithm, order, battery,
                                    direction=AddressingDirection.UP):
    """Run one battery on both fault backends; verdicts must be identical."""
    reference = FaultSimulator(geometry, any_direction=direction,
                               backend="reference")
    vectorized = FaultSimulator(geometry, any_direction=direction,
                                backend="vectorized")
    expected = reference.simulate_many(algorithm, order, battery)
    got = vectorized.simulate_many(algorithm, order, battery)
    assert vectorized.last_backend_used == "vectorized"
    for injection, lhs, rhs in zip(battery, expected, got):
        assert fault_verdict(lhs) == fault_verdict(rhs), (
            f"{injection.describe()} under {order.name}: "
            f"reference {fault_verdict(lhs)} vs vectorized "
            f"{fault_verdict(rhs)}")
    return expected


# ----------------------------------------------------------------------
# Flat kernel vs. the segmented differential oracle (and compiled tiers)
# ----------------------------------------------------------------------
def kernel_matrix_tiers():
    """Every kernel tier that can actually run here: ``segmented`` and
    ``flat`` always, plus ``jit`` when numba imports.  The two-way (or
    three-way) differential matrix iterates this."""
    from repro.engine import available_kernels  # deferred: numpy optional

    tiers = ["segmented", "flat"]
    tiers += [t for t in available_kernels() if t not in tiers]
    return tuple(tiers)


def kernel_engines(geometry, order_cls=None,
                   any_direction=AddressingDirection.UP, detailed=True,
                   kernels=None):
    """One identically-configured VectorizedEngine per kernel tier.

    ``kernels`` defaults to :func:`kernel_matrix_tiers` — the segmented
    oracle first, then every tier the environment can execute — so a
    suite comparing ``engines[0]`` against ``engines[1:]`` pins the whole
    matrix wherever it runs and silently narrows to the classic
    segmented-vs-flat pair where numba is absent.
    """
    from repro.engine import VectorizedEngine  # deferred: numpy optional

    if kernels is None:
        kernels = kernel_matrix_tiers()
    order = order_cls(geometry) if order_cls is not None else None
    return tuple(
        VectorizedEngine(geometry, order=order, any_direction=any_direction,
                         detailed=detailed, kernel=kernel)
        for kernel in kernels)


def kernel_pair(geometry, order_cls=None,
                any_direction=AddressingDirection.UP, detailed=True):
    """One VectorizedEngine per kernel, identically configured."""
    return kernel_engines(geometry, order_cls, any_direction, detailed,
                          kernels=("segmented", "flat"))


def assert_aggregates_match(expected, observed, label=""):
    """Compare two ``run_aggregates`` results: counters and cycles exact,
    energies at :data:`REL_TOL`, stress arrays exact when present."""
    import numpy as np

    by_source_e, counters_e, cycles_e, stress_e = expected
    by_source_o, counters_o, cycles_o, stress_o = observed
    assert cycles_o == cycles_e, label
    assert counters_o == counters_e, label
    assert set(by_source_o) == set(by_source_e), label
    for source in by_source_e:
        assert by_source_o[source] == pytest.approx(
            by_source_e[source], rel=REL_TOL), (label, source)
    if stress_e is not None and stress_o is not None:
        assert np.array_equal(stress_o.full_res, stress_e.full_res), label
        assert np.array_equal(stress_o.partial_res, stress_e.partial_res), \
            label


# ----------------------------------------------------------------------
# Sweep records across execution strategies
# ----------------------------------------------------------------------
def drop_elapsed(record) -> dict:
    """A record's dictionary minus its wall-clock observation."""
    row = record.as_dict()
    row.pop("elapsed_s")
    return row


def assert_identical_records(percase_result, batched_result):
    """Field-for-field identity of two record streams (``elapsed_s`` aside)."""
    assert len(percase_result) == len(batched_result)
    for expected, observed in zip(percase_result, batched_result):
        assert type(observed) is type(expected)
        assert drop_elapsed(observed) == drop_elapsed(expected)


def run_both_strategies(cases):
    """Evaluate one grid with the per-case and the batched strategy."""
    percase = SweepRunner(cases, processes=1, strategy="percase").run()
    batched = SweepRunner(cases, strategy="batched").run()
    return percase, batched
