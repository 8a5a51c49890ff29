"""Shared cross-backend differential harness.

Every scenario family in this repository — session power runs, BIST power
campaigns, fault-detection campaigns, sweep grids — exists twice: once on
the cycle-accurate reference path, the one oracle, and once on a
vectorized engine.  The project-wide gate is always the same: **verdicts
bit-identical, energies within 1e-9**.

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
* :func:`assert_matches_reference` — that contract plus what a result
  does not surface: the ``partial_res_column_cycles`` count and the
  per-cell ``full_res``/``partial_res`` stress of a detailed reference
  memory against the flat kernel's ``last_counters``/``last_stress``;
* :func:`assert_bist_equivalent` / :func:`measured_prr` — the BIST
  campaign contract (cycles, verdicts, ledger, planner attribution);
* :func:`fault_verdict` / :func:`assert_fault_verdicts_identical` — fault
  campaigns: detection triples must match **bit for bit**, no tolerance;
* :func:`assert_aggregates_match` — two raw ``run_aggregates`` results
  of the flat kernel (tiled against untiled, stacked against alone);
* :func:`drop_elapsed` / :func:`assert_identical_records` /
  :func:`run_engine_and_per_case` — sweep records of the grid engine
  against each case's own executor (field-for-field identical;
  ``elapsed_s`` is the one wall-clock exempt field).
"""

from __future__ import annotations

import pytest

from repro import TestSession
from repro.bist import BistController
from repro.faults import FaultSimulator
from repro.march.element import AddressingDirection
from repro.sweep import runner as sweep_runner
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


def assert_matches_reference(geometry, algorithm, mode, label="",
                             **session_kwargs):
    """The flat kernel against the reference, per-cell stress included.

    Runs a detailed :class:`~repro.engine.VectorizedEngine` first — so a
    refused run raises :class:`~repro.engine.UnsupportedConfiguration`
    before the slow reference walk — then the reference session on an
    explicit :class:`~repro.sram.SRAM` that tracks per-cell stress, with
    the same order,
    direction, technology and background.  Compares the session results
    (:func:`assert_session_equivalent`), the engine's ``last_counters``
    ``partial_res_column_cycles`` against the memory's counter, and the
    engine's ``last_stress`` against every cell's ``full_res_count``,
    ``partial_res_count``, reads and writes (a word's stress entry stands
    for each of its columns).  Returns ``(reference, vectorized)``.
    """
    import numpy as np

    from repro.engine import VectorizedEngine
    from repro.sram import SRAM

    session = TestSession(geometry, **session_kwargs)
    engine = VectorizedEngine(geometry, tech=session.tech,
                              order=session.order,
                              any_direction=session.any_direction,
                              detailed=True)
    vectorized = engine.run(algorithm, mode)
    # Stress tracked per cell; the ledger keeps totals only (no event
    # list), which books the same sums faster.
    memory = SRAM(geometry, tech=session.tech, mode=mode,
                  track_cell_stress=True, detailed_ledger=False)
    memory.apply_background(session.background)
    reference = session.run(algorithm, mode, memory=memory)

    assert_session_equivalent(reference, vectorized, label)
    assert (engine.last_counters["partial_res_column_cycles"]
            == memory.counters.partial_res_column_cycles), label
    stress = engine.last_stress
    word_of_column = np.arange(geometry.columns) % geometry.words_per_row
    cells = [[memory.array.cell(row, column).stats
              for column in range(geometry.columns)]
             for row in range(geometry.rows)]

    def per_cell(attribute):
        return np.array([[getattr(stats, attribute) for stats in row]
                         for row in cells])

    assert np.array_equal(per_cell("full_res_count"),
                          stress.full_res[:, word_of_column]), label
    assert np.array_equal(per_cell("partial_res_count"),
                          stress.partial_res[:, word_of_column]), label
    assert np.all(per_cell("reads") == stress.reads_per_cell), label
    assert np.all(per_cell("writes") == stress.writes_per_cell), label
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


def assert_fault_verdicts_identical(geometry, algorithm, orders, battery,
                                    direction=AddressingDirection.UP):
    """Run one battery under ``orders`` on both fault backends; verdicts
    must be identical per order.

    The vectorized side runs every order in one multi-order call (one
    replay per fault class), the reference side one order at a time.
    Returns the reference results, one list per order.
    """
    reference = FaultSimulator(geometry, any_direction=direction,
                               backend="reference")
    vectorized = FaultSimulator(geometry, any_direction=direction,
                                backend="vectorized")
    expected = [reference.simulate_many(algorithm, order, battery)
                for order in orders]
    got = vectorized.simulate_orders(algorithm, orders, battery)
    assert vectorized.last_backend_used == "vectorized"
    assert len(got) == len(orders)
    for order, want, have in zip(orders, expected, got):
        assert len(have) == len(battery)
        for injection, lhs, rhs in zip(battery, want, have):
            assert rhs.order == order.name
            assert fault_verdict(lhs) == fault_verdict(rhs), (
                f"{injection.describe()} under {order.name}: "
                f"reference {fault_verdict(lhs)} vs vectorized "
                f"{fault_verdict(rhs)}")
    return expected


# ----------------------------------------------------------------------
# Raw flat-kernel aggregates (tiling and stacking invariance)
# ----------------------------------------------------------------------
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
# Sweep records: the grid engine against each case's own executor
# ----------------------------------------------------------------------
def drop_elapsed(record) -> dict:
    """A record's dictionary minus its wall-clock observation."""
    row = record.as_dict()
    row.pop("elapsed_s")
    return row


def assert_identical_records(expected_records, observed_records):
    """Field-for-field identity of two record streams (``elapsed_s`` aside)."""
    assert len(expected_records) == len(observed_records)
    for expected, observed in zip(expected_records, observed_records):
        assert type(observed) is type(expected)
        assert drop_elapsed(observed) == drop_elapsed(expected)


def run_per_case(cases):
    """Every case through ``execute_case``, in order, on one fresh worker
    state: the unit every case that does not stack still takes."""
    previous = sweep_runner._get_worker_state()
    sweep_runner._set_worker_state(sweep_runner._WorkerState())
    try:
        return [sweep_runner.execute_case(case) for case in cases]
    finally:
        sweep_runner._set_worker_state(previous)


def run_engine_and_per_case(cases):
    """Evaluate one grid case by case (:func:`run_per_case`) and through
    the sweep runner's in-process grid engine."""
    return run_per_case(cases), SweepRunner(cases, processes=1).run()
