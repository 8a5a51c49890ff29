"""Banked × fault-class × backend differential matrix.

Banked multi-sub-array geometries and the dynamic/NPSF fault classes are
beyond-paper extensions, so nothing in Table 1 pins them.  What pins them
instead is the project's standing differential gate, instantiated here
through the shared harness (:mod:`differential`) over the full new
scenario matrix:

* **session power runs** — reference vs. vectorized on banked geometries
  (banks ∈ {1, 2, 4}, both interleave modes, both operating modes):
  identical counters (including ``bank_transitions``) and per-cell
  stress, energies at 1e-9, on the row-major order in both directions
  and on the fast-row (column-major) order descending;
* **BIST power campaigns** — banked PRR identical across backends;
* **fault campaigns** — dynamic two-operation faults and neighbourhood
  pattern-sensitive faults produce bit-identical detection verdicts on
  the reference and vectorized fault backends, across algorithms, orders
  and directions;
* **sweep records** — banked grids evaluate field-for-field identically
  through the grid engine and case by case.
"""

from __future__ import annotations

import pytest

from repro import PAPER_TABLE1_ALGORITHMS, TestSession
from repro.bist import BistController
from repro.faults import (
    FaultInjection,
    dynamic_fault_models,
    neighbourhood_fault_models,
    type1_neighbourhood,
)
from repro.march import MARCH_CM, MARCH_SS, MATS_PLUS
from repro.march.element import AddressingDirection
from repro.march.ordering import ColumnMajorOrder, PseudoRandomOrder, RowMajorOrder
from repro.sram import ArrayGeometry, OperatingMode

from differential import (
    REL_TOL,
    assert_bist_equivalent,
    assert_fault_verdicts_identical,
    assert_identical_records,
    assert_matches_reference,
    assert_session_equivalent,
    measured_prr,
    run_both_backends,
    run_engine_and_per_case,
)

#: banks=1 has no interleave choice; every banked count is exercised under
#: both address-map permutations.
BANK_VARIANTS = (
    (1, "blocked"),
    (2, "blocked"),
    (2, "interleaved"),
    (4, "blocked"),
    (4, "interleaved"),
)

BASE_SHAPES = ((16, 16), (8, 32))


def banked_geometries():
    for rows, columns in BASE_SHAPES:
        for banks, interleave in BANK_VARIANTS:
            yield ArrayGeometry(rows=rows, columns=columns, banks=banks,
                                bank_interleave=interleave)


GEOMETRY_IDS = [geometry.describe() for geometry in banked_geometries()]


# ----------------------------------------------------------------------
# Session runs: reference vs. vectorized on the banked matrix
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", list(OperatingMode), ids=lambda m: m.value)
@pytest.mark.parametrize("geometry", banked_geometries(), ids=GEOMETRY_IDS)
def test_banked_session_equivalence(geometry, mode):
    reference, _ = assert_matches_reference(geometry, MARCH_CM, mode,
                                            label=geometry.describe())
    if geometry.is_banked:
        # A multi-sweep march on a row-major order crosses every internal
        # bank boundary at least once per sweep: the new accounting must
        # actually have fired, not silently stayed at zero.
        assert reference.bank_transitions > 0, geometry.describe()
    else:
        assert reference.bank_transitions == 0


@pytest.mark.parametrize("mode", list(OperatingMode), ids=lambda m: m.value)
def test_banked_column_major_order(mode):
    """Fast-row traversal under interleaved banking: every access lands in
    a different bank — the bank-select worst case."""
    geometry = ArrayGeometry(rows=8, columns=16, banks=4,
                             bank_interleave="interleaved")
    reference, vectorized = run_both_backends(
        geometry, MARCH_CM, mode, order=ColumnMajorOrder(geometry))
    assert_session_equivalent(reference, vectorized, label="banked fast-row")
    assert reference.bank_transitions > 0


def test_banked_descending_direction():
    geometry = ArrayGeometry(rows=16, columns=16, banks=4)
    reference, vectorized = run_both_backends(
        geometry, MARCH_CM, OperatingMode.LOW_POWER_TEST,
        any_direction=AddressingDirection.DOWN)
    assert_session_equivalent(reference, vectorized, label="banked any-down")


def test_interleave_mode_changes_the_transition_count():
    """Blocked and interleaved banking are different address maps: on a
    row-major sweep the interleaved map must pay strictly more bank-select
    transitions (every row change switches banks) than the blocked map
    (only sub-array boundaries switch)."""
    results = {}
    for interleave in ("blocked", "interleaved"):
        geometry = ArrayGeometry(rows=16, columns=16, banks=4,
                                 bank_interleave=interleave)
        results[interleave] = TestSession(geometry).run(
            MARCH_CM, OperatingMode.FUNCTIONAL)
    assert results["interleaved"].bank_transitions > \
        results["blocked"].bank_transitions
    # The bank map permutes rows only: everything that is not bank-select
    # accounting is unchanged between the two interleave modes.
    assert results["interleaved"].cycles == results["blocked"].cycles
    assert results["interleaved"].row_transitions == \
        results["blocked"].row_transitions


#: Both orders with the ``⇕`` elements descending.  The row-major
#: ascending traversal is ``test_banked_session_equivalence``'s; the
#: generated differential draws banked fast-row ascending runs.
BANKED_TRAVERSALS = (
    (RowMajorOrder, AddressingDirection.DOWN),
    (ColumnMajorOrder, AddressingDirection.DOWN),
)
TRAVERSAL_IDS = ["row-major-down", "column-major-down"]


@pytest.mark.parametrize("order_cls, direction", BANKED_TRAVERSALS,
                         ids=TRAVERSAL_IDS)
@pytest.mark.parametrize("mode", list(OperatingMode), ids=lambda m: m.value)
@pytest.mark.parametrize("geometry", banked_geometries(), ids=GEOMETRY_IDS)
def test_banked_flat_kernel_matches_reference(geometry, mode, order_cls,
                                              direction):
    """The flat kernel's closed-form bank accounting on every bank
    variant, per order, counters and per-cell stress."""
    reference, _ = assert_matches_reference(
        geometry, MARCH_CM, mode,
        label=(geometry.describe(), order_cls.__name__, direction),
        order=order_cls(geometry), any_direction=direction)
    assert (reference.bank_transitions > 0) == geometry.is_banked


def test_banked_batch_is_bit_identical_to_single_runs():
    """The stacked pass books bank-select energy exactly like the
    stand-alone evaluation — bit for bit, the batched-sweep guarantee."""
    from repro.engine import VectorizedEngine

    geometry = ArrayGeometry(rows=16, columns=32, banks=4,
                             bank_interleave="interleaved")
    engine = VectorizedEngine(geometry, detailed=False)
    requests = [(algorithm, mode, None)
                for algorithm in PAPER_TABLE1_ALGORITHMS
                for mode in OperatingMode]
    stacked = engine.run_aggregates_batch(requests)
    for (algorithm, mode, _), batch_result in zip(requests, stacked):
        by_source_b, counters_b, cycles_b, _ = batch_result
        by_source_s, counters_s, cycles_s, _ = engine.run_aggregates(
            algorithm, mode)
        assert cycles_b == cycles_s and counters_b == counters_s
        assert by_source_b == by_source_s  # bit-identical, not approx


# ----------------------------------------------------------------------
# BIST campaigns: banked PRR across backends
# ----------------------------------------------------------------------
@pytest.mark.parametrize("banks,interleave", BANK_VARIANTS,
                         ids=[f"{b}-{i}" for b, i in BANK_VARIANTS])
def test_banked_bist_equivalence(banks, interleave):
    geometry = ArrayGeometry(rows=8, columns=32, banks=banks,
                             bank_interleave=interleave)
    for low_power in (False, True):
        reference = BistController(geometry).run(MARCH_CM,
                                                 low_power=low_power)
        vectorized = BistController(geometry, backend="vectorized").run(
            MARCH_CM, low_power=low_power)
        assert_bist_equivalent(reference, vectorized,
                               label=f"{geometry.describe()}/{low_power}")


def test_banked_measured_prr_identical_across_backends():
    geometry = ArrayGeometry(rows=16, columns=64, banks=4)
    for algorithm in (MATS_PLUS, MARCH_CM):
        reference = measured_prr(
            BistController(geometry, backend="reference"), algorithm)
        vectorized = measured_prr(
            BistController(geometry, backend="vectorized"), algorithm)
        assert vectorized == pytest.approx(reference, rel=REL_TOL), \
            algorithm.name


def test_bank_count_changes_the_measured_prr():
    """Banking shortens the bit lines (less RES to suppress) while adding
    bank-select overhead, so PRR must actually respond to the bank count —
    the beyond-paper effect the sweep axis exists to measure."""
    prr_by_banks = {}
    for banks in (1, 4):
        geometry = ArrayGeometry(rows=64, columns=64, banks=banks)
        prr_by_banks[banks] = measured_prr(
            BistController(geometry, backend="vectorized"), MARCH_CM)
    assert prr_by_banks[1] != pytest.approx(prr_by_banks[4], rel=1e-6)


# ----------------------------------------------------------------------
# Fault campaigns: dynamic + NPSF classes through both backends
# ----------------------------------------------------------------------
FAULT_GEOMETRY = ArrayGeometry(rows=6, columns=6)

#: Victims with a full 4-cell type-1 neighbourhood (interior cells) plus
#: edge/corner victims for the dynamic classes (no neighbourhood needed).
DYNAMIC_VICTIMS = [(0, 0), (0, 5), (2, 3), (5, 5)]
NPSF_VICTIMS = [(1, 1), (2, 3), (4, 4)]


def extended_battery(geometry=FAULT_GEOMETRY):
    """Every new fault class at several victims (incl. borders/corners)."""
    injections = []
    for model in dynamic_fault_models():
        for victim in DYNAMIC_VICTIMS:
            injections.append(FaultInjection(model, victim=victim))
    for model in neighbourhood_fault_models():
        for victim in NPSF_VICTIMS:
            injections.append(FaultInjection(
                model, victim=victim,
                neighbourhood=type1_neighbourhood(geometry, victim)))
    return injections


FAULT_ORDER_FACTORIES = {
    "row-major": RowMajorOrder,
    "column-major": ColumnMajorOrder,
    "pseudo-random": lambda g: PseudoRandomOrder(g, seed=11),
}


@pytest.mark.parametrize("order_name", sorted(FAULT_ORDER_FACTORIES))
@pytest.mark.parametrize("direction",
                         [AddressingDirection.UP, AddressingDirection.DOWN])
def test_dynamic_and_npsf_verdicts_identical(order_name, direction):
    order = FAULT_ORDER_FACTORIES[order_name](FAULT_GEOMETRY)
    assert_fault_verdicts_identical(FAULT_GEOMETRY, MARCH_SS, [order],
                                    extended_battery(), direction=direction)


@pytest.mark.parametrize("algorithm", [MATS_PLUS, MARCH_CM],
                         ids=lambda a: a.name)
def test_new_fault_classes_across_algorithms(algorithm):
    assert_fault_verdicts_identical(
        FAULT_GEOMETRY, algorithm, [RowMajorOrder(FAULT_GEOMETRY)],
        extended_battery())


def test_march_ss_detects_the_dynamic_battery():
    """March SS exists to cover dynamic faults; the battery must not be
    vacuously undetectable (which would make the equivalence tests above
    meaningless)."""
    order = RowMajorOrder(FAULT_GEOMETRY)
    [results] = assert_fault_verdicts_identical(FAULT_GEOMETRY, MARCH_SS,
                                                [order], extended_battery())
    detected = sum(1 for result in results if result.detected)
    assert detected >= len(results) // 2, f"{detected}/{len(results)}"


def test_neighbourhood_cells_survive_on_a_banked_geometry():
    """Fault campaigns address logical cells, so banking must be fully
    transparent to them — same verdicts as the monolithic array."""
    monolithic = ArrayGeometry(rows=8, columns=8)
    banked = ArrayGeometry(rows=8, columns=8, banks=4,
                           bank_interleave="interleaved")
    [reference] = assert_fault_verdicts_identical(
        monolithic, MARCH_SS, [RowMajorOrder(monolithic)],
        extended_battery(monolithic))
    [banked_results] = assert_fault_verdicts_identical(
        banked, MARCH_SS, [RowMajorOrder(banked)],
        extended_battery(banked))
    for lhs, rhs in zip(reference, banked_results):
        assert (lhs.detected, lhs.mismatches) == (rhs.detected, rhs.mismatches)


# ----------------------------------------------------------------------
# Sweep records: banked grids through the engine and case by case
# ----------------------------------------------------------------------
def test_banked_records_identical_to_per_case():
    from repro.sweep.runner import prr_grid, sweep_grid

    cases = sweep_grid(["8x16"], ["MATS+", "March C-"],
                       backends=("vectorized",), banks=(1, 2, 4)) + \
        prr_grid(["8x16"], ["MATS+"], backend="vectorized", banks=(1, 4),
                 bank_interleave="interleaved")
    per_case, engine = run_engine_and_per_case(cases)
    assert_identical_records(per_case, engine)
    assert {record.banks for record in engine} == {1, 2, 4}
