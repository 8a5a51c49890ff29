"""Kernel provenance: one kernel, stamped truthfully; caches immutable.

The vectorized engine has one kernel, the flat numpy kernel, so nothing
selects one: the facades take no ``kernel`` argument and a case refuses
any ``kernel`` value but ``None``.  These tests pin the provenance
contract around it — every result and record says which kernel measured
it (``"flat"``, or ``""`` on the reference engine; records keep
``kernel == "default"``), per-run provenance is thread-local, and no run
scribbles on the shared cached structures.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import MARCH_CM, TestSession
from repro.bist import BistController, BistOrder
from repro.bist.address_generator import AddressGenerator
from repro.march.library import get_algorithm
from repro.march.ordering import RowMajorOrder
from repro.sram import ArrayGeometry, OperatingMode
from repro.sweep.runner import (
    PrrCase,
    SweepCase,
    SweepError,
    SweepRecord,
    SweepRunner,
    prr_grid,
    sweep_grid,
)

from differential import assert_identical_records, run_engine_and_per_case

GEOMETRY = ArrayGeometry(rows=8, columns=16)


# ----------------------------------------------------------------------
# Provenance on results, and the refused kernel choice
# ----------------------------------------------------------------------
def test_reference_backend_leaves_kernel_blank():
    result = TestSession(GEOMETRY, backend="reference").run(
        MARCH_CM, OperatingMode.FUNCTIONAL)
    assert result.kernel == ""


def test_unknown_kernel_rejected_everywhere():
    # The facades take no kernel at all; a case (the JSON surface that
    # journals, grids and served requests share) keeps the field for its
    # fingerprint but refuses every value except null.
    with pytest.raises(TypeError):
        TestSession(GEOMETRY, kernel="flat")
    with pytest.raises(TypeError):
        BistController(GEOMETRY, kernel="flat")
    with pytest.raises(TypeError):
        sweep_grid(["8x8"], ["MATS+"], kernel="flat")
    for kernel in ("flat", "segmented", "jit", "auto", "simd"):
        for case_cls in (SweepCase, PrrCase):
            with pytest.raises(SweepError, match="cannot be chosen"):
                case_cls(rows=8, columns=8, algorithm="MATS+",
                         kernel=kernel)


def test_bist_controller_threads_and_stamps_kernel():
    controller = BistController(GEOMETRY, backend="vectorized",
                                order=BistOrder.WORDLINE_SEQUENTIAL)
    result = controller.run(get_algorithm("MATS+"), low_power=True)
    assert result.kernel == "flat"


# ----------------------------------------------------------------------
# Sweep records: the fixed kernel fields, engine vs per-case parity
# ----------------------------------------------------------------------
def test_sweep_records_carry_requested_and_executed_tier():
    cases = sweep_grid(["8x16"], ["MATS+"])
    per_case, engine = run_engine_and_per_case(cases)
    record = engine.records[0]
    assert record.kernel == "default"    # nothing was chosen
    assert record.kernel_used == "flat"  # the one kernel measured it
    assert_identical_records(per_case, engine)


def test_prr_records_carry_kernel_fields():
    cases = prr_grid(["8x16"], ["MATS+"], backend="vectorized")
    result = SweepRunner(cases, processes=1).run(progress=False)
    record = result.records[0]
    assert record.kernel == "default"
    assert record.kernel_used == "flat"


def test_engine_run_state_is_thread_local():
    # One engine shared by a serving worker pool: last_stress /
    # last_counters are per-thread observations, so a run on one thread
    # must not leak provenance into another.
    import threading

    from repro.engine.vectorized import VectorizedEngine

    engine = VectorizedEngine(ArrayGeometry(8, 16))
    engine.run(get_algorithm("MATS+"), OperatingMode.FUNCTIONAL)
    counters = engine.last_counters
    stress = engine.last_stress
    assert counters and stress is not None

    observed = {}

    def probe():
        observed["counters"] = engine.last_counters
        observed["stress"] = engine.last_stress
        engine.run(get_algorithm("MATS+"), OperatingMode.LOW_POWER_TEST)
        observed["after"] = engine.last_counters

    worker = threading.Thread(target=probe)
    worker.start()
    worker.join()
    # The fresh thread starts blank and its own run fills its own slot...
    assert observed["counters"] == {}
    assert observed["stress"] is None
    assert observed["after"]["partial_res_column_cycles"] > 0
    # ...without clobbering the main thread's provenance.
    assert engine.last_counters is counters
    assert engine.last_stress is stress


def test_old_exports_import_with_default_kernel_fields():
    row = {"rows": 8, "columns": 8, "bits_per_word": 1,
           "algorithm": "MATS+", "order": "row-major", "any_direction": "up",
           "backend": "auto", "backend_used": "vectorized",
           "cycles_per_mode": 320, "functional_power_w": 1.0,
           "low_power_power_w": 0.5, "measured_prr": 0.5,
           "analytical_prr": 0.5, "analytical_prr_recharge": 0.5,
           "passed": True, "elapsed_s": 0.1}
    record = SweepRecord.from_dict(row)
    assert record.kernel == "default" and record.kernel_used == ""


# ----------------------------------------------------------------------
# Warm-path regression: the BIST order memo (the 4096x4096 fix)
# ----------------------------------------------------------------------
def test_address_generator_memoises_its_order():
    generator = AddressGenerator(GEOMETRY)
    first = generator.as_address_order()
    assert generator.as_address_order() is first
    # The memo is per configured order: reconfiguring builds the other
    # order once and memoises that instead.
    generator.order = BistOrder.FAST_ROW
    fast_row = generator.as_address_order()
    assert fast_row is not first
    assert generator.as_address_order() is fast_row
    # The memoised order keeps its per-instance caches warm.
    generator.order = BistOrder.WORDLINE_SEQUENTIAL
    again = generator.as_address_order()
    assert again.rank_array() is again.rank_array()


# ----------------------------------------------------------------------
# Property: per-order/per-trace caches are immutable under the kernel
# ----------------------------------------------------------------------
@given(rows=st.integers(min_value=1, max_value=8),
       columns=st.integers(min_value=1, max_value=8))
@settings(max_examples=20, deadline=None)
def test_rank_array_and_segment_walk_immutable_under_every_tier(
        rows, columns):
    """The kernel must not scribble on the shared cached structures.

    ``AddressOrder.rank_array()`` and the compiled trace's
    ``segment_walk()`` arrays are per-instance memos shared by every run
    on that order/trace; a kernel that mutated them (e.g. an in-place
    dtype normalisation) would silently corrupt all subsequent runs.
    """
    import numpy as np

    from repro.engine import UnsupportedConfiguration, VectorizedEngine

    geometry = ArrayGeometry(rows=rows, columns=columns)
    order = RowMajorOrder(geometry)
    engine = VectorizedEngine(geometry, order=order)
    rank_before = order.rank_array().copy()
    walk = engine.trace_for(MARCH_CM).segment_walk()
    snapshot = {name: getattr(walk, name).copy()
                for name in ("element", "length", "first_word",
                             "last_word", "carry_in", "in_chain")}
    for mode in OperatingMode:
        try:
            engine.run_aggregates(MARCH_CM, mode)
        except UnsupportedConfiguration:
            continue
    assert order.rank_array() is not None
    assert np.array_equal(order.rank_array(), rank_before)
    after = engine.trace_for(MARCH_CM).segment_walk()
    assert after is walk  # the memo survived the runs
    for name, expected in snapshot.items():
        assert np.array_equal(getattr(after, name), expected), name
