"""Kernel-tier seam: availability fallback, provenance, cache immutability.

The compiled tier (``kernel="jit"`` via numba) is strictly optional:
these tests pin the contract that holds *without* the dependency — a request for an absent tier falls back to the ``"flat"``
numpy kernel with exactly one process-wide warning, ``"auto"`` resolves to
``"flat"`` with the same single warning, results are identical to an
explicit flat run, and every result/record truthfully carries the tier
that actually executed.  Where numba *is* importable (the CI
optional-deps job) the same tests exercise the real tier path, and the
differential suites (``test_engine_equivalence`` /
``test_banked_differential``) pin the numeric matrix.
"""

from __future__ import annotations

import sys
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import MARCH_CM, TestSession
from repro.bist import BistController, BistError, BistOrder
from repro.bist.address_generator import AddressGenerator
from repro.core.session import SessionError
from repro.engine import (
    KERNEL_CHOICES,
    available_kernels,
    kernel_available,
    reset_kernel_state,
    resolve_kernel,
)
from repro.march.library import get_algorithm
from repro.march.ordering import RowMajorOrder
from repro.sram import ArrayGeometry, OperatingMode
from repro.sweep.runner import (
    SweepError,
    SweepRecord,
    SweepRunner,
    prr_grid,
    sweep_grid,
)

from differential import assert_identical_records

GEOMETRY = ArrayGeometry(rows=8, columns=16)

#: The compiled-tier module and the third-party import behind it;
#: poisoning both in ``sys.modules`` simulates an absent dependency even
#: in environments (the CI optional-deps job) where numba is installed.
_TIER_IMPORTS = {
    "jit": ("numba", "repro.engine.compiled"),
}


@pytest.fixture
def clean_kernels(monkeypatch):
    """Fresh tier cache + warn-once registry around each test."""
    reset_kernel_state()
    yield monkeypatch
    reset_kernel_state()


def _absent(monkeypatch, *tiers: str) -> None:
    """Force ``tiers`` to be unavailable, whatever this host has installed.

    A ``None`` entry in ``sys.modules`` makes ``import`` raise
    ``ImportError`` even for an already-imported module.
    """
    for tier in tiers:
        for name in _TIER_IMPORTS[tier]:
            monkeypatch.setitem(sys.modules, name, None)
    reset_kernel_state()  # drop memoised availability probed before poisoning


# ----------------------------------------------------------------------
# Resolution and the warn-once contract (satellite: dependency-absent)
# ----------------------------------------------------------------------
def test_kernel_choices_cover_all_tiers():
    assert KERNEL_CHOICES == ("flat", "segmented", "jit", "auto")
    concrete = available_kernels()
    assert "flat" in concrete and "segmented" in concrete
    assert "auto" not in concrete


def test_explicit_jit_falls_back_to_flat_with_one_warning(clean_kernels):
    _absent(clean_kernels, "jit")
    with pytest.warns(RuntimeWarning, match="fall"):
        assert resolve_kernel("jit") == "flat"
    # Warn-once: the second resolution is silent.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert resolve_kernel("jit") == "flat"


def test_auto_resolves_to_flat_with_a_single_warning(clean_kernels):
    _absent(clean_kernels, "jit")
    with pytest.warns(RuntimeWarning) as caught:
        assert resolve_kernel("auto") == "flat"
        assert resolve_kernel("auto") == "flat"
    assert len(caught) == 1


@pytest.mark.skipif(not kernel_available("jit"),
                    reason="numba not installed")
def test_auto_prefers_jit_when_numba_is_importable(clean_kernels):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert resolve_kernel("auto") == "jit"


def test_flat_and_segmented_never_warn(clean_kernels):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert resolve_kernel("flat") == "flat"
        assert resolve_kernel("segmented") == "segmented"


# ----------------------------------------------------------------------
# Truthful provenance + identical results under fallback
# ----------------------------------------------------------------------
def test_session_fallback_result_is_identical_and_truthful(clean_kernels):
    _absent(clean_kernels, "jit")
    flat = TestSession(GEOMETRY, backend="vectorized", kernel="flat").run(
        MARCH_CM, OperatingMode.LOW_POWER_TEST)
    with pytest.warns(RuntimeWarning):
        jit = TestSession(GEOMETRY, backend="vectorized", kernel="jit").run(
            MARCH_CM, OperatingMode.LOW_POWER_TEST)
    assert flat.kernel == "flat"
    assert jit.kernel == "flat"  # the tier that actually ran, not the wish
    assert jit.energy_by_source == flat.energy_by_source  # bit-identical
    assert jit.total_energy == flat.total_energy
    assert jit.cycles == flat.cycles


def test_reference_backend_leaves_kernel_blank():
    result = TestSession(GEOMETRY, backend="reference").run(
        MARCH_CM, OperatingMode.FUNCTIONAL)
    assert result.kernel == ""


def test_unknown_kernel_rejected_everywhere():
    with pytest.raises(SessionError, match="unknown kernel"):
        TestSession(GEOMETRY, kernel="simd")
    with pytest.raises(BistError, match="unknown kernel"):
        BistController(GEOMETRY, kernel="simd")
    with pytest.raises(SweepError, match="unknown kernel"):
        sweep_grid(["8x8"], ["MATS+"], kernel="simd")


def test_bist_controller_threads_and_stamps_kernel(clean_kernels):
    controller = BistController(GEOMETRY, backend="vectorized",
                                kernel="flat",
                                order=BistOrder.WORDLINE_SEQUENTIAL)
    result = controller.run(get_algorithm("MATS+"), low_power=True)
    assert result.kernel == "flat"
    controller.warm(get_algorithm("MATS+"))  # best-effort, must not raise


# ----------------------------------------------------------------------
# Dispatcher warm hook
# ----------------------------------------------------------------------
def test_engine_warm_is_chainable_and_safe(clean_kernels):
    from repro.engine import VectorizedEngine

    engine = VectorizedEngine(GEOMETRY)
    assert engine.warm(MARCH_CM) is engine
    # Warming compiled the trace: the memo returns the same object.
    assert engine.trace_for(MARCH_CM) is engine.trace_for(MARCH_CM)


def test_dispatcher_warm_reports_success(clean_kernels):
    session = TestSession(GEOMETRY, backend="vectorized")
    assert session._dispatch.warm(MARCH_CM) is True


# ----------------------------------------------------------------------
# Sweep records: requested vs. executed tier, strategy parity
# ----------------------------------------------------------------------
def test_sweep_records_carry_requested_and_executed_tier(clean_kernels):
    _absent(clean_kernels, "jit")
    cases = sweep_grid(["8x16"], ["MATS+"], kernel="jit")
    with pytest.warns(RuntimeWarning):
        batched = SweepRunner(cases, strategy="batched").run(progress=False)
    record = batched.records[0]
    assert record.kernel == "jit"        # what the case asked for
    assert record.kernel_used == "flat"  # what actually executed
    reset_kernel_state()
    with pytest.warns(RuntimeWarning):
        percase = SweepRunner(cases, processes=1,
                              strategy="percase").run(progress=False)
    assert_identical_records(percase, batched)


def test_prr_records_carry_kernel_fields(clean_kernels):
    cases = prr_grid(["8x16"], ["MATS+"], backend="vectorized",
                     kernel="flat")
    result = SweepRunner(cases, processes=1,
                         strategy="percase").run(progress=False)
    record = result.records[0]
    assert record.kernel == "flat"
    assert record.kernel_used == "flat"


def test_engine_run_state_is_thread_local(clean_kernels):
    # One engine shared by a serving worker pool: last_kernel_used /
    # last_stress / last_counters are per-thread observations, so a run
    # on one thread must not leak provenance into another.
    import threading

    from repro.engine.vectorized import VectorizedEngine

    engine = VectorizedEngine(ArrayGeometry(8, 16), kernel="flat")
    engine.run(get_algorithm("MATS+"), OperatingMode.FUNCTIONAL)
    assert engine.last_kernel_used == "flat"
    assert engine.last_counters

    observed = {}

    def probe():
        observed["kernel"] = engine.last_kernel_used
        observed["counters"] = engine.last_counters
        observed["stress"] = engine.last_stress
        engine.run(get_algorithm("MATS+"), OperatingMode.LOW_POWER_TEST)
        observed["after"] = engine.last_kernel_used

    worker = threading.Thread(target=probe)
    worker.start()
    worker.join()
    # The fresh thread starts blank and its own run fills its own slot...
    assert observed["kernel"] is None
    assert observed["counters"] == {}
    assert observed["stress"] is None
    assert observed["after"] == "flat"
    # ...without clobbering the main thread's provenance.
    assert engine.last_kernel_used == "flat"
    assert engine.last_counters


def test_fallback_warns_exactly_once_across_threads(clean_kernels):
    # The warn-once registry is shared process state hit concurrently by
    # the serving pool: N racing resolutions of a missing tier must
    # produce exactly one warning, not N and not zero.
    import threading

    monkeypatch = clean_kernels
    _absent(monkeypatch, "jit")
    caught = []
    barrier = threading.Barrier(4)

    def resolve():
        barrier.wait()
        with warnings.catch_warnings(record=True) as log:
            warnings.simplefilter("always")
            resolve_kernel("jit")
        caught.extend(log)

    threads = [threading.Thread(target=resolve) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert len([w for w in caught if "falling back" in str(w.message)]) == 1


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
# Property: per-order/per-trace caches are immutable under every tier
# ----------------------------------------------------------------------
@given(rows=st.integers(min_value=1, max_value=8),
       columns=st.integers(min_value=1, max_value=8))
@settings(max_examples=20, deadline=None)
def test_rank_array_and_segment_walk_immutable_under_every_tier(
        rows, columns):
    """No kernel tier may scribble on the shared cached structures.

    ``AddressOrder.rank_array()`` and the compiled trace's
    ``segment_walk()`` arrays are per-instance memos shared by every run
    on that order/trace; a tier that mutated them (e.g. an in-place
    dtype normalisation) would silently corrupt all subsequent runs.
    """
    import numpy as np

    from repro.engine import UnsupportedConfiguration, VectorizedEngine

    geometry = ArrayGeometry(rows=rows, columns=columns)
    for tier in available_kernels():
        order = RowMajorOrder(geometry)
        engine = VectorizedEngine(geometry, order=order, kernel=tier)
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
        assert np.array_equal(order.rank_array(), rank_before), tier
        after = engine.trace_for(MARCH_CM).segment_walk()
        assert after is walk, tier  # the memo survived the runs
        for name, expected in snapshot.items():
            assert np.array_equal(getattr(after, name), expected), \
                (tier, name)
