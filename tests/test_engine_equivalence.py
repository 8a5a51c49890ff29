"""Equivalence of the vectorized engine against the reference backend.

The vectorized backend is only useful if it measures *exactly* what the
cycle-accurate reference memory measures.  These tests run both engines on
identical configurations and require:

* identical energy ledgers (total, per-source breakdown, average power) up
  to floating-point summation order,
* identical stress counters (RES column-cycles, floating column-cycles,
  row transitions, full restores),
* identical fault detections (none on a fault-free memory),
* identical per-cell stress statistics where the reference memory tracks
  them.

Coverage spans all five Table 1 algorithms, both operating modes, both
traversal directions, word-oriented geometries and every address order the
engine supports — plus the guarantee that unsupported configurations are
refused (``backend="vectorized"``) or transparently fall back
(``backend="auto"``) rather than measured wrongly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    MARCH_CM,
    MARCH_SR,
    PAPER_TABLE1_ALGORITHMS,
    SMALL_GEOMETRY,
    TestSession,
    checkerboard_background,
)
from repro.core.session import SessionError
from repro.engine import EngineError, UnsupportedConfiguration, VectorizedEngine
from repro.march.element import AddressingDirection
from repro.march.ordering import (
    ColumnMajorOrder,
    PseudoRandomOrder,
    RowMajorSnakeOrder,
)
from repro.sram import SRAM, ArrayGeometry, OperatingMode, solid_background

from differential import (
    REL_TOL,
    assert_aggregates_match,
    assert_session_equivalent as assert_equivalent,
    kernel_engines as _kernel_engines,
    kernel_pair as _kernel_pair,
    run_both_backends as both_backends,
)


# ----------------------------------------------------------------------
# Main equivalence matrix: Table 1 algorithms x modes on SMALL_GEOMETRY
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", list(OperatingMode), ids=lambda m: m.value)
@pytest.mark.parametrize("algorithm", PAPER_TABLE1_ALGORITHMS,
                         ids=lambda a: a.name)
def test_equivalence_table1_algorithms(algorithm, mode):
    reference, vectorized = both_backends(SMALL_GEOMETRY, algorithm, mode)
    assert_equivalent(reference, vectorized, label=f"{algorithm.name}/{mode.value}")


def test_equivalence_compare_modes_prr():
    for algorithm in PAPER_TABLE1_ALGORITHMS:
        reference = TestSession(SMALL_GEOMETRY).compare_modes(algorithm)
        vectorized = TestSession(SMALL_GEOMETRY,
                                 backend="vectorized").compare_modes(algorithm)
        # Note: on a tiny 16x16 array the PRR is legitimately small or even
        # negative (few suppressed columns, frequent row restores); the
        # equivalence of the two backends is what matters here.
        assert vectorized.prr == pytest.approx(reference.prr, rel=REL_TOL)


# ----------------------------------------------------------------------
# Directions, backgrounds, orders, geometries
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", list(OperatingMode), ids=lambda m: m.value)
def test_equivalence_descending_any_direction(mode):
    reference, vectorized = both_backends(
        SMALL_GEOMETRY, MARCH_CM, mode,
        any_direction=AddressingDirection.DOWN)
    assert_equivalent(reference, vectorized, label="any-down")


@pytest.mark.parametrize("mode", list(OperatingMode), ids=lambda m: m.value)
def test_equivalence_checkerboard_background(mode):
    reference, vectorized = both_backends(
        SMALL_GEOMETRY, MARCH_SR, mode, background=checkerboard_background())
    assert_equivalent(reference, vectorized, label="checkerboard")


@pytest.mark.parametrize("mode", list(OperatingMode), ids=lambda m: m.value)
def test_equivalence_column_major_order(mode):
    """Fast-row order: every access is a row transition (worst case)."""
    geometry = ArrayGeometry(rows=8, columns=8)
    reference, vectorized = both_backends(
        geometry, MARCH_CM, mode, order=ColumnMajorOrder(geometry))
    assert_equivalent(reference, vectorized, label="column-major")


@pytest.mark.parametrize("mode", list(OperatingMode), ids=lambda m: m.value)
def test_equivalence_word_oriented_geometry(mode):
    geometry = ArrayGeometry(rows=8, columns=16, bits_per_word=4)
    reference, vectorized = both_backends(geometry, MARCH_CM, mode)
    assert_equivalent(reference, vectorized, label="word-oriented")


def test_equivalence_wide_geometry_low_power():
    """Wide array: the savings regime the paper targets."""
    geometry = ArrayGeometry(rows=4, columns=64)
    reference, vectorized = both_backends(
        geometry, MARCH_CM, OperatingMode.LOW_POWER_TEST)
    assert_equivalent(reference, vectorized, label="wide")


# ----------------------------------------------------------------------
# Per-cell stress statistics
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", list(OperatingMode), ids=lambda m: m.value)
def test_per_cell_stress_matches_reference(mode):
    geometry = ArrayGeometry(rows=8, columns=8)
    session = TestSession(geometry)
    memory = SRAM(geometry, mode=mode)
    memory.apply_background(solid_background(0))
    session.run(MARCH_CM, mode, memory=memory)

    engine = VectorizedEngine(geometry)
    engine.run(MARCH_CM, mode)
    stress = engine.last_stress
    assert stress is not None

    def per_cell(attribute):
        return np.array([[getattr(memory.array.cell(row, column).stats, attribute)
                          for column in range(geometry.columns)]
                         for row in range(geometry.rows)])

    assert np.array_equal(per_cell("full_res_count"), stress.full_res)
    assert np.array_equal(per_cell("partial_res_count"), stress.partial_res)
    assert np.all(per_cell("reads") == stress.reads_per_cell)
    assert np.all(per_cell("writes") == stress.writes_per_cell)
    assert (engine.last_counters["partial_res_column_cycles"]
            == memory.counters.partial_res_column_cycles)


# ----------------------------------------------------------------------
# Unsupported configurations: refuse or fall back, never mis-measure
# ----------------------------------------------------------------------
@pytest.mark.parametrize("order_factory", [PseudoRandomOrder, RowMajorSnakeOrder],
                         ids=["pseudo-random", "snake"])
def test_unsupported_order_raises_on_explicit_vectorized(order_factory):
    geometry = ArrayGeometry(rows=8, columns=8)
    session = TestSession(geometry, order=order_factory(geometry),
                          backend="vectorized")
    with pytest.raises(UnsupportedConfiguration):
        session.run(MARCH_CM, OperatingMode.LOW_POWER_TEST)


@pytest.mark.parametrize("order_factory", [PseudoRandomOrder, RowMajorSnakeOrder],
                         ids=["pseudo-random", "snake"])
def test_unsupported_order_auto_falls_back_to_reference(order_factory):
    geometry = ArrayGeometry(rows=8, columns=8)
    reference = TestSession(geometry, order=order_factory(geometry)).run(
        MARCH_CM, OperatingMode.LOW_POWER_TEST)
    auto = TestSession(geometry, order=order_factory(geometry),
                       backend="auto").run(MARCH_CM, OperatingMode.LOW_POWER_TEST)
    assert_equivalent(reference, auto, label="auto-fallback")


def test_functional_mode_supports_any_order_vectorized():
    """Functional mode has no floating state, so every order vectorizes."""
    geometry = ArrayGeometry(rows=8, columns=8)
    reference, vectorized = both_backends(
        geometry, MARCH_CM, OperatingMode.FUNCTIONAL,
        order=PseudoRandomOrder(geometry))
    assert_equivalent(reference, vectorized, label="pseudo-random functional")


def test_vectorized_rejects_custom_memory():
    memory = SRAM(SMALL_GEOMETRY)
    memory.apply_background(solid_background(0))
    session = TestSession(SMALL_GEOMETRY, backend="vectorized")
    with pytest.raises(SessionError):
        session.run(MARCH_CM, OperatingMode.FUNCTIONAL, memory=memory)


def test_unknown_backend_rejected():
    with pytest.raises(SessionError):
        TestSession(SMALL_GEOMETRY, backend="warp-drive")


def test_auto_falls_back_when_numpy_unavailable(monkeypatch):
    """Without numpy, 'auto' silently takes the reference path; explicit
    'vectorized' surfaces the missing dependency."""
    import repro.engine.vectorized as vectorized

    monkeypatch.setattr(vectorized, "np", None)
    result = TestSession(SMALL_GEOMETRY, backend="auto").run(
        MARCH_CM, OperatingMode.FUNCTIONAL)
    assert result.passed
    with pytest.raises(EngineError):
        TestSession(SMALL_GEOMETRY, backend="vectorized").run(
            MARCH_CM, OperatingMode.FUNCTIONAL)


def test_auto_uses_custom_memory_on_reference_path():
    """A custom memory under backend='auto' silently runs the reference path."""
    memory = SRAM(SMALL_GEOMETRY)
    memory.apply_background(solid_background(0))
    result = TestSession(SMALL_GEOMETRY, backend="auto").run(
        MARCH_CM, OperatingMode.FUNCTIONAL, memory=memory)
    assert result.passed
    assert memory.cycle == result.cycles  # the supplied memory really ran


# ----------------------------------------------------------------------
# Flat kernel vs. the segmented oracle
# ----------------------------------------------------------------------
# The flat kernel re-derives every segmented quantity as closed-form
# reductions over the compiled segment structure; the original segmented
# evaluation is retained as its differential oracle.  Counters and stress
# arrays must agree exactly, energies to summation order.

KERNEL_ORDERS = (None, ColumnMajorOrder, RowMajorSnakeOrder, PseudoRandomOrder)


@pytest.mark.parametrize("order_cls", KERNEL_ORDERS)
@pytest.mark.parametrize("mode", list(OperatingMode))
@pytest.mark.parametrize("any_direction",
                         [AddressingDirection.UP, AddressingDirection.DOWN])
def test_flat_kernel_matches_segmented(order_cls, mode, any_direction):
    """The full kernel matrix against the segmented oracle: the flat
    numpy kernel always, plus the compiled jit tier wherever numba is
    importable (the CI optional-deps job)."""
    geometry = ArrayGeometry(rows=16, columns=32)
    segmented, *others = _kernel_engines(geometry, order_cls, any_direction,
                                         detailed=True)
    for algorithm in PAPER_TABLE1_ALGORITHMS:
        try:
            expected = segmented.run_aggregates(algorithm, mode)
        except UnsupportedConfiguration:
            for engine in others:
                with pytest.raises(UnsupportedConfiguration):
                    engine.run_aggregates(algorithm, mode)
            continue
        for engine in others:
            observed = engine.run_aggregates(algorithm, mode)
            assert_aggregates_match(
                expected, observed,
                label=(engine.kernel, algorithm.name, mode))


def test_flat_kernel_handles_single_row_chains():
    """A one-row geometry never restores mid-run: the whole run is one
    carried-over chain, the flat kernel's worst case."""
    from repro.march.parser import parse_march

    # Bouncing traversal: each element resumes exactly where the previous
    # one parked (and kept pre-charged), so the single-row run stays
    # replayable — a chain spanning every element.
    bounce = parse_march("{⇑(w0); ⇓(r0,w1); ⇑(r1,w0); ⇓(r0)}", name="bounce")
    bounce.validate()
    geometry = ArrayGeometry(rows=1, columns=16)
    segmented, flat = _kernel_pair(geometry, None, AddressingDirection.UP,
                                   detailed=True)
    for mode in OperatingMode:
        expected = segmented.run_aggregates(bounce, mode)
        observed = flat.run_aggregates(bounce, mode)
        assert_aggregates_match(expected, observed, label=mode)
    # March C-'s up→up element boundary parks on the last row's far edge
    # and restarts on its first word, which floats mid-chain: both kernels
    # must refuse identically.
    for engine in (segmented, flat):
        with pytest.raises(UnsupportedConfiguration):
            engine.run_aggregates(MARCH_CM, OperatingMode.LOW_POWER_TEST)


def test_stacked_batch_is_bit_identical_to_single_runs():
    """run_aggregates_batch stacks a whole grid into one pass; every unit's
    energies must equal the stand-alone evaluation bit for bit (the
    guarantee the batched sweep strategy builds on)."""
    geometry = ArrayGeometry(rows=16, columns=64)
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


@pytest.mark.parametrize("order_cls", [None, ColumnMajorOrder])
def test_multi_tile_flat_kernel_matches_single_tile(monkeypatch, order_cls):
    """No committed grid reaches DEFAULT_SEGMENT_CHUNK (2^19) segment
    shapes, so a tiny chunk forces the flat kernel's multi-tile path:
    counters and stress stay exact, energies stay at the differential
    tolerance, and a stacked batch stays bit-identical to single runs
    under that chunk."""
    from repro.engine import vectorized

    geometry = ArrayGeometry(rows=16, columns=32)
    mode = OperatingMode.LOW_POWER_TEST

    def engine():
        order = order_cls(geometry) if order_cls is not None else None
        return VectorizedEngine(geometry, order=order, detailed=True,
                                kernel="flat")

    single_tile = engine()
    expected = {algorithm.name: single_tile.run_aggregates(algorithm, mode)
                for algorithm in PAPER_TABLE1_ALGORITHMS}

    monkeypatch.setattr(vectorized, "DEFAULT_SEGMENT_CHUNK", 4)
    tiled = engine()
    for algorithm in PAPER_TABLE1_ALGORITHMS:
        assert tiled.trace_for(algorithm).segment_walk().shape_count > 4
        assert_aggregates_match(expected[algorithm.name],
                                tiled.run_aggregates(algorithm, mode),
                                label=algorithm.name)

    requests = [(algorithm, mode, None) for algorithm in PAPER_TABLE1_ALGORITHMS]
    stacked = tiled.run_aggregates_batch(requests)
    for (algorithm, _, _), batch_result in zip(requests, stacked):
        by_source_b, counters_b, cycles_b, stress_b = batch_result
        by_source_s, counters_s, cycles_s, stress_s = tiled.run_aggregates(
            algorithm, mode)
        assert cycles_b == cycles_s and counters_b == counters_s
        assert by_source_b == by_source_s  # bit-identical, not approx
        assert np.array_equal(stress_b.full_res, stress_s.full_res)
        assert np.array_equal(stress_b.partial_res, stress_s.partial_res)


def test_batch_collects_unsupported_units():
    """collect_errors=True isolates the unsupported unit instead of
    failing the whole stack."""
    geometry = ArrayGeometry(rows=8, columns=16)
    snake = RowMajorSnakeOrder(geometry)
    engine = VectorizedEngine(geometry, order=snake, detailed=False)
    requests = [(MARCH_CM, OperatingMode.FUNCTIONAL, None),
                (MARCH_CM, OperatingMode.LOW_POWER_TEST, None)]
    outcomes = engine.run_aggregates_batch(requests, collect_errors=True)
    assert not isinstance(outcomes[0], Exception)   # functional always replays
    assert isinstance(outcomes[1], UnsupportedConfiguration)
    with pytest.raises(UnsupportedConfiguration):
        engine.run_aggregates_batch(requests)


def test_engine_memoises_traces_across_runs_and_modes():
    """Both modes of a compare share one compiled trace (and its segment
    structure), through the engine's own cache."""
    geometry = ArrayGeometry(rows=8, columns=16)
    engine = VectorizedEngine(geometry, detailed=False)
    engine.run_aggregates(MARCH_CM, OperatingMode.FUNCTIONAL)
    trace = engine.trace_for(MARCH_CM)
    walk = trace.segment_walk()
    engine.run_aggregates(MARCH_CM, OperatingMode.LOW_POWER_TEST)
    assert engine.trace_for(MARCH_CM) is trace
    assert trace.segment_walk() is walk
    assert len(engine.traces) == 1
