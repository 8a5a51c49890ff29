"""Row runs: the segment structure every compiled run is built from.

``AddressOrder.row_runs()`` describes an order's ascending traversal as
maximal same-row runs.  The row-major order (the paper's word-line-after-
word-line order) builds them in closed form; every other order derives
them from its coordinates.  Three things are pinned here:

* the compiled :class:`~repro.march.execution.SegmentWalk` of every
  registry order equals the one compiled from runs derived over
  coordinates materialised one ``coordinate_at`` call at a time, and
  each element's segments equal the runs found directly on that
  element's own walk (so the descending reversal is checked too);
* the vectorized BIST PRR matches the reference backend on generated
  banked geometries;
* the word-line-sequential BIST and engine paths never expand the
  row-major coordinates at all.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import PAPER_TABLE1_ALGORITHMS
from repro.bist import BistController
from repro.engine import UnsupportedConfiguration, VectorizedEngine
from repro.march import all_algorithms
from repro.march.element import AddressingDirection
from repro.march.execution import SegmentWalk, compile_trace
from repro.march.ordering import ORDER_REGISTRY, AddressOrder, RowMajorOrder
from repro.sram import ArrayGeometry, OperatingMode

from differential import assert_energy_ledgers_match
from strategies import algorithms, banked_geometries

#: Every order class the registry ships (aliases collapse).
ORDERS = sorted(set(ORDER_REGISTRY.values()), key=lambda cls: cls.name)
DIRECTIONS = (AddressingDirection.UP, AddressingDirection.DOWN)

#: Per-segment arrays and per-run lists of a SegmentWalk.
SEGMENT_ARRAYS = ("element", "row", "first_word", "last_word", "length",
                  "start", "base_cycle", "restore", "carry_in", "in_chain")
SEGMENT_LISTS = ("chains", "element_slices", "neighbour_ok", "deltas")


class _Materialised(AddressOrder):
    """``order``'s permutation with nothing but ``coordinate_at``: its
    coordinate arrays and row runs come from the base class."""

    def __init__(self, order: AddressOrder) -> None:
        super().__init__(order.geometry)
        self._order = order

    def coordinate_at(self, position):
        return self._order.coordinate_at(position)


def _walk_segments(rows, words, delta):
    """One element's segments found directly on its coordinate walk."""
    same_row = rows[1:] == rows[:-1]
    starts = np.flatnonzero(np.concatenate(([True], ~same_row)))
    ends = np.append(starts[1:], rows.size)
    neighbour_ok = bool(np.all(words[1:][same_row]
                               == words[:-1][same_row] + delta))
    return ((rows[starts], words[starts], words[ends - 1], ends - starts,
             starts), neighbour_ok)


@given(geometry=banked_geometries(), algorithm=algorithms)
@settings(max_examples=40, deadline=None)
def test_segment_walk_matches_materialised_derivation(geometry, algorithm):
    for order_cls in ORDERS:
        order = order_cls(geometry)
        for direction in DIRECTIONS:
            trace = compile_trace(algorithm, order, direction)
            compiled = trace.segment_walk()
            expected = SegmentWalk.compile(
                compile_trace(algorithm, _Materialised(order), direction))
            label = (order.name, direction)
            for name in SEGMENT_ARRAYS:
                observed = getattr(compiled, name)
                reference = getattr(expected, name)
                assert observed.dtype == reference.dtype, (label, name)
                assert np.array_equal(observed, reference), (label, name)
            for name in SEGMENT_LISTS:
                assert getattr(compiled, name) == getattr(expected, name), \
                    (label, name)

            for element, (lo, hi), (walk_direction, rows, words) in zip(
                    trace.elements, compiled.element_slices,
                    trace.element_walks()):
                segments, neighbour_ok = _walk_segments(
                    rows, words, compiled.deltas[element.index])
                fields = (compiled.row, compiled.first_word,
                          compiled.last_word, compiled.length, compiled.start)
                for observed, reference in zip(fields, segments):
                    assert np.array_equal(observed[lo:hi], reference), \
                        (label, walk_direction, element.index)
                assert compiled.neighbour_ok[element.index] == neighbour_ok


@given(geometry=banked_geometries(),
       algorithm=st.sampled_from(all_algorithms()))
@settings(max_examples=20, deadline=None)
def test_vectorized_bist_prr_matches_reference(geometry, algorithm):
    reference = BistController(geometry, backend="reference")
    vectorized = BistController(geometry, backend="vectorized")
    for low_power in (False, True):
        expected = reference.run(algorithm, low_power=low_power)
        label = f"{algorithm.name} on {geometry.describe()}/{low_power}"
        try:
            observed = vectorized.run(algorithm, low_power=low_power)
        except UnsupportedConfiguration:
            # The one documented refusal: on a single word line an
            # element boundary can select a word whose bit lines float,
            # which only the reference replay models ("auto" falls back).
            assert low_power and geometry.rows == 1, label
            continue
        assert observed.backend == "vectorized", label
        assert (observed.cycles, observed.passed, observed.failures,
                observed.failure_log, observed.planner) == \
            (expected.cycles, expected.passed, expected.failures,
             expected.failure_log, expected.planner), label
        assert_energy_ledgers_match(expected, observed, label)


# ----------------------------------------------------------------------
# The word-line-sequential path reads runs, never coordinates
# ----------------------------------------------------------------------
def _forbid_expansion(monkeypatch):
    def expand(self):
        raise AssertionError("the row-major coordinates were expanded")

    monkeypatch.setattr(RowMajorOrder, "_build_coordinate_arrays", expand)


@pytest.mark.parametrize("banks", (1, 4))
def test_bist_batch_never_expands_row_major_coordinates(monkeypatch, banks):
    geometry = ArrayGeometry(rows=16, columns=32, banks=banks)
    requests = [(algorithm, low_power)
                for algorithm in PAPER_TABLE1_ALGORITHMS
                for low_power in (False, True)]
    _forbid_expansion(monkeypatch)
    observed = BistController(geometry, backend="vectorized").measure_batch(
        requests, collect_errors=False)
    monkeypatch.undo()
    expected = BistController(geometry, backend="vectorized").measure_batch(
        requests, collect_errors=False)
    assert observed == expected


def test_engine_batch_never_expands_row_major_coordinates(monkeypatch):
    geometry = ArrayGeometry(rows=16, columns=32)
    requests = [(algorithm, mode, None)
                for algorithm in PAPER_TABLE1_ALGORITHMS
                for mode in OperatingMode]
    _forbid_expansion(monkeypatch)
    observed = VectorizedEngine(geometry, detailed=False) \
        .run_aggregates_batch(requests)
    monkeypatch.undo()
    expected = VectorizedEngine(geometry, detailed=False) \
        .run_aggregates_batch(requests)
    assert observed == expected
