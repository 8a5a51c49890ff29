"""Row runs: the segment structure every compiled run is built from.

``AddressOrder.row_runs()`` describes an order's ascending traversal as
its maximal same-row runs, compressed to distinct shapes with their
multiplicity.  The row-major and column-major orders build them in
closed form; every other order groups runs detected on its coordinates.
Four things are pinned here:

* the compiled :class:`~repro.march.execution.SegmentWalk` of every
  registry order equals the one compiled from runs grouped over
  coordinates materialised one ``coordinate_at`` call at a time, shapes
  and every sequence count alike, and both equal a per-visit derivation
  from each element's own walk (so the descending reversal is checked
  too);
* ``row_transition_count`` equals the ``last_access_on_row`` flags of
  :func:`~repro.march.execution.walk` for every order;
* the vectorized BIST PRR matches the reference backend on generated
  banked geometries;
* the sweep power path and the BIST PRR path never expand row-major or
  column-major coordinates, and their walks hold no per-segment array.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import PAPER_TABLE1_ALGORITHMS
from repro.bist import BistController
from repro.engine import (
    UnsupportedConfiguration,
    VectorizedEngine,
    VectorizedPowerCampaign,
)
from repro.march import MARCH_CM, all_algorithms, row_transition_count, walk
from repro.march.element import AddressingDirection
from repro.march.execution import ChainSegment, compile_trace
from repro.march.ordering import (
    ORDER_REGISTRY,
    AddressOrder,
    ColumnMajorOrder,
    RowMajorOrder,
)
from repro.sram import ArrayGeometry, OperatingMode
from repro.sweep import SweepCase, SweepRunner

from differential import assert_energy_ledgers_match, drop_elapsed
from strategies import algorithms, banked_geometries

#: Every order class the registry ships (aliases collapse).
ORDERS = sorted(set(ORDER_REGISTRY.values()), key=lambda cls: cls.name)
DIRECTIONS = (AddressingDirection.UP, AddressingDirection.DOWN)

#: Per-shape and per-row-pair arrays of a SegmentWalk.
WALK_ARRAYS = ("element", "length", "first_word", "last_word", "carry_in",
               "in_chain", "multiplicity", "pair_from", "pair_to",
               "pair_count")
#: Sequence counts and per-run lists of a SegmentWalk.
WALK_FACTS = ("segment_count", "element_segments", "element_rows",
              "restores", "word_changes", "chains", "neighbour_ok", "deltas")


class _Materialised(AddressOrder):
    """``order``'s permutation with nothing but ``coordinate_at``: its
    coordinate arrays and row runs come from the base class."""

    def __init__(self, order: AddressOrder) -> None:
        super().__init__(order.geometry)
        self._order = order

    def coordinate_at(self, position):
        return self._order.coordinate_at(position)


def _per_visit_walk(trace):
    """The walk's shapes and sequence counts, derived segment by segment
    from each element's own coordinate walk."""
    segments = []          # (element, row, first, last, length, start)
    neighbour_ok = []
    for element, (_, rows, words) in zip(trace.elements,
                                         trace.element_walks()):
        rows, words = rows.tolist(), words.tolist()
        start = 0
        for position in range(1, len(rows) + 1):
            if position == len(rows) or rows[position] != rows[start]:
                segments.append((element.index, rows[start], words[start],
                                 words[position - 1], position - start,
                                 start))
                start = position
        delta = 1 if element.direction is AddressingDirection.UP else -1
        neighbour_ok.append(all(
            words[i + 1] == words[i] + delta
            for i in range(len(rows) - 1) if rows[i + 1] == rows[i]))

    carry = [False] + [segments[i][1] == segments[i - 1][1]
                       for i in range(1, len(segments))]
    restore = [not flag for flag in carry[1:]] + [True]
    shapes = Counter()
    chains, current = [], []
    for index, (element, row, first, last, length, start) in \
            enumerate(segments):
        chained = carry[index] or not restore[index]
        shapes[(element, length, first, last, carry[index], chained)] += 1
        if chained:
            ops = trace.elements[element].operation_count
            current.append(ChainSegment(
                element=element, row=row, first_word=first, length=length,
                start=start,
                base_cycle=trace.elements[element].base_step + start * ops,
                restore=restore[index]))
            if restore[index]:
                chains.append(tuple(current))
                current = []
    by_element = [[segment for segment in segments if segment[0] == index]
                  for index in range(len(trace.elements))]
    return {
        "shapes": shapes,
        "pairs": Counter((segments[i - 1][1], segments[i][1])
                         for i in range(1, len(segments)) if not carry[i]),
        "segment_count": len(segments),
        "element_segments": [len(own) for own in by_element],
        "element_rows": [(own[0][1], own[-1][1]) for own in by_element],
        "restores": sum(restore),
        "word_changes": sum(1 for i in range(1, len(segments))
                            if segments[i][2] != segments[i - 1][3]),
        "chains": chains,
        "neighbour_ok": neighbour_ok,
    }


@given(geometry=banked_geometries(), algorithm=algorithms)
@settings(max_examples=40, deadline=None)
def test_segment_walk_matches_materialised_derivation(geometry, algorithm):
    for order_cls in ORDERS:
        order = order_cls(geometry)
        for direction in DIRECTIONS:
            trace = compile_trace(algorithm, order, direction)
            compiled = trace.segment_walk()
            expected = compile_trace(
                algorithm, _Materialised(order), direction).segment_walk()
            label = (order.name, direction)
            for name in WALK_ARRAYS:
                observed = getattr(compiled, name)
                reference = getattr(expected, name)
                assert observed.dtype == reference.dtype, (label, name)
                assert np.array_equal(observed, reference), (label, name)
            for name in WALK_FACTS:
                assert getattr(compiled, name) == getattr(expected, name), \
                    (label, name)

            per_visit = _per_visit_walk(trace)
            shapes = Counter()
            for fields in zip(*(getattr(compiled, name).tolist()
                                for name in WALK_ARRAYS[:6]),
                              compiled.multiplicity.tolist()):
                shapes[tuple(fields[:6])] += fields[6]
            assert shapes == per_visit.pop("shapes"), label
            pairs = Counter(dict(zip(
                zip(compiled.pair_from.tolist(), compiled.pair_to.tolist()),
                compiled.pair_count.tolist())))
            assert pairs == per_visit.pop("pairs"), label
            for name, value in per_visit.items():
                assert getattr(compiled, name) == value, (label, name)


@given(geometry=banked_geometries(8, 8), algorithm=algorithms)
@settings(max_examples=25, deadline=None)
def test_row_transition_count_matches_walk_flags(geometry, algorithm):
    for order_cls in ORDERS:
        order = order_cls(geometry)
        for direction in DIRECTIONS:
            flagged = sum(1 for step in walk(algorithm, order, direction)
                          if step.last_access_on_row)
            assert row_transition_count(algorithm, order, direction) \
                == flagged, (order.name, direction)


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
# The power paths read runs, never coordinates
# ----------------------------------------------------------------------
def _forbid_expansion(monkeypatch):
    def expand(self):
        raise AssertionError(f"the {self.name} coordinates were expanded")

    monkeypatch.setattr(AddressOrder, "coordinate_arrays", expand)


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


@pytest.mark.parametrize("order", ("row-major", "column-major"))
def test_sweep_power_path_never_expands_coordinates(monkeypatch, order):
    cases = [SweepCase(rows=32, columns=64, algorithm=algorithm.name,
                       order=order, backend="vectorized", banks=banks)
             for algorithm in PAPER_TABLE1_ALGORITHMS for banks in (1, 2)]

    def records():
        return [drop_elapsed(record) for record
                in SweepRunner(cases, strategy="batched").run()]

    _forbid_expansion(monkeypatch)
    observed = records()
    monkeypatch.undo()
    assert observed == records()


@pytest.mark.parametrize("order_cls", (RowMajorOrder, ColumnMajorOrder))
def test_bist_prr_backend_never_expands_coordinates(monkeypatch, order_cls):
    geometry = ArrayGeometry(rows=16, columns=32, banks=2)
    requests = [(algorithm, low_power)
                for algorithm in PAPER_TABLE1_ALGORITHMS
                for low_power in (False, True)]

    def measure():
        return VectorizedPowerCampaign(geometry).measure_batch(
            requests, order_cls(geometry))

    _forbid_expansion(monkeypatch)
    observed = measure()
    monkeypatch.undo()
    assert observed == measure()
    assert all(result.passed for result in observed)


@pytest.mark.parametrize("order_cls, bound", (
    (RowMajorOrder, lambda elements, width: 3 * elements),
    (ColumnMajorOrder, lambda elements, width: elements * (width + 2)),
))
def test_paper_scale_walk_holds_no_per_segment_array(order_cls, bound):
    """At 4096 x 4096 a row-major walk has O(elements) shapes and a
    column-major walk O(elements x words_per_row); no array is as long
    as the logical segment count."""
    geometry = ArrayGeometry(rows=4096, columns=4096)
    walk = compile_trace(MARCH_CM, order_cls(geometry)).segment_walk()
    assert walk.shape_count <= bound(MARCH_CM.element_count,
                                     geometry.words_per_row)
    assert int(walk.multiplicity.sum()) == walk.segment_count
    for name in WALK_ARRAYS:
        assert getattr(walk, name).size < walk.segment_count, name
