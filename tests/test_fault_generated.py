"""Generated fault-campaign differential: the reference simulator against
the vectorized campaign engine.

The fixed batteries of ``tests/test_fault_campaign.py`` and
``tests/test_banked_differential.py`` place the library fault lists at
chosen cells under the library algorithms.  Here hypothesis draws the
algorithm (any valid March test from ``tests/strategies.py``), a
bit-oriented geometry of at most 16 x 24 cells (banked or not) and a
battery with every fault class at drawn cells: single-cell faults
(retention included), coupling faults with any aggressor, dynamic faults
and NPSFs over any neighbourhood.  The battery runs under one to three
orders on one geometry — the first of each registry order class in turn
(aliases collapse), the rest drawn from any class, every pseudo-random
one with a drawn seed — in both ``⇕`` directions.  The vectorized engine
runs all of them in one multi-order call, the reference one order at a
time, and the per-fault verdicts must be bit-identical per order.

The engine locates victims through ``AddressOrder.rank_of``, which the
row-major and column-major orders answer in closed form; a second
generated test checks every registry order's ``rank_of`` against the
inverse of its coordinate arrays.
"""

from __future__ import annotations

from datetime import timedelta

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.faults import (
    DataRetentionFault,
    FaultInjection,
    coupling_fault_models,
    dynamic_fault_models,
    neighbourhood_fault_models,
    single_cell_fault_models,
)
from repro.march.element import AddressingDirection
from repro.march.ordering import ORDER_REGISTRY, PseudoRandomOrder

from differential import assert_fault_verdicts_identical
from strategies import banked_geometries, march_tests

#: Every order class the registry ships (aliases collapse).
ORDERS = sorted(set(ORDER_REGISTRY.values()), key=lambda cls: cls.name)
DIRECTIONS = (AddressingDirection.UP, AddressingDirection.DOWN)


def _some(models):
    """One to three models of a battery."""
    return st.lists(st.sampled_from(models), min_size=1, max_size=3,
                    unique_by=lambda model: model.describe())


@st.composite
def batteries(draw, geometry):
    """Injections of every fault class at one or two drawn victims."""
    cells = [(row, word) for row in range(geometry.rows)
             for word in range(geometry.words_per_row)]
    victims = draw(st.lists(st.sampled_from(cells), min_size=1, max_size=2,
                            unique=True))
    injections = []
    for victim in victims:
        retention = DataRetentionFault(
            leak_to=draw(st.integers(0, 1)),
            retention_cycles=draw(st.integers(1, 4 * len(cells))))
        single = draw(_some(single_cell_fault_models() + dynamic_fault_models()
                            + (retention,)))
        injections += [FaultInjection(model, victim=victim)
                       for model in single]
        others = [cell for cell in cells if cell != victim]
        if not others:  # a one-cell array has no aggressor or neighbour
            continue
        aggressor = draw(st.sampled_from(others))
        injections += [FaultInjection(model, victim=victim,
                                      aggressor=aggressor)
                       for model in draw(_some(coupling_fault_models()))]
        neighbourhood = tuple(draw(st.lists(st.sampled_from(others),
                                            min_size=1, max_size=4,
                                            unique=True)))
        injections += [FaultInjection(model, victim=victim,
                                      neighbourhood=neighbourhood)
                       for model in draw(_some(neighbourhood_fault_models(
                           len(neighbourhood))))]
    return injections


def _order(draw, order_cls, geometry):
    """An order of ``order_cls`` on ``geometry`` (seed drawn if it has one)."""
    if order_cls is PseudoRandomOrder:
        return PseudoRandomOrder(geometry,
                                 seed=draw(st.integers(0, 2 ** 32 - 1)))
    return order_cls(geometry)


@st.composite
def campaigns(draw, order_cls):
    """A geometry, one to three orders on it (the first of ``order_cls``)
    and a battery."""
    geometry = draw(banked_geometries(16, 24, word_widths=(1,)))
    orders = [_order(draw, order_cls, geometry)]
    for extra in draw(st.lists(st.sampled_from(ORDERS), max_size=2)):
        orders.append(_order(draw, extra, geometry))
    return geometry, orders, draw(batteries(geometry))


@pytest.mark.parametrize("direction", DIRECTIONS,
                         ids=lambda direction: direction.value)
@pytest.mark.parametrize("order_cls", ORDERS, ids=lambda cls: cls.name)
@given(algorithm=march_tests, data=st.data())
@settings(max_examples=8, deadline=timedelta(seconds=5))
def test_generated_fault_verdicts_match_reference(order_cls, direction,
                                                  algorithm, data):
    geometry, orders, battery = data.draw(campaigns(order_cls))
    assert_fault_verdicts_identical(geometry, algorithm, orders, battery,
                                    direction=direction)


@pytest.mark.parametrize("order_cls", ORDERS, ids=lambda cls: cls.name)
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_rank_of_inverts_the_coordinate_arrays(order_cls, data):
    geometry = data.draw(banked_geometries())
    order = _order(data.draw, order_cls, geometry)
    addresses = np.array(data.draw(st.lists(
        st.integers(0, geometry.word_count - 1), min_size=1, max_size=12)),
        dtype=np.int64)
    rows, words = order.coordinate_arrays()
    linear = rows * geometry.words_per_row + words
    expected = [int(np.flatnonzero(linear == address)[0])
                for address in addresses]
    assert order.rank_of(addresses).tolist() == expected
    # Any shape: the engine asks for (neighbours, lanes) matrices too.
    matrix = np.stack([addresses, addresses[::-1]])
    assert order.rank_of(matrix).tolist() == [expected, expected[::-1]]
