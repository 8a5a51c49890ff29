"""Hypothesis strategies shared by the property-based suites."""

from hypothesis import strategies as st

from repro.march import (
    AddressingDirection,
    MarchAlgorithm,
    MarchElement,
    MarchOperation,
    OperationKind,
)
from repro.sram.geometry import ArrayGeometry

operations = st.builds(
    MarchOperation,
    kind=st.sampled_from([OperationKind.READ, OperationKind.WRITE]),
    value=st.integers(min_value=0, max_value=1),
)

elements = st.builds(
    MarchElement,
    direction=st.sampled_from(list(AddressingDirection)),
    operations=st.lists(operations, min_size=1, max_size=6).map(tuple),
)

algorithms = st.builds(
    MarchAlgorithm,
    name=st.just("generated"),
    elements=st.lists(elements, min_size=1, max_size=5).map(tuple),
)


@st.composite
def banked_geometries(draw, max_rows: int = 16, max_columns: int = 24):
    """Small geometries over every word width and bank map the engines
    support: ``bits_per_word`` and ``banks`` in {1, 2, 4}, both
    interleaves, at most ``max_rows`` x ``max_columns`` cells."""
    banks = draw(st.sampled_from((1, 2, 4)))
    bits = draw(st.sampled_from((1, 2, 4)))
    return ArrayGeometry(
        rows=banks * draw(st.integers(1, max_rows // banks)),
        columns=bits * draw(st.integers(1, max_columns // bits)),
        bits_per_word=bits, banks=banks,
        bank_interleave=draw(st.sampled_from(("blocked", "interleaved"))))


def _consistent(algorithm: MarchAlgorithm) -> MarchAlgorithm:
    """``algorithm`` made a valid March test: every read expects the
    fault-free content, and a read before any write becomes a write."""
    background = None
    elements = []
    for element in algorithm.elements:
        current = background
        operations = []
        for operation in element.operations:
            if operation.is_read and current is None:
                operation = MarchOperation(OperationKind.WRITE, operation.value)
            elif operation.is_read:
                operation = MarchOperation(OperationKind.READ, current)
            if operation.is_write:
                current = operation.value
            operations.append(operation)
        element = MarchElement(direction=element.direction,
                               operations=tuple(operations))
        if element.final_written_value() is not None:
            background = element.final_written_value()
        elements.append(element)
    return MarchAlgorithm(name=algorithm.name, elements=tuple(elements))


#: Generated algorithms that pass ``MarchAlgorithm.validate``.
march_tests = algorithms.map(_consistent)
