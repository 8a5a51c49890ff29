"""March test substrate: notation, algorithms, address orders, execution.

The paper's contribution relies on a property of March tests (the first
degree of freedom: the address sequence is free), so the repository ships a
complete March toolkit: operation/element/algorithm types, a notation
parser, the classical algorithm library including the five tests of the
paper's Table 1, the address orders that exercise DOF 1, and the execution
walker that expands a test into the primitive access stream consumed by the
fault simulator and the power session.
"""

from .._lazy import lazy_exports

#: The submodule that defines each exported name, imported on first access.
_EXPORTS = {
    "MarchOperation": ".operations",
    "MarchSyntaxError": ".operations",
    "OperationKind": ".operations",
    "R0": ".operations",
    "R1": ".operations",
    "W0": ".operations",
    "W1": ".operations",
    "AddressingDirection": ".element",
    "MarchElement": ".element",
    "MarchAlgorithm": ".algorithm",
    "MarchValidationError": ".algorithm",
    "ParseResult": ".parser",
    "parse_march": ".parser",
    "parse_march_detailed": ".parser",
    "round_trip": ".parser",
    "ALGORITHM_LIBRARY": ".library",
    "PAPER_TABLE1_ALGORITHMS": ".library",
    "all_algorithms": ".library",
    "get_algorithm": ".library",
    "MARCH_A": ".library",
    "MARCH_B": ".library",
    "MARCH_C": ".library",
    "MARCH_CM": ".library",
    "MARCH_G": ".library",
    "MARCH_LR": ".library",
    "MARCH_SR": ".library",
    "MARCH_SS": ".library",
    "MARCH_U": ".library",
    "MARCH_X": ".library",
    "MARCH_Y": ".library",
    "MATS": ".library",
    "MATS_PLUS": ".library",
    "MATS_PLUS_PLUS": ".library",
    "PMOVI": ".library",
    "AddressOrder": ".ordering",
    "RowMajorOrder": ".ordering",
    "ColumnMajorOrder": ".ordering",
    "PseudoRandomOrder": ".ordering",
    "AddressComplementOrder": ".ordering",
    "RowMajorSnakeOrder": ".ordering",
    "ORDER_REGISTRY": ".ordering",
    "OrderingError": ".ordering",
    "make_order": ".ordering",
    "verify_is_permutation": ".ordering",
    "AccessStep": ".execution",
    "walk": ".execution",
    "count_steps": ".execution",
    "element_coordinates": ".execution",
    "resolve_direction": ".execution",
    "row_transition_count": ".execution",
    "OperationTrace": ".execution",
    "TraceElement": ".execution",
    "TraceCache": ".execution",
    "compile_trace": ".execution",
    "AddressSequenceChoice": ".dof",
    "DegreeOfFreedom": ".dof",
    "all_degrees": ".dof",
    "complement_data": ".dof",
    "coverage_equivalence_orders": ".dof",
    "paper_choice": ".dof",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
