"""Library of standard March algorithms.

Includes the five algorithms evaluated in the paper's Table 1 (March C-,
March SS, MATS+, March SR and March G) plus the other classical tests a
memory-test toolkit is expected to ship (MATS, MATS++, March X, March Y,
March A, March B, March U, March LR, PMOVI), all expressed with the
notation parser so their definitions read exactly like the literature.

Table 1 statistics check (elements / operations / reads / writes per
address):

=============  ====  =====  =====  ======
algorithm      #elm  #oper  #read  #write
=============  ====  =====  =====  ======
March C-       6     10     5      5
March SS       6     22     13     9
MATS+          3     5      2      3
March SR       6     14     8      6
March G        7     23     10     13
=============  ====  =====  =====  ======

March G note: March G is March B followed by two delay/read blocks for data
retention; the two ``Del`` pauses appear in the notation but contribute no
operations, so the Table 1 statistics count its 7 March elements and 23
operations exactly as the paper does.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .algorithm import MarchAlgorithm
from .parser import parse_march


def _define(name: str, notation: str, description: str) -> MarchAlgorithm:
    algorithm = parse_march(notation, name=name, description=description)
    algorithm.validate()
    return algorithm


# ----------------------------------------------------------------------
# The five algorithms of the paper's Table 1.
# ----------------------------------------------------------------------
MARCH_CM = _define(
    "March C-",
    "{⇕(w0); ⇑(r0,w1); ⇑(r1,w0); ⇓(r0,w1); ⇓(r1,w0); ⇕(r0)}",
    "Marinescu's March C-: detects SAFs, TFs, AFs and unlinked CFs; "
    "the workhorse 10N March test.",
)

MARCH_SS = _define(
    "March SS",
    "{⇕(w0); ⇑(r0,r0,w0,r0,w1); ⇑(r1,r1,w1,r1,w0); "
    "⇓(r0,r0,w0,r0,w1); ⇓(r1,r1,w1,r1,w0); ⇕(r0)}",
    "Hamdioui's March SS (22N): covers all simple static faults including "
    "read destructive and deceptive read destructive faults.",
)

MATS_PLUS = _define(
    "MATS+",
    "{⇕(w0); ⇑(r0,w1); ⇓(r1,w0)}",
    "MATS+ (5N): address decoder faults and stuck-at faults.",
)

MARCH_SR = _define(
    "March SR",
    "{⇓(w0); ⇑(r0,w1,r1,w0); ⇑(r0,r0); ⇑(w1); ⇓(r1,w0,r0,w1); ⇓(r1,r1)}",
    "March SR (14N): targets simple realistic faults including read "
    "destructive and incorrect read faults.",
)

MARCH_G = _define(
    "March G",
    "{⇕(w0); ⇑(r0,w1,r1,w0,r0,w1); ⇑(r1,w0,w1); ⇓(r1,w0,w1,w0); ⇓(r0,w1,w0); "
    "Del; ⇕(r0,w1,r1); Del; ⇕(r1,w0,r0)}",
    "March G (23N + 2 retention pauses): March B followed by two "
    "delay/read blocks; 7 elements, 10 reads, 13 writes as in the paper's Table 1.",
)

# ----------------------------------------------------------------------
# Other classical algorithms (completeness of the toolkit).
# ----------------------------------------------------------------------
MATS = _define(
    "MATS",
    "{⇕(w0); ⇕(r0,w1); ⇕(r1)}",
    "MATS (4N): the minimal stuck-at test.",
)

MATS_PLUS_PLUS = _define(
    "MATS++",
    "{⇕(w0); ⇑(r0,w1); ⇓(r1,w0,r0)}",
    "MATS++ (6N): MATS+ plus a trailing read for SOF coverage.",
)

MARCH_X = _define(
    "March X",
    "{⇕(w0); ⇑(r0,w1); ⇓(r1,w0); ⇕(r0)}",
    "March X (6N): unlinked inversion coupling faults.",
)

MARCH_Y = _define(
    "March Y",
    "{⇕(w0); ⇑(r0,w1,r1); ⇓(r1,w0,r0); ⇕(r0)}",
    "March Y (8N): March X plus transition fault read-back.",
)

MARCH_A = _define(
    "March A",
    "{⇕(w0); ⇑(r0,w1,w0,w1); ⇑(r1,w0,w1); ⇓(r1,w0,w1,w0); ⇓(r0,w1,w0)}",
    "March A (15N): linked idempotent coupling faults.",
)

MARCH_B = _define(
    "March B",
    "{⇕(w0); ⇑(r0,w1,r1,w0,r0,w1); ⇑(r1,w0,w1); ⇓(r1,w0,w1,w0); ⇓(r0,w1,w0)}",
    "March B (17N): March A plus linked TF/CF coverage.",
)

MARCH_U = _define(
    "March U",
    "{⇕(w0); ⇑(r0,w1,r1,w0); ⇑(r0,w1); ⇓(r1,w0,r0,w1); ⇓(r1,w0)}",
    "March U (13N): unlinked faults including SOFs and some linked faults.",
)

MARCH_LR = _define(
    "March LR",
    "{⇕(w0); ⇓(r0,w1); ⇑(r1,w0,r0,w1); ⇑(r1,w0); ⇑(r0,w1,r1,w0); ⇑(r0)}",
    "March LR (14N): realistic linked coupling faults.",
)

PMOVI = _define(
    "PMOVI",
    "{⇓(w0); ⇑(r0,w1,r1); ⇑(r1,w0,r0); ⇓(r0,w1,r1); ⇓(r1,w0,r0)}",
    "PMOVI (13N): a March-like test with per-address read-after-write verification.",
)

MARCH_C = _define(
    "March C",
    "{⇕(w0); ⇑(r0,w1); ⇑(r1,w0); ⇕(r0); ⇓(r0,w1); ⇓(r1,w0); ⇕(r0)}",
    "Original March C (11N); March C- removes the redundant middle element.",
)


#: The algorithms evaluated in the paper's Table 1, in the paper's row order.
PAPER_TABLE1_ALGORITHMS: Tuple[MarchAlgorithm, ...] = (
    MARCH_CM,
    MARCH_SS,
    MATS_PLUS,
    MARCH_SR,
    MARCH_G,
)

#: Every algorithm shipped by the library, keyed by canonical name.
ALGORITHM_LIBRARY: Dict[str, MarchAlgorithm] = {
    algorithm.name: algorithm
    for algorithm in (
        MARCH_CM, MARCH_SS, MATS_PLUS, MARCH_SR, MARCH_G,
        MATS, MATS_PLUS_PLUS, MARCH_X, MARCH_Y, MARCH_A, MARCH_B,
        MARCH_U, MARCH_LR, PMOVI, MARCH_C,
    )
}


def _canonical(text: str) -> str:
    # Keep '+' and '-' so that e.g. "March C-" and "March C", or "MATS"
    # and "MATS+", stay distinct.
    return "".join(ch for ch in text.lower() if ch.isalnum() or ch in "+-")


#: Canonical name -> algorithm, the map :func:`get_algorithm` looks up.
_BY_CANONICAL_NAME: Dict[str, MarchAlgorithm] = {
    _canonical(name): algorithm for name, algorithm in ALGORITHM_LIBRARY.items()
}


def get_algorithm(name: str) -> MarchAlgorithm:
    """Look up an algorithm by name, ignoring case and every character but
    letters, digits, ``+`` and ``-`` (so ``"marchc-"`` is March C-)."""
    algorithm = _BY_CANONICAL_NAME.get(_canonical(name))
    if algorithm is None:
        raise KeyError(
            f"unknown March algorithm {name!r}; available: {sorted(ALGORITHM_LIBRARY)}"
        )
    return algorithm


def all_algorithms() -> List[MarchAlgorithm]:
    """All library algorithms, paper's Table 1 entries first."""
    rest = [a for a in ALGORITHM_LIBRARY.values() if a not in PAPER_TABLE1_ALGORITHMS]
    return list(PAPER_TABLE1_ALGORITHMS) + rest
