"""Generated case descriptions, at construction and through the service.

For every case kind, hypothesis picks one of its fields and gives it a
value that field must refuse: a value of the wrong type, a name no
registry knows, or a number no array has (a non-positive dimension, a
word width or bank count that does not divide the array, fewer columns
than a power or PRR record's Section 5 prediction holds for).  Each must be
a :class:`SweepError` from ``case_from_dict``, and a live service must
answer every such body with a counted 400 each time it is sent, so a
refusal is never remembered.  Valid generated cases round-trip through
their fingerprints, and a second submission of one is a hit.
"""

from __future__ import annotations

import string
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.prr import AnalyticalPowerModel
from repro.march import get_algorithm
from repro.march.ordering import ORDER_REGISTRY
from repro.serve import ServeClient, ServeError, running_service
from repro.sweep import (
    SweepError,
    case_fingerprint,
    case_from_dict,
    fingerprint_digest,
)
from repro.sweep.runner import CASE_TYPES

#: One small valid description per kind; a generated case changes one field.
BASES = {
    "power": {"kind": "power", "rows": 4, "columns": 4, "algorithm": "MATS+",
              "backend": "vectorized"},
    "prr": {"kind": "prr", "rows": 4, "columns": 4, "algorithm": "MATS+",
            "backend": "vectorized"},
    "coverage": {"kind": "coverage", "rows": 4, "columns": 4,
                 "algorithm": "MATS+", "orders": ["row-major"],
                 "backend": "vectorized", "sample": 0},
}
CLASSES = {cls.kind: cls for cls in CASE_TYPES}


def _is_algorithm(name: str) -> bool:
    try:
        get_algorithm(name)
    except KeyError:
        return False
    return True


_names = st.text(alphabet=string.ascii_letters + string.digits + "+- ",
                 max_size=10)
#: Values of every JSON type; each field's strategy filters its own type out.
_any_value = st.one_of(
    st.none(), st.booleans(), st.integers(-10, 10),
    st.floats(allow_nan=False, allow_infinity=False), _names,
    st.lists(st.one_of(st.integers(-3, 3), _names), max_size=2),
    st.dictionaries(_names, st.integers(0, 3), max_size=1))

#: What each field must refuse beyond a value of another type.
_OUT_OF_RANGE = {
    "rows": st.integers(max_value=0),
    "columns": st.integers(max_value=0),
    # The bases have 4 rows and 4 columns.
    "bits_per_word": st.integers(max_value=0) | st.just(3)
    | st.integers(5, 2 ** 40),
    "banks": st.integers(max_value=0) | st.just(3) | st.integers(5, 2 ** 40),
    "sample": st.integers(max_value=-1),
    "algorithm": _names.filter(lambda name: not _is_algorithm(name)),
    "order": _names.filter(lambda name: name not in ORDER_REGISTRY),
    "orders": st.just([]) | st.lists(
        _names.filter(lambda name: name not in ORDER_REGISTRY),
        min_size=1, max_size=2),
    "any_direction": _names.filter(lambda name: name not in ("up", "down")),
    "backend": _names.filter(
        lambda name: name not in ("reference", "vectorized", "auto")),
    "bank_interleave": _names.filter(
        lambda name: name not in ("blocked", "interleaved")),
}

#: Too narrow for the Section 5 prediction a power or PRR record carries.
_TOO_NARROW = st.integers(1, AnalyticalPowerModel.MIN_COLUMNS - 1)

#: Which values are of each annotated field type.
_OF_TYPE = {
    "int": lambda value: type(value) is int,
    "bool": lambda value: isinstance(value, bool),
    "str": lambda value: isinstance(value, str),
    "Tuple[str, ...]": lambda value: isinstance(value, list)
    and all(isinstance(item, str) for item in value),
    "Optional[str]": lambda value: value is None,
}


@st.composite
def malformed_cases(draw):
    """A small valid case of some kind with one field given a value it
    must refuse."""
    kind = draw(st.sampled_from(sorted(BASES)))
    spec = draw(st.sampled_from(fields(CLASSES[kind])))
    refused = [_any_value.filter(
        lambda value: not _OF_TYPE[spec.type](value))]
    if spec.name in _OUT_OF_RANGE:
        refused.append(_OUT_OF_RANGE[spec.name])
    if spec.name == "columns" and kind != "coverage":
        refused.append(_TOO_NARROW)
    return {**BASES[kind], spec.name: draw(st.one_of(refused))}


@st.composite
def valid_cases(draw):
    """A small case of some kind that builds and runs."""
    kind = draw(st.sampled_from(sorted(BASES)))
    algorithm = draw(st.sampled_from(["MATS+", "March C-", "March X"]))
    rows = draw(st.sampled_from([2, 4, 8]))
    columns = draw(st.sampled_from([2, 4, 8] if kind == "coverage"
                                   else [4, 6, 8]))
    case = {"kind": kind, "rows": rows, "columns": columns,
            "algorithm": algorithm, "backend": "vectorized"}
    if kind == "coverage":
        case["orders"] = draw(st.lists(
            st.sampled_from(["row-major", "column-major", "pseudo-random"]),
            min_size=1, max_size=3, unique=True))
        case["sample"] = draw(st.integers(0, 2))
        case["seed"] = draw(st.integers(0, 2 ** 31))
        case["include_coupling"] = draw(st.booleans())
        return case
    case["bits_per_word"] = draw(st.sampled_from(
        [width for width in (1, 2) if columns % width == 0]))
    case["banks"] = draw(st.sampled_from(
        [banks for banks in (1, 2) if rows % banks == 0]))
    case["bank_interleave"] = draw(st.sampled_from(["blocked",
                                                    "interleaved"]))
    if kind == "prr":
        case["seed"] = draw(st.integers(0, 2 ** 31))
    return case


@settings(max_examples=300, deadline=None)
@given(malformed_cases())
def test_a_generated_malformed_case_is_refused_at_construction(case):
    with pytest.raises(SweepError):
        case_from_dict(case)


def test_generated_malformed_bodies_are_counted_400s_every_time(tmp_path):
    with running_service(tmp_path / "cache") as (service, host, port), \
            ServeClient(host, port) as client:

        @settings(max_examples=60, deadline=None)
        @given(malformed_cases())
        def refused_twice(case):
            before = service.stats_snapshot()
            for _ in range(2):
                with pytest.raises(ServeError, match="returned 400"):
                    client.submit(case)
            after = service.stats_snapshot()
            assert after["errors"] == before["errors"] + 2
            assert after["requests"] == before["requests"] + 2
            assert after["memo_entries"] == before["memo_entries"] == 0
            assert after["engine_passes"] == 0

        refused_twice()


def test_generated_valid_cases_round_trip_and_hit_when_repeated(tmp_path):
    with running_service(tmp_path / "cache") as (service, host, port), \
            ServeClient(host, port) as client:

        @settings(max_examples=25, deadline=None)
        @given(valid_cases())
        def round_trips(case):
            built = case_from_dict(case)
            fingerprint = case_fingerprint(built)
            assert case_from_dict(fingerprint) == built
            assert case_fingerprint(case_from_dict(fingerprint)) == fingerprint
            first = client.submit(case)
            memo_hits = service.stats_snapshot()["memo_hits"]
            again = client.submit(case)
            assert service.stats_snapshot()["memo_hits"] == memo_hits + 1
            assert first["served"]["outcome"] in ("miss", "hit")
            assert again["served"]["outcome"] == "hit"
            assert first["served"]["digest"] == again["served"]["digest"] \
                == fingerprint_digest(fingerprint)
            assert again["record"] == first["record"]

        round_trips()
        assert service.stats_snapshot()["errors"] == 0
