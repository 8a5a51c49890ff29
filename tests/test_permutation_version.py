"""The pseudo-random permutation and the fingerprint tag that versions it.

:class:`~repro.march.ordering.PseudoRandomOrder` draws its permutation
from ``numpy.random.RandomState``, whose stream NumPy keeps fixed across
releases.  A literal prefix pins that stream, so any drift fails here.
Every case that names the pseudo-random order carries
:data:`~repro.march.ordering.PERMUTATION_TAG` in its fingerprint; the
tests below check where the tag appears, how ``case_from_dict`` treats
it, and that journal resume, merge, distrib grids and the serve cache
all refuse (or miss) results stored without it.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.distrib import Coordinator, DistribWorker
from repro.march.ordering import (
    PERMUTATION_TAG,
    OrderingError,
    PseudoRandomOrder,
)
from repro.serve import ResultCache, ServeClient, running_service
from repro.sram.geometry import ArrayGeometry
from repro.sweep import (
    CoverageCase,
    MergeError,
    PrrCase,
    RunJournal,
    SweepCase,
    SweepError,
    SweepRunner,
    case_fingerprint,
    case_from_dict,
    fingerprint_digest,
    load_journal,
    merge_journals,
)
from repro.sweep.runner import PERMUTATION_FIELD

from strategies import banked_geometries

#: The first 16 visits of ``PseudoRandomOrder(ArrayGeometry(16, 16),
#: seed=2006)`` — the default seed, so the order every sweep case uses.
FIRST_VISITS_16X16 = [
    (4, 9), (3, 14), (8, 1), (12, 2), (4, 15), (9, 9), (11, 10), (5, 5),
    (10, 8), (14, 12), (11, 12), (11, 6), (13, 6), (3, 11), (15, 14),
    (1, 13),
]

#: A small coverage case whose default orders include pseudo-random.
COVERAGE = CoverageCase(rows=8, columns=8, algorithm="MATS+",
                        backend="vectorized", include_coupling=False,
                        sample=2, seed=7)


def _untagged(fingerprint):
    """``fingerprint`` as a version before the tag wrote it."""
    return {key: value for key, value in fingerprint.items()
            if key != PERMUTATION_FIELD}


# ----------------------------------------------------------------------
# The permutation
# ----------------------------------------------------------------------
def test_default_seed_stream_is_pinned():
    order = PseudoRandomOrder(ArrayGeometry(16, 16), seed=2006)
    assert [order.coordinate_at(position) for position in range(16)] \
        == FIRST_VISITS_16X16
    assert order.sequence()[:16] == FIRST_VISITS_16X16
    assert order._permutation.dtype == np.int64


@given(geometry=banked_geometries(), seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=30, deadline=None)
def test_coordinate_at_matches_coordinate_arrays(geometry, seed):
    order = PseudoRandomOrder(geometry, seed=seed)
    rows, words = order.coordinate_arrays()
    assert [order.coordinate_at(position) for position in range(len(order))] \
        == list(zip(rows.tolist(), words.tolist()))


@pytest.mark.parametrize("seed", [-1, 2 ** 32, 2 ** 64, 1.5, "2006"])
def test_seed_outside_the_randomstate_range_is_rejected(seed):
    with pytest.raises(OrderingError, match=r"\[0, 2\*\*32\)"):
        PseudoRandomOrder(ArrayGeometry(4, 4), seed=seed)


def test_seed_range_bounds_are_accepted():
    for seed in (0, 2 ** 32 - 1, np.uint32(7)):
        assert PseudoRandomOrder(ArrayGeometry(4, 4), seed=seed).seed == seed


# ----------------------------------------------------------------------
# The fingerprint tag
# ----------------------------------------------------------------------
@pytest.mark.parametrize("case, tagged", [
    (SweepCase(rows=8, columns=8, algorithm="MATS+",
               order="pseudo-random"), True),
    (SweepCase(rows=8, columns=8, algorithm="MATS+"), False),
    (SweepCase(rows=8, columns=8, algorithm="MATS+", order="snake"), False),
    (COVERAGE, True),
    (CoverageCase(rows=8, columns=8, algorithm="MATS+",
                  orders=("pseudo-random",)), True),
    (CoverageCase(rows=8, columns=8, algorithm="MATS+",
                  orders=("row-major", "column-major")), False),
    (PrrCase(rows=8, columns=64, algorithm="MATS+"), False),
], ids=["power-pseudo-random", "power-row-major", "power-snake",
        "coverage-default", "coverage-pseudo-random-only",
        "coverage-deterministic", "prr"])
def test_tag_marks_exactly_the_pseudo_random_cases(case, tagged):
    fingerprint = case_fingerprint(case)
    assert (PERMUTATION_FIELD in fingerprint) is tagged
    if tagged:
        assert fingerprint[PERMUTATION_FIELD] == PERMUTATION_TAG
    assert case_from_dict(fingerprint) == case
    assert case_fingerprint(case_from_dict(fingerprint)) == fingerprint


def test_untagged_request_means_the_current_permutation():
    fingerprint = case_fingerprint(COVERAGE)
    assert case_from_dict(_untagged(fingerprint)) == COVERAGE


def test_wrong_or_misplaced_tag_is_rejected():
    stale = dict(case_fingerprint(COVERAGE), **{PERMUTATION_FIELD: "random"})
    with pytest.raises(SweepError, match="not this version's"):
        case_from_dict(stale)
    misplaced = dict(case_fingerprint(PrrCase(rows=8, columns=64,
                                              algorithm="MATS+")),
                     **{PERMUTATION_FIELD: PERMUTATION_TAG})
    with pytest.raises(SweepError, match="belongs only to cases"):
        case_from_dict(misplaced)


# ----------------------------------------------------------------------
# Stored results made without the tag are refused or missed
# ----------------------------------------------------------------------
def _strip_journal_tags(path):
    """Rewrite a journal as a version before the tag would have."""
    header = RunJournal(path).read_header()
    entries = load_journal(path)
    path.unlink()
    with RunJournal(path) as journal:
        journal.write_header(header)
        for entry in entries:
            journal.append(type(entry)(
                case_index=entry.case_index, kind=entry.kind,
                case=_untagged(entry.case), record=entry.record))


def test_resume_refuses_an_untagged_pseudo_random_entry(tmp_path):
    journal = tmp_path / "run.jsonl"
    SweepRunner([COVERAGE], journal=journal).run()
    _strip_journal_tags(journal)
    with pytest.raises(SweepError, match="does not match this grid"):
        SweepRunner([COVERAGE], journal=journal).run(resume=True)


def test_merge_refuses_an_untagged_pseudo_random_entry(tmp_path):
    journal = tmp_path / "shard.jsonl"
    SweepRunner([COVERAGE], journal=journal).run()
    _strip_journal_tags(journal)
    with pytest.raises(MergeError, match="another pseudo-random permutation"):
        merge_journals(tmp_path / "merged.jsonl", [journal])
    assert not (tmp_path / "merged.jsonl").exists()


def test_worker_refuses_an_untagged_grid_before_claiming(tmp_path):
    coordinator = Coordinator.create(tmp_path / "camp", [COVERAGE],
                                     workers=1)
    ledger = coordinator.ledger
    ledger.grid_path.write_text("".join(
        json.dumps(_untagged(fingerprint), sort_keys=True) + "\n"
        for fingerprint in ledger.load_grid()))
    with pytest.raises(SweepError, match="another pseudo-random permutation"):
        DistribWorker(tmp_path / "camp", worker_id="w0").run()
    status = coordinator.status()
    assert status["claimed"] == 0 and status["pending"] == status["leases"]


def test_serve_does_not_serve_an_entry_under_the_untagged_digest(tmp_path):
    request = _untagged(case_fingerprint(COVERAGE))
    untagged = fingerprint_digest(request)
    ResultCache(tmp_path / "cache").store(untagged, request, "coverage",
                                          {"stale": True})
    with running_service(tmp_path / "cache") as (service, host, port):
        with ServeClient(host, port) as client:
            response = client.submit(request)
    assert response["served"]["outcome"] == "miss"
    assert response["served"]["digest"] == \
        fingerprint_digest(case_fingerprint(COVERAGE)) != untagged
    assert "stale" not in response["record"]
