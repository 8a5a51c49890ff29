"""Experiment ``dof1_coverage`` — Section 3's premise.

"The fault detection properties are independent of the utilized address
sequence."  Fault-simulates March C- (full single-cell + coupling battery)
and MATS+ (its target single-cell battery) under the word-line order, the
fast-row order and a pseudo-random permutation, and checks the per-fault
detection results are identical — which is what makes the paper's choice of
the word-line-after-word-line order admissible.

Each (algorithm, battery) pair is one :func:`repro.faults.run_campaign`
call: the fault list is batch-simulated under every order at once (one
replay per fault class) and both the coverage and the invariance views
derive from that single pass.  The
paper-scale version of this experiment (full 512 x 512 array, vectorized
campaign engine) lives in ``test_bench_fault_campaign.py``.
"""

from __future__ import annotations

import pytest

from repro.analysis import coverage_table
from repro.faults import build_fault_list, run_campaign
from repro.march import MARCH_CM, MATS_PLUS
from repro.march.dof import coverage_equivalence_orders
from repro.sram.geometry import ArrayGeometry

GEOMETRY = ArrayGeometry(rows=6, columns=6)
LOCATIONS = [(0, 0), (0, 5), (2, 3), (5, 0), (5, 5)]


def run_experiment():
    orders = coverage_equivalence_orders(GEOMETRY, seeds=(2006,))
    results = []
    full_battery = build_fault_list(GEOMETRY, locations=LOCATIONS)
    single_cell = build_fault_list(GEOMETRY, locations=LOCATIONS, include_coupling=False)
    for algorithm, battery, label in ((MARCH_CM, full_battery, "SAF+TF+RDF+CF battery"),
                                      (MATS_PLUS, single_cell, "single-cell battery")):
        campaign = run_campaign(algorithm, orders, GEOMETRY, battery)
        results.append((algorithm, label, campaign))
    return results


@pytest.mark.benchmark(group="dof1")
def test_dof1_fault_coverage_invariance(benchmark, once):
    results = once(benchmark, run_experiment)
    reports = [campaign.coverage_report(order)
               for _, _, campaign in results
               for order in campaign.orders]
    print()
    print(coverage_table(
        reports, title="DOF-1: fault coverage under different address orders"))
    for algorithm, label, campaign in results:
        invariance = campaign.invariance_report()
        print(f"  {invariance.describe()} [{label}, {campaign.backend_used}]")
        assert invariance.invariant, invariance.disagreements[:3]
        coverages = [campaign.coverage_report(order).coverage
                     for order in campaign.orders]
        assert all(c == pytest.approx(coverages[0]) for c in coverages)
    # March C- must cover the classical battery essentially completely.
    march_cm_cov = results[0][2].coverage_report().coverage
    assert march_cm_cov > 0.85
