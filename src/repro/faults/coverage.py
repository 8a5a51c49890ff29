"""Fault-coverage campaigns and the DOF-1 invariance check.

The paper's scheme is only admissible because choosing the address sequence
(Degree Of Freedom 1) does not change what a March test detects.  This
module builds standard fault lists over an array, runs them under several
address orders, and checks that the per-fault detection results are
identical across orders — which is the quantitative form of the paper's
Section 3 argument.

Campaigns are batch workloads and run through the backend-pluggable
:class:`~repro.faults.simulator.FaultSimulator` (``"reference"``,
``"vectorized"`` or ``"auto"``): :func:`run_campaign` simulates the whole
fault list under every order in one call and derives both the per-order
:class:`CoverageReport` and the cross-order :class:`InvarianceReport` from
that single pass, so the full 512 x 512 DOF-1 check is one vectorized
replay per fault class instead of thousands of scalar March executions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..march.algorithm import MarchAlgorithm
from ..march.element import AddressingDirection
from ..march.ordering import AddressOrder
from ..sram.geometry import DEFAULT_LOCATION_SEED, ArrayGeometry
from .models import (
    CouplingFault,
    FaultModel,
    coupling_fault_models,
    single_cell_fault_models,
)
from .simulator import DetectionResult, FaultInjection, FaultSimulator


@dataclass(frozen=True)
class CoverageReport:
    """Detection statistics of one algorithm/order over a fault list."""

    algorithm: str
    order: str
    total_faults: int
    detected_faults: int
    missed: Tuple[str, ...] = ()
    #: execution engine that produced the verdicts ("reference"/"vectorized").
    backend: str = "reference"

    @property
    def coverage(self) -> float:
        """Detected fraction of the fault list (1.0 for an empty list)."""
        if self.total_faults == 0:
            return 1.0
        return self.detected_faults / self.total_faults

    def describe(self) -> str:
        """One-line human-readable summary."""
        return (f"{self.algorithm} under {self.order}: "
                f"{self.detected_faults}/{self.total_faults} "
                f"({100.0 * self.coverage:.1f} %) detected")


@dataclass(frozen=True)
class InvarianceReport:
    """Comparison of per-fault detection across several address orders."""

    algorithm: str
    orders: Tuple[str, ...]
    total_faults: int
    disagreements: Tuple[str, ...] = ()
    #: execution engine that produced the verdicts ("reference"/"vectorized").
    backend: str = "reference"

    @property
    def invariant(self) -> bool:
        """True when every fault is detected identically under every order."""
        return not self.disagreements

    def describe(self) -> str:
        """One-line human-readable summary."""
        status = "identical" if self.invariant else f"{len(self.disagreements)} disagreements"
        return (f"{self.algorithm}: detection across {len(self.orders)} orders is {status} "
                f"over {self.total_faults} faults")


def default_fault_locations(geometry: ArrayGeometry, sample: int = 6,
                            seed: int = DEFAULT_LOCATION_SEED
                            ) -> List[Tuple[int, int]]:
    """A deterministic spread of victim locations: corners, centre, random.

    The four corners, the centre and ``sample`` additional pseudo-random
    cells drawn from ``random.Random(seed)`` — the seed the sweep CLI
    exposes as ``--seed`` and records in exports, so a campaign's exact
    victim set can be reproduced later.
    """
    rng = random.Random(seed)
    rows, cols = geometry.rows, geometry.columns
    locations = {
        (0, 0), (0, cols - 1), (rows - 1, 0), (rows - 1, cols - 1),
        (rows // 2, cols // 2),
    }
    while len(locations) < min(sample + 5, rows * cols):
        locations.add((rng.randrange(rows), rng.randrange(cols)))
    return sorted(locations)


def neighbour_of(geometry: ArrayGeometry, victim: Tuple[int, int]) -> Tuple[int, int]:
    """Pick a physically adjacent aggressor for coupling faults.

    Preference order: right neighbour, then left (right edge), then below,
    then above (single-column arrays) — always a valid in-array cell that
    differs from the victim, including at every border and corner.
    """
    row, col = victim
    if col + 1 < geometry.columns:
        return (row, col + 1)
    if col - 1 >= 0:
        return (row, col - 1)
    if row + 1 < geometry.rows:
        return (row + 1, col)
    return (row - 1, col)


def build_fault_list(geometry: ArrayGeometry,
                     locations: Optional[Sequence[Tuple[int, int]]] = None,
                     include_coupling: bool = True,
                     include_single: bool = True) -> List[FaultInjection]:
    """Instantiate the standard fault battery at the given victim locations."""
    locations = list(locations) if locations is not None \
        else default_fault_locations(geometry)
    injections: List[FaultInjection] = []
    for victim in locations:
        geometry.validate_coordinates(*victim)
        if include_single:
            for model in single_cell_fault_models():
                injections.append(FaultInjection(fault=model, victim=victim))
        if include_coupling:
            aggressor = neighbour_of(geometry, victim)
            for model in coupling_fault_models():
                injections.append(FaultInjection(fault=model, victim=victim,
                                                 aggressor=aggressor))
    return injections


# ----------------------------------------------------------------------
# Campaigns: one multi-order batch simulation, reports derived from it
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CampaignResult:
    """The raw per-fault verdicts of one multi-order campaign.

    One :class:`~repro.faults.simulator.DetectionResult` list per address
    order (same injection order in every list); :meth:`coverage_report`
    and :meth:`invariance_report` derive the aggregate views without
    re-simulating anything.
    """

    algorithm: str
    orders: Tuple[str, ...]
    injections: Tuple[FaultInjection, ...]
    results: Dict[str, Tuple[DetectionResult, ...]]
    #: engine that executed the campaign ("reference"/"vectorized").
    backend_used: str = "reference"

    @property
    def total_faults(self) -> int:
        """Number of injected faults in the campaign."""
        return len(self.injections)

    def coverage_report(self, order: Optional[str] = None) -> CoverageReport:
        """Detection statistics under one order (default: the first)."""
        name = order if order is not None else self.orders[0]
        verdicts = self.results[name]
        missed = tuple(result.injection.describe() for result in verdicts
                       if not result.detected)
        return CoverageReport(
            algorithm=self.algorithm,
            order=name,
            total_faults=self.total_faults,
            detected_faults=self.total_faults - len(missed),
            missed=missed,
            backend=self.backend_used,
        )

    def invariance_report(self) -> InvarianceReport:
        """Per-fault detection compared across every order (the DOF-1 check)."""
        reference_name = self.orders[0]
        reference = self.results[reference_name]
        disagreements: List[str] = []
        for name in self.orders[1:]:
            for injection, expected, got in zip(self.injections, reference,
                                                self.results[name]):
                if expected.detected != got.detected:
                    disagreements.append(
                        f"{injection.describe()}: {reference_name}={expected.detected} "
                        f"vs {name}={got.detected}")
        return InvarianceReport(
            algorithm=self.algorithm,
            orders=self.orders,
            total_faults=self.total_faults,
            disagreements=tuple(disagreements),
            backend=self.backend_used,
        )


def run_campaign(algorithm: MarchAlgorithm,
                 orders: Sequence[AddressOrder],
                 geometry: ArrayGeometry,
                 injections: Sequence[FaultInjection],
                 backend: str = "auto",
                 any_direction: AddressingDirection = AddressingDirection.UP,
                 simulator: Optional[FaultSimulator] = None) -> CampaignResult:
    """Simulate a fault list under several orders in one multi-order call.

    The workhorse behind both :func:`run_coverage` and
    :func:`check_order_invariance`: the whole campaign is one
    :meth:`~repro.faults.simulator.FaultSimulator.simulate_orders` call
    on the selected backend — one replay per fault class for every order
    on the vectorized engine, one pass per order on the reference engine.
    A pre-built ``simulator`` may be supplied (its backend then wins);
    otherwise one is created from ``backend``/``any_direction``.
    """
    if not orders:
        raise ValueError("a campaign needs at least one address order")
    if simulator is None:
        simulator = FaultSimulator(geometry, any_direction=any_direction,
                                   backend=backend)
    injections = tuple(injections)
    verdicts = simulator.simulate_orders(algorithm, orders, injections)
    return CampaignResult(
        algorithm=algorithm.name,
        orders=tuple(order.name for order in orders),
        injections=injections,
        results={order.name: tuple(results)
                 for order, results in zip(orders, verdicts)},
        backend_used=simulator.last_backend_used or "reference",
    )


def run_coverage(algorithm: MarchAlgorithm, order: AddressOrder,
                 geometry: ArrayGeometry,
                 injections: Sequence[FaultInjection],
                 backend: str = "auto",
                 any_direction: AddressingDirection = AddressingDirection.UP
                 ) -> CoverageReport:
    """Detection statistics of ``algorithm`` under ``order`` for a fault list."""
    campaign = run_campaign(algorithm, [order], geometry, injections,
                            backend=backend, any_direction=any_direction)
    return campaign.coverage_report()


def check_order_invariance(algorithm: MarchAlgorithm,
                           orders: Sequence[AddressOrder],
                           geometry: ArrayGeometry,
                           injections: Sequence[FaultInjection],
                           backend: str = "auto",
                           any_direction: AddressingDirection = AddressingDirection.UP
                           ) -> InvarianceReport:
    """Verify per-fault detection is identical across all ``orders`` (DOF 1).

    Note the check is *per fault*, not just aggregate coverage: two orders
    that detect different faults but the same number would still violate the
    property the paper relies on.
    """
    campaign = run_campaign(algorithm, orders, geometry, injections,
                            backend=backend, any_direction=any_direction)
    return campaign.invariance_report()
