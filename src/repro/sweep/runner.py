"""Batch execution of scenario grids (the paper-scale sweeps).

A sweep batch-executes a grid of scenarios with optional multiprocessing
fan-out across scenarios and JSON/CSV export of the results.  Three
scenario kinds exist, all plain picklable descriptions:

* :class:`SweepCase` — one *(geometry x algorithm x address-order x
  backend)* test-power measurement: a full functional-vs-low-power-test-
  mode comparison (the paper's Table 1).  ``python -m repro.sweep --paper``
  runs the full 512 x 512 measured Table 1 in seconds.
* :class:`CoverageCase` — one *(geometry x algorithm x order-set)* fault-
  coverage campaign: the standard fault battery simulated under several
  address orders with per-fault invariance checking (the paper's Section 3
  DOF-1 argument).  ``python -m repro.sweep --paper-coverage`` runs the
  full 512 x 512 DOF-1 invariance check in seconds on the vectorized
  campaign engine.
* :class:`PrrCase` — one *(geometry x algorithm x backend)* BIST power
  campaign: both operating modes measured through the backend-pluggable
  :class:`repro.bist.BistController`, the measured Power Reduction Ratio
  differenced against the Section 5 analytical model and its extended
  (bracketing) variant.  ``python -m repro.sweep --paper-table1`` runs the
  full measured 512 x 512 Table 1 in seconds on the vectorized power
  campaign.

Design notes:

* cases carry only names and numbers (no live objects), so they travel
  cheaply to worker processes and round-trip through JSON;
* each case class is the one place that knows its kind: its ``kind`` tag,
  its ``record_class``, its per-case executor (:meth:`SweepCase.execute`)
  and whether it stacks in a batched pass (:meth:`SweepCase.stack_key`).
  :data:`CASE_TYPES` is the only registry; every kind lookup — journal,
  merge, JSON/CSV import, rendering, strategy choice, the batched grid
  engine — derives from it.  :func:`execute_case` runs any case and is the
  unit of work a ``multiprocessing.Pool`` maps over;
* execution **streams**: the runner consumes ``imap_unordered``, so each
  completed case is journaled and reported live while the rest of the grid
  is still running, and the final :class:`SweepResult` restores the stable
  input order;
* every worker process owns one :class:`_WorkerState` — memoised address
  orders, facades and a shared :class:`~repro.march.execution.TraceCache`
  — so the same algorithm x order trace is compiled at most once per
  worker instead of once per case;
* a campaign is durable: ``journal=path`` appends one fsync'd JSONL line
  per completed case (:mod:`repro.sweep.journal`), ``run(resume=True)``
  reloads it and re-executes only the missing cases, and
  :func:`shard_cases` splits a grid deterministically across machines;
* a :class:`SweepResult` holds one record per scenario and renders through
  :func:`repro.analysis.tables.render_table`, so sweep output matches the
  benchmark tables.  Campaign records carry the victim-sampling ``seed``,
  so an exported campaign is reproducible from its JSON/CSV alone.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Callable,
    ClassVar,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..bist.controller import BistController
from ..core.prr import AnalyticalPowerModel
from ..durable import atomic_write_bytes, atomic_write_text
from ..engine.dispatch import BACKEND_CHOICES, KERNEL_CHOICES
from ..march.element import AddressingDirection
from ..march.execution import TraceCache
from ..march.library import PAPER_TABLE1_ALGORITHMS, get_algorithm
from ..march.ordering import ORDER_REGISTRY, PERMUTATION_TAG, make_order
from ..sram.geometry import DEFAULT_LOCATION_SEED, ArrayGeometry
from ..sram.modes import OperatingMode
from .journal import JournalEntry, RunJournal

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.session import TestSession
    from ..faults.simulator import FaultSimulator

# Imports that serve one path only live in the functions on that path:
# the power session, the fault models and the table renderer load with the
# first case (or rendering) that needs them, hashlib with the first digest
# and multiprocessing with the first pool.  A PRR sweep loads none of them.


class SweepError(Exception):
    """Raised on malformed sweep specifications."""


GeometryLike = Union[ArrayGeometry, Tuple[int, int], Tuple[int, int, int], str]


def _geometry_label(rows: int, columns: int, bits_per_word: int,
                    banks: int) -> str:
    """The compact geometry spelling used by labels and table rows."""
    label = f"{rows}x{columns}"
    if bits_per_word != 1:
        label += f"x{bits_per_word}"
    if banks != 1:
        label += f" ({banks} banks)"
    return label


def parse_geometry(spec: GeometryLike) -> ArrayGeometry:
    """Coerce a geometry specification into an :class:`ArrayGeometry`.

    Accepts an :class:`ArrayGeometry`, a ``(rows, columns)`` or
    ``(rows, columns, bits_per_word)`` tuple, or a string like ``"512x512"``
    / ``"64x64x4"`` (the CLI form).
    """
    if isinstance(spec, ArrayGeometry):
        return spec
    if isinstance(spec, str):
        parts = spec.lower().replace("×", "x").split("x")
        if len(parts) not in (2, 3):
            raise SweepError(
                f"geometry {spec!r} must look like ROWSxCOLS or ROWSxCOLSxBITS")
        try:
            numbers = [int(part) for part in parts]
        except ValueError as exc:
            raise SweepError(f"geometry {spec!r} has non-integer fields") from exc
        return ArrayGeometry(*numbers)
    return ArrayGeometry(*spec)


class _Record:
    """The flat JSON/CSV row behaviour every record dataclass shares."""

    def as_dict(self) -> Dict[str, object]:
        """Flat dictionary view (the JSON/CSV row)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, object]):
        """Rebuild a record from :meth:`as_dict` output (JSON/CSV import).

        CSV's stringly-typed fields are coerced back to their declared
        types.  Fields with a dataclass default (e.g. ``banks``) may be
        absent — exports written before the field existed import with the
        default.
        """
        kwargs = {}
        for spec in fields(cls):
            if spec.name not in data:
                if spec.default is not MISSING:
                    kwargs[spec.name] = spec.default
                    continue
                raise SweepError(f"sweep record is missing field {spec.name!r}")
            value = data[spec.name]
            if spec.type in ("int", int):
                value = int(value)  # CSV round-trip delivers strings
            elif spec.type in ("float", float):
                value = float(value)
            elif spec.type in ("bool", bool) and isinstance(value, str):
                value = value == "True"
            kwargs[spec.name] = value
        return cls(**kwargs)


@dataclass
class SweepRecord(_Record):
    """The measurements of one executed :class:`SweepCase`."""

    rows: int
    columns: int
    bits_per_word: int
    algorithm: str
    order: str
    any_direction: str
    backend: str            # requested backend
    backend_used: str       # engine(s) that actually ran: "vectorized",
                            # "reference", or "reference+vectorized" when
                            # "auto" fell back for only one of the two modes
    cycles_per_mode: int
    functional_power_w: float
    low_power_power_w: float
    measured_prr: float
    analytical_prr: float   # the paper's Section 5 equation
    analytical_prr_recharge: float  # + the next-column recharge term
    passed: bool            # no read mismatch in either mode
    elapsed_s: float
    banks: int = 1
    bank_interleave: str = "blocked"
    kernel: str = "default"  # requested kernel tier ("default" = none
                             # requested: the engine's flat tier)
    kernel_used: str = ""    # concrete tier(s) that measured the modes
                             # ("flat"/"segmented"/"jit", joined
                             # with "+" if they differed; "" = reference
                             # engine only, which has no kernel seam)

    def table_row(self) -> Dict[str, object]:
        """One row of the sweep report table."""
        geometry = _geometry_label(self.rows, self.columns,
                                   self.bits_per_word, self.banks)
        return {
            "Algorithm": self.algorithm,
            "Geometry": geometry,
            "Order": self.order,
            "Backend": self.backend_used,
            "PRR measured": f"{100.0 * self.measured_prr:.1f} %",
            "PRR analytical": f"{100.0 * self.analytical_prr:.1f} %",
            "PRR analytical (+recharge)": f"{100.0 * self.analytical_prr_recharge:.1f} %",
            "P_F (mW)": f"{self.functional_power_w * 1e3:.3f}",
            "P_LPT (mW)": f"{self.low_power_power_w * 1e3:.3f}",
            "Cycles/mode": self.cycles_per_mode,
            "Runtime (s)": f"{self.elapsed_s:.2f}",
        }

    def progress_line(self) -> str:
        """One-line status printed per completed scenario."""
        return (f"{self.algorithm} @ {self.rows}x{self.columns} [{self.order}]: "
                f"PRR {100.0 * self.measured_prr:.1f} % "
                f"({self.elapsed_s:.2f} s, {self.backend_used})")


@dataclass(frozen=True)
class SweepCase:
    """One scenario of a sweep grid (picklable, JSON-friendly).

    Everything is carried by name or plain number so the case can be sent
    to a worker process and rebuilt there: the algorithm resolves through
    :func:`repro.march.get_algorithm`, the order through
    :func:`repro.march.ordering.make_order`.
    """

    #: JSON ``kind`` tag of this scenario kind and of its records (power
    #: sweeps predate the tag and stay the default for untagged data).
    kind: ClassVar[str] = "power"
    record_class: ClassVar[type] = SweepRecord

    rows: int
    columns: int
    algorithm: str
    bits_per_word: int = 1
    order: str = "row-major"
    any_direction: str = "up"
    backend: str = "auto"
    banks: int = 1
    bank_interleave: str = "blocked"
    #: vectorized-engine kernel tier (:data:`KERNEL_CHOICES`); ``None``
    #: is the engine's flat tier and is recorded as ``"default"``.
    kernel: Optional[str] = None

    def __post_init__(self) -> None:
        if self.order not in ORDER_REGISTRY:
            raise SweepError(
                f"unknown address order {self.order!r}; "
                f"available: {sorted(ORDER_REGISTRY)}")
        if self.backend not in BACKEND_CHOICES:
            raise SweepError(
                f"unknown backend {self.backend!r}; "
                f"expected one of {BACKEND_CHOICES}")
        if self.kernel is not None and self.kernel not in KERNEL_CHOICES:
            raise SweepError(
                f"unknown kernel {self.kernel!r}; "
                f"expected one of {KERNEL_CHOICES}")
        get_algorithm(self.algorithm)  # fail fast on unknown names
        self.geometry()  # fail fast on inconsistent dimensions/banking

    def geometry(self) -> ArrayGeometry:
        """The array geometry this case runs on."""
        return ArrayGeometry(rows=self.rows, columns=self.columns,
                             bits_per_word=self.bits_per_word,
                             banks=self.banks,
                             bank_interleave=self.bank_interleave)

    def label(self) -> str:
        """Short human-readable scenario label used in logs and tables."""
        geometry = _geometry_label(self.rows, self.columns,
                                   self.bits_per_word, self.banks)
        return f"{self.algorithm} @ {geometry} [{self.order}, {self.backend}]"

    def stack_key(self) -> Optional[Tuple]:
        """The batched-pass group this scenario stacks into (``None``: it
        runs per case).

        Power scenarios on one (geometry, direction, kernel) stack across
        algorithms, address orders and requested backends; the reference
        backend has no bulk kernel and runs per case.
        """
        if self.backend == "reference":
            return None
        return (self.rows, self.columns, self.bits_per_word,
                self.any_direction, self.banks, self.bank_interleave,
                self.kernel)

    def execute(self, state: "_WorkerState") -> SweepRecord:
        """Measure both modes through ``state``'s memoised session.

        Backend selection and fallback are the session facade's own (the
        shared :class:`repro.engine.dispatch.BackendDispatcher` contract):
        a requested ``"vectorized"`` backend surfaces engine errors,
        ``"auto"`` falls back to the reference engine per run, and the
        record's ``backend_used`` reports which engine(s) actually
        measured the comparison.
        """
        algorithm = get_algorithm(self.algorithm)
        session = state.session_for(self)

        started = time.perf_counter()
        functional = session.run(algorithm, OperatingMode.FUNCTIONAL)
        backends_used = {session.last_backend_used}
        low_power = session.run(algorithm, OperatingMode.LOW_POWER_TEST)
        backends_used.add(session.last_backend_used)
        elapsed = time.perf_counter() - started
        backend_used = "+".join(sorted(backend for backend in backends_used
                                       if backend is not None))
        return power_record(self, functional, low_power, backend_used,
                            elapsed)


def power_record(case: SweepCase, functional, low_power, backend_used: str,
                 elapsed: float) -> SweepRecord:
    """Assemble the :class:`SweepRecord` of one measured power scenario.

    Shared by :meth:`SweepCase.execute` and the batched grid engine
    (:class:`repro.engine.grid.BatchedGridEngine`), so the two execution
    strategies derive records from raw mode measurements identically —
    the field-for-field equivalence the batched strategy guarantees.
    """
    from ..core.session import ModeComparison

    geometry = case.geometry()
    algorithm = get_algorithm(case.algorithm)
    comparison = ModeComparison(algorithm=algorithm.name,
                                functional=functional, low_power=low_power)

    analytical = AnalyticalPowerModel(geometry)
    prediction = analytical.predict(algorithm)
    prediction_recharge = analytical.predict(
        algorithm, include_secondary=True, include_next_column_recharge=True)

    return SweepRecord(
        rows=case.rows,
        columns=case.columns,
        bits_per_word=case.bits_per_word,
        algorithm=algorithm.name,
        order=case.order,
        any_direction=case.any_direction,
        backend=case.backend,
        backend_used=backend_used,
        cycles_per_mode=comparison.functional.cycles,
        functional_power_w=comparison.functional.average_power,
        low_power_power_w=comparison.low_power.average_power,
        measured_prr=comparison.prr,
        analytical_prr=prediction.prr,
        analytical_prr_recharge=prediction_recharge.prr,
        passed=comparison.functional.passed and comparison.low_power.passed,
        elapsed_s=elapsed,
        banks=case.banks,
        bank_interleave=case.bank_interleave,
        kernel=case.kernel or "default",
        kernel_used=_kernels_used(functional, low_power),
    )


def _kernels_used(*results) -> str:
    """Concrete kernel tier(s) stamped on a set of mode results.

    Results carry the tier that measured them (``TestRunResult.kernel`` /
    ``BistResult.kernel``; empty on the reference engine).  Joined sorted
    with ``"+"`` — mirroring ``backend_used`` — in the rare case an
    ``"auto"`` backend fallback split the modes across engines.
    """
    return "+".join(sorted({result.kernel for result in results
                            if result.kernel}))


# ----------------------------------------------------------------------
# Fault-coverage campaign cases (the DOF-1 sweeps)
# ----------------------------------------------------------------------
#: The representative DOF-1 order set: the paper's word-line order, the
#: legacy fast-row order, and an arbitrary permutation.
INVARIANCE_ORDERS: Tuple[str, ...] = ("row-major", "column-major", "pseudo-random")

#: Pseudo-random victim locations added to the corners/centre spread of a
#: coverage campaign when no ``sample`` is given (one spelling, shared by
#: the case default, the grid builders and the CLI).
DEFAULT_SAMPLE = 6


@dataclass
class CoverageRecord(_Record):
    """The measurements of one executed :class:`CoverageCase`.

    ``seed`` and ``sample`` are recorded so the exported JSON/CSV alone
    reproduces the exact victim set of the campaign; ``orders`` is the
    ``"+"``-joined order list (flat for CSV).
    """

    rows: int
    columns: int
    algorithm: str
    orders: str
    any_direction: str
    backend: str            # requested backend
    backend_used: str       # engine that actually ran ("vectorized"/"reference")
    seed: int
    sample: int
    locations: int          # victim locations in the campaign
    total_faults: int
    detected_faults: int    # under the first order
    coverage: float
    invariant: bool         # per-fault detection identical across orders
    disagreements: int
    elapsed_s: float

    def table_row(self) -> Dict[str, object]:
        """One row of the sweep report table."""
        return {
            "Algorithm": self.algorithm,
            "Geometry": f"{self.rows}x{self.columns}",
            "Orders": self.orders,
            "Backend": self.backend_used,
            "Faults": self.total_faults,
            "Coverage": f"{100.0 * self.coverage:.1f} %",
            "DOF-1 invariant": "yes" if self.invariant else
                               f"NO ({self.disagreements})",
            "Seed": self.seed,
            "Runtime (s)": f"{self.elapsed_s:.2f}",
        }

    def progress_line(self) -> str:
        """One-line status printed per completed scenario."""
        status = "invariant" if self.invariant else \
            f"{self.disagreements} DISAGREEMENTS"
        return (f"{self.algorithm} coverage @ {self.rows}x{self.columns}: "
                f"{100.0 * self.coverage:.1f} % of {self.total_faults} faults, "
                f"DOF-1 {status} ({self.elapsed_s:.2f} s, {self.backend_used})")


@dataclass(frozen=True)
class CoverageCase:
    """One fault-coverage campaign scenario (picklable, JSON-friendly).

    The standard fault battery (single-cell and/or coupling) is placed at
    a deterministic victim spread — corners, centre, plus ``sample``
    pseudo-random cells drawn from ``seed`` — and simulated under every
    order in ``orders``; the per-fault verdicts are compared across orders
    (the paper's Section 3 DOF-1 invariance).  ``backend`` selects the
    fault-simulation engine (:data:`repro.faults.FAULT_BACKENDS`).
    """

    kind: ClassVar[str] = "coverage"
    record_class: ClassVar[type] = CoverageRecord

    rows: int
    columns: int
    algorithm: str
    orders: Tuple[str, ...] = INVARIANCE_ORDERS
    any_direction: str = "up"
    backend: str = "auto"
    include_single: bool = True
    include_coupling: bool = True
    sample: int = DEFAULT_SAMPLE
    seed: int = DEFAULT_LOCATION_SEED

    def __post_init__(self) -> None:
        object.__setattr__(self, "orders", tuple(self.orders))
        if not self.orders:
            raise SweepError("a coverage case needs at least one address order")
        for order in self.orders:
            if order not in ORDER_REGISTRY:
                raise SweepError(
                    f"unknown address order {order!r}; "
                    f"available: {sorted(ORDER_REGISTRY)}")
        if self.backend not in BACKEND_CHOICES:
            raise SweepError(
                f"unknown backend {self.backend!r}; "
                f"expected one of {BACKEND_CHOICES}")
        if not (self.include_single or self.include_coupling):
            raise SweepError("a coverage case needs at least one fault battery")
        get_algorithm(self.algorithm)  # fail fast on unknown names

    def geometry(self) -> ArrayGeometry:
        """The (bit-oriented) array geometry this campaign runs on."""
        return ArrayGeometry(rows=self.rows, columns=self.columns)

    def label(self) -> str:
        """Short human-readable scenario label used in logs and tables."""
        return (f"{self.algorithm} coverage @ {self.rows}x{self.columns} "
                f"[{len(self.orders)} orders, {self.backend}]")

    def stack_key(self) -> Optional[Tuple]:
        """Always ``None``: fault campaigns belong to a different engine
        family than the stacked power kernel and run per case."""
        return None

    def execute(self, state: "_WorkerState") -> CoverageRecord:
        """Simulate the fault list under every order, checking invariance.

        The fault list is simulated once per order through ``state``'s
        memoised :class:`repro.faults.FaultSimulator`; coverage is
        reported under the first order and the invariance verdict compares
        every order pair-wise against it.
        """
        from ..faults.coverage import build_fault_list, default_fault_locations

        geometry = self.geometry()
        algorithm = get_algorithm(self.algorithm)
        orders = [state.order_for(name, geometry) for name in self.orders]
        locations = default_fault_locations(geometry, sample=self.sample,
                                            seed=self.seed)
        injections = build_fault_list(geometry, locations=locations,
                                      include_single=self.include_single,
                                      include_coupling=self.include_coupling)
        simulator = state.simulator_for(self)

        started = time.perf_counter()
        campaign = run_campaign(algorithm, orders, geometry, injections,
                                simulator=simulator)
        elapsed = time.perf_counter() - started

        coverage = campaign.coverage_report()
        invariance = campaign.invariance_report()
        return CoverageRecord(
            rows=self.rows,
            columns=self.columns,
            algorithm=algorithm.name,
            orders="+".join(self.orders),
            any_direction=self.any_direction,
            backend=self.backend,
            backend_used=campaign.backend_used,
            seed=self.seed,
            sample=self.sample,
            locations=len(locations),
            total_faults=coverage.total_faults,
            detected_faults=coverage.detected_faults,
            coverage=coverage.coverage,
            invariant=invariance.invariant,
            disagreements=len(invariance.disagreements),
            elapsed_s=elapsed,
        )


def run_campaign(*args, **kwargs):
    """:func:`repro.faults.coverage.run_campaign`, imported on first use.

    Coverage cases simulate through this module attribute, so a process
    that runs only power or PRR cases never loads :mod:`repro.faults`.
    """
    from ..faults.coverage import run_campaign as campaign

    return campaign(*args, **kwargs)


def coverage_grid(geometries: Iterable[GeometryLike],
                  algorithms: Iterable[str],
                  orders: Sequence[str] = INVARIANCE_ORDERS,
                  backend: str = "auto",
                  any_direction: str = "up",
                  sample: int = DEFAULT_SAMPLE,
                  seed: int = DEFAULT_LOCATION_SEED) -> List["CoverageCase"]:
    """Build a grid of coverage campaigns: one case per geometry x algorithm."""
    cases: List[CoverageCase] = []
    for geometry_spec in geometries:
        geometry = parse_geometry(geometry_spec)
        if geometry.bits_per_word != 1:
            raise SweepError(
                "coverage campaigns model bit-oriented arrays; use "
                f"ROWSxCOLS geometries (got {geometry.describe()})")
        for algorithm in algorithms:
            cases.append(CoverageCase(
                rows=geometry.rows, columns=geometry.columns,
                algorithm=algorithm, orders=tuple(orders),
                any_direction=any_direction, backend=backend,
                sample=sample, seed=seed))
    return cases


def paper_coverage_cases(backend: str = "auto",
                         sample: int = DEFAULT_SAMPLE,
                         seed: int = DEFAULT_LOCATION_SEED
                         ) -> List["CoverageCase"]:
    """The paper-scale DOF-1 check: the full 512 x 512 array, three orders.

    March C- carries the full single-cell + coupling battery (the fault
    classes it targets); MATS+ carries the single-cell battery only — a
    weak test may detect untargeted coupling faults merely fortuitously,
    and such fortuitous detections are legitimately order-dependent.
    """
    march_cm = CoverageCase(rows=512, columns=512, algorithm="March C-",
                            backend=backend, sample=sample, seed=seed)
    mats_plus = CoverageCase(rows=512, columns=512, algorithm="MATS+",
                             backend=backend, include_coupling=False,
                             sample=sample, seed=seed)
    return [march_cm, mats_plus]


# ----------------------------------------------------------------------
# BIST power-campaign cases (the measured-vs-analytical Table 1 sweeps)
# ----------------------------------------------------------------------
#: Slack (in PRR fraction) allowed on either side of the analytical bracket
#: when classifying a measured PRR as in-bracket: the extended model may
#: overestimate an overhead by a hair (it books a full bit-line swing for
#: the next-column recharge where the measurement sees a decayed one).
PRR_BRACKET_SLACK = 0.002


@dataclass
class PrrRecord(_Record):
    """The measurements of one executed :class:`PrrCase`.

    Carries the raw energy totals of both modes (the quantities the golden
    Table 1 regression pins), the measured PRR, and the analytical
    prediction band: ``analytical_prr`` is the paper's Section 5 equation,
    ``analytical_prr_bracket`` the extended variant (secondary overheads +
    next-column recharge) that bounds the measurement from below.
    ``backend`` / ``backend_used`` / ``seed`` make the exported JSON/CSV
    self-describing about how the numbers were produced.
    """

    rows: int
    columns: int
    bits_per_word: int
    algorithm: str
    backend: str            # requested backend
    backend_used: str       # engine that actually ran ("vectorized"/"reference")
    seed: int
    cycles_per_mode: int
    functional_energy_j: float
    low_power_energy_j: float
    functional_power_w: float
    low_power_power_w: float
    measured_prr: float
    analytical_prr: float           # the paper's Section 5 equation
    analytical_prr_bracket: float   # + secondary overheads + recharge term
    within_bracket: bool    # bracket-slack test of the measured PRR
    functional_planner: str
    low_power_planner: str
    passed: bool            # no comparator failure in either mode
    elapsed_s: float
    banks: int = 1
    bank_interleave: str = "blocked"
    kernel: str = "default"   # requested tier ("default" = none: flat)
    kernel_used: str = ""     # "+"-joined tiers that ran ("" = reference only)

    def table_row(self) -> Dict[str, object]:
        """One row of the sweep report table (the Table 1 layout)."""
        algorithm = get_algorithm(self.algorithm)
        geometry = _geometry_label(self.rows, self.columns,
                                   self.bits_per_word, self.banks)
        return {
            "Algorithm": self.algorithm,
            "Geometry": geometry,
            "# elm": algorithm.element_count,
            "# oper": algorithm.operation_count,
            "PRR measured": f"{100.0 * self.measured_prr:.1f} %",
            "PRR analytical": f"{100.0 * self.analytical_prr:.1f} %",
            "PRR bracket": f"{100.0 * self.analytical_prr_bracket:.1f} %",
            "In bracket": "yes" if self.within_bracket else "NO",
            "P_F (mW)": f"{self.functional_power_w * 1e3:.3f}",
            "P_LPT (mW)": f"{self.low_power_power_w * 1e3:.3f}",
            "Backend": self.backend_used,
            "Runtime (s)": f"{self.elapsed_s:.2f}",
        }

    def progress_line(self) -> str:
        """One-line status printed per completed scenario."""
        bracket = "in bracket" if self.within_bracket else "OUT OF BRACKET"
        return (f"{self.algorithm} PRR @ {self.rows}x{self.columns}: "
                f"measured {100.0 * self.measured_prr:.1f} % vs analytical "
                f"{100.0 * self.analytical_prr:.1f} % ({bracket}, "
                f"{self.elapsed_s:.2f} s, {self.backend_used})")


@dataclass(frozen=True)
class PrrCase:
    """One BIST power-campaign scenario (picklable, JSON-friendly).

    The algorithm runs in both operating modes through the
    backend-pluggable :class:`repro.bist.BistController` (word-line-
    sequential address generator, the paper's BIST deployment) and the
    measured Power Reduction Ratio is differenced against the Section 5
    analytical prediction and its extended bracketing variant.
    ``backend`` selects the power-measurement engine
    (:data:`repro.bist.POWER_BACKENDS`); ``seed`` is recorded verbatim in
    the exports for provenance uniformity with the campaign records (the
    PRR measurement itself is deterministic).
    """

    kind: ClassVar[str] = "prr"
    record_class: ClassVar[type] = PrrRecord

    rows: int
    columns: int
    algorithm: str
    bits_per_word: int = 1
    backend: str = "auto"
    seed: int = 0
    banks: int = 1
    bank_interleave: str = "blocked"
    #: Kernel tier request for the vectorized campaign (``None`` is the
    #: engine's flat tier and is recorded as ``"default"``).
    kernel: Optional[str] = None

    def __post_init__(self) -> None:
        if self.backend not in BACKEND_CHOICES:
            raise SweepError(
                f"unknown backend {self.backend!r}; "
                f"expected one of {BACKEND_CHOICES}")
        if self.kernel is not None and self.kernel not in KERNEL_CHOICES:
            raise SweepError(
                f"unknown kernel {self.kernel!r}; "
                f"expected one of {KERNEL_CHOICES}")
        get_algorithm(self.algorithm)  # fail fast on unknown names
        self.geometry()  # fail fast on inconsistent dimensions/banking

    def geometry(self) -> ArrayGeometry:
        """The array geometry this campaign runs on."""
        return ArrayGeometry(rows=self.rows, columns=self.columns,
                             bits_per_word=self.bits_per_word,
                             banks=self.banks,
                             bank_interleave=self.bank_interleave)

    def label(self) -> str:
        """Short human-readable scenario label used in logs and tables."""
        geometry = _geometry_label(self.rows, self.columns,
                                   self.bits_per_word, self.banks)
        return f"{self.algorithm} PRR @ {geometry} [{self.backend}]"

    def stack_key(self) -> Optional[Tuple]:
        """The batched-pass group this scenario stacks into (``None``: it
        runs per case).

        PRR campaigns stack per BIST-controller configuration — every
        algorithm and both planners in one pass; the reference backend
        has no bulk kernel and runs per case.
        """
        if self.backend == "reference":
            return None
        return (self.rows, self.columns, self.bits_per_word, self.backend,
                self.banks, self.bank_interleave, self.kernel)

    def execute(self, state: "_WorkerState") -> PrrRecord:
        """Run both modes through ``state``'s memoised BIST controller.

        One :class:`repro.bist.BistController` measures both modes (so
        the vectorized campaign's compiled trace is shared between them)
        and the record keeps the raw energy totals alongside the measured
        and predicted PRR.
        """
        algorithm = get_algorithm(self.algorithm)
        controller = state.controller_for(self)

        started = time.perf_counter()
        functional = controller.run(algorithm, low_power=False)
        low_power = controller.run(algorithm, low_power=True)
        elapsed = time.perf_counter() - started
        return prr_record(self, functional, low_power, elapsed)


def prr_record(case: PrrCase, functional, low_power,
               elapsed: float) -> PrrRecord:
    """Assemble the :class:`PrrRecord` of one measured BIST campaign.

    Shared by :meth:`PrrCase.execute` and the batched grid engine, so both
    execution strategies derive records from the two
    :class:`~repro.bist.controller.BistResult` measurements identically.
    """
    geometry = case.geometry()
    algorithm = get_algorithm(case.algorithm)
    backends_used = {functional.backend, low_power.backend}
    backend_used = "+".join(sorted(backends_used))

    measured_prr = (1.0 - low_power.average_power / functional.average_power
                    if functional.average_power > 0 else 0.0)
    analytical = AnalyticalPowerModel(geometry)
    plain = analytical.prr(algorithm)
    bracket = analytical.prr(algorithm, include_secondary=True,
                             include_next_column_recharge=True)
    within = (bracket - PRR_BRACKET_SLACK
              <= measured_prr <= plain + PRR_BRACKET_SLACK)

    return PrrRecord(
        rows=case.rows,
        columns=case.columns,
        bits_per_word=case.bits_per_word,
        algorithm=algorithm.name,
        backend=case.backend,
        backend_used=backend_used,
        seed=case.seed,
        cycles_per_mode=functional.cycles,
        functional_energy_j=functional.total_energy,
        low_power_energy_j=low_power.total_energy,
        functional_power_w=functional.average_power,
        low_power_power_w=low_power.average_power,
        measured_prr=measured_prr,
        analytical_prr=plain,
        analytical_prr_bracket=bracket,
        within_bracket=within,
        functional_planner=functional.planner,
        low_power_planner=low_power.planner,
        passed=functional.passed and low_power.passed,
        elapsed_s=elapsed,
        banks=case.banks,
        bank_interleave=case.bank_interleave,
        kernel=case.kernel or "default",
        kernel_used=_kernels_used(functional, low_power),
    )


def prr_grid(geometries: Iterable[GeometryLike],
             algorithms: Iterable[str],
             backend: str = "auto",
             seed: int = 0,
             banks: Iterable[int] = (1,),
             bank_interleave: str = "blocked",
             kernel: Optional[str] = None) -> List["PrrCase"]:
    """Build a grid of BIST power campaigns: one case per
    geometry x bank-count x algorithm (PRR-vs-bank-count sweeps pass
    several ``banks``)."""
    cases: List[PrrCase] = []
    for geometry_spec in geometries:
        geometry = parse_geometry(geometry_spec)
        for bank_count in banks:
            for algorithm in algorithms:
                cases.append(PrrCase(
                    rows=geometry.rows, columns=geometry.columns,
                    bits_per_word=geometry.bits_per_word,
                    algorithm=algorithm, backend=backend, seed=seed,
                    banks=bank_count, bank_interleave=bank_interleave,
                    kernel=kernel))
    return cases


def paper_prr_cases(backend: str = "vectorized", seed: int = 0,
                    kernel: Optional[str] = None) -> List["PrrCase"]:
    """The paper-scale measured Table 1 through the BIST path: 512 x 512,
    all five algorithms, both modes per case."""
    return prr_grid(["512x512"],
                    [algorithm.name for algorithm in PAPER_TABLE1_ALGORITHMS],
                    backend=backend, seed=seed, kernel=kernel)


#: Every scenario kind a sweep can hold — the one registry.  Each class
#: carries its ``kind`` tag, its ``record_class``, its executor and its
#: batched-pass key; every kind lookup (JSON/CSV import, journal restore,
#: merge, rendering, strategy choice, the batched grid engine) derives
#: from this tuple.
CASE_TYPES: Tuple[type, ...] = (SweepCase, CoverageCase, PrrCase)
#: Any scenario kind a sweep can hold.
AnyCase = Union[SweepCase, CoverageCase, PrrCase]
#: Any record kind a sweep result can hold.
AnyRecord = Union[SweepRecord, CoverageRecord, PrrRecord]

_CASE_TYPE_OF_KIND: Dict[str, type] = {cls.kind: cls for cls in CASE_TYPES}
_KIND_OF_RECORD: Dict[type, str] = {cls.record_class: cls.kind
                                    for cls in CASE_TYPES}


def case_kind(case: AnyCase) -> str:
    """The ``kind`` tag of a case instance (``"power"/"coverage"/"prr"``)."""
    if type(case) not in CASE_TYPES:
        raise SweepError(f"unknown sweep case type {type(case).__name__}")
    return case.kind


#: The fingerprint field that versions the pseudo-random permutation.  A
#: case that names the pseudo-random order carries
#: :data:`repro.march.ordering.PERMUTATION_TAG` there; no other case has
#: the field, so their fingerprints and digests never change with it.
PERMUTATION_FIELD = "permutation"


def _names_pseudo_random(flat: Dict[str, object]) -> bool:
    """Whether a complete flat case names the pseudo-random order: a
    power ``order`` or any entry of a coverage ``orders``."""
    orders = flat.get("orders") or [flat.get("order")]
    return isinstance(orders, (list, tuple)) and "pseudo-random" in orders


def stale_permutation(fingerprint: Dict[str, object]) -> bool:
    """True when a stored fingerprint (a journal entry, a grid line) names
    the pseudo-random order without this version's
    :data:`~repro.march.ordering.PERMUTATION_TAG`: its result was, or
    would be, made with another permutation."""
    return _names_pseudo_random(fingerprint) and \
        fingerprint.get(PERMUTATION_FIELD) != PERMUTATION_TAG


def _case_fields(case: AnyCase) -> Dict[str, object]:
    """The fields of ``case`` by name, uncopied: every case field is a
    scalar or a tuple of strings, so ``asdict``'s deep copy buys nothing."""
    return {spec.name: getattr(case, spec.name) for spec in fields(case)}


def case_fingerprint(case: AnyCase) -> Dict[str, object]:
    """The kind-tagged, JSON-normalised flat form of a case.

    This is what the run journal stores next to each record and what
    resume matches against: two fingerprints are equal exactly when the
    cases describe the same scenario (tuples are normalised to lists, so a
    fingerprint round-trips through JSON unchanged).  A case that names
    the pseudo-random order also carries the permutation tag
    (:data:`PERMUTATION_FIELD`), so resume, merge, distrib grids and the
    serve cache never match a result made with another permutation.
    """
    flat = {"kind": case_kind(case), **_case_fields(case)}
    if _names_pseudo_random(flat):
        flat[PERMUTATION_FIELD] = PERMUTATION_TAG
    return json.loads(json.dumps(flat, sort_keys=True))


def fingerprint_digest(fingerprint: Dict[str, object]) -> str:
    """The content address of one case fingerprint (hex sha256).

    Canonical form: compact separators, sorted keys — the same scenario
    always hashes to the same digest, whichever client serialised it.
    The serving layer keys its on-disk result cache and its request
    coalescing on this digest.
    """
    import hashlib

    canonical = json.dumps(fingerprint, sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def case_from_dict(data: Dict[str, object]) -> AnyCase:
    """Rebuild a case dataclass from its flat (fingerprint) dictionary.

    The inverse of :func:`case_fingerprint`: accepts the kind-tagged flat
    form (``kind`` defaults to ``"power"``, matching the record loaders)
    and rejects unknown kinds and unknown or missing fields with
    :class:`SweepError` — a served request must fail loudly, not half
    parse.  ``case_from_dict(case_fingerprint(case)) == case`` for every
    case kind.  The permutation tag (:data:`PERMUTATION_FIELD`) is
    optional, but if present it must hold this version's value and sit on
    a case that names the pseudo-random order.
    """
    if not isinstance(data, dict):
        raise SweepError(
            f"a case description must be a JSON object, got "
            f"{type(data).__name__}")
    payload = dict(data)
    kind = payload.pop("kind", "power")
    tagged = PERMUTATION_FIELD in payload
    permutation = payload.pop(PERMUTATION_FIELD, None)
    cls = _CASE_TYPE_OF_KIND.get(kind)
    if cls is None:
        raise SweepError(
            f"unknown case kind {kind!r}; expected one of "
            f"{sorted(_CASE_TYPE_OF_KIND)}")
    allowed = {spec.name for spec in fields(cls)}
    unknown = sorted(set(payload) - allowed)
    if unknown:
        raise SweepError(
            f"unknown field(s) {unknown} for a {kind!r} case; expected a "
            f"subset of {sorted(allowed)}")
    try:
        case = cls(**payload)
    except TypeError as exc:  # missing required fields
        raise SweepError(f"invalid {kind!r} case: {exc}") from exc
    if tagged and not _names_pseudo_random(_case_fields(case)):
        raise SweepError(
            f"field {PERMUTATION_FIELD!r} belongs only to cases that name "
            "the pseudo-random order")
    if tagged and permutation != PERMUTATION_TAG:
        raise SweepError(
            f"{PERMUTATION_FIELD} {permutation!r} is not this version's "
            f"pseudo-random permutation {PERMUTATION_TAG!r}; its results "
            "cannot be reused")
    return case


def _record_class(kind: str, source: object,
                  error: type = SweepError) -> type:
    """The record class tagged ``kind``; an unknown tag raises ``error``
    naming ``source``, the document that carried it."""
    cls = _CASE_TYPE_OF_KIND.get(kind)
    if cls is None:
        raise error(f"{source} contains unknown record kind {kind!r}")
    return cls.record_class


def execute_case(case: AnyCase) -> AnyRecord:
    """Run one scenario of any kind (the multiprocessing work unit).

    The case runs its own executor on the calling thread's installed
    :class:`_WorkerState` — a sweep, a pool worker or a serving thread
    installs one — or else on a throwaway one.
    """
    case_kind(case)  # a non-case fails with SweepError, not AttributeError
    state = _get_worker_state()
    return case.execute(state if state is not None else _WorkerState())


#: Kind-named spellings of :func:`execute_case`.
run_case = run_coverage_case = run_prr_case = execute_case


def _execute_indexed(item: Tuple[int, AnyCase]) -> Tuple[int, AnyRecord]:
    """Pool work unit for the streaming runner: keep the case's index with
    its record so ``imap_unordered`` completions can be re-ordered."""
    index, case = item
    return index, execute_case(case)


# ----------------------------------------------------------------------
# Process-local worker state (orders, facades, compiled traces)
# ----------------------------------------------------------------------
class _WorkerState:
    """Caches one sweep worker shares across every case it executes.

    Cases are plain names, so the naive work unit rebuilds every object per
    case — in particular it recompiles the same algorithm x order
    :class:`~repro.march.execution.OperationTrace` over and over, because
    the trace caches inside the facades key on *object identity* and each
    case used to construct fresh orders and facades.  The worker state is
    the only builder of both: address orders are memoised by (name,
    shape), and facades (:class:`TestSession` / :class:`FaultSimulator` /
    :class:`BistController`) are memoised by their configuration axes with
    one shared :class:`~repro.march.execution.TraceCache` threaded
    through, so identities are stable and each trace compiles at most
    once per worker, on first use.
    """

    def __init__(self) -> None:
        #: compiled traces shared by every facade of this worker.
        self.traces = TraceCache()
        self._memo: Dict[Tuple, object] = {}

    def _memoised(self, key: Tuple, build: Callable[[], object]):
        """The object memoised under ``key``, built on first request."""
        value = self._memo.get(key)
        if value is None:
            value = self._memo[key] = build()
        return value

    def order_for(self, name: str, geometry: ArrayGeometry):
        """The memoised :class:`AddressOrder` for ``name`` on ``geometry``.

        Keyed by — and built on — the bank-free
        ``ArrayGeometry(rows, columns, bits_per_word)``: orders never read
        the bank map (engines take banks from their own geometry), so
        banked and monolithic cases of one shape share one order and its
        compiled traces, and a fault campaign, whose geometry is
        bank-free, accepts it.
        """
        shape = ArrayGeometry(geometry.rows, geometry.columns,
                              geometry.bits_per_word)
        return self._memoised(("order", name, shape),
                              lambda: make_order(name, shape))

    def session_for(self, case: SweepCase) -> TestSession:
        """The memoised power-measurement session for ``case``'s axes."""
        def build() -> TestSession:
            from ..core.session import TestSession

            geometry = case.geometry()
            return TestSession(
                geometry, order=self.order_for(case.order, geometry),
                any_direction=AddressingDirection(case.any_direction),
                detailed=False, backend=case.backend, kernel=case.kernel)

        return self._memoised(
            ("session", case.rows, case.columns, case.bits_per_word,
             case.order, case.any_direction, case.backend, case.banks,
             case.bank_interleave, case.kernel), build)

    def simulator_for(self, case: CoverageCase) -> FaultSimulator:
        """The memoised fault simulator for ``case``'s axes."""
        from ..faults.simulator import FaultSimulator

        return self._memoised(
            ("simulator", case.rows, case.columns, case.any_direction,
             case.backend),
            lambda: FaultSimulator(
                case.geometry(),
                any_direction=AddressingDirection(case.any_direction),
                backend=case.backend, trace_cache=self.traces))

    def controller_for(self, case: PrrCase) -> BistController:
        """The memoised BIST controller for ``case``'s axes."""
        return self._memoised(
            ("controller", case.rows, case.columns, case.bits_per_word,
             case.backend, case.banks, case.bank_interleave, case.kernel),
            lambda: BistController(case.geometry(), backend=case.backend,
                                   trace_cache=self.traces,
                                   kernel=case.kernel))


#: The worker state of the executing thread (``None`` until a sweep —
#: or the serving layer's worker pool — installs one).  Thread-local
#: rather than a plain module global: concurrent batched passes (the
#: campaign service runs one per executor thread) must not stomp each
#: other's memoised facades mid-run.  Pool worker *processes* each see
#: their own main thread, so the multiprocessing path is unchanged.
_WORKER_STATE_SLOT = threading.local()


def _get_worker_state() -> Optional[_WorkerState]:
    """The calling thread's installed worker state, or ``None``."""
    return getattr(_WORKER_STATE_SLOT, "state", None)


def _init_worker() -> None:
    """``multiprocessing.Pool`` initializer: a fresh worker state."""
    _set_worker_state(_WorkerState())


def _set_worker_state(state: Optional[_WorkerState]) -> None:
    """Install (or clear) the calling thread's worker state.

    Sequential runs scope their state to the run — installed before the
    first case, restored afterwards — so a long-lived process executing
    many sweeps does not accumulate facades and compiled traces forever;
    pool workers die with their pool, which bounds theirs naturally.
    """
    _WORKER_STATE_SLOT.state = state


@dataclass
class SweepResult:
    """The records of one executed sweep, with export/import helpers.

    Holds records of any kind, or a mix; JSON export tags each record
    with its case class's ``kind``, CSV export requires a homogeneous
    result (one header) and the importer recognises the record class from
    the header fields.
    """

    records: List[AnyRecord] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def table_rows(self) -> List[Dict[str, object]]:
        """The sweep as :func:`repro.analysis.tables.render_table` rows."""
        return [record.table_row() for record in self.records]

    def render(self, title: str = "Sweep results") -> str:
        """Plain-text report of the whole sweep.

        A homogeneous sweep renders as one table; a mixed sweep renders
        one table per record kind (the kinds have different columns).
        """
        from ..analysis.tables import render_table

        sections = [(cls.kind, [record.table_row() for record in self.records
                                if type(record) is cls.record_class])
                    for cls in CASE_TYPES]
        sections = [(kind, rows) for kind, rows in sections if rows]
        if len(sections) <= 1:
            return render_table(self.table_rows(), title=title)
        return "\n\n".join(render_table(rows, title=f"{title} — {kind}")
                           for kind, rows in sections)

    # ------------------------------------------------------------------
    # Export / import
    # ------------------------------------------------------------------
    def to_json(self, path: Union[str, Path]) -> Path:
        """Write the records to ``path`` as a JSON document; returns the path."""
        path = Path(path)
        rows = [{"kind": _KIND_OF_RECORD[type(record)], **record.as_dict()}
                for record in self.records]
        payload = {"format": "repro-sweep", "version": 2, "records": rows}
        # Atomic + fsync'd: re-exporting over a previous artifact must
        # never leave a torn JSON document behind a crash (RPR003).
        atomic_write_text(path, json.dumps(payload, indent=2) + "\n")
        return path

    @classmethod
    def from_json(cls, path: Union[str, Path]) -> "SweepResult":
        """Load a sweep previously written by :meth:`to_json`.

        Accepts both version-2 documents (kind-tagged records) and the
        version-1 power-only layout.
        """
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        if payload.get("format") != "repro-sweep":
            raise SweepError(f"{path} is not a repro sweep export")
        records: List[AnyRecord] = []
        for row in payload["records"]:
            row = dict(row)
            kind = row.pop("kind", "power")
            records.append(_record_class(kind, path).from_dict(row))
        return cls(records)

    def to_csv(self, path: Union[str, Path]) -> Path:
        """Write the records to ``path`` as CSV; returns the path.

        CSV has one header, so the result must be homogeneous (one record
        kind); use JSON for mixed sweeps.
        """
        import csv

        path = Path(path)
        kinds = {type(record) for record in self.records}
        if len(kinds) > 1:
            raise SweepError(
                "CSV export needs a homogeneous sweep (one record kind); "
                "use to_json for mixed results")
        record_cls = kinds.pop() if kinds else SweepRecord
        names = [spec.name for spec in fields(record_cls)]
        import io

        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=names)
        writer.writeheader()
        for record in self.records:
            writer.writerow(record.as_dict())
        # Atomic + fsync'd, same contract as :meth:`to_json` (RPR003).
        atomic_write_text(path, buffer.getvalue())
        return path

    @classmethod
    def from_csv(cls, path: Union[str, Path]) -> "SweepResult":
        """Load a sweep previously written by :meth:`to_csv`.

        The record class is the one whose fields cover the header and
        whose default-less fields all appear in it, so exports written
        before a defaulted field existed still load; anything else loads
        as power records (the default kind) and fails on its missing
        fields.
        """
        import csv

        def fits(record_cls: type, header: set) -> bool:
            specs = fields(record_cls)
            return header <= {spec.name for spec in specs} and all(
                spec.name in header for spec in specs
                if spec.default is MISSING)

        with Path(path).open(newline="", encoding="utf-8") as handle:
            reader = csv.DictReader(handle)
            header = set(reader.fieldnames or ())
            record_cls = next((case_cls.record_class for case_cls in CASE_TYPES
                               if fits(case_cls.record_class, header)),
                              SweepRecord)
            return cls([record_cls.from_dict(row) for row in reader])


def sweep_grid(geometries: Iterable[GeometryLike],
               algorithms: Iterable[str],
               orders: Iterable[str] = ("row-major",),
               backends: Iterable[str] = ("auto",),
               any_direction: str = "up",
               banks: Iterable[int] = (1,),
               bank_interleave: str = "blocked",
               kernel: Optional[str] = None) -> List[SweepCase]:
    """Build the full cross-product grid of scenarios.

    ``geometries`` accepts anything :func:`parse_geometry` does; the other
    axes are names (``banks`` enumerates sub-array counts per geometry).
    The grid order is geometry-major so large scenarios cluster together,
    which helps the multiprocessing fan-out balance.
    """
    cases: List[SweepCase] = []
    for geometry_spec in geometries:
        geometry = parse_geometry(geometry_spec)
        for bank_count in banks:
            for order in orders:
                for backend in backends:
                    for algorithm in algorithms:
                        cases.append(SweepCase(
                            rows=geometry.rows, columns=geometry.columns,
                            bits_per_word=geometry.bits_per_word,
                            algorithm=algorithm, order=order,
                            any_direction=any_direction, backend=backend,
                            banks=bank_count,
                            bank_interleave=bank_interleave,
                            kernel=kernel))
    return cases


def paper_table1_cases(backend: str = "vectorized",
                       kernel: Optional[str] = None) -> List[SweepCase]:
    """The paper-scale measured Table 1: 512 x 512, all five algorithms."""
    return sweep_grid(["512x512"],
                      [algorithm.name for algorithm in PAPER_TABLE1_ALGORITHMS],
                      backends=(backend,), kernel=kernel)


def shard_cases(cases: Sequence[AnyCase], index: int,
                total: int) -> List[AnyCase]:
    """Deterministic round-robin shard ``index`` of ``total`` (1-based).

    Splitting a grid across machines: shard ``i`` takes cases
    ``i-1, i-1+total, i-1+2*total, ...`` of the input order.  The shards
    of one grid are pairwise disjoint, exhaustive (their union is the
    grid) and deterministic (the same spec always yields the same slice),
    and round-robin keeps the geometry-major clustering of
    :func:`sweep_grid` balanced across shards.  Each shard is an ordinary
    case list — journal and resume apply per shard.
    """
    if total < 1:
        raise SweepError(f"shard count must be >= 1, got {total}")
    if not 1 <= index <= total:
        raise SweepError(
            f"shard index must be in 1..{total} (1-based), got {index}")
    return list(cases)[index - 1::total]


#: Valid values of the :class:`SweepRunner` ``strategy`` switch.
STRATEGIES = ("auto", "batched", "percase")


def check_strategy(strategy: str) -> str:
    """Return ``strategy`` unchanged, or raise :class:`SweepError`."""
    if strategy not in STRATEGIES:
        raise SweepError(
            f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    return strategy


class SweepRunner:
    """Executes a list of sweep scenarios, streaming and optionally parallel.

    Accepts any mix of :class:`SweepCase`, :class:`CoverageCase` and
    :class:`PrrCase` scenarios (dispatched through :func:`execute_case`).

    ``strategy`` selects how the grid is evaluated:

    * ``"percase"`` — one scenario at a time (the multiprocessing work
      unit), optionally fanned out over worker processes;
    * ``"batched"`` — the grid-batched engine
      (:class:`repro.engine.grid.BatchedGridEngine`): per-geometry groups
      share one compiled-trace cache and one stacked flat-kernel pass for
      all algorithms, orders and both planners, in-process.  Records are
      bit-identical to the per-case path (``elapsed_s`` aside); journal,
      resume and shard semantics are unchanged.  Requires numpy — without
      it the runner falls back to ``"percase"`` (the CLI warns, and the
      journal header records what actually ran);
    * ``"auto"`` (default) — ``"batched"`` when numpy is available and no
      multi-process fan-out was requested (``processes`` of ``None`` with
      an all-stackable grid, or an explicit ``1``), else ``"percase"``.

    ``processes`` selects the per-case fan-out: ``None`` (the default)
    uses one worker per CPU core, clamped to the number of cases; ``1``
    runs in-process; anything larger maps the cases over a
    ``multiprocessing.Pool`` of that size.  Workers rebuild every object
    from the case's names (only plain data crosses process boundaries) and
    each keeps a process-local worker state, so an algorithm x order trace
    compiles at most once per worker instead of once per case.  The
    batched strategy is in-process and ignores ``processes``.

    Execution streams in both strategies: completions are consumed as
    they happen, so progress lines appear live and each finished case is
    journaled immediately; the returned :class:`SweepResult` restores the
    stable input order.  ``journal`` names an append-only JSONL file
    (:class:`repro.sweep.journal.RunJournal`) that makes the campaign
    resumable: ``run(resume=True)`` reloads it, keeps the
    already-measured records verbatim and re-executes only the missing
    cases.
    """

    def __init__(self, cases: Sequence[AnyCase],
                 processes: Optional[int] = None,
                 journal: Union[str, Path, None] = None,
                 strategy: str = "auto",
                 header_meta: Optional[Dict[str, object]] = None) -> None:
        if not cases:
            raise SweepError("a sweep needs at least one case")
        if processes is not None and processes < 1:
            raise SweepError(f"processes must be >= 1, got {processes}")
        check_strategy(strategy)
        self.cases = list(cases)
        self.processes = processes
        self.journal = Path(journal) if journal is not None else None
        self.strategy = strategy
        #: extra metadata merged into a fresh journal's header line —
        #: an orchestrator (e.g. :mod:`repro.distrib`) stamps the lease
        #: identity and global case indices here, so a shard journal is
        #: self-describing when merged later.  Runner-owned keys win.
        self.header_meta = dict(header_meta) if header_meta else None
        #: strategy that actually executed the most recent :meth:`run`
        #: (``None`` before the first run).
        self.strategy_used: Optional[str] = None

    # ------------------------------------------------------------------
    def resolve_strategy(self, cases: Optional[Sequence[AnyCase]] = None
                         ) -> str:
        """The execution strategy a run over ``cases`` will actually use.

        An explicit ``"batched"`` request degrades to ``"percase"`` only
        when numpy is unavailable (the clean fallback the CLI warns
        about); ``"auto"`` additionally respects a requested
        multi-process fan-out and keeps grids with per-case-only
        scenarios on the parallel path.
        """
        if self.strategy == "percase":
            return "percase"
        from importlib.util import find_spec

        numpy_available = find_spec("numpy") is not None
        if self.strategy == "batched":
            return "batched" if numpy_available else "percase"
        if not numpy_available:
            return "percase"
        if self.processes == 1:
            return "batched"
        if self.processes is None:
            pending = self.cases if cases is None else cases
            if all(case.stack_key() is not None for case in pending):
                return "batched"
        return "percase"

    # ------------------------------------------------------------------
    def resolved_processes(self, pending: Optional[int] = None) -> int:
        """The worker count a run will actually use.

        ``processes=None`` resolves to ``os.cpu_count()``; either way the
        count is clamped to the number of cases still to execute
        (``pending``, defaulting to the full grid) — a pool larger than
        its work list is pure startup cost.
        """
        count = len(self.cases) if pending is None else pending
        workers = self.processes if self.processes is not None \
            else (os.cpu_count() or 1)
        return max(1, min(workers, count))

    # ------------------------------------------------------------------
    def _restore_from_journal(self) -> Dict[int, AnyRecord]:
        """Load the journal and rebuild one record per completed case.

        Entries must belong to *this* grid: an index outside the case list
        or a case fingerprint that disagrees with the case at that index
        means the journal was written for a different grid (or a different
        shard of it) and resuming would silently mis-assign measurements —
        that is an error, not a skip.
        """
        restored: Dict[int, AnyRecord] = {}
        for index, entry in RunJournal(self.journal).latest_by_index().items():
            if not 0 <= index < len(self.cases):
                raise SweepError(
                    f"journal {self.journal} records case index {index}, "
                    f"outside this {len(self.cases)}-case grid; was it "
                    "written for a different grid or shard?")
            expected = case_fingerprint(self.cases[index])
            if entry.case != expected:
                raise SweepError(
                    f"journal {self.journal} entry for case {index} does not "
                    "match this grid; resume requires the journal's original "
                    "grid and shard")
            restored[index] = _record_class(
                entry.kind, f"journal {self.journal}").from_dict(entry.record)
        return restored

    def _completions(self, pending: Sequence[Tuple[int, AnyCase]],
                     strategy: str = "percase"
                     ) -> Iterator[Tuple[int, AnyRecord]]:
        """Yield ``(index, record)`` as cases complete.

        The batched strategy streams the grid engine's stacked-group
        completions.  Per-case sequential mode executes in input order
        in-process under a worker state scoped to the run; parallel mode
        streams ``imap_unordered`` completions out of a pool whose workers
        each keep one, so the slowest case never gates reporting of the
        others.
        """
        if not pending:
            return
        if strategy == "batched":
            # Deferred import: the grid engine needs numpy, the runner
            # must not (resolve_strategy already verified availability).
            from ..engine.grid import BatchedGridEngine

            engine = BatchedGridEngine([case for _, case in pending])
            indices = [index for index, _ in pending]
            for position, record in engine.completions():
                yield indices[position], record
            return
        workers = self.resolved_processes(len(pending))
        if workers <= 1:
            previous = _get_worker_state()
            _set_worker_state(_WorkerState())
            try:
                for index, case in pending:
                    yield index, execute_case(case)
            finally:
                _set_worker_state(previous)
            return
        import multiprocessing

        with multiprocessing.get_context().Pool(
                processes=workers, initializer=_init_worker) as pool:
            for index, record in pool.imap_unordered(_execute_indexed,
                                                     list(pending)):
                yield index, record

    def run(self, progress: bool = False, resume: bool = False,
            progress_sink: Optional[Callable[[str], None]] = None,
            case_sink: Optional[Callable[[int, AnyRecord], None]] = None
            ) -> SweepResult:
        """Execute every case and return the collected :class:`SweepResult`.

        With ``progress`` true, a one-line status is emitted per completed
        case *as it completes* — live in both sequential and parallel mode
        — to ``progress_sink`` (default: ``print``).  With ``resume`` true
        (requires a ``journal``), cases already recorded in the journal are
        restored verbatim instead of re-executed.  Records are returned in
        case order regardless of completion order.

        ``case_sink`` is called as ``case_sink(index, record)`` after each
        freshly-executed case is journaled (never for restored cases).  An
        exception it raises aborts the run — this is the cancellation seam
        a distributed worker uses to stop executing a lease that has been
        stolen from it: every case completed so far is already durable in
        the journal, so aborting loses nothing.
        """
        emit = progress_sink if progress_sink is not None else print
        records: List[Optional[AnyRecord]] = [None] * len(self.cases)
        if resume:
            if self.journal is None:
                raise SweepError(
                    "resume needs a journal: SweepRunner(..., journal=path)")
            restored = self._restore_from_journal()
            for index, record in restored.items():
                records[index] = record
            if progress and restored:
                emit(f"[sweep] resumed {len(restored)} of {len(self.cases)} "
                     f"cases from {self.journal}")
        elif self.journal is not None and self.journal.exists() \
                and self.journal.stat().st_size > 0:
            # Appending a fresh campaign onto another run's journal would
            # poison any later resume (stale indices/fingerprints from the
            # old grid survive last-wins merging) — refuse up front.  But
            # only completed cases make a journal worth protecting: a run
            # killed before its first append leaves an entry-less file
            # (header-only, or a torn header fragment) that records no
            # measurement, so a fresh campaign may reclaim it.  A corrupt
            # or foreign file still fails loudly here via load().
            if RunJournal(self.journal).load():
                raise SweepError(
                    f"journal {self.journal} already exists; resume it "
                    "(run(resume=True) / --resume) or remove the file to "
                    "start a fresh campaign")
            # Stale entry-less header: restart fresh.  Atomically, so a
            # crash here leaves either the old header (reclaimed again on
            # the next run) or a clean empty file — never a torn fragment.
            atomic_write_bytes(self.journal, b"")
        pending = [(index, case) for index, case in enumerate(self.cases)
                   if records[index] is None]
        strategy_used = self.resolve_strategy([case for _, case in pending])
        self.strategy_used = strategy_used
        journal = RunJournal(self.journal) if self.journal is not None else None
        if journal is not None:
            journal.open()  # an unwritable path must fail before any work
            if not self.journal.exists() or self.journal.stat().st_size == 0:
                # A fresh journal opens with a run-metadata header: which
                # strategy actually executes (e.g. a batched request that
                # fell back to per-case without numpy) is recorded next to
                # the measurements it produced.
                meta: Dict[str, object] = dict(self.header_meta or {})
                meta.update({
                    "strategy_requested": self.strategy,
                    "strategy_used": strategy_used,
                    "cases": len(self.cases),
                    "pending": len(pending),
                })
                journal.write_header(meta)
        try:
            for index, record in self._completions(pending, strategy_used):
                records[index] = record
                if journal is not None:
                    journal.append(JournalEntry(
                        case_index=index, kind=case_kind(self.cases[index]),
                        case=case_fingerprint(self.cases[index]),
                        record=record.as_dict()))
                if case_sink is not None:
                    case_sink(index, record)
                if progress:
                    emit(f"[sweep] {record.progress_line()}")
        finally:
            if journal is not None:
                journal.close()
        assert all(record is not None for record in records)
        return SweepResult(list(records))
