"""BIST controller: owns the LPtest signal and sequences March tests.

The controller ties together the address generator, the response comparator
and the pre-charge planning.  It refuses to engage the low-power test mode
when the configured address order is not word-line-sequential (the paper's
precondition), falls back to functional mode for algorithms that need it
(Section 4 notes that tests relying on functional-mode power behaviour must
run with LPtest off), and reports pass/fail plus the power measurements of
the run.

Execution is pluggable (the same seam as
:class:`repro.core.session.TestSession` and
:class:`repro.faults.FaultSimulator`): ``backend="reference"`` walks the
behavioural memory cycle by cycle through
:class:`~repro.bist.backend.ReferencePowerBackend`, ``backend="vectorized"``
replays the compiled operation trace on
:class:`repro.engine.power_campaign.VectorizedPowerCampaign` (required for
paper-scale power campaigns), and ``backend="auto"`` picks the vectorized
engine whenever the run qualifies.  :attr:`BistController.last_backend_used`
reports which engine actually measured the most recent run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..circuit.technology import TechnologyParameters, default_technology
from ..engine.dispatch import KERNEL_CHOICES, BackendDispatcher, EngineError
from ..march.algorithm import MarchAlgorithm
from ..march.execution import TraceCache
from ..power.sources import PowerSource
from ..sram.array import BackgroundFunction, solid_background
from ..sram.geometry import ArrayGeometry
from ..sram.memory import OperatingMode, SRAM
from .address_generator import AddressGenerator, BistOrder
from .backend import ReferencePowerBackend
from .comparator import Comparator


class BistError(Exception):
    """Raised on unsupported BIST configurations."""


@dataclass
class BistResult:
    """Outcome of one BIST run."""

    algorithm: str
    low_power_mode: bool
    passed: bool
    failures: int
    cycles: int
    total_energy: float
    average_power: float
    energy_by_source: Dict[PowerSource, float] = field(default_factory=dict)
    failure_log: List = field(default_factory=list)
    #: class name of the pre-charge planner that produced the power figures
    #: (``LowPowerTestPlanner`` or ``FunctionalModePlanner``).
    planner: str = ""
    #: execution engine that measured the run ("reference"/"vectorized").
    backend: str = "reference"
    #: concrete kernel tier of the vectorized campaign ("flat" /
    #: "segmented" / "jit"); "" on the reference engine.
    kernel: str = ""

    def describe(self) -> str:
        """One-line human-readable summary of the run."""
        mode = "low-power test mode" if self.low_power_mode else "functional mode"
        verdict = "PASS" if self.passed else f"FAIL ({self.failures} mismatches)"
        planner = f", {self.planner}" if self.planner else ""
        return (f"{self.algorithm} in {mode}: {verdict}, "
                f"{self.cycles} cycles, {self.average_power * 1e3:.3f} mW average"
                f"{planner} [{self.backend}]")


class BistController:
    """Sequencer for March tests on one memory instance.

    ``backend`` selects the power-measurement engine
    (:data:`repro.bist.backend.POWER_BACKENDS`):

    * ``"reference"`` (default) — the cycle-accurate behavioural memory,
      one access at a time.  Supports every configuration, including
      caller-supplied memories with injected faults.
    * ``"vectorized"`` — the NumPy power-campaign engine
      (:class:`repro.engine.power_campaign.VectorizedPowerCampaign`), which
      replays the compiled operation trace in closed vector form and makes
      paper-scale geometries (the full 512 x 512 array) interactive.
      Raises for runs it cannot replay exactly (custom memories, address
      orders that do not keep the pre-charged traversal neighbour).
    * ``"auto"`` — vectorized when the run qualifies, silently falling
      back to the reference engine otherwise.

    Both engines produce equivalent :class:`BistResult` measurements —
    energy totals and per-source breakdowns, pass/fail and the bounded
    comparator log; the differential test-suite asserts this on the whole
    algorithm library.  ``kernel`` picks the vectorized campaign's kernel
    tier (``None``: the flat tier); backend and kernel are fixed at
    construction.
    """

    def __init__(self, geometry: ArrayGeometry,
                 tech: TechnologyParameters | None = None,
                 order: BistOrder = BistOrder.WORDLINE_SEQUENTIAL,
                 background: Optional[BackgroundFunction] = None,
                 backend: str = "reference",
                 trace_cache: Optional[TraceCache] = None,
                 kernel: Optional[str] = None) -> None:
        self._dispatch = BackendDispatcher(self._make_engine,
                                           error=BistError)
        self.backend = self._dispatch.validate(backend)
        if kernel is not None and kernel not in KERNEL_CHOICES:
            raise BistError(
                f"unknown kernel {kernel!r}; expected one of {KERNEL_CHOICES}")
        #: kernel tier of the vectorized power campaign (``None``: the
        #: flat tier).
        self.kernel = kernel
        self.geometry = geometry
        self.tech = tech or default_technology()
        self.address_generator = AddressGenerator(geometry, order)
        self.background = background if background is not None else solid_background(0)
        self.comparator = Comparator()
        self._reference = ReferencePowerBackend(geometry, tech=self.tech)
        # ``trace_cache`` optionally shares compiled traces across
        # controllers (the sweep orchestrator passes its process-local one).
        self._trace_cache = trace_cache
        # One AddressOrder instance per generator configuration, so the
        # vectorized campaign's trace cache (keyed by order identity) hits
        # across runs and modes while still following a reconfigured
        # address generator.
        self._address_order = None
        self._address_order_key = None

    @property
    def last_backend_used(self) -> Optional[str]:
        """Engine that measured the calling thread's most recent
        :meth:`run` (``None`` before the first run): "reference" or
        "vectorized".  Thread-local so concurrent runs through a shared
        controller never mis-attribute provenance.
        """
        return self._dispatch.last_backend_used

    @last_backend_used.setter
    def last_backend_used(self, backend: Optional[str]) -> None:
        self._dispatch.note_backend_used(backend)

    def _current_order(self):
        """The generator's AddressOrder, cached per generator configuration."""
        key = (id(self.address_generator), self.address_generator.order)
        if self._address_order is None or self._address_order_key != key:
            self._address_order = self.address_generator.as_address_order()
            self._address_order_key = key
        return self._address_order

    def address_order(self):
        """The :class:`~repro.march.ordering.AddressOrder` of the current
        generator configuration (one shared instance per configuration, so
        trace caches keyed by order identity hit across runs)."""
        return self._current_order()

    def measure_batch(self, requests, collect_errors: bool = True):
        """Measure several ``(algorithm, low_power)`` runs in one stacked pass.

        The grid-batched campaign seam: every request replays its compiled
        trace through one trip of the vectorized power campaign's flat
        kernel (:meth:`repro.engine.power_campaign.VectorizedPowerCampaign
        .measure_batch`), sharing this controller's background, comparator
        log limit and trace cache — each returned
        :class:`BistResult` is bit-identical to what ``run(algorithm,
        low_power=...)`` on a ``backend="vectorized"`` controller measures
        for that request alone.  With ``collect_errors=True`` (the
        default) a request the bulk replay cannot represent yields its
        :class:`~repro.engine.EngineError` in its result slot, so the
        caller can reroute just that run to the reference path.  Unlike
        :meth:`run`, the controller's comparator and
        :attr:`last_backend_used` are left untouched.

        This is a vectorized-campaign API: a ``backend="reference"``
        controller has no bulk kernel to stack and raises
        :class:`BistError` (measure reference runs one at a time through
        :meth:`run`); ``"auto"`` and ``"vectorized"`` behave identically
        here, with per-unit fallback left to the caller via
        ``collect_errors``.
        """
        if self.backend == "reference":
            raise BistError(
                "measure_batch stacks runs on the vectorized power "
                "campaign; this controller is configured for the "
                "reference backend — use run() per algorithm instead")
        order = self._current_order()
        for algorithm, low_power in requests:
            algorithm.validate()
            if low_power and not self.address_generator.supports_low_power_mode():
                raise BistError(
                    "the low-power test mode requires the word-line-"
                    "sequential address order; the generator is configured "
                    f"for {self.address_generator.order}")
        return self._dispatch.engine.measure_batch(
            requests, order, background=self.background,
            log_limit=self.comparator.log_limit,
            collect_errors=collect_errors)

    # ------------------------------------------------------------------
    def build_memory(self, low_power: bool) -> SRAM:
        """A fresh fault-free memory in the requested mode (reference substrate)."""
        return self._reference.build_memory(low_power, self.background)

    def _make_engine(self):
        """Build the vectorized power campaign (imported lazily: numpy)."""
        from ..engine import VectorizedPowerCampaign  # deferred: numpy optional

        return VectorizedPowerCampaign(
            self.geometry, tech=self.tech, trace_cache=self._trace_cache,
            kernel=self.kernel)

    def warm(self, algorithm: MarchAlgorithm) -> None:
        """Pre-compile ``algorithm``'s operation trace (no measurement).

        On the vectorized backend this populates the campaign's trace
        cache — including the compiled segment structure, built from the
        order's row runs (closed-form for the word-line-sequential order)
        — and warms the resolved kernel
        tier (loading numba's on-disk cache for ``kernel="jit"``), so the
        first :meth:`run` measures instead of compiling.  Callers that
        want the first measurement warm call this up front; the sweep
        orchestrator does not — its workers compile each trace on first
        use.  A no-op on the reference backend (which walks fresh each
        run) and when the engine is unavailable.
        """
        algorithm.validate()
        if self.backend == "reference":
            return
        try:
            self._dispatch.engine.warm(algorithm, self._current_order())
        except (EngineError, ImportError):  # warming is best-effort
            pass

    def run(self, algorithm: MarchAlgorithm, low_power: bool = True,
            memory: Optional[SRAM] = None) -> BistResult:
        """Run ``algorithm`` once and return the pass/fail + power result.

        The controller's backend measures the run (see the class
        docstring).  A pre-built ``memory`` (e.g. one with injected
        faults) can be supplied; it always runs on the reference engine,
        which a ``"vectorized"`` controller refuses.
        """
        if low_power and not self.address_generator.supports_low_power_mode():
            raise BistError(
                "the low-power test mode requires the word-line-sequential "
                f"address order; the generator is configured for {self.address_generator.order}")
        algorithm.validate()
        order = self._current_order()

        def measure_vectorized(campaign) -> BistResult:
            result = campaign.measure(
                algorithm, order, low_power=low_power,
                background=self.background,
                log_limit=self.comparator.log_limit)
            # Keep the controller's public comparator coherent with the
            # most recent run, whichever engine measured it.
            self.comparator.reset()
            self.comparator.failures = result.failures
            self.comparator.log = list(result.failure_log)
            self.last_backend_used = result.backend
            return result

        def measure_reference() -> BistResult:
            result = self._reference.measure(
                algorithm, order, low_power=low_power,
                background=self.background,
                memory=memory, comparator=self.comparator)
            self.last_backend_used = result.backend
            return result

        if memory is not None:
            if self.backend == "vectorized":
                raise BistError(
                    "the vectorized backend cannot run with a custom memory; "
                    "use backend='reference' (or 'auto')")
            return measure_reference()
        # "auto" falls back on EngineError (unsupported run, numpy
        # unavailable); a construction failure is never cached, so any
        # campaign already built stays valid — no invalidation.
        return self._dispatch.call(self.backend,
                                   vectorized=measure_vectorized,
                                   reference=measure_reference)

    def run_suite(self, algorithms, low_power: bool = True
                  ) -> List[BistResult]:
        """Run several algorithms back to back (fresh memory each time)."""
        return [self.run(algorithm, low_power=low_power)
                for algorithm in algorithms]
