"""NumPy power-campaign backend for the BIST layer (measured Table 1 at scale).

The measured side of the paper's Table 1 — the Power Reduction Ratio of the
low-power test mode against functional mode — was the last workload still
walking the behavioural :class:`repro.sram.SRAM` one access at a time: the
BIST controller needed minutes per algorithm on the real 512 x 512 array
while the analytical :mod:`repro.core.prr` path answers in microseconds.

:class:`VectorizedPowerCampaign` closes that gap.  It replays a compiled
:class:`~repro.march.execution.OperationTrace` (memoised in a shared
:class:`~repro.march.execution.TraceCache`, the same compiled-run currency
the fault-campaign backends use) and computes, in closed vector form:

* the per-cycle pre-charge activity and all five Section 5 power sources,
  for both :class:`~repro.core.lowpower.FunctionalModePlanner` and
  :class:`~repro.core.lowpower.LowPowerTestPlanner` semantics — including
  the Figure 7 end-of-row restoration cycle — through the aggregate core of
  :class:`~repro.engine.vectorized.VectorizedEngine`;
* the response-comparator outcomes (pass/fail, mismatch count and the
  bounded failure log) from the trace's element backgrounds, instead of
  reading cells one by one.

Results are equivalent to the behavioural memory in energy totals (up to
floating-point summation order) and identical in pass/fail verdicts; the
differential suite (``tests/test_prr_differential.py``) asserts both across
the whole algorithm library.  Configurations the bulk replay cannot
represent — injected-fault memories, address orders that do not keep the
pre-charged traversal neighbour — raise
:class:`~repro.engine.vectorized.UnsupportedConfiguration` so the BIST
controller's ``backend="auto"`` can fall back to the reference backend.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from ..bist.backend import planner_name
from ..bist.comparator import ComparatorLog
from ..circuit.technology import TechnologyParameters, default_technology
from ..march.algorithm import MarchAlgorithm
from ..march.element import AddressingDirection
from ..march.execution import OperationTrace, TraceCache
from ..march.ordering import AddressOrder
from ..power.accounting import EnergyLedger
from ..sram.array import BackgroundFunction, solid_background
from ..sram.geometry import ArrayGeometry
from ..sram.modes import OperatingMode
from .vectorized import VectorizedEngine

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..bist.controller import BistResult


class VectorizedPowerCampaign:
    """Batch BIST power measurement over a shared compiled operation trace.

    Implements the :class:`repro.bist.backend.PowerBackend` protocol.  One
    campaign instance owns a :class:`~repro.march.execution.TraceCache`
    (optionally shared with a fault simulator) and one
    :class:`~repro.engine.vectorized.VectorizedEngine` per address order,
    so a full library sweep compiles each (algorithm, order, direction)
    run once and replays it for both operating modes.
    """

    name = "vectorized"

    def __init__(self, geometry: ArrayGeometry,
                 tech: TechnologyParameters | None = None,
                 any_direction: AddressingDirection = AddressingDirection.UP,
                 trace_cache: Optional[TraceCache] = None) -> None:
        self.geometry = geometry
        self.tech = tech or default_technology()
        self.any_direction = any_direction
        #: compiled traces shared across runs (and optionally across tools).
        self.traces = trace_cache if trace_cache is not None else TraceCache()
        self._engines: Dict[int, Tuple[AddressOrder, VectorizedEngine]] = {}
        # Keyed by id() — or None for the default background — with the
        # function kept in the value (like _engines) so a recycled id
        # cannot alias a different background.
        self._initial_values: Dict[Optional[int],
                                   Tuple[BackgroundFunction, "np.ndarray"]] = {}

    # ------------------------------------------------------------------
    def _engine_for(self, order: AddressOrder) -> VectorizedEngine:
        """The cached aggregate engine for ``order`` (stress tracking off)."""
        entry = self._engines.get(id(order))
        if entry is None:
            engine = VectorizedEngine(self.geometry, tech=self.tech, order=order,
                                      any_direction=self.any_direction,
                                      detailed=False, trace_cache=self.traces)
            self._engines[id(order)] = (order, engine)
            return engine
        return entry[1]

    def trace_for(self, algorithm: MarchAlgorithm,
                  order: AddressOrder) -> OperationTrace:
        """The cached compiled trace of ``algorithm`` over ``order``."""
        return self.traces.get(algorithm, order, self.any_direction)

    # ------------------------------------------------------------------
    # Public API (the PowerBackend protocol)
    # ------------------------------------------------------------------
    def measure(self, algorithm: MarchAlgorithm, order: AddressOrder,
                low_power: bool,
                background: Optional[BackgroundFunction] = None,
                log_limit: int = 64) -> "BistResult":
        """Measure one BIST run in closed vector form.

        Returns the same :class:`~repro.bist.controller.BistResult` the
        reference backend produces: energy totals per Section 5 source from
        the aggregate engine, plus the comparator verdict derived from the
        trace (see :meth:`comparator_outcomes`).  Raises
        :class:`~repro.engine.vectorized.UnsupportedConfiguration` when the
        run cannot be replayed in bulk.
        """
        trace = self.trace_for(algorithm, order)
        engine = self._engine_for(order)
        mode = (OperatingMode.LOW_POWER_TEST if low_power
                else OperatingMode.FUNCTIONAL)
        by_source, _, cycles, _ = engine.run_aggregates(
            algorithm, mode, trace=trace)
        return self._assemble_result(
            engine, algorithm, trace, low_power, (by_source, cycles),
            background, log_limit)

    def measure_batch(self, requests, order: AddressOrder,
                      background: Optional[BackgroundFunction] = None,
                      log_limit: int = 64, collect_errors: bool = False):
        """Measure a stack of BIST runs in one flat kernel pass.

        ``requests`` is a sequence of ``(algorithm, low_power)`` pairs —
        e.g. both operating modes of every algorithm of a sweep axis.  All
        units share one compiled-trace cache and one stacked trip through
        :meth:`~repro.engine.vectorized.VectorizedEngine.run_aggregates_batch`,
        and each unit's :class:`~repro.bist.controller.BistResult` is
        bit-identical to what :meth:`measure` returns for it alone.  With
        ``collect_errors=True`` an unsupported unit yields its
        :class:`~repro.engine.vectorized.UnsupportedConfiguration` in its
        result slot instead of failing the whole batch.
        """
        engine = self._engine_for(order)
        units = []
        for algorithm, low_power in requests:
            mode = (OperatingMode.LOW_POWER_TEST if low_power
                    else OperatingMode.FUNCTIONAL)
            units.append((algorithm, mode, self.trace_for(algorithm, order)))
        outcomes = engine.run_aggregates_batch(units,
                                               collect_errors=collect_errors)
        results = []
        for (algorithm, low_power), (_, _, trace), outcome in zip(
                requests, units, outcomes):
            if isinstance(outcome, Exception):
                results.append(outcome)
                continue
            by_source, _, cycles, _ = outcome
            results.append(self._assemble_result(
                engine, algorithm, trace, low_power, (by_source, cycles),
                background, log_limit))
        return results

    def _assemble_result(self, engine: VectorizedEngine,
                         algorithm: MarchAlgorithm, trace: OperationTrace,
                         low_power: bool, aggregates,
                         background: Optional[BackgroundFunction],
                         log_limit: int) -> "BistResult":
        """Build the :class:`BistResult` of one measured unit.

        Shared verbatim by :meth:`measure` and :meth:`measure_batch`, so
        the two paths cannot drift in how they derive comparator verdicts
        or energy ledgers from the raw aggregates.
        """
        from ..bist.controller import BistResult  # deferred: avoids an import cycle

        by_source, cycles = aggregates
        mode = (OperatingMode.LOW_POWER_TEST if low_power
                else OperatingMode.FUNCTIONAL)
        failures, failure_log = self.comparator_outcomes(
            trace, background, log_limit=log_limit)
        ledger = EnergyLedger.from_aggregates(
            engine.clock.period, by_source, cycles=cycles,
            label=f"BIST [{mode.value}] (vectorized)")
        return BistResult.from_ledger(
            ledger,
            algorithm=algorithm.name,
            low_power_mode=low_power,
            passed=failures == 0,
            failures=failures,
            cycles=cycles,
            failure_log=failure_log,
            planner=planner_name(low_power),
            backend=self.name,
            kernel="flat",
        )

    # ------------------------------------------------------------------
    # Comparator outcomes in closed form
    # ------------------------------------------------------------------
    def comparator_outcomes(self, trace: OperationTrace,
                            background: Optional[BackgroundFunction] = None,
                            log_limit: int = 64
                            ) -> Tuple[int, List[ComparatorLog]]:
        """Mismatch count and bounded failure log of a fault-free replay.

        March elements apply the same operation sequence to every address,
        so on a fault-free memory a read's observed value is uniform across
        the element — the last value written earlier in the element, else
        the element's background
        (:meth:`~repro.march.execution.OperationTrace.element_backgrounds`)
        — except for reads that precede the algorithm's first write, which
        observe the per-cell initial ``background``.  Mismatches therefore
        reduce to a handful of per-element masks; the failure count is a
        sum of mask populations and the log keeps the first ``log_limit``
        failing accesses in exact global cycle order, matching the
        reference comparator entry for entry.  Coordinates are fetched
        (:meth:`~repro.march.execution.OperationTrace.element_walks`) only
        for an element that logs a mismatch or reads the initial
        background, so a passing run never expands the address order.
        """
        failures = 0
        entries: List[ComparatorLog] = []
        for element, element_bg in zip(trace.elements,
                                        trace.element_backgrounds()):
            n_ops = element.operation_count
            n_addr = len(element.coordinates)
            pending: Optional[int] = None
            #: (op_index, expected, observed uniform value or per-address
            #: array, mismatch mask or None for an all-addresses mismatch).
            specs = []
            for k, operation in enumerate(element.operations):
                if operation.is_write:
                    pending = operation.value
                    continue
                expected = operation.value
                if pending is not None:
                    if pending != expected:
                        specs.append((k, expected, pending, None))
                elif element_bg is not None:
                    if element_bg != expected:
                        specs.append((k, expected, element_bg, None))
                else:
                    _, rows, words = trace.element_walks()[element.index]
                    observed = self._initial_word_values(background)[rows, words]
                    mask = observed != expected
                    if np.any(mask):
                        specs.append((k, expected, observed, mask))
            if not specs:
                continue
            for _, _, _, mask in specs:
                failures += n_addr if mask is None else int(np.count_nonzero(mask))
            need = log_limit - len(entries)
            if need <= 0:
                continue
            # The first `need` failures of this element are among the first
            # `need` of each spec (address indices are increasing per spec),
            # so collecting that many per spec and merging is exact.
            candidates = []
            for k, expected, observed, mask in specs:
                if mask is None:
                    indices = range(min(need, n_addr))
                    observed_at = [observed] * min(need, n_addr)
                else:
                    chosen = np.flatnonzero(mask)[:need]
                    indices = chosen.tolist()
                    observed_at = observed[chosen].tolist()
                candidates.extend(
                    (index, k, expected, int(value))
                    for index, value in zip(indices, observed_at))
            candidates.sort(key=lambda entry: (entry[0], entry[1]))
            _, rows, words = trace.element_walks()[element.index]
            entries.extend(
                ComparatorLog(cycle=element.base_step + index * n_ops + k,
                              row=int(rows[index]), word=int(words[index]),
                              expected=expected, observed=value)
                for index, k, expected, value in candidates[:need])
        return failures, entries

    def _initial_word_values(self, background: Optional[BackgroundFunction]
                             ) -> "np.ndarray":
        """Initial word value per (row, word) under ``background``.

        Only needed when a read precedes the algorithm's first write (no
        library algorithm does this), so the per-cell Python evaluation of
        the background function is lazy and memoised per function identity.
        """
        key = None if background is None else id(background)
        if background is None:
            background = solid_background(0)
        cached = self._initial_values.get(key)
        if cached is not None:
            return cached[1]
        geo = self.geometry
        values = np.empty((geo.rows, geo.words_per_row), dtype=np.int64)
        for row in range(geo.rows):
            for word in range(geo.words_per_row):
                value = 0
                for position, column in enumerate(geo.columns_of_word(word)):
                    value |= (background(row, column) & 1) << position
                values[row, word] = value
        self._initial_values[key] = (background, values)
        return values
