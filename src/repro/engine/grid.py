"""Grid-batched campaign evaluation: one stacked kernel pass per sweep axis.

The per-case sweep path rebuilds its measurement one scenario at a time:
each case compiles (or fetches) its trace, runs the flat kernel for its two
operating modes, and assembles its record.  Paper-style grids are far more
structured than that — Table 1 is *(algorithm x planner)* on one geometry,
the scaling studies are *(algorithm x order x size)* — and everything on
one geometry can share a single trip through the engine.

:class:`BatchedGridEngine` exploits exactly that.  It groups a grid's
cases by geometry axes, compiles every (algorithm, order, direction) trace
once into a shared :class:`~repro.march.execution.TraceCache`, and hands
each group — all algorithms, all orders, both planners — to the stacked
flat kernel (:meth:`repro.engine.vectorized.VectorizedEngine
.run_aggregates_batch` / :meth:`repro.bist.controller.BistController
.measure_batch`) as **one** batch.  Records are assembled through the very
same helpers the per-case work units use
(:func:`repro.sweep.runner.power_record` / :func:`~repro.sweep.runner
.prr_record`), and the kernel's per-slot reductions are stacking-invariant,
so every record is bit-identical to what ``strategy="percase"`` produces
(``elapsed_s``, a wall-clock observation, aside).

Cases the stacked pass cannot represent — reference-backend scenarios,
fault-coverage campaigns, runs the exact bulk replay rejects — fall back to
the ordinary per-case work unit *in the same process*, still sharing the
group's trace cache, with per-case semantics (including ``backend="auto"``
mode-by-mode fallback) preserved verbatim.

This engine is the ``strategy="batched"`` seam of
:class:`repro.sweep.runner.SweepRunner`; journal, resume and shard
semantics live entirely in the runner and are unchanged by the strategy.
"""

from __future__ import annotations

import time
from typing import Dict, Iterator, List, Tuple

from ..march.element import AddressingDirection
from ..march.library import get_algorithm
from ..sram.modes import OperatingMode
from .dispatch import EngineError

try:  # numpy is required for the stacked kernel only
    import numpy as np
except ImportError:  # pragma: no cover - the container ships numpy
    np = None  # type: ignore[assignment]


def _require_numpy() -> None:
    if np is None:  # pragma: no cover - exercised only without numpy
        raise EngineError(
            "the batched grid engine requires numpy; use the per-case "
            "sweep strategy (strategy='percase') instead")


class BatchedGridEngine:
    """Evaluate a sweep grid with per-geometry stacked kernel passes.

    ``cases`` is any mix of the sweep case kinds
    (:data:`repro.sweep.runner.CASE_TYPES`).
    :meth:`completions` yields ``(position, record)`` pairs — ``position``
    indexes ``cases`` — as each scenario's record materialises, which is
    what the runner's streaming journal/progress loop consumes.
    """

    def __init__(self, cases, worker_state=None) -> None:
        _require_numpy()
        # Deferred: the runner imports this module lazily (numpy optional),
        # so importing it back here at module level would be circular.
        from ..sweep import runner as sweep_runner

        self._runner = sweep_runner
        self.cases = list(cases)
        #: Optional :class:`repro.sweep.runner._WorkerState` to
        #: evaluate under.  Long-lived callers (the campaign service runs
        #: one batch per request wave on a pool thread) pass their thread's
        #: persistent state so compiled traces and facades stay warm across
        #: batches; by default each :meth:`completions` call builds a fresh
        #: one scoped to the run.
        self._worker_state = worker_state

    # ------------------------------------------------------------------
    def completions(self) -> Iterator[Tuple[int, object]]:
        """Yield every case's ``(position, record)``, stacked where possible.

        A process-local worker state (the same construct each per-case
        pool worker keeps) is installed for the duration, so the fallback
        per-case executions share the batch's memoised orders, facades
        and compiled traces.
        """
        runner = self._runner
        state = self._worker_state if self._worker_state is not None \
            else runner._WorkerState()
        previous = runner._get_worker_state()
        runner._set_worker_state(state)
        try:
            stacked_passes = {"power": self._run_power_group,
                              "prr": self._run_prr_group}
            # Records emit in input order (matching the per-case
            # sequential journal order); each stacked group evaluates
            # lazily, when its first member is reached.
            evaluators = {}
            for (kind, _), members in self._plan().items():
                for position, _ in members:
                    evaluators[position] = (stacked_passes[kind], members)
            ready = {}
            for position, case in enumerate(self.cases):
                if position not in evaluators:
                    yield position, runner.execute_case(case)
                    continue
                if position not in ready:
                    stacked_pass, members = evaluators[position]
                    ready.update(stacked_pass(state, members))
                yield position, ready.pop(position)
        finally:
            runner._set_worker_state(previous)

    # ------------------------------------------------------------------
    def _plan(self) -> Dict[Tuple, List[Tuple[int, object]]]:
        """Group the stackable cases by ``(kind, stack_key)``.

        Each case says whether and under which key it stacks
        (:meth:`repro.sweep.runner.SweepCase.stack_key`); cases whose key
        is ``None`` are left out and run per case.
        """
        groups: Dict[Tuple, List[Tuple[int, object]]] = {}
        for position, case in enumerate(self.cases):
            key = case.stack_key()
            if key is not None:
                groups.setdefault((case.kind, key), []).append(
                    (position, case))
        return groups

    # ------------------------------------------------------------------
    def _run_prr_group(self, state, members):
        """One stacked pass over a BIST power-campaign group (both planners)."""
        runner = self._runner
        controller = state.controller_for(members[0][1])
        requests = []
        for _, case in members:
            algorithm = get_algorithm(case.algorithm)
            requests.append((algorithm, False))
            requests.append((algorithm, True))

        started = time.perf_counter()
        try:
            outcomes = controller.measure_batch(requests, collect_errors=True)
        except EngineError:
            # The vectorized campaign is unavailable as a whole (e.g. a
            # construction failure): per-case dispatch owns the fallback
            # and error-surfacing semantics.
            outcomes = None
        elapsed = time.perf_counter() - started

        if outcomes is None:
            for position, case in members:
                yield position, runner.execute_case(case)
            return
        share = elapsed / len(members)
        for index, (position, case) in enumerate(members):
            functional = outcomes[2 * index]
            low_power = outcomes[2 * index + 1]
            if isinstance(functional, Exception) or \
                    isinstance(low_power, Exception):
                # Exact per-case semantics for the unsupported run:
                # backend="auto" falls back to the reference engine,
                # backend="vectorized" surfaces the engine error.
                yield position, runner.execute_case(case)
            else:
                yield position, runner.prr_record(case, functional,
                                                  low_power, share)

    def _run_power_group(self, state, members):
        """One stacked pass over a session power group (all orders, both
        planners)."""
        runner = self._runner
        from .vectorized import VectorizedEngine  # deferred: numpy optional

        first_case = members[0][1]
        geometry = first_case.geometry()
        direction = AddressingDirection(first_case.any_direction)
        engine = VectorizedEngine(geometry, any_direction=direction,
                                  detailed=False, trace_cache=state.traces)
        requests = []
        orders = []
        for _, case in members:
            algorithm = get_algorithm(case.algorithm)
            order = state.order_for(case.order, geometry)
            trace = state.traces.get(algorithm, order, direction)
            orders.append(order)
            requests.append((algorithm, OperatingMode.FUNCTIONAL, trace))
            requests.append((algorithm, OperatingMode.LOW_POWER_TEST, trace))

        started = time.perf_counter()
        outcomes = engine.run_aggregates_batch(requests, collect_errors=True)
        elapsed = time.perf_counter() - started

        share = elapsed / len(members)
        for index, (position, case) in enumerate(members):
            pair = outcomes[2 * index:2 * index + 2]
            if any(isinstance(outcome, Exception) for outcome in pair):
                yield position, runner.execute_case(case)
                continue
            algorithm = get_algorithm(case.algorithm)
            results = []
            for mode, (by_source, counters, cycles, _) in zip(
                    (OperatingMode.FUNCTIONAL, OperatingMode.LOW_POWER_TEST),
                    pair):
                results.append(engine.result_from_aggregates(
                    algorithm, mode, by_source, counters, cycles,
                    order_name=orders[index].name))
            yield position, runner.power_record(
                case, results[0], results[1], "vectorized", share)
