"""Grid-batched campaign evaluation: the one way sweep cases execute.

Everything on one geometry can share a single trip through the engine:
Table 1 is *(algorithm x planner)* on one array.  :class:`BatchedGridEngine`
groups a grid's cases by geometry axes (:func:`stack_groups`), compiles
every (algorithm, order, direction) trace once into a shared
:class:`~repro.march.execution.TraceCache`, and hands each group — all
algorithms, orders and both planners — to the stacked flat kernel
(:meth:`repro.engine.vectorized.VectorizedEngine.run_aggregates_batch` /
:meth:`repro.bist.controller.BistController.measure_batch`) as **one**
batch.  Records are assembled by the helpers the per-case executors use
(:func:`repro.sweep.runner.power_record` / ``prr_record``) and the
kernel's per-slot reductions are stacking-invariant, so every record is
bit-identical to the case's own ``execute(state)`` (``elapsed_s`` aside).
Cases the stacked pass cannot represent — the reference backend, fault
coverage, runs the exact bulk replay rejects — run their own executor on
the same worker state, with ``backend="auto"`` fallback intact.

The sweep runner runs one engine in-process, or one per stack group on
each pool worker; a :mod:`repro.distrib` worker runs a runner per lease;
the campaign service runs one engine per request wave.
"""

from __future__ import annotations

import time
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..march.element import AddressingDirection
from ..march.library import get_algorithm
from ..sram.modes import OperatingMode
from .dispatch import EngineError


def stack_groups(cases: Sequence) -> List[Tuple[Optional[Tuple], List[int]]]:
    """``(key, positions)`` per pass of ``cases``, in first-case order.

    Cases with one ``(kind, stack_key())`` share a stacked pass under that
    key; a case whose ``stack_key()`` is ``None`` is a group of its own
    under key ``None``, run per case.  The sweep runner's pool maps these
    groups and :meth:`BatchedGridEngine.completions` runs them.
    """
    groups: Dict[object, Tuple[Optional[Tuple], List[int]]] = {}
    for position, case in enumerate(cases):
        key = case.stack_key()
        if key is not None:
            key = (case.kind, key)
        groups.setdefault(position if key is None else key,
                          (key, []))[1].append(position)
    return list(groups.values())


class BatchedGridEngine:
    """Evaluate a sweep grid with per-geometry stacked kernel passes.

    ``cases`` is any mix of the sweep case kinds
    (:data:`repro.sweep.runner.CASE_TYPES`).
    :meth:`completions` yields ``(position, record)`` pairs — ``position``
    indexes ``cases`` — as each scenario's record materialises, which is
    what the runner's streaming journal/progress loop consumes.
    """

    def __init__(self, cases, worker_state=None) -> None:
        from ..sweep import runner as sweep_runner  # circular at import

        self._runner = sweep_runner
        self.cases = list(cases)
        #: Optional :class:`repro.sweep.runner._WorkerState` to evaluate
        #: under: a pool worker process or a service thread passes its
        #: persistent one so compiled traces stay warm across batches; by
        #: default each :meth:`completions` call builds a fresh one.
        self._worker_state = worker_state

    # ------------------------------------------------------------------
    def completions(self) -> Iterator[Tuple[int, object]]:
        """Yield every case's ``(position, record)``, stacked where possible.

        The worker state is installed for the duration, so the per-case
        executions share the batch's memoised orders, facades and
        compiled traces.
        """
        runner = self._runner
        state = self._worker_state if self._worker_state is not None \
            else runner._WorkerState()
        previous = runner._get_worker_state()
        runner._set_worker_state(state)
        try:
            stacked_passes = {"power": self._run_power_group,
                              "prr": self._run_prr_group}
            # Records emit in input order; each stacked group evaluates
            # lazily, when its first member is reached.
            evaluators = {}
            for key, positions in stack_groups(self.cases):
                if key is not None:
                    members = [(position, self.cases[position])
                               for position in positions]
                    evaluators.update(dict.fromkeys(
                        positions, (stacked_passes[key[0]], members)))
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
        from .vectorized import VectorizedEngine  # deferred: loads numpy

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
