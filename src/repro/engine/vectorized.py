"""NumPy-vectorized execution backend for March test power measurement.

The reference path (:class:`repro.core.session.TestSession` driving
:class:`repro.sram.SRAM`) executes a March test one access cycle at a time
through Python objects.  That is the right tool for fault simulation and for
inspecting individual events, but it caps measured experiments at toy
geometries: the paper's full 512 x 512 array needs millions of cycles per
mode and minutes of wall clock per algorithm.

This module re-derives the *same measurements* as whole-run reductions over
the compiled segment structure of a trace
(:meth:`repro.march.execution.OperationTrace.segment_walk`):

* **functional mode** collapses to closed-form per-element sums — every
  access spends constant operation/decode/RES/leakage energy, and the only
  sequence-dependent quantity (word-line recharges at row transitions) is
  read from the walk's segment counts;
* **low-power test mode** is evaluated per distinct *row segment* shape (a
  maximal run of accesses on one word line), weighted by its multiplicity.
  Within a segment the paper's pre-charge policy is strictly structured —
  the selected column and its traversal neighbour are held, every other
  column floats and decays exponentially, and the one functional-mode
  restoration cycle closes the row — so the decayed-recharge and
  restoration energies are geometric series with closed forms, and only
  the rare chains of segments that skip a restoration are walked.

Equivalence with the reference backend is exact up to floating-point
summation order (the same per-event formulas evaluated in bulk, see
``tests/test_engine_equivalence.py`` and the generated differential
``tests/test_power_generated.py``); configurations the bulk replay cannot
represent — injected faults, custom planners, address orders whose next
access is not the traversal neighbour — raise
:class:`UnsupportedConfiguration` so callers can fall back to the reference
backend instead of silently measuring something else.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from ..circuit.technology import TechnologyParameters, default_technology
from ..march.algorithm import MarchAlgorithm
from ..march.element import AddressingDirection
from ..march.execution import OperationTrace, SegmentWalk, TraceCache
from ..march.ordering import AddressOrder, RowMajorOrder
from ..power.accounting import EnergyLedger
from ..power.model import PowerModel
from ..power.sources import PowerSource
from ..sram.geometry import ArrayGeometry
from ..sram.modes import CELL_RES_RATIO, DETAILED_CELL_LIMIT, OperatingMode
from ..sram.timing import ClockCycle

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..core.session import ModeComparison, TestRunResult

from .dispatch import EngineError


class UnsupportedConfiguration(EngineError):
    """The exact bulk replay cannot represent this run.

    Raised when the run depends on state the vectorized formulas do not
    model (an address order whose next access is not the pre-charged
    traversal neighbour, a selected column whose bit lines are floating at
    selection time, ...).  The reference backend handles every such case;
    ``backend="auto"`` falls back to it automatically.
    """


#: Segment shapes evaluated per flat-kernel tile; bounds the size of the
#: per-shape temporaries.  A compressed walk has few shapes (column-major
#: at 4096 x 4096 holds ~4096 per element), so one tile usually covers a
#: whole run.  Tiles are unit-local — chunk boundaries depend only on the
#: run itself — so results are bit-identical whether a run is evaluated
#: alone or stacked into a grid batch.
DEFAULT_SEGMENT_CHUNK = 1 << 19


def _reduce_tile_arrays(slots, m, first, last, carry, chained, mult,
                        delta_seg, x, n_words, bits, coeff, ratio,
                        total_slots):
    """One tile of per-shape slot reductions as an array program.

    The decay-sum and bincount core of the flat kernel, factored out of
    :meth:`VectorizedEngine._low_power_flat` as a pure function of the
    segment-shape arrays: each shape is evaluated once and weighted by its
    multiplicity ``mult``.  Returns the five per-slot accumulator tiles
    ``(wl_count, enabled_sum, prc, recharge, restore)`` — integer counts
    exact, energies subject only to summation order.
    """
    weight = mult.astype(np.float64)
    out_word = last + delta_seg
    valid_out = ((out_word >= 0) & (out_word < n_words)).astype(np.int64)
    first_neighbour = first + delta_seg
    valid_first = ((first_neighbour >= 0)
                   & (first_neighbour < n_words)).astype(np.int64)
    enabled = (m - 1) + valid_out

    wl_count = np.bincount(slots, weights=np.where(carry, 0.0, weight),
                           minlength=total_slots).astype(np.int64)
    enabled_sum = np.bincount(slots, weights=enabled * weight,
                              minlength=total_slots).astype(np.int64)

    prc = np.zeros(total_slots, dtype=np.int64)
    recharge = np.zeros(total_slots, dtype=np.float64)
    restore = np.zeros(total_slots, dtype=np.float64)
    # State-dependent closed forms apply to chain-free segments only
    # (they start from the all-attached state and restore).
    free = ~chained
    if bool(np.any(free)):
        slots_f = slots[free]
        m_f = m[free]
        x_f = x[free]
        weight_f = weight[free]
        n_newly = n_words - 1 - valid_first[free]
        prc = np.bincount(
            slots_f, weights=(n_newly + (m_f - 1)) * bits * weight_f,
            minlength=total_slots).astype(np.int64)

        # Within-segment neighbour recharges: the neighbour of visit j
        # (j >= 1) floated at the segment's first cycle, so the decay
        # sum over j = 1..J is a geometric series in q = exp(-ops*T/tau).
        decay_unit = -np.expm1(-x_f)          # 1 - q, per segment
        series_j = np.where(m_f >= 2, m_f - 2 + valid_out[free], 0)
        series = (series_j
                  - np.exp(-x_f) * -np.expm1(-series_j * x_f) / decay_unit)
        recharge = np.bincount(slots_f, weights=coeff * series * weight_f,
                               minlength=total_slots)

        # End-of-row restoration: visited words refloated one visit
        # after their own selection (elapsed t*ops - 1 for t=1..m-1)
        # plus the never-visited words floating since the first cycle
        # (elapsed m*ops - 1).  ``ratio - t*x`` is -elapsed*T/tau, so a
        # zero elapsed time restores exactly nothing, as in the reference.
        visited = ((m_f - 1)
                   - np.exp(ratio - x_f)
                   * -np.expm1(-(m_f - 1) * x_f) / decay_unit)
        untouched = ((n_words - m_f - valid_out[free])
                     * -np.expm1(ratio - m_f * x_f))
        restore = np.bincount(slots_f,
                              weights=coeff * (visited + untouched) * weight_f,
                              minlength=total_slots)
    return wl_count, enabled_sum, prc, recharge, restore


@dataclass(frozen=True)
class _EnergyConstants:
    """Per-event energies shared by every access (mirrors the scalar models)."""

    row_decode: float          # RowDecoder internal switching per access
    col_decode: float          # ColumnDecoder switching per access
    wordline: float            # charging the selected word line (on row change)
    read_col: float            # sense + read-swing restoration, per column
    write_col: float           # drivers + full-swing restoration, per column
    res_per_column: float      # P_A: one pre-charged unselected column, one cycle
    restore_coeff: float       # C_bl * VDD^2 * (1 + overhead), per column
    control_element: float     # one added control element switching
    lptest_line: float         # one LPtest mode-selection line transition
    leakage: float             # whole-array leakage per cycle
    bank_select: float         # one bank-select line transition (banked arrays)


@dataclass
class CellStressTotals:
    """Aggregate per-cell stress computed by the vectorized backend.

    Arrays are indexed ``[row, word]``.  For word-oriented geometries every
    physical column of a word carries identical stress, so one entry stands
    for each of the word's ``bits_per_word`` cells.  ``reads_per_cell`` and
    ``writes_per_cell`` are uniform across the array (every March element
    applies its operations to every address) and therefore plain integers.
    """

    full_res: "np.ndarray"
    partial_res: "np.ndarray"
    reads_per_cell: int
    writes_per_cell: int


class VectorizedEngine:
    """Batch execution backend measuring March test power as array reductions.

    Construction mirrors :class:`repro.core.session.TestSession`: a geometry,
    a technology, an address order (row-major by default), and the concrete
    direction ``⇕`` elements resolve to.  ``detailed`` carries the session's
    book-keeping switch: when true (the default for arrays up to
    :data:`~repro.sram.modes.DETAILED_CELL_LIMIT` cells) the engine also
    accumulates the per-cell stress statistics the reference memory would
    have collected, exposed as :attr:`last_stress` after each run.
    """

    def __init__(self, geometry: ArrayGeometry,
                 tech: TechnologyParameters | None = None,
                 order: Optional[AddressOrder] = None,
                 any_direction: AddressingDirection = AddressingDirection.UP,
                 detailed: Optional[bool] = None,
                 trace_cache: Optional[TraceCache] = None) -> None:
        self.geometry = geometry
        self.tech = tech or default_technology()
        self.order = order or RowMajorOrder(geometry)
        self.any_direction = any_direction
        self.clock = ClockCycle.from_technology(self.tech)
        detailed_default = geometry.cell_count <= DETAILED_CELL_LIMIT
        self.track_cell_stress = detailed_default if detailed is None else detailed
        #: compiled traces of this engine's own runs (shared when the
        #: caller passes one, e.g. the batched grid engine or a facade
        #: that already owns a cache) — the walks and segment structure a
        #: run needs are memoised here instead of being re-derived per run.
        self.traces = trace_cache if trace_cache is not None else TraceCache()
        # Bit lines are bank-local: their capacitance (hence floating decay)
        # scales with the bank height, not the whole array.
        self._tau = self.tech.floating_discharge_tau(geometry.rows_per_bank)
        self._k = self._derive_constants()
        # Per-run provenance (last_stress / last_counters) is thread-local:
        # the serving layer drives one engine from a pool of worker
        # threads, and a facade-global slot would let one request's run
        # overwrite another's provenance between its measurement and its
        # record assembly.
        self._run_state = threading.local()

    @property
    def last_stress(self) -> Optional[CellStressTotals]:
        """Per-cell stress totals of the calling thread's most recent
        :meth:`run` (``None`` when stress tracking is off)."""
        return getattr(self._run_state, "stress", None)

    @last_stress.setter
    def last_stress(self, stress: Optional[CellStressTotals]) -> None:
        self._run_state.stress = stress

    @property
    def last_counters(self) -> Dict[str, int]:
        """Raw counters of the calling thread's most recent :meth:`run`,
        including the ``partial_res_column_cycles`` count that
        :class:`~repro.core.session.TestRunResult` does not surface."""
        return getattr(self._run_state, "counters", {})

    @last_counters.setter
    def last_counters(self, counters: Dict[str, int]) -> None:
        self._run_state.counters = counters

    # ------------------------------------------------------------------
    # Constant derivation — every value comes from the shared power model /
    # technology description (the same definitions the scalar periphery and
    # column models use), so tuning a constant there cannot silently break
    # the bit-exact equivalence of the two backends.
    # ------------------------------------------------------------------
    def _derive_constants(self) -> _EnergyConstants:
        tech, geo = self.tech, self.geometry
        c_bl = tech.bitline_capacitance(geo.rows_per_bank)
        overhead = 1.0 + tech.precharge_overhead_factor
        model = PowerModel(geo, tech=tech)
        return _EnergyConstants(
            row_decode=model.row_decode_energy(),
            col_decode=model.column_decode_energy(),
            wordline=tech.swing_energy(tech.wordline_capacitance(geo.columns)),
            read_col=model.read_column_energy(),
            write_col=model.write_column_energy(),
            res_per_column=model.res_energy_per_column(),
            restore_coeff=tech.swing_energy(c_bl, tech.vdd) * overhead,
            control_element=model.control_element_energy(),
            lptest_line=model.lptest_line_energy(),
            leakage=model.leakage_energy_per_cycle(),
            bank_select=model.bank_select_energy(),
        )

    def _bank_of(self, rows_arr: "np.ndarray") -> "np.ndarray":
        """Vectorized :meth:`ArrayGeometry.bank_of_row` over a row array."""
        geo = self.geometry
        if geo.bank_interleave == "blocked":
            return rows_arr // geo.rows_per_bank
        return rows_arr % geo.banks

    def _decayed_restore_energy(self, elapsed_cycles: "np.ndarray") -> float:
        """Supply energy to recharge bit lines floating for ``elapsed_cycles``.

        A floating pair has exactly one line discharged by its cell (the
        other sits at VDD with the cell's '1' node — no charge moves), so the
        restored swing per pair is ``VDD * (1 - exp(-t/tau))``; the energy is
        summed over all pairs of each affected word.
        """
        duration = elapsed_cycles.astype(np.float64) * self.clock.period
        swings = 1.0 - np.exp(-duration / self._tau)
        return (self._k.restore_coeff * self.geometry.bits_per_word
                * float(np.sum(swings)))

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run(self, algorithm: MarchAlgorithm, mode: OperatingMode) -> "TestRunResult":
        """Run ``algorithm`` once in ``mode`` and return the measurements.

        Returns the same :class:`repro.core.session.TestRunResult` the
        reference backend produces (fault-free memory: no mismatches, no
        faulty swaps, no read hazards), with the energy ledger built from
        aggregate reductions.  Raises :class:`UnsupportedConfiguration` when
        the run cannot be replayed in bulk.
        """
        by_source, counters, cycles, _ = self.run_aggregates(algorithm, mode)
        return self.result_from_aggregates(algorithm, mode, by_source,
                                           counters, cycles)

    def result_from_aggregates(self, algorithm: MarchAlgorithm,
                               mode: OperatingMode, by_source, counters,
                               cycles: int,
                               order_name: Optional[str] = None
                               ) -> "TestRunResult":
        """Assemble the session-shaped result of one measured run.

        Shared by :meth:`run` and the batched grid engine, which measures
        aggregates for a whole sweep axis in one stacked pass and then
        assembles each case's result identically to the per-case path.
        ``order_name`` overrides the engine's own order label when the
        aggregates were measured over an explicitly supplied trace.
        """
        from ..core.session import TestRunResult  # deferred: avoids an import cycle

        label = f"{algorithm.name} [{mode.value}] (vectorized)"
        ledger = EnergyLedger.from_aggregates(
            self.clock.period, by_source, cycles=cycles, label=label)
        return TestRunResult(
            algorithm=algorithm.name,
            mode=mode.value,
            order=order_name if order_name is not None else self.order.name,
            geometry=self.geometry.describe(),
            cycles=cycles,
            total_energy=ledger.total_energy(),
            average_power=ledger.average_power(),
            energy_by_source=ledger.energy_by_source(),
            mismatches=[],
            faulty_swaps=[],
            read_hazards=0,
            row_transitions=counters["row_transitions"],
            full_restores=counters["full_restores"],
            full_res_column_cycles=counters["full_res_column_cycles"],
            floating_column_cycles=counters["floating_column_cycles"],
            bank_transitions=counters.get("bank_transitions", 0),
            kernel="flat",
        )

    def trace_for(self, algorithm: MarchAlgorithm) -> OperationTrace:
        """The memoised compiled trace of ``algorithm`` over this engine's
        order — walks and segment structure compile once per (algorithm,
        order, direction) and are shared by every run and both modes."""
        return self.traces.get(algorithm, self.order, self.any_direction)

    def run_aggregates(self, algorithm: MarchAlgorithm, mode: OperatingMode,
                       trace: Optional[OperationTrace] = None):
        """Measure one run and return raw ``(by_source, counters, cycles, stress)``.

        The aggregate core behind :meth:`run`, also consumed by
        :class:`repro.engine.power_campaign.VectorizedPowerCampaign` (which
        assembles BIST results instead of session results).  ``trace``
        optionally supplies the compiled
        :class:`~repro.march.execution.OperationTrace` to replay (it must
        describe this engine's traversal); by default the engine compiles
        and memoises its own.
        """
        algorithm.validate()
        if trace is None:
            trace = self.trace_for(algorithm)
        by_source, counters, cycles, stress = self.run_aggregates_batch(
            [(algorithm, mode, trace)])[0]
        self.last_stress = stress
        self.last_counters = counters
        return by_source, counters, cycles, stress

    def run_aggregates_batch(self, requests, collect_errors: bool = False):
        """Measure a stack of runs in one flat pass over shared structures.

        ``requests`` is a sequence of ``(algorithm, mode, trace)`` units —
        any mix of algorithms, operating modes and (same-geometry) address
        orders; ``trace`` may be ``None`` to use the engine's own memoised
        trace.  All low-power units are evaluated together: their compiled
        segment arrays are concatenated and reduced per (unit, element)
        slot in a single stacked NumPy pass, so a whole sweep axis shares
        one trip through the kernel.  Per-slot reductions are sequential
        within each slot's own segments, which makes every unit's result
        **bit-identical** to running it alone — the property the grid
        engine (:mod:`repro.engine.grid`) relies on.

        Returns one ``(by_source, counters, cycles, stress)`` tuple per
        request, in order.  A unit the exact replay cannot represent
        raises :class:`UnsupportedConfiguration` — or, with
        ``collect_errors=True``, yields the exception instance in its
        result slot so a grid driver can reroute just that unit to a
        fallback backend.
        """
        prepared = []
        for algorithm, mode, trace in requests:
            algorithm.validate()
            if trace is None:
                trace = self.trace_for(algorithm)
            prepared.append((algorithm, mode, trace))

        results: List[object] = [None] * len(prepared)
        low_power_units = []
        for index, (algorithm, mode, trace) in enumerate(prepared):
            if mode is OperatingMode.LOW_POWER_TEST:
                low_power_units.append(index)
            else:
                # Functional mode has no support constraints: every
                # traversal replays exactly, so nothing to collect here.
                results[index] = self._functional_flat(algorithm, trace)
        if low_power_units:
            units = [prepared[index] for index in low_power_units]
            outcomes = self._low_power_flat(units, collect_errors)
            for index, outcome in zip(low_power_units, outcomes):
                results[index] = outcome
        return results

    def compare_modes(self, algorithm: MarchAlgorithm) -> "ModeComparison":
        """Vectorized functional vs. low-power comparison (the PRR measurement)."""
        from ..core.session import ModeComparison

        functional = self.run(algorithm, OperatingMode.FUNCTIONAL)
        low_power = self.run(algorithm, OperatingMode.LOW_POWER_TEST)
        return ModeComparison(algorithm=algorithm.name,
                              functional=functional, low_power=low_power)

    # ------------------------------------------------------------------
    # Flat kernel: whole-run NumPy reductions over the compiled segments
    # ------------------------------------------------------------------
    def _functional_flat(self, algorithm: MarchAlgorithm,
                         trace: OperationTrace):
        """Functional mode from the compiled segment structure alone.

        Every unselected column keeps its pre-charge on, so each element
        books constant per-access energies; the only sequence-dependent
        quantity — word-line recharges at row transitions — comes from
        the memoised segment counts, so a functional measurement costs
        O(elements) once the trace is compiled.
        """
        segwalk = trace.segment_walk()
        geo, k = self.geometry, self._k
        bits = geo.bits_per_word
        per_access_decode = k.row_decode + k.col_decode
        unselected = geo.columns - bits

        by_source: Dict[PowerSource, float] = {}
        counters = {"row_transitions": 0, "full_restores": 0,
                    "full_res_column_cycles": 0, "floating_column_cycles": 0,
                    "partial_res_column_cycles": 0, "bank_transitions": 0}
        track = self.track_cell_stress and geo.columns <= 128
        stress_uniform = 0
        prev_row: Optional[int] = None
        cycles = 0

        if geo.is_banked:
            counters["bank_transitions"] = self._bank_transitions(segwalk)
            self._add(by_source, PowerSource.BANK_SELECT,
                      counters["bank_transitions"] * self._k.bank_select)

        for element, compiled, segments, (first_row, last_row) in zip(
                algorithm.elements, trace.elements,
                segwalk.element_segments, segwalk.element_rows):
            n_addr = len(compiled.coordinates)
            ops = element.operation_count
            n_access = n_addr * ops

            self._add(by_source, PowerSource.OPERATION_READ,
                      n_addr * element.read_count
                      * (per_access_decode + bits * k.read_col))
            self._add(by_source, PowerSource.OPERATION_WRITE,
                      n_addr * element.write_count
                      * (per_access_decode + bits * k.write_col))

            changes = segments - 1
            new_row_at_boundary = prev_row is None or first_row != prev_row
            counters["row_transitions"] += changes
            if new_row_at_boundary and prev_row is not None:
                counters["row_transitions"] += 1
            recharges = changes + (1 if new_row_at_boundary else 0)
            wl_source = (PowerSource.OPERATION_READ if element.operations[0].is_read
                         else PowerSource.OPERATION_WRITE)
            self._add(by_source, wl_source, recharges * k.wordline)
            prev_row = last_row

            res_energy = n_access * unselected * k.res_per_column
            self._add(by_source, PowerSource.PRECHARGE_UNSELECTED, res_energy)
            self._add(by_source, PowerSource.CELL_RES, res_energy * CELL_RES_RATIO)
            counters["full_res_column_cycles"] += n_access * unselected

            self._add(by_source, PowerSource.LEAKAGE, n_access * k.leakage)
            if track:
                stress_uniform += ops * (geo.words_per_row - 1)
            cycles += n_access

        stress = None
        if self.track_cell_stress:
            shape = (geo.rows, geo.words_per_row)
            full = np.zeros(shape, dtype=np.int64)
            if track:
                full += stress_uniform
            stress = CellStressTotals(
                full_res=full,
                partial_res=np.zeros(shape, dtype=np.int64),
                reads_per_cell=algorithm.read_count,
                writes_per_cell=algorithm.write_count,
            )
        return by_source, counters, cycles, stress

    def _bank_transitions(self, segwalk: SegmentWalk) -> int:
        """Bank-select transitions of a run: its row changes whose two
        rows sit in different banks (the walk's row pairs, weighted)."""
        changed = self._bank_of(segwalk.pair_from) \
            != self._bank_of(segwalk.pair_to)
        return int(np.sum(segwalk.pair_count[changed]))

    def _walk_chains(self, trace: OperationTrace, segwalk: SegmentWalk,
                     stress_partial):
        """Evaluate the state-dependent parts of the carried-over chains.

        Chains — runs of segments joined by a skipped end-of-row
        restoration, which only happens when an element boundary stays on
        one word line — are the one place where floating-column state
        crosses a segment, so their decayed-recharge energies cannot be
        closed-form per segment.  There are at most ``element_count - 1``
        of them per run; this walker replays just those segments with the
        exact per-segment state machine over the chain segments the walk
        keeps explicitly.  Returns the ordered
        ``(source, energy)`` additions and the chains' partial-RES cycle
        count; raises :class:`UnsupportedConfiguration` when a chain
        selects a word whose bit lines are floating.  All
        state-independent quantities of chain segments (operation/RES
        energies, word-line and control events, counters) are covered by
        the flat pass and deliberately not re-counted here.  A segment's
        words are ``first_word + delta * arange(length)``: exact, because
        the caller has already checked ``segwalk.neighbour_ok``.
        """
        adds: List[Tuple[PowerSource, float]] = []
        partial_res_cycles = 0
        if not segwalk.chains:
            return adds, partial_res_cycles
        geo = self.geometry
        bits = geo.bits_per_word
        n_words = geo.words_per_row
        track = stress_partial is not None

        for chain in segwalk.chains:
            float_start = np.full(n_words, -1, dtype=np.int64)
            for segment in chain:
                ops = trace.elements[segment.element].operation_count
                delta = segwalk.deltas[segment.element]
                m = segment.length
                first_word = segment.first_word
                seg = first_word + delta * np.arange(m, dtype=np.int64)
                row = segment.row
                base = segment.base_cycle

                if float_start[first_word] >= 0:
                    raise UnsupportedConfiguration(
                        "selected word's bit lines are floating at selection "
                        "time; use the reference backend")
                neighbours = seg + delta
                valid = (neighbours >= 0) & (neighbours < n_words)

                newly = float_start < 0
                newly[first_word] = False
                if bool(valid[0]):
                    newly[int(neighbours[0])] = False
                n_newly = int(np.count_nonzero(newly))
                partial_res_cycles += (n_newly + (m - 1)) * bits
                if track:
                    stress_partial[row][newly] += 1
                float_start[newly] = base

                enabled_words = neighbours[valid]
                if enabled_words.size:
                    visit_cycles = base + np.flatnonzero(valid) * ops
                    floated = float_start[enabled_words]
                    floating = floated >= 0
                    if np.any(floating):
                        adds.append((PowerSource.PRECHARGE_UNSELECTED,
                                     self._decayed_restore_energy(
                                         visit_cycles[floating]
                                         - floated[floating])))

                if m > 1:
                    float_start[seg[:-1]] = base + np.arange(1, m) * ops
                float_start[int(seg[-1])] = -1
                if bool(valid[-1]):
                    float_start[int(neighbours[-1])] = -1

                if segment.restore:
                    last_cycle = base + m * ops - 1
                    floating = float_start >= 0
                    if np.any(floating):
                        adds.append((PowerSource.ROW_TRANSITION_RESTORE,
                                     self._decayed_restore_energy(
                                         last_cycle - float_start[floating])))
                        float_start[floating] = -1
        return adds, partial_res_cycles

    def _low_power_flat(self, units, collect_errors: bool = False):
        """Low-power test mode for a stack of units in one flat pass.

        Every quantity of the reference replay re-derived as per-segment
        closed forms over the compiled segment shapes: the within-segment
        decayed-recharge and end-of-row restoration sums are geometric
        series in ``exp(-ops * T / tau)``, evaluated once per distinct
        shape and weighted by its multiplicity, so no per-word or
        per-segment Python iteration remains — only the rare carried-over
        chains walk (:meth:`_walk_chains`).  Per-(unit, element) slot
        reductions use ``np.bincount``, whose per-bin sums run
        sequentially over that slot's own shapes: a unit's result is
        bit-identical whether it is evaluated alone or stacked with an
        entire grid, and tiles (:data:`DEFAULT_SEGMENT_CHUNK` shapes) are
        unit-local so chunking preserves the same property.
        """
        geo, k = self.geometry, self._k
        bits = geo.bits_per_word
        n_words = geo.words_per_row
        unselected_bits = geo.columns - bits
        per_access_decode = k.row_decode + k.col_decode
        ratio = self.clock.period / self._tau     # per-cycle decay exponent
        coeff = k.restore_coeff * bits
        track = self.track_cell_stress

        outcomes: List[object] = [None] * len(units)
        active = []
        for position, (algorithm, _, trace) in enumerate(units):
            try:
                segwalk = trace.segment_walk()
                if not all(segwalk.neighbour_ok):
                    raise UnsupportedConfiguration(
                        f"order {trace.order.name!r} does not follow the "
                        "pre-charged traversal neighbour within a row; use "
                        "the reference backend")
                walks = stress_partial = stress_full = None
                if track:
                    walks = trace.element_walks()
                    shape = (geo.rows, n_words)
                    stress_full = np.zeros(shape, dtype=np.int64)
                    stress_partial = np.zeros(shape, dtype=np.int64)
                chain_adds, chain_prc = self._walk_chains(
                    trace, segwalk, stress_partial)
            except EngineError as error:
                if not collect_errors:
                    raise
                outcomes[position] = error
                continue
            active.append({
                "position": position, "algorithm": algorithm, "trace": trace,
                "segwalk": segwalk, "walks": walks,
                "stress_full": stress_full, "stress_partial": stress_partial,
                "chain_adds": chain_adds, "chain_prc": chain_prc,
            })
        if not active:
            return outcomes

        # ---- per-slot constants (slot = one element of one unit) -------
        slot_ops: List[int] = []
        slot_delta: List[int] = []
        for unit in active:
            unit["offset"] = len(slot_ops)
            trace = unit["trace"]
            for element_index, element in enumerate(trace.elements):
                slot_ops.append(element.operation_count)
                slot_delta.append(unit["segwalk"].deltas[element_index])
        total_slots = len(slot_ops)
        ops_arr = np.asarray(slot_ops, dtype=np.int64)
        delta_arr = np.asarray(slot_delta, dtype=np.int64)
        x_arr = ops_arr * ratio                   # decay exponent per slot

        # ---- stacked per-segment pass ---------------------------------
        wl_count = np.zeros(total_slots, dtype=np.int64)
        enabled_sum = np.zeros(total_slots, dtype=np.int64)
        prc_flat = np.zeros(total_slots, dtype=np.int64)
        recharge = np.zeros(total_slots, dtype=np.float64)
        restore_energy = np.zeros(total_slots, dtype=np.float64)

        def reduce_piece(unit, lo, hi):
            """Accumulate one unit-local tile of shapes into the slots."""
            segwalk = unit["segwalk"]
            slots = unit["offset"] + segwalk.element[lo:hi]
            m = segwalk.length[lo:hi]
            first = segwalk.first_word[lo:hi]
            last = segwalk.last_word[lo:hi]
            carry = segwalk.carry_in[lo:hi]
            chained = segwalk.in_chain[lo:hi]
            mult = segwalk.multiplicity[lo:hi]
            delta_seg = delta_arr[slots]
            x = x_arr[slots]

            wl, enabled, prc, rec, rst = _reduce_tile_arrays(
                slots, m, first, last, carry, chained, mult, delta_seg, x,
                n_words, bits, coeff, ratio, total_slots)
            wl_count[:] += wl
            enabled_sum[:] += enabled
            prc_flat[:] += prc
            recharge[:] += rec
            restore_energy[:] += rst

        chunk = DEFAULT_SEGMENT_CHUNK
        for unit in active:
            total = unit["segwalk"].shape_count
            for lo in range(0, total, chunk):
                reduce_piece(unit, lo, min(lo + chunk, total))

        # ---- per-unit assembly ----------------------------------------
        for unit in active:
            algorithm = unit["algorithm"]
            trace = unit["trace"]
            segwalk = unit["segwalk"]
            offset = unit["offset"]
            by_source: Dict[PowerSource, float] = {}
            counters = {"row_transitions": 0, "full_restores": 0,
                        "full_res_column_cycles": 0,
                        "floating_column_cycles": 0,
                        "bank_transitions": 0}

            counters["row_transitions"] = int(np.sum(segwalk.pair_count))
            if geo.is_banked:
                counters["bank_transitions"] = self._bank_transitions(segwalk)
                self._add(by_source, PowerSource.BANK_SELECT,
                          counters["bank_transitions"] * k.bank_select)
            restores = segwalk.restores
            counters["full_restores"] = restores
            # Control elements switch on every within-segment word change
            # plus every segment boundary that lands on a different word
            # (and once for the very first cycle of the run).
            visits = sum(len(element.coordinates)
                         for element in trace.elements)
            control_events = ((visits - segwalk.segment_count) + 1
                              + segwalk.word_changes)

            for element, compiled in zip(algorithm.elements, trace.elements):
                slot = offset + compiled.index
                ops = compiled.operation_count
                n_addr = len(compiled.coordinates)
                wl_source = (PowerSource.OPERATION_READ
                             if element.operations[0].is_read
                             else PowerSource.OPERATION_WRITE)
                self._add(by_source, PowerSource.OPERATION_READ,
                          n_addr * element.read_count
                          * (per_access_decode + bits * k.read_col))
                self._add(by_source, PowerSource.OPERATION_WRITE,
                          n_addr * element.write_count
                          * (per_access_decode + bits * k.write_col))
                self._add(by_source, wl_source, int(wl_count[slot]) * k.wordline)
                sustain = int(enabled_sum[slot]) * ops * bits * k.res_per_column
                self._add(by_source, PowerSource.PRECHARGE_UNSELECTED, sustain)
                self._add(by_source, PowerSource.CELL_RES,
                          sustain * CELL_RES_RATIO)
                self._add(by_source, PowerSource.LEAKAGE,
                          n_addr * ops * k.leakage)
                self._add(by_source, PowerSource.PRECHARGE_UNSELECTED,
                          float(recharge[slot]))
                self._add(by_source, PowerSource.ROW_TRANSITION_RESTORE,
                          float(restore_energy[slot]))
                counters["full_res_column_cycles"] += \
                    int(enabled_sum[slot]) * ops * bits
                counters["floating_column_cycles"] += ops * (
                    n_addr * unselected_bits - int(enabled_sum[slot]) * bits)

            for source, energy in unit["chain_adds"]:
                self._add(by_source, source, energy)
            self._add(by_source, PowerSource.CONTROL_LOGIC,
                      control_events * k.control_element)
            self._add(by_source, PowerSource.LPTEST_DRIVER,
                      restores * k.lptest_line)
            counters["partial_res_column_cycles"] = (
                int(np.sum(prc_flat[offset:offset + len(trace.elements)]))
                + unit["chain_prc"])

            stress = None
            if track:
                self._flat_stress(unit)
                stress = CellStressTotals(
                    full_res=unit["stress_full"],
                    partial_res=unit["stress_partial"],
                    reads_per_cell=algorithm.read_count,
                    writes_per_cell=algorithm.write_count,
                )
            outcomes[unit["position"]] = (
                by_source, counters, trace.step_count, stress)
        return outcomes

    def _flat_stress(self, unit) -> None:
        """Accumulate the per-cell RES stress of one unit, flat.

        Runs only in detailed sessions (at most ``DETAILED_CELL_LIMIT``
        cells), over the per-visit walks it reads anyway, which also give
        its segment boundaries.
        State-independent parts (the pre-charged neighbour's full RES, the
        refloat of every visited-but-last word) run over the whole visit
        arrays; the newly-floating mask of chain-free segments is the
        segment's whole row minus the selected word and its held
        neighbour.  Chain segments' newly-floating words were already
        added by :meth:`_walk_chains`.
        """
        geo = self.geometry
        n_words = geo.words_per_row
        segwalk = unit["segwalk"]
        stress_full = unit["stress_full"]
        stress_partial = unit["stress_partial"]
        chained = [(segment.element, segment.start)
                   for chain in segwalk.chains for segment in chain]

        for element in unit["trace"].elements:
            _, rows, words = unit["walks"][element.index]
            delta = segwalk.deltas[element.index]
            neighbours = words + delta
            valid = (neighbours >= 0) & (neighbours < n_words)
            if np.any(valid):
                np.add.at(stress_full, (rows[valid], neighbours[valid]),
                          element.operation_count)
            ends = np.flatnonzero(rows[1:] != rows[:-1])
            not_last = np.ones(rows.size, dtype=bool)
            not_last[ends] = False
            not_last[-1] = False
            if np.any(not_last):
                np.add.at(stress_partial, (rows[not_last], words[not_last]), 1)

            starts = np.concatenate(([0], ends + 1))
            free = np.ones(starts.size, dtype=bool)
            free[np.searchsorted(starts, [start for index, start in chained
                                          if index == element.index])] = False
            rows_free = rows[starts[free]]
            first_free = words[starts[free]]
            stress_partial += np.bincount(
                rows_free, minlength=geo.rows).astype(np.int64)[:, None]
            np.add.at(stress_partial, (rows_free, first_free), -1)
            held = first_free + delta
            held_ok = (held >= 0) & (held < n_words)
            np.add.at(stress_partial, (rows_free[held_ok], held[held_ok]), -1)

    # ------------------------------------------------------------------
    @staticmethod
    def _add(by_source: Dict[PowerSource, float], source: PowerSource,
             energy: float) -> None:
        if energy == 0.0:
            return
        by_source[source] = by_source.get(source, 0.0) + energy
