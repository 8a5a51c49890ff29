"""Cycle-accurate energy accounting.

The behavioural SRAM emits one :class:`EnergyEvent` for every quantum of
supply energy it spends, tagged with the clock cycle, the power source
category (Section 5's list) and, when meaningful, the column involved.  The
:class:`EnergyLedger` aggregates those events into the figures the
experiments report: total energy, average power per clock cycle, per-source
breakdowns, and per-cycle series for waveform-style plots.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Mapping, Optional

from .sources import PowerSource


class AccountingError(Exception):
    """Raised on invalid energy bookings (negative energy, bad cycles...)."""


@dataclass(frozen=True)
class EnergyEvent:
    """One quantum of energy drawn from the supply."""

    cycle: int
    source: PowerSource
    energy: float
    column: Optional[int] = None
    row: Optional[int] = None
    detail: str = ""

    def __post_init__(self) -> None:
        if self.cycle < 0:
            raise AccountingError(f"cycle must be non-negative, got {self.cycle}")
        if self.energy < 0:
            raise AccountingError(
                f"energy must be non-negative, got {self.energy} for {self.source}"
            )


@dataclass
class SourceBreakdown:
    """Aggregated energy of one source category."""

    source: PowerSource
    energy: float = 0.0
    events: int = 0

    def add(self, event: EnergyEvent) -> None:
        self.energy += event.energy
        self.events += 1


class EnergyLedger:
    """Accumulates :class:`EnergyEvent` records for one simulation run.

    Long runs on large arrays book millions of energy quanta; keeping one
    Python object per quantum would dominate memory and runtime.  The ledger
    therefore always maintains the aggregate views (per source, per cycle)
    and only retains individual :class:`EnergyEvent` objects when
    ``keep_events`` is set.  ``track_per_cycle`` can likewise be disabled for
    very long runs where the per-cycle series is not needed.
    """

    def __init__(self, clock_period: float, label: str = "",
                 keep_events: bool = True, track_per_cycle: bool = True) -> None:
        if clock_period <= 0:
            raise AccountingError("clock_period must be positive")
        self.clock_period = clock_period
        self.label = label
        self.keep_events = keep_events
        self.track_per_cycle = track_per_cycle
        self._events: List[EnergyEvent] = []
        self._by_source: Dict[PowerSource, SourceBreakdown] = {}
        self._by_column: Dict[PowerSource, Dict[int, float]] = {}
        self._per_cycle: Dict[int, float] = defaultdict(float)
        self._max_cycle = -1

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record(self, event: EnergyEvent) -> None:
        """Record a fully described event (always kept when ``keep_events``)."""
        self._book(event.cycle, event.source, event.energy, event.column)
        if self.keep_events:
            self._events.append(event)

    def record_energy(self, cycle: int, source: PowerSource, energy: float,
                      column: Optional[int] = None, row: Optional[int] = None,
                      detail: str = "") -> None:
        """Book an energy quantum.

        Zero-energy bookings are dropped silently (they carry no
        information and would bloat the event list on large arrays).
        """
        if energy == 0.0:
            return
        if energy < 0:
            raise AccountingError(
                f"energy must be non-negative, got {energy} for {source}")
        if cycle < 0:
            raise AccountingError(f"cycle must be non-negative, got {cycle}")
        self._book(cycle, source, energy, column)
        if self.keep_events:
            self._events.append(EnergyEvent(cycle=cycle, source=source, energy=energy,
                                            column=column, row=row, detail=detail))

    def _book(self, cycle: int, source: PowerSource, energy: float,
              column: Optional[int]) -> None:
        breakdown = self._by_source.get(source)
        if breakdown is None:
            breakdown = SourceBreakdown(source)
            self._by_source[source] = breakdown
        breakdown.energy += energy
        breakdown.events += 1
        if column is not None:
            per_column = self._by_column.setdefault(source, {})
            per_column[column] = per_column.get(column, 0.0) + energy
        if self.track_per_cycle:
            self._per_cycle[cycle] += energy
        if cycle > self._max_cycle:
            self._max_cycle = cycle

    def extend(self, events: Iterable[EnergyEvent]) -> None:
        for event in events:
            self.record(event)

    @classmethod
    def from_aggregates(cls, clock_period: float,
                        by_source: Mapping[PowerSource, float],
                        cycles: int, label: str = "") -> "EnergyLedger":
        """Build an aggregate-only ledger from precomputed per-source totals.

        The vectorized execution backend (:mod:`repro.engine`) computes
        energy totals as array reductions rather than one event at a time;
        this constructor wraps those totals in a ledger that reports the
        same aggregate views (total energy, per-source breakdown, average
        power over ``cycles`` clock cycles) as an event-by-event ledger.
        Per-event and per-cycle views are unavailable (``keep_events`` and
        ``track_per_cycle`` are off), and each source counts as one booked
        event.  Zero-energy sources are dropped, mirroring
        :meth:`record_energy`.
        """
        if cycles < 0:
            raise AccountingError(f"cycles must be non-negative, got {cycles}")
        ledger = cls(clock_period, label=label,
                     keep_events=False, track_per_cycle=False)
        last_cycle = max(0, cycles - 1)
        for source, energy in by_source.items():
            if energy < 0:
                raise AccountingError(
                    f"energy must be non-negative, got {energy} for {source}")
            if energy == 0.0:
                continue
            ledger._book(last_cycle, source, energy, column=None)
        if cycles > 0:
            ledger._max_cycle = cycles - 1
        return ledger

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    @property
    def events(self) -> List[EnergyEvent]:
        """Individual events (empty when ``keep_events`` is disabled)."""
        return list(self._events)

    @property
    def cycle_count(self) -> int:
        """Number of clock cycles covered (highest booked cycle + 1)."""
        return self._max_cycle + 1

    def total_energy(self, sources: Optional[Iterable[PowerSource]] = None) -> float:
        if sources is None:
            return sum(b.energy for b in self._by_source.values())
        wanted = set(sources)
        return sum(b.energy for s, b in self._by_source.items() if s in wanted)

    def energy_by_source(self) -> Dict[PowerSource, float]:
        return {source: breakdown.energy for source, breakdown in self._by_source.items()}

    def source_fraction(self, source: PowerSource) -> float:
        """Fraction of total energy attributed to ``source`` (0 when empty)."""
        total = self.total_energy()
        if total <= 0.0:
            return 0.0
        return self._by_source.get(source, SourceBreakdown(source)).energy / total

    def average_power(self) -> float:
        """Average power per clock cycle over the covered cycles (watts)."""
        cycles = self.cycle_count
        if cycles <= 0:
            return 0.0
        return self.total_energy() / (cycles * self.clock_period)

    def average_energy_per_cycle(self) -> float:
        cycles = self.cycle_count
        if cycles <= 0:
            return 0.0
        return self.total_energy() / cycles

    def per_cycle_energy(self) -> List[float]:
        """Energy of each clock cycle, index = cycle number."""
        if not self.track_per_cycle:
            raise AccountingError(
                "per-cycle tracking is disabled for this ledger "
                "(constructed with track_per_cycle=False)"
            )
        return [self._per_cycle.get(c, 0.0) for c in range(self.cycle_count)]

    def per_cycle_power(self) -> List[float]:
        return [e / self.clock_period for e in self.per_cycle_energy()]

    def peak_cycle_energy(self) -> float:
        per_cycle = self.per_cycle_energy()
        return max(per_cycle) if per_cycle else 0.0

    def energy_by_column(self, source: Optional[PowerSource] = None) -> Dict[int, float]:
        """Energy per column (bookings without a column are skipped)."""
        out: Dict[int, float] = defaultdict(float)
        if source is not None:
            for column, energy in self._by_column.get(source, {}).items():
                out[column] += energy
            return dict(out)
        for per_column in self._by_column.values():
            for column, energy in per_column.items():
                out[column] += energy
        return dict(out)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def summary(self) -> "LedgerSummary":
        return LedgerSummary(
            label=self.label,
            clock_period=self.clock_period,
            cycles=self.cycle_count,
            total_energy=self.total_energy(),
            average_power=self.average_power(),
            by_source={s.value: e for s, e in sorted(
                self.energy_by_source().items(), key=lambda kv: kv[0].value)},
        )

    def merged_with(self, other: "EnergyLedger", label: str = "") -> "EnergyLedger":
        """Concatenate two ledgers (the other's cycles are shifted after ours).

        Both ledgers must have been constructed with ``keep_events=True``;
        merging aggregate-only ledgers would silently lose information.
        """
        if other.clock_period != self.clock_period:
            raise AccountingError("cannot merge ledgers with different clock periods")
        if not (self.keep_events and other.keep_events):
            raise AccountingError("merging requires both ledgers to keep their events")
        merged = EnergyLedger(self.clock_period, label=label or self.label)
        for event in self._events:
            merged.record(event)
        offset = self.cycle_count
        for event in other._events:
            merged.record(EnergyEvent(
                cycle=event.cycle + offset, source=event.source, energy=event.energy,
                column=event.column, row=event.row, detail=event.detail))
        return merged


@dataclass(frozen=True)
class LedgerSummary:
    """Flat summary of a ledger, convenient for tables and experiment logs."""

    label: str
    clock_period: float
    cycles: int
    total_energy: float
    average_power: float
    by_source: Mapping[str, float]

    def as_dict(self) -> Dict[str, object]:
        return {
            "label": self.label,
            "clock_period": self.clock_period,
            "cycles": self.cycles,
            "total_energy": self.total_energy,
            "average_power": self.average_power,
            "by_source": dict(self.by_source),
        }
