"""Union shard journals into one verified merged record set.

A distributed campaign (:mod:`repro.distrib`) — or a hand-sharded one
(``--shard I/N``) — leaves one fsync'd journal per worker/lease.  This
module is the back half of that story: ``merge_journals`` unions any
number of shard journals into a single journal-format artifact whose
entries are *verified*, not merely concatenated:

* every record is keyed by its case fingerprint digest
  (:func:`repro.sweep.runner.fingerprint_digest`) — the same content
  address the serving cache uses — so identity is the scenario itself,
  never a shard-local index;
* shard-local case indices are rebased to campaign-global positions via
  the ``case_indices`` list an orchestrator stamps into each journal's
  header (identity mapping when absent, for hand-run shards of one
  grid);
* duplicate measurements of one case (the work-stealing overlap shape:
  a stolen lease's old and new generation both journal the case) must
  agree **bit-identically on every field except** ``elapsed_s`` — wall
  clock is environment, everything else is physics; any other
  disagreement is a :class:`MergeError`, never a silent pick;
* against a campaign grid, every entry's fingerprint must equal the
  grid's fingerprint at its global index, entries outside the grid are
  errors, and ``require_complete=True`` additionally demands every grid
  case be present.

The merged artifact is itself a valid run journal (header line + one
entry per case in grid order, written atomically via
:mod:`repro.durable`), so every existing journal consumer — ``--resume``,
:func:`load_journal`, analysis notebooks — reads it unchanged.

Command line::

    python -m repro.sweep merge merged.jsonl shard1.jsonl shard2.jsonl \\
        [--grid grid.jsonl] [--require-complete] [--quiet]
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..durable import atomic_write_text
from .journal import (
    JOURNAL_HEADER_FORMAT,
    JOURNAL_VERSION,
    JournalEntry,
    JournalError,
    RunJournal,
)
from .runner import SweepError, _record_class, fingerprint_digest

__all__ = [
    "MergeError",
    "MergeReport",
    "load_grid_fingerprints",
    "merge_journals",
    "merge_main",
]


class MergeError(SweepError):
    """Raised when shard journals conflict or fail grid verification."""


#: Record fields excluded from the duplicate-identity comparison: wall
#: clock varies per execution environment, every other field is a
#: deterministic function of the scenario and must agree exactly.
_ENVIRONMENT_FIELDS = ("elapsed_s",)


@dataclass
class MergeReport:
    """What one merge did: provenance for logs, tests and CI assertions."""

    output: Path
    cases: int                      #: distinct cases in the merged artifact
    duplicates: int                 #: extra recordings dropped (identical)
    sources: List[Path] = field(default_factory=list)
    complete: Optional[bool] = None  #: vs the grid; None without a grid

    def summary(self) -> str:
        """One human line for CLI output."""
        parts = [f"{self.cases} cases from {len(self.sources)} journal(s)"]
        if self.duplicates:
            parts.append(f"{self.duplicates} duplicate recording(s) "
                         "verified identical")
        if self.complete is not None:
            parts.append("grid complete" if self.complete
                         else "grid incomplete")
        return f"merged {', '.join(parts)} -> {self.output}"


def load_grid_fingerprints(path: Union[str, Path]
                           ) -> List[Dict[str, object]]:
    """Read a grid file: one case fingerprint JSON object per line.

    This is the ``grid.jsonl`` a :mod:`repro.distrib` campaign publishes,
    but any JSONL file of fingerprints works.
    """
    grid_path = Path(path)
    try:
        text = grid_path.read_text(encoding="utf-8")
    except OSError as exc:
        raise MergeError(f"cannot read grid {grid_path}: {exc}") from exc
    fingerprints: List[Dict[str, object]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            fingerprint = json.loads(line)
        except json.JSONDecodeError as exc:
            raise MergeError(
                f"grid {grid_path} line {lineno} is not valid JSON: "
                f"{exc}") from exc
        if not isinstance(fingerprint, dict):
            raise MergeError(
                f"grid {grid_path} line {lineno} is not a case "
                "fingerprint object")
        fingerprints.append(fingerprint)
    if not fingerprints:
        raise MergeError(f"grid {grid_path} holds no case fingerprints")
    return fingerprints


def _comparable_record(record: Dict[str, object]) -> Dict[str, object]:
    """The record with environment-only fields stripped for comparison."""
    return {key: value for key, value in record.items()
            if key not in _ENVIRONMENT_FIELDS}


def _global_index(entry: JournalEntry, mapping: Optional[List[int]],
                  source: Path) -> int:
    """Rebase a shard-local case index to its campaign-global position."""
    if mapping is None:
        return entry.case_index
    if not 0 <= entry.case_index < len(mapping):
        raise MergeError(
            f"{source} records case index {entry.case_index}, outside its "
            f"header's {len(mapping)}-entry case_indices map")
    return mapping[entry.case_index]


def _header_mapping(journal: RunJournal) -> Optional[List[int]]:
    """The journal header's local-to-global ``case_indices`` map, if any."""
    meta = journal.read_header()
    if not meta:
        return None
    indices = meta.get("case_indices")
    if indices is None:
        return None
    if not isinstance(indices, list) or \
            not all(isinstance(index, int) for index in indices):
        raise MergeError(
            f"{journal.path} header case_indices is not a list of "
            "integers")
    return list(indices)


def merge_journals(output: Union[str, Path],
                   journal_paths: Sequence[Union[str, Path]],
                   grid: Optional[Sequence[Dict[str, object]]] = None,
                   require_complete: bool = False) -> MergeReport:
    """Merge shard journals into one verified journal at ``output``.

    See the module docstring for the verification contract.  Raises
    :class:`MergeError` on any conflict, :class:`JournalError` on a
    corrupt or foreign source journal.  The output write is atomic — an
    interrupted merge leaves either the previous artifact or the new
    one, never a torn hybrid.
    """
    if not journal_paths:
        raise MergeError("merge needs at least one source journal")
    if require_complete and grid is None:
        raise MergeError("require_complete needs the campaign grid")
    grid_digests: Optional[Dict[str, int]] = None
    if grid is not None:
        grid_digests = {}
        for index, fingerprint in enumerate(grid):
            digest = fingerprint_digest(fingerprint)
            if digest in grid_digests:
                raise MergeError(
                    f"grid positions {grid_digests[digest]} and {index} "
                    "hold the same case; a campaign grid must be "
                    "duplicate-free to merge against")
            grid_digests[digest] = index

    # digest -> (global index, entry, source path) of the kept recording
    merged: Dict[str, Tuple[int, JournalEntry, Path]] = {}
    duplicates = 0
    sources = [Path(path) for path in journal_paths]
    for source in sources:
        journal = RunJournal(source)
        mapping = _header_mapping(journal)
        for entry in journal.load():
            # validate the schema
            _record_class(entry.kind, source, MergeError).from_dict(
                entry.record)
            digest = fingerprint_digest(entry.case)
            index = _global_index(entry, mapping, source)
            if grid_digests is not None:
                expected = grid_digests.get(digest)
                if expected is None:
                    raise MergeError(
                        f"{source} records a case that is not in the "
                        f"campaign grid (digest {digest[:12]}..., shard "
                        f"index {entry.case_index})")
                if expected != index:
                    raise MergeError(
                        f"{source} places case {digest[:12]}... at grid "
                        f"position {index}, but the grid holds it at "
                        f"{expected}")
            if digest not in merged:
                merged[digest] = (index, entry, source)
                continue
            kept_index, kept_entry, kept_source = merged[digest]
            if kept_index != index:
                raise MergeError(
                    f"case {digest[:12]}... appears at global index "
                    f"{kept_index} in {kept_source} but {index} in "
                    f"{source}; the shards disagree about the grid")
            if kept_entry.kind != entry.kind or \
                    _comparable_record(kept_entry.record) != \
                    _comparable_record(entry.record):
                raise MergeError(
                    f"conflicting records for case {digest[:12]}... "
                    f"(global index {index}): {kept_source} and {source} "
                    "measured different results; refusing to merge — "
                    "duplicate recordings must be identical apart from "
                    f"{_ENVIRONMENT_FIELDS}")
            duplicates += 1  # identical re-measurement: keep the first

    complete: Optional[bool] = None
    if grid_digests is not None:
        missing = sorted(index for digest, index in grid_digests.items()
                         if digest not in merged)
        complete = not missing
        if require_complete and missing:
            preview = ", ".join(str(index) for index in missing[:8])
            more = "..." if len(missing) > 8 else ""
            raise MergeError(
                f"merged journals cover {len(merged)} of "
                f"{len(grid_digests)} grid cases; missing indices: "
                f"{preview}{more}")

    ordered = sorted(merged.values(), key=lambda item: item[0])
    lines = [json.dumps({
        "format": JOURNAL_HEADER_FORMAT,
        "version": JOURNAL_VERSION,
        "meta": {
            "merged_from": [str(path) for path in sources],
            "cases": len(ordered),
            "duplicates": duplicates,
            "verified_against_grid": grid is not None,
            "grid_complete": complete,
        },
    }, sort_keys=True)]
    for index, entry, _ in ordered:
        lines.append(JournalEntry(
            case_index=index, kind=entry.kind,
            case=entry.case, record=entry.record).to_line())
    output_path = Path(output)
    atomic_write_text(output_path, "\n".join(lines) + "\n")
    return MergeReport(output=output_path, cases=len(ordered),
                       duplicates=duplicates, sources=sources,
                       complete=complete)


def merge_main(argv: Optional[Sequence[str]] = None) -> int:
    """``python -m repro.sweep merge`` entry point (exit 0 ok, 2 error)."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.sweep merge",
        description="Union shard journals into one verified merged "
                    "journal (duplicates must be identical, conflicts "
                    "are errors).")
    parser.add_argument("output", help="path of the merged journal to write")
    parser.add_argument("journals", nargs="+",
                        help="source shard journals to merge")
    parser.add_argument("--grid", metavar="PATH",
                        help="verify entries against this grid file "
                             "(one case fingerprint JSON object per line)")
    parser.add_argument("--require-complete", action="store_true",
                        help="fail unless every grid case is present "
                             "(needs --grid)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the summary line")
    args = parser.parse_args(argv)
    try:
        grid = load_grid_fingerprints(args.grid) if args.grid else None
        if args.require_complete and grid is None:
            raise MergeError("--require-complete needs --grid PATH")
        report = merge_journals(args.output, args.journals, grid=grid,
                                require_complete=args.require_complete)
    except (MergeError, JournalError, SweepError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not args.quiet:
        print(report.summary())
    return 0
