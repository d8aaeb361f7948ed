"""Manifest-driven batch decoding.

A manifest is a JSON file listing one record per text line::

    {"lines": [
        {"id": "l001", "matrices": ["experts/a/l001.mat", "experts/b/l001.mat"],
         "ref": "refs/l001.txt"}
    ]}

Every record carries the same number of per-expert matrix paths, assumed
rank-ordered (best expert first). Per-line failures are recorded in the
output as ``<line-id>\\tERROR:<code>`` without aborting the batch;
manifest-level problems raise.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from .errors import CtcDecError, ParseError
from .matio import load_matrix, read_text
from .matrix import ConfidenceMatrix
from .types import Hypothesis

DecodeFn = Callable[[list[ConfidenceMatrix]], Hypothesis]


@dataclass(frozen=True)
class LineRecord:
    line_id: str
    matrix_paths: tuple[str, ...]
    ref_path: str | None = None


@dataclass(frozen=True)
class Manifest:
    records: tuple[LineRecord, ...]

    def __post_init__(self) -> None:
        ids = [r.line_id for r in self.records]
        if len(set(ids)) != len(ids):
            dupe = next(i for i in ids if ids.count(i) > 1)
            raise ParseError(0, f"duplicate line id {dupe!r}")
        if any(not rec.matrix_paths for rec in self.records):
            raise ParseError(0, "every record needs at least one matrix path")
        counts = {len(r.matrix_paths) for r in self.records}
        if len(counts) > 1:
            raise ParseError(0, f"records disagree on expert count: {sorted(counts)}")

    @property
    def expert_count(self) -> int:
        return len(self.records[0].matrix_paths) if self.records else 0


def load_manifest(path: str | Path) -> Manifest:
    base = Path(path).parent
    try:
        doc = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise ParseError(exc.lineno, f"invalid JSON: {exc.msg}") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("lines"), list):
        raise ParseError(0, "manifest must be an object with a 'lines' array")
    records = []
    for i, entry in enumerate(doc["lines"]):
        if not isinstance(entry, dict) or "id" not in entry or "matrices" not in entry:
            raise ParseError(0, f"record {i} needs 'id' and 'matrices'")
        paths = entry["matrices"]
        if not isinstance(paths, list) or not paths:
            raise ParseError(0, f"record {entry['id']!r} needs a non-empty 'matrices' array")
        ref = entry.get("ref")
        if not all(isinstance(p, str) for p in paths) or not isinstance(ref, (str, type(None))):
            raise ParseError(0, f"record {entry['id']!r}: matrix paths and 'ref' must be strings")
        records.append(
            LineRecord(
                line_id=str(entry["id"]),
                matrix_paths=tuple(str(base / p) for p in paths),
                ref_path=str(base / ref) if ref else None,
            )
        )
    return Manifest(records=tuple(records))


def save_manifest(manifest: Manifest, path: str | Path) -> None:
    """Write a manifest with paths relative to the output directory."""
    base = Path(path).parent
    lines = []
    for rec in manifest.records:
        entry: dict = {
            "id": rec.line_id,
            "matrices": [_relativize(p, base) for p in rec.matrix_paths],
        }
        if rec.ref_path:
            entry["ref"] = _relativize(rec.ref_path, base)
        lines.append(entry)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"lines": lines}, fh, indent=2)
        fh.write("\n")


def _relativize(p: str, base: Path) -> str:
    try:
        return str(Path(p).relative_to(base))
    except ValueError:
        return str(p)


def decode_record(record: LineRecord, decode_fn: DecodeFn, experts: int | None = None) -> str:
    """Decode one manifest record to its output text.

    Loads the record's matrices (the first ``experts`` of them when set)
    and applies ``decode_fn``, which checks that experts share an
    alphabet. Raises toolkit errors through to the caller.
    """
    paths = record.matrix_paths[:experts] if experts else record.matrix_paths
    return decode_fn([load_matrix(p) for p in paths]).text


def _worker(args: tuple[LineRecord, DecodeFn, int | None]) -> tuple[str, str]:
    record, decode_fn, experts = args
    try:
        return record.line_id, decode_record(record, decode_fn, experts)
    except CtcDecError as exc:
        return record.line_id, f"ERROR:{exc.code}"
    except Exception as exc:  # deliberate: one bad line must not kill the batch
        return record.line_id, f"ERROR:{type(exc).__name__}"


def run_batch(
    manifest: Manifest,
    decode_fn: DecodeFn,
    out_path: str | Path,
    experts: int | None = None,
    jobs: int = 1,
) -> list[tuple[str, str]]:
    """Decode every manifest record, writing ``<line-id>\\t<text>`` lines.

    Output order equals manifest order regardless of ``jobs``. Failed
    lines are written as ``<line-id>\\tERROR:<code>``. Returns the
    (id, text-or-error) pairs.
    """
    tasks = [(rec, decode_fn, experts) for rec in manifest.records]
    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_worker, tasks, chunksize=max(1, len(tasks) // (4 * jobs))))
    else:
        results = [_worker(t) for t in tasks]
    with open(out_path, "w", encoding="utf-8") as fh:
        for line_id, text in results:
            fh.write(f"{line_id}\t{text}\n")
    return results
