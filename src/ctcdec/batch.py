"""Manifest-driven batch decoding.

A manifest is a JSON file listing one record per text line::

    {"lines": [
        {"id": "l001", "matrices": ["experts/a/l001.mat", "experts/b/l001.mat"],
         "ref": "refs/l001.txt"}
    ]}

Every record carries the same number (at least one) of per-expert matrix
paths, assumed rank-ordered (best expert first). Line ids are unique and
hold no tab or line break, since an id heads its line of the output. A
line whose input fails (a toolkit error or an ``OSError``) is recorded in
the output as ``<line-id>\\tERROR:<class name>`` without aborting the
batch; manifest-level problems and program faults raise.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
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
        seen: set[str] = set()
        count = self.expert_count
        for rec in self.records:
            line_id, n = rec.line_id, len(rec.matrix_paths)
            if line_id in seen:
                raise ParseError(0, f"record {line_id!r}: duplicate line id")
            if "\t" in line_id or "\r" in line_id or "\n" in line_id:
                raise ParseError(0, f"record {line_id!r}: a line id must not contain a tab or a line break")
            if not n:
                raise ParseError(0, f"record {line_id!r} needs at least one matrix path")
            if n != count:
                raise ParseError(0, f"record {line_id!r} has {n} matrices, the first record {count}")
            seen.add(line_id)

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
        paths, ref = entry["matrices"], entry.get("ref")
        strings = isinstance(paths, list) and all(isinstance(p, str) for p in paths)
        if not strings or not isinstance(ref, (str, type(None))):
            raise ParseError(0, f"record {entry['id']!r}: 'matrices' must be an array of strings and 'ref' a string")
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


def _worker(record: LineRecord, decode_fn: DecodeFn, experts: int | None) -> tuple[str, str]:
    try:
        return record.line_id, decode_record(record, decode_fn, experts)
    except (CtcDecError, OSError) as exc:
        return record.line_id, f"ERROR:{type(exc).__name__}"


#: A pool worker's decoder and expert count, sent once per worker process.
_pool_decoder: tuple[DecodeFn, int | None] | None = None


def _start_pool_worker(decode_fn: DecodeFn, experts: int | None) -> None:
    global _pool_decoder
    _pool_decoder = decode_fn, experts


def _pool_worker(record: LineRecord) -> tuple[str, str]:
    return _worker(record, *_pool_decoder)


def run_batch(
    manifest: Manifest,
    decode_fn: DecodeFn,
    out_path: str | Path,
    experts: int | None = None,
    jobs: int = 1,
) -> list[tuple[str, str]]:
    """Decode every manifest record, writing ``<line-id>\\t<text>`` lines.

    Output order equals manifest order regardless of ``jobs``. Failed
    lines are written as ``<line-id>\\tERROR:<code>``. Lines go to
    ``<out_path>.tmp`` as they are decoded, renamed to ``out_path`` after
    the last, so an exception leaves the finished lines in the ``.tmp``
    file and no ``out_path``. Returns the (id, text-or-error) pairs.
    With ``jobs > 1``, each worker process gets ``decode_fn`` once, when
    it starts, and the tasks carry only records.
    """
    records = manifest.records
    tmp_path = f"{out_path}.tmp"
    results: list[tuple[str, str]] = []
    with open(tmp_path, "w", encoding="utf-8") as fh, ExitStack() as stack:
        if jobs > 1 and len(records) > 1:
            pool = stack.enter_context(
                ProcessPoolExecutor(max_workers=jobs, initializer=_start_pool_worker, initargs=(decode_fn, experts))
            )
            lines = pool.map(_pool_worker, records, chunksize=max(1, len(records) // (4 * jobs)))
        else:
            lines = (_worker(rec, decode_fn, experts) for rec in records)
        for line_id, text in lines:
            fh.write(f"{line_id}\t{text}\n")
            results.append((line_id, text))
    os.replace(tmp_path, out_path)
    return results
