"""Confidence-matrix file formats.

Text format (UTF-8)::

    CTCMAT v1
    a<TAB>b<TAB><NaC>
    T=3
    0.8<TAB>0.1<TAB>0.1
    ...

Line 2 lists the alphabet symbols tab-separated, with the NaC symbol
written as the literal token ``<NaC>``. The binary variant carries the
same three header lines with magic ``CTCMAT b1``, followed by T*S
little-endian float32 values in row-major order.
"""

from __future__ import annotations

import io
from contextlib import suppress
from pathlib import Path

import numpy as np

from .alphabet import NAC_TOKEN, Alphabet, file_alphabet
from .errors import ParseError
from .matrix import ConfidenceMatrix

TEXT_MAGIC = "CTCMAT v1"
BINARY_MAGIC = "CTCMAT b1"


def _format_alphabet(alphabet: Alphabet) -> str:
    return "\t".join(
        NAC_TOKEN if i == alphabet.nac_index else sym
        for i, sym in enumerate(alphabet.symbols)
    )


def _decode(raw: bytes, lineno: int) -> str:
    """One line of the file as text, without its newline."""
    try:
        return raw.decode("utf-8").rstrip("\n")
    except UnicodeDecodeError as exc:
        raise ParseError(lineno, f"invalid UTF-8 ({exc.reason})") from None


def read_text(path: str | Path) -> str:
    """A UTF-8 text file's contents, with ``\\r\\n`` and ``\\r`` line ends
    read as ``\\n`` (as text mode reads them). Bytes that are not UTF-8
    raise :class:`ParseError` with their line number."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        # Decode line by line to find the line; one of them must fail.
        for lineno, raw in enumerate(data.splitlines(), start=1):
            _decode(raw, lineno)
        raise
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _parse_frame_count(line: str, lineno: int) -> int:
    if not line.startswith("T="):
        raise ParseError(lineno, f"expected 'T=<int>', got {line!r}")
    try:
        count = int(line[2:])
    except ValueError:
        raise ParseError(lineno, f"bad frame count {line[2:]!r}") from None
    if count < 1:
        raise ParseError(lineno, f"frame count must be >= 1, got {count}")
    return count


def store_matrix(matrix: ConfidenceMatrix, path: str | Path, binary: bool = False) -> None:
    """Write a matrix; text values use shortest round-trip formatting."""
    header = (
        f"{BINARY_MAGIC if binary else TEXT_MAGIC}\n"
        f"{_format_alphabet(matrix.alphabet)}\n"
        f"T={matrix.num_frames}\n"
    )
    if binary:
        with open(path, "wb") as fh:
            fh.write(header.encode("utf-8"))
            fh.write(matrix.probs.astype("<f4").tobytes())
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(header)
            for row in matrix.probs:
                fh.write("\t".join(repr(float(v)) for v in row) + "\n")


def load_matrix(path: str | Path, alphabet: Alphabet | None = None) -> ConfidenceMatrix:
    """Read a matrix in either format.

    When ``alphabet`` is given, its symbols must match the file's and it
    is used as-is (keeping its normalization map and separator); otherwise
    the alphabet is reconstructed from the file, with the separator of
    :func:`~ctcdec.alphabet.file_alphabet`. Row sums follow the load policy:
    small deviations are renormalized with a warning, large ones raise.
    """
    with open(path, "rb") as fh:
        magic = fh.readline().decode("utf-8", errors="replace").rstrip("\n")
        if magic not in (TEXT_MAGIC, BINARY_MAGIC):
            raise ParseError(1, f"bad magic {magic!r}")
        try:
            header = file_alphabet(_decode(fh.readline(), 2).split("\t"))
        except ValueError as exc:
            raise ParseError(2, str(exc)) from None
        n_frames = _parse_frame_count(_decode(fh.readline(), 3), 3)
        n_symbols = len(header)

        if alphabet is not None:
            if alphabet.symbols != header.symbols:
                raise ParseError(2, "file alphabet does not match the expected alphabet")
        else:
            alphabet = header

        if magic == BINARY_MAGIC:
            payload = fh.read()
            expected = n_frames * n_symbols * 4
            if len(payload) != expected:
                raise ParseError(4, f"expected {expected} payload bytes, got {len(payload)}")
            rows = np.frombuffer(payload, dtype="<f4").reshape(n_frames, n_symbols)
            return ConfidenceMatrix.from_rows(rows.astype(np.float64), alphabet)

        return ConfidenceMatrix.from_rows(_parse_text_rows(fh.read(), n_frames, n_symbols), alphabet)


def _parse_text_rows(payload: bytes, n_frames: int, n_symbols: int) -> np.ndarray:
    """The T x S values after the ``T=`` line; only whitespace may follow
    the last row. The header's T only limits the split (no file has more
    lines than bytes), so a huge T fails where the file ends. T ASCII rows
    go to one ``np.loadtxt``, which rounds as ``float`` does but accepts
    less (no ``1_0``, hex or Unicode digits), if it will see exactly those
    rows: none is blank (it skips those, and warns if none is left), no
    ``\\r`` stands outside a ``\\r\\n`` (it ends a line there) and no
    separator ``\\x1c``-``\\x1f`` occurs (it strips those as whitespace).
    A ``ValueError`` or a shape other than T x S goes row by row, which
    names the line."""
    rows = payload.split(b"\n", min(n_frames, len(payload)))
    trailing = rows.pop() if len(rows) > n_frames else b""
    lone_cr = b"\r" in payload and payload.count(b"\r") != payload.count(b"\r\n")
    separators = any(byte in payload for byte in b"\x1c\x1d\x1e\x1f")
    if (
        len(rows) == n_frames
        and all(row.strip() for row in rows)
        and not trailing.strip()
        and not lone_cr
        and not separators
    ):
        with suppress(ValueError):  # UnicodeDecodeError included
            values = np.loadtxt(rows, dtype=np.float64, delimiter="\t", comments=None, ndmin=2, encoding="ascii")
            if values.shape == (n_frames, n_symbols):
                return values
    return _parse_rows_one_by_one(payload, n_frames, n_symbols)


def _parse_rows_one_by_one(payload: bytes, n_frames: int, n_symbols: int) -> np.ndarray:
    lines = io.BytesIO(payload)
    values: list[float] = []
    for lineno in range(4, 4 + n_frames):
        raw = lines.readline()
        if not raw:
            raise ParseError(lineno, f"expected {n_frames} rows, file ends at row {lineno - 4}")
        parts = _decode(raw, lineno).split("\t")
        if len(parts) != n_symbols:
            raise ParseError(lineno, f"expected {n_symbols} values, got {len(parts)}")
        try:
            values.extend(map(float, parts))
        except ValueError as exc:
            raise ParseError(lineno, str(exc)) from None
    for lineno, raw in enumerate(lines, start=4 + n_frames):
        if raw.strip():
            raise ParseError(lineno, "trailing content after the last row")
    return np.reshape(values, (n_frames, n_symbols))
