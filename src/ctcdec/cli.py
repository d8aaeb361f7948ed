"""Command-line interface.

Subcommands:

``decode``
    run a decoding scheme over a manifest of confidence matrices.
``eval``
    score a hypothesis file against a reference file (CER/WER).
``lexicon``
    build a word-frequency lexicon from transcripts.
``synth``
    generate synthetic matrices (plus manifest and references) for a
    list of text lines.
``inspect``
    print matrix statistics and NaC boundary intervals.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

from numpy.random import SeedSequence

from .alphabet import Alphabet, default_alphabet, file_alphabet, normalize_transcript
from .batch import LineRecord, Manifest, load_manifest, run_batch, save_manifest
from .bestpath import decode_best_path
from .committee import CommitteeConfig, committee_decode
from .dictionary import DecodeParams, decode_dictionary
from .errors import CtcDecError, EmptyLexicon, ParseError
from .evaluate import evaluate
from .expressions import (
    RuleConfig,
    compile_rules,
    decode_expression,
    default_rule_config,
    parse_rules,
)
from .lexicon import build_lexicon, load_lexicon, save_lexicon
from .matio import load_matrix, read_text, store_matrix
from .matrix import detect_boundaries
from .synthetic import generate_synthetic

SCHEMES = ("dec-bp", "dec-ce", "dec-dm", "dec-e")


def _parse_beam(value: str) -> int | None:
    if value.lower() in ("inf", "none", "unlimited"):
        return None
    try:
        return int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, or inf, none or unlimited; got {value!r}") from None


def load_alphabet_arg(spec: str) -> Alphabet:
    """``default`` or a path to an alphabet JSON file, read by the rule of
    matrix files (:func:`file_alphabet`); a ``separator`` entry must agree
    with it, so matrices written with the alphabet read back the same."""
    if spec == "default":
        return default_alphabet()
    try:
        doc = json.loads(read_text(spec))
        shape = isinstance(doc, dict) and (type(doc.get("symbols")), type(doc.get("normalization", {})))
        if shape != (list, dict):
            raise ValueError('expected {"symbols": [...], "normalization": {...}}')
        alphabet = file_alphabet(doc["symbols"], doc.get("normalization"))
        if doc.get("separator", alphabet.separator) != alphabet.separator:
            raise ValueError(f"separator {doc['separator']!r} must be {alphabet.separator!r}, as in matrix files")
        return alphabet
    except ValueError as exc:
        raise ParseError(getattr(exc, "lineno", 0), f"bad alphabet file {spec!r}: {exc}") from None


class SchemeDecoder:
    """Picklable per-record decode callable for batch runs."""

    def __init__(
        self,
        scheme: str,
        rule_config: RuleConfig | None = None,
        lexicon=None,
        params: DecodeParams | None = None,
        committee: CommitteeConfig | None = None,
    ):
        self.scheme = scheme
        self.rule_config = rule_config
        self.lexicon = lexicon
        self.params = params or DecodeParams()
        self.committee = committee
        self._model_cache: dict[tuple[str, ...], object] = {}

    def _model(self, alphabet: Alphabet):
        if self.scheme == "dec-ce" or self.rule_config is not None:
            # The model, or the error compiling it, once per alphabet; a cached
            # error is raised for each line, without an earlier line's traceback.
            key = alphabet.symbols
            if key not in self._model_cache:
                try:
                    self._model_cache[key] = compile_rules(self.rule_config or default_rule_config(alphabet), alphabet)
                except CtcDecError as exc:
                    self._model_cache[key] = exc
            model = self._model_cache[key]
            if isinstance(model, CtcDecError):
                raise model.with_traceback(None)
            return model
        return None

    def __call__(self, matrices):
        alphabet = matrices[0].alphabet
        if self.scheme == "dec-bp":
            return decode_best_path(matrices[0])
        # The batch writes only text: the single-matrix schemes compute no word confidences.
        if self.scheme == "dec-ce":
            return decode_expression(
                matrices[0],
                self._model(alphabet),
                beam_width=self.params.beam_width,
                min_symbol_prob=self.params.min_symbol_prob,
                word_confidences=False,
            )
        if self.scheme == "dec-dm":
            return decode_dictionary(
                matrices[0], self.lexicon, self.params, self._model(alphabet), word_confidences=False
            )
        return committee_decode(
            matrices, self.lexicon, self.params, self.committee, self._model(alphabet)
        )


#: ``DecodeParams`` and ``CommitteeConfig`` fields by their decode option.
_DECODE_OPTIONS = {
    "lm_weight": "--alpha",
    "word_bonus": "--beta",
    "beam_width": "--beam",
    "min_symbol_prob": "--min-symbol-prob",
    "vote_lambda": "--lambda",
    "null_confidence": "--null-conf",
    "n": "--experts",
}


def _cmd_decode(args: argparse.Namespace) -> int:
    if args.jobs < 1:
        raise ValueError(f"--jobs must be >= 1, got {args.jobs}")
    # The output is renamed into place after the last line: check the target first.
    if Path(args.out).is_dir():
        raise IsADirectoryError(f"--out {args.out!r} is a directory")
    manifest = load_manifest(args.manifest)
    rule_config = None
    if args.rules:
        rule_config = parse_rules(read_text(args.rules))
    lexicon = None
    if args.scheme in ("dec-dm", "dec-e"):
        if not args.lexicon:
            raise ValueError(f"{args.scheme} requires --lexicon")
        lexicon = load_lexicon(args.lexicon)
        if len(lexicon) == 0:
            raise EmptyLexicon(f"lexicon {args.lexicon!r} has no words")
    # Every option is checked whatever the scheme. A manifest with no lines
    # has no expert count; any committee decodes it.
    experts = (manifest.expert_count or 1) if args.experts is None else args.experts
    if manifest.records and not 1 <= experts <= manifest.expert_count:
        raise ValueError(f"--experts must be in [1, {manifest.expert_count}], the manifest's matrices per line; got {experts}")
    try:
        params = DecodeParams(
            lm_weight=args.alpha,
            word_bonus=args.beta,
            beam_width=args.beam,
            oov_policy=args.oov,
            min_symbol_prob=args.min_symbol_prob,
        )
        committee = CommitteeConfig(n=experts, vote_lambda=args.vote_lambda, null_confidence=args.null_conf)
    except ValueError as exc:
        # The library names its fields; say which option was out of range.
        field, _, rest = str(exc).partition(" ")
        raise ValueError(f"{_DECODE_OPTIONS.get(field, field)} {rest}") from None
    decoder = SchemeDecoder(
        args.scheme,
        rule_config=rule_config,
        lexicon=lexicon,
        params=params,
        committee=committee,
    )
    # The single-matrix schemes decode (and load) each line's first matrix.
    results = run_batch(manifest, decoder, args.out, experts=experts if args.scheme == "dec-e" else 1, jobs=args.jobs)
    failures = sum(1 for _, text in results if text.startswith("ERROR:"))
    print(f"decoded {len(results)} line(s), {failures} failure(s) -> {args.out}")
    return 0


def _read_lines_file(path: str) -> list[tuple[str, str]]:
    """Read ``id<TAB>text`` or bare-text lines; a bare line's id is its 0-based position."""
    content = read_text(path)
    out = []
    for i, line in enumerate(content.removesuffix("\n").split("\n") if content else ()):
        if "\t" in line:
            line_id, text = line.split("\t", 1)
        else:
            line_id, text = str(i), line
        out.append((line_id, text))
    return out


def _lines_by_id(path: str) -> dict[str, tuple[int, str]]:
    """A lines file's ``id -> (line number, text)``; a repeated id is a :class:`ParseError`."""
    lines: dict[str, tuple[int, str]] = {}
    for lineno, (line_id, text) in enumerate(_read_lines_file(path), start=1):
        if line_id in lines:
            raise ParseError(lineno, f"id {line_id!r} of {path} repeats line {lines[line_id][0]}")
        lines[line_id] = (lineno, text)
    return lines


def _cmd_eval(args: argparse.Namespace) -> int:
    alphabet = load_alphabet_arg(args.alphabet)
    hyp_lines, ref_lines = _lines_by_id(args.hyp), _lines_by_id(args.ref)
    # Lines pair by id only, so both files must hold the same ids.
    sides = ((args.hyp, hyp_lines, args.ref, ref_lines), (args.ref, ref_lines, args.hyp, hyp_lines))
    for path, lines, other_path, other in sides:
        for line_id, (lineno, _) in lines.items():
            if line_id not in other:
                raise ParseError(lineno, f"id {line_id!r} of {path} is not in {other_path}")
    # A line the decoder failed on (``ERROR:<code>``) scores as an empty hypothesis.
    failed = sum(text.startswith("ERROR:") for _, text in hyp_lines.values())
    hyps = ["" if text.startswith("ERROR:") else text for _, text in hyp_lines.values()]
    report = evaluate(hyps, [ref_lines[line_id][1] for line_id in hyp_lines], alphabet)
    cops, wops = report.char_ops, report.word_ops
    print(f"{'lines':<12}{len(report.lines)}")
    print(f"{'ref chars':<12}{sum(s.char_ref_len for s in report.lines)}")
    print(f"{'CER':<12}{report.cer:.6f}  (sub {cops.substitutions}  del {cops.deletions}  ins {cops.insertions})")
    print(f"{'ref words':<12}{sum(s.word_ref_len for s in report.lines)}")
    print(f"{'WER':<12}{report.wer:.6f}  (sub {wops.substitutions}  del {wops.deletions}  ins {wops.insertions})")
    if args.per_line:
        for line_id, score in zip(hyp_lines, report.lines):
            print(f"line {line_id}: char {score.char_distance}/{score.char_ref_len}  word {score.word_distance}/{score.word_ref_len}")
    print(f"cer={report.cer}")
    print(f"wer={report.wer}")
    print(f"char_substitutions={cops.substitutions}")
    print(f"char_deletions={cops.deletions}")
    print(f"char_insertions={cops.insertions}")
    print(f"word_substitutions={wops.substitutions}")
    print(f"word_deletions={wops.deletions}")
    print(f"word_insertions={wops.insertions}")
    print(f"failed={failed}")
    return 0


def _cmd_lexicon(args: argparse.Namespace) -> int:
    alphabet = load_alphabet_arg(args.alphabet)
    transcripts: list[str] = []
    for source in args.corpus:
        path = Path(source)
        files = sorted(path.glob("*.txt")) if path.is_dir() else [path]
        for f in files:
            for line in read_text(f).split("\n"):
                if line:
                    transcripts.append(normalize_transcript(line, alphabet))
    lexicon = build_lexicon(transcripts, alphabet)
    save_lexicon(lexicon, args.out)
    print(f"{len(lexicon)} words, total count {lexicon.total_count} -> {args.out}")
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    alphabet = load_alphabet_arg(args.alphabet)
    if args.experts < 1:
        raise ValueError(f"--experts must be >= 1, got {args.experts}")
    if args.fpc < 2:
        raise ValueError(f"--fpc must be >= 2, got {args.fpc}")
    if not 0.0 <= args.noise < 1.0:
        raise ValueError(f"--noise must be in [0, 1), got {args.noise}")
    texts = [normalize_transcript(t, alphabet) for _, t in _read_lines_file(args.lines)]
    # Every matrix is built before anything is written, so a bad option or
    # line leaves no files behind.
    matrices = [
        [
            generate_synthetic(
                text, alphabet, frames_per_char=args.fpc, noise=args.noise,
                seed=int(SeedSequence([args.seed, e, i]).generate_state(1)[0]),
            )
            for e in range(args.experts)
        ]
        for i, text in enumerate(texts)
    ]
    out_dir = Path(args.out_dir)
    (out_dir / "refs").mkdir(parents=True, exist_ok=True)
    records = []
    for i, (text, experts) in enumerate(zip(texts, matrices)):
        line_id = f"l{i:04d}"
        ref_path = out_dir / "refs" / f"{line_id}.txt"
        ref_path.write_text(text + "\n", encoding="utf-8")
        paths = []
        for expert, matrix in enumerate(experts):
            mat_path = out_dir / f"e{expert}_{line_id}.ctcmat"
            store_matrix(matrix, mat_path, binary=args.binary)
            paths.append(str(mat_path))
        records.append(LineRecord(line_id=line_id, matrix_paths=tuple(paths), ref_path=str(ref_path)))
    manifest = Manifest(records=tuple(records))
    save_manifest(manifest, out_dir / "manifest.json")
    with open(out_dir / "refs.tsv", "w", encoding="utf-8") as fh:
        for rec, text in zip(records, texts):
            fh.write(f"{rec.line_id}\t{text}\n")
    print(f"{len(records)} line(s) x {args.experts} expert(s) -> {out_dir}")
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    matrix = load_matrix(args.matrix)
    alphabet = matrix.alphabet
    sums = matrix.probs.sum(axis=1)
    nac_col = matrix.probs[:, alphabet.nac_index]
    intervals = detect_boundaries(matrix, args.threshold)
    print(f"{'frames':<12}{matrix.num_frames}")
    print(f"{'symbols':<12}{matrix.num_symbols} (NaC at index {alphabet.nac_index})")
    print(f"{'separator':<12}{alphabet.separator!r}")
    print(f"{'row sums':<12}min {sums.min():.9f}  max {sums.max():.9f}")
    print(f"{'NaC conf':<12}mean {nac_col.mean():.4f}  max {nac_col.max():.4f}")
    spans = " ".join(f"[{s},{e})" for s, e in intervals) or "(none)"
    print(f"{'boundaries':<12}{spans}  (threshold {args.threshold})")
    print(f"{'best path':<12}{decode_best_path(matrix).text!r}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ctcdec", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decode", help="decode a manifest of confidence matrices")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--scheme", required=True, choices=SCHEMES)
    p.add_argument("--rules", help="expression rule file (dec-ce; optional overlay for dec-dm/dec-e)")
    p.add_argument("--lexicon", help="lexicon file (dec-dm, dec-e)")
    p.add_argument("--beam", type=_parse_beam, default=64, help="beam width, or 'inf'")
    p.add_argument("--alpha", type=float, default=1.0, help="word-frequency weight")
    p.add_argument("--beta", type=float, default=0.0, help="word insertion bonus")
    p.add_argument("--oov", choices=("reject", "pass-punct"), default="reject")
    p.add_argument("--min-symbol-prob", type=float, default=0.0)
    p.add_argument("--experts", type=int, help="committee size (default: all manifest experts)")
    p.add_argument("--lambda", dest="vote_lambda", type=float, default=0.5)
    p.add_argument("--null-conf", type=float, default=0.7)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("eval", help="score hypotheses against references")
    p.add_argument("--hyp", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--alphabet", default="default")
    p.add_argument("--per-line", action="store_true")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("lexicon", help="lexicon utilities")
    lex_sub = p.add_subparsers(dest="lexicon_command", required=True)
    pb = lex_sub.add_parser("build", help="count words in transcript files")
    pb.add_argument("--corpus", nargs="+", required=True, help="transcript files or directories of *.txt")
    pb.add_argument("--out", required=True)
    pb.add_argument("--alphabet", default="default")
    pb.set_defaults(func=_cmd_lexicon)

    p = sub.add_parser("synth", help="generate synthetic matrices for text lines")
    p.add_argument("--lines", required=True, help="text file, one line per text line")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--fpc", type=int, default=3, help="frames per character")
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--experts", type=int, default=1)
    p.add_argument("--binary", action="store_true")
    p.add_argument("--alphabet", default="default")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("inspect", help="print matrix statistics")
    p.add_argument("--matrix", required=True)
    p.add_argument("--threshold", type=float, default=0.5)
    p.set_defaults(func=_cmd_inspect)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CtcDecError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenProcessPool as exc:
        # A decode worker process died (killed for memory, say).
        print(f"error: {exc} The lines written so far are in {args.out}.tmp", file=sys.stderr)
        return 1
    except ValueError as exc:
        # A bad option value: a number out of range or a missing option.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
