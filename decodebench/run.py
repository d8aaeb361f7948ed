"""Decode benchmark: one workload, one seed, one run.

Usage (from the repository root)::

    python3 decodebench/run.py --workload dm-b64 --seed 1 --seconds 20 --trace 0

The run generates the workload's inputs from the seed (untimed), sets up
the decoder the way ``ctcdec decode`` does, decodes the manifest with
``run_batch(jobs=1)`` and scores it with ``evaluate`` in passes until about
``--seconds`` have been spent, checks the output, and prints one JSON
object as its last line. ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` reports the per-layer metrics from a traced run (plus an
untraced run for the tracing overhead) and writes the spans to
``.bench_out/``. See ``decodebench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from hostclock import HostClock
from spans import LAYERS, RECORD, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"

#: Set-up is short, so it is repeated and the median reported.
SETUP_REPEATS = 31
#: A percentile is reported only with at least ten samples beyond it.
P90_MIN_SAMPLES = 100

END_TO_END_UNITS = {
    "setup_s": "s",
    "lines_per_s": "1/s",
    "line_ms_p50": "ms",
    "char_acc": "frac",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "search.ms_per_frame": "ms",
    "search.calls": "count",
    "search.share": "frac",
    "dictionary.self_ms": "ms",
    "expressions.self_ms": "ms",
    "ctc.conf_ms_per_call": "ms",
    "ctc.words_per_call": "count",
    "matio.load_ms": "ms",
    "matio.calls": "count",
    "matio.bytes_read": "bytes",
    "evaluate.ms_per_line": "ms",
    "bestpath.ms_per_call": "ms",
    "committee.combine_ms_per_call": "ms",
    "committee.words_out": "count",
    "batch.overhead_ms": "ms",
    "batch.failed": "count",
    "lexicon.load_ms": "ms",
    "expressions.compile_ms": "ms",
    "trace.overhead_frac": "frac",
}


@dataclass(frozen=True)
class SetupTimes:
    seconds: float
    lexicon_ms: float
    compile_ms: float


@dataclass(frozen=True)
class Setup:
    manifest: object
    decoder: object
    lexicon: object
    model: object
    times: SetupTimes


@dataclass(frozen=True)
class Pass:
    wall_s: float
    #: ``decode_record`` time of each line, in manifest order.
    record_s: tuple[float, ...]
    #: Host slowdown sampled just before each of those records.
    record_slowdown: tuple[float, ...]
    out_sha256: str
    failed: int
    report: object


def set_up(workload, inputs) -> Setup:
    """Everything before the first record can be decoded, as ``ctcdec decode`` does it."""
    from ctcdec.batch import load_manifest
    from ctcdec.cli import SchemeDecoder
    from ctcdec.committee import CommitteeConfig
    from ctcdec.dictionary import DecodeParams
    from ctcdec.expressions import compile_rules, default_rule_config
    from ctcdec.lexicon import load_lexicon

    start = perf_counter()
    manifest = load_manifest(inputs.manifest_path)
    lexicon = model = None
    lexicon_ms = compile_ms = 0.0
    if inputs.lexicon_path is not None:
        t = perf_counter()
        lexicon = load_lexicon(inputs.lexicon_path)
        lexicon_ms = (perf_counter() - t) * 1e3
    if workload.scheme == "dec-ce":
        # SchemeDecoder compiles the stock rules again, lazily, on its first
        # record; compiling them here counts rule compilation in set-up.
        t = perf_counter()
        model = compile_rules(default_rule_config(inputs.alphabet), inputs.alphabet)
        compile_ms = (perf_counter() - t) * 1e3
    params = DecodeParams(beam_width=workload.beam, min_symbol_prob=workload.min_symbol_prob)
    committee = None
    if workload.scheme == "dec-e":
        committee = CommitteeConfig(
            n=workload.experts, vote_lambda=workload.vote_lambda, null_confidence=0.7
        )
    decoder = SchemeDecoder(workload.scheme, lexicon=lexicon, params=params, committee=committee)
    times = SetupTimes(perf_counter() - start, lexicon_ms, compile_ms)
    return Setup(manifest, decoder, lexicon, model, times)


def measure(
    workload, setup: Setup, inputs, out_path: Path, seconds: float, tracer, clock: HostClock
) -> list[Pass]:
    """Decode and score the manifest in passes until about ``seconds`` are spent.

    Another pass starts while the passes so far, plus half of one more,
    stay under ``seconds``; there is always one. ``tracer`` must wrap
    ``batch.decode_record`` and call ``clock.mark`` before each record;
    time spent sampling is not part of a pass.
    """
    from ctcdec.batch import run_batch
    from ctcdec.evaluate import evaluate

    experts = workload.experts if workload.scheme == "dec-e" else None
    passes: list[Pass] = []
    spent = 0.0
    while not passes or spent * (1 + 0.5 / len(passes)) < seconds:
        clock.sample()
        sampling = clock.spent_s
        t0 = perf_counter()
        results = tracer.span(
            "batch.run_batch", run_batch, setup.manifest, setup.decoder, out_path,
            experts=experts, jobs=1,
        )
        hyps = ["" if text.startswith("ERROR:") else text for _, text in results]
        report = tracer.span(
            "evaluate.evaluate", evaluate, hyps, inputs.refs, inputs.alphabet,
            count=lambda args, result: len(args[0]),
        )
        wall = perf_counter() - t0 - (clock.spent_s - sampling)
        spent += wall
        n = len(results)
        records = tuple(tracer.durations(RECORD.name)[-n:])
        slowdowns = tuple(clock.marks[-n:])
        failed = sum(text.startswith("ERROR:") for _, text in results)
        digest = _sha256(out_path.read_bytes())
        passes.append(Pass(wall, records, slowdowns, digest, failed, report))
    clock.sample()
    return passes


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "ctcdec").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _git_sha() -> str | None:
    """HEAD of the checkout, if the checkout itself is a git work tree."""
    if not (ROOT / ".git").exists():
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def lines_per_s(passes: list[Pass], slowdown: float | None = None) -> float:
    """Lines decoded and scored per second of ``run_batch`` + ``evaluate``.

    With ``slowdown`` (the run's mean), each record's time is divided by the
    slowdown sampled just before it, and the rest of each pass by
    ``slowdown``: the rate at the reference host speed.
    """
    lines = sum(len(p.record_s) for p in passes)
    if slowdown is None:
        return lines / sum(p.wall_s for p in passes)
    records = sum(r / s for p in passes for r, s in zip(p.record_s, p.record_slowdown))
    rest = sum(p.wall_s - sum(p.record_s) for p in passes) / slowdown
    return lines / (records + rest)


def scaled_line_ms(passes: list[Pass]) -> list[float]:
    return [r * 1e3 / s for p in passes for r, s in zip(p.record_s, p.record_slowdown)]


def _per(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tracer, passes: list[Pass], slowdown: float, measured: dict) -> dict:
    """Per-layer metrics of a traced run; times are divided by ``slowdown``.

    ``measured`` holds the metrics taken outside the traced passes.
    """
    totals = tracer.totals()
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "count": 0}

    def get(name: str) -> dict:
        return totals.get(name, empty)

    record = get("batch.decode_record")
    search = get("search.prefix_beam_search")
    dictionary = get("dictionary.decode_dictionary")
    expression = get("expressions.decode_expression")
    ctc = get("ctc.marginal_word_confidences")
    matio = get("matio.load_matrix")
    evaluate = get("evaluate.evaluate")
    bestpath = get("bestpath.decode_best_path")
    combine = get("committee.combine_hypotheses")
    n = len(passes)
    # run_batch's own time: each pass minus its records and evaluate.
    batch_s = sum(p.wall_s - sum(p.record_s) for p in passes) - evaluate["total_s"]

    def ms(seconds: float, per: float) -> float:
        return _per(seconds * 1e3 / slowdown, per)

    return {
        "search.ms_per_frame": ms(search["total_s"], search["count"]),
        "search.calls": search["calls"] / n,
        "search.share": _per(search["total_s"], record["total_s"]),
        "dictionary.self_ms": ms(dictionary["self_s"], dictionary["calls"]),
        "expressions.self_ms": ms(expression["self_s"], expression["calls"]),
        "ctc.conf_ms_per_call": ms(ctc["total_s"], ctc["calls"]),
        "ctc.words_per_call": _per(ctc["count"], ctc["calls"]),
        "matio.load_ms": ms(matio["total_s"], matio["calls"]),
        "matio.calls": matio["calls"] / n,
        "matio.bytes_read": matio["count"] / n,
        "evaluate.ms_per_line": ms(evaluate["total_s"], evaluate["count"]),
        "bestpath.ms_per_call": ms(bestpath["total_s"], bestpath["calls"]),
        "committee.combine_ms_per_call": ms(combine["total_s"], combine["calls"]),
        "committee.words_out": _per(combine["count"], combine["calls"]),
        "batch.overhead_ms": ms(batch_s, n),
        "batch.failed": sum(p.failed for p in passes) / n,
        **measured,
    }


def run(args: argparse.Namespace) -> int:
    from workloads import WORKLOADS, check_output, generate

    workload = WORKLOADS[args.workload]
    workdir = WORK / f"{workload.name}-{args.seed}-{os.getpid()}"
    try:
        inputs = generate(workload, args.seed, workdir, args.lines)
        lines = len(inputs.ids)
        setups = []
        setup_clock = HostClock(interval_s=0.0, repeats=1)
        for _ in range(SETUP_REPEATS):
            setup_clock.mark()
            setup = set_up(workload, inputs)
            setups.append(setup.times)
        out_path = workdir / "out.tsv"

        clock = HostClock(interval_s=1.0)
        timed = Tracer(clock.mark)
        timed.install([RECORD])
        try:
            budget = args.seconds / 2 if args.trace else args.seconds
            passes = measure(workload, setup, inputs, out_path, budget, timed, clock)
        finally:
            timed.uninstall()
        slowdown = clock.slowdown
        runs = [passes]
        if args.trace:
            traced_clock = HostClock(interval_s=1.0)
            traced = Tracer(traced_clock.mark)
            traced.install(LAYERS)
            try:
                runs.append(
                    measure(workload, setup, inputs, out_path, budget, traced, traced_clock)
                )
            finally:
                traced.uninstall()
            spans_path = OUT / f"spans-{workload.name}-seed{args.seed}.jsonl"
            traced.write(spans_path)

        # Correctness, outside every timed region.
        attach = setup.lexicon.attach_chars if setup.lexicon is not None else frozenset()
        accepts = setup.model.accepts if setup.model is not None else None
        problems = check_output(workload, inputs, out_path, attach, accepts)
        digests = {p.out_sha256 for r in runs for p in r}
        if len(digests) != 1:
            problems.append(f"passes wrote {len(digests)} different outputs")

        report = passes[0].report
        all_passes = [p for r in runs for p in r]
        attempted = lines * len(all_passes)
        failed = sum(p.failed for p in all_passes)
        line_ms = scaled_line_ms(passes)
        raw = {
            "setup_s": statistics.median(s.seconds for s in setups),
            "lines_per_s": lines_per_s(passes),
            "line_ms_p50": statistics.median(r for p in passes for r in p.record_s) * 1e3,
        }
        meta = {
            "workload": workload.name,
            "seed": args.seed,
            "git_sha": _git_sha(),
            "source_sha256": _source_sha256(),
            "output_sha256": passes[0].out_sha256,
            "inputs": {
                "lines": lines,
                "mean_frames": inputs.mean_frames,
                "alphabet_size": len(inputs.alphabet),
                "lexicon_size": len(setup.lexicon) if setup.lexicon is not None else 0,
                "beam": workload.beam,
                "experts": workload.experts,
                "matrix_format": "binary" if workload.binary else "text",
            },
            "passes": len(passes),
            "line_ms_samples": len(line_ms),
            "host_slowdown": slowdown,
            "calibration_samples": len(clock.samples),
            "unscaled": raw,
            "wer": report.wer,
            "cer": report.cer,
            "failed_frac": failed / attempted,
            "violations": problems[:20],
        }
        if len(line_ms) >= P90_MIN_SAMPLES:
            meta["line_ms_p90"] = statistics.quantiles(line_ms, n=10)[-1]
        print(json.dumps(meta))

        def setup_median(field: str) -> float:
            return statistics.median(
                getattr(t, field) / s for t, s in zip(setups, setup_clock.marks)
            )

        if args.trace:
            traced_lps = lines_per_s(runs[1], traced_clock.slowdown)
            values = layer_metrics(traced, runs[1], traced_clock.slowdown, {
                "lexicon.load_ms": setup_median("lexicon_ms"),
                "expressions.compile_ms": setup_median("compile_ms"),
                "trace.overhead_frac": lines_per_s(passes, slowdown) / traced_lps - 1.0,
            })
            units = PER_LAYER_UNITS
            print(f"spans -> {spans_path.relative_to(ROOT)}")
        else:
            values = {
                "setup_s": setup_median("seconds"),
                "lines_per_s": lines_per_s(passes, slowdown),
                "line_ms_p50": statistics.median(line_ms),
                "char_acc": 1.0 - report.cer,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            units = END_TO_END_UNITS
        result = {
            "correct": not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
        }
        print(json.dumps(result))
        return 0 if not problems else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--lines", type=int, help="override the workload's line count (smoke test)")
    args = parser.parse_args(argv)

    if not (SRC / "ctcdec" / "__init__.py").is_file():
        print(f"error: no ctcdec source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ctcdec

    if Path(ctcdec.__file__).resolve().parent != (SRC / "ctcdec").resolve():
        print(f"error: imported ctcdec from {ctcdec.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
