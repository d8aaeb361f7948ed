"""Smoke test for the decode benchmark.

Runs every workload at a tiny size, checks that each end-to-end metric
named in BENCHMARK.json is printed with its unit (and each per-layer
metric in a traced run), that a corrupted output file trips the output
check, and that the benchmark refuses to run without the ctcdec source.

    PYTHONPATH=src python -m pytest -q decodebench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from ctcdec.expressions import compile_rules, default_rule_config  # noqa: E402
from ctcdec.lexicon import load_lexicon  # noqa: E402
from workloads import WORKLOADS, check_output, generate  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "decodebench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _assert_metrics(result: dict, specs: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in specs]
    for m in specs:
        printed = result["metrics"][m["name"]]
        assert printed["unit"] == m["unit"]
        assert isinstance(printed["value"], (int, float))


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tiny_run_prints_every_end_to_end_metric(workload):
    result = _result(_run("--workload", workload, "--seed", "3", "--seconds", "1",
                          "--trace", "0", "--lines", "1"))
    _assert_metrics(result, SPEC["end_to_end"])
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["value"] > 0


def test_traced_run_prints_every_per_layer_metric():
    result = _result(_run("--workload", "committee-e5", "--seed", "3", "--seconds", "1",
                          "--trace", "1", "--lines", "2"))
    _assert_metrics(result, SPEC["per_layer"])


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_corrupted_output_trips_the_check(workload, tmp_path):
    spec = WORKLOADS[workload]
    inputs = generate(spec, seed=5, workdir=tmp_path, lines=3)
    attach = load_lexicon(inputs.lexicon_path).attach_chars if inputs.lexicon_path else frozenset()
    model = compile_rules(default_rule_config(inputs.alphabet), inputs.alphabet)
    # The references (dec-bp: the argmax paths) satisfy every invariant.
    good = inputs.best_paths if spec.scheme == "dec-bp" else inputs.refs
    out = tmp_path / "out.tsv"
    out.write_text("".join(f"{i}\t{t}\n" for i, t in zip(inputs.ids, good)), encoding="utf-8")
    assert check_output(spec, inputs, out, attach, model.accepts) == []

    text = out.read_text(encoding="utf-8").splitlines()
    text[1] = f"{inputs.ids[1]}\tqqqqqqqqqqqq1a"
    out.write_text("\n".join(text) + "\n", encoding="utf-8")
    problems = check_output(spec, inputs, out, attach, model.accepts)
    assert len(problems) == 1 and problems[0].startswith(inputs.ids[1])


def test_refuses_to_run_without_the_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "decodebench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("--workload", "bp-text", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
