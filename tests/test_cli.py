import builtins
import io
import itertools
import json
import os
import pickle
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ctcdec import cli, errors
from ctcdec.alphabet import default_alphabet
from ctcdec.cli import main
from ctcdec.expressions import default_rule_config, format_rules
from test_matio import _edits


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


@pytest.fixture()
def workspace(tmp_path):
    lines = tmp_path / "lines.txt"
    lines.write_text("the cat\nthe hat\ncat sat\n", encoding="utf-8")
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "train.txt").write_text(
        "the cat sat\nthe hat\nthe cat\n", encoding="utf-8"
    )
    return tmp_path


def test_synth_decode_eval_pipeline(workspace, capsys):
    out_dir = workspace / "synth"
    assert run_cli(
        "synth", "--lines", workspace / "lines.txt", "--out-dir", out_dir,
        "--fpc", 3, "--noise", 0.0, "--experts", 2,
    ) == 0
    manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    assert len(manifest["lines"]) == 3
    assert len(manifest["lines"][0]["matrices"]) == 2

    hyp = workspace / "hyp.tsv"
    assert run_cli(
        "decode", "--manifest", out_dir / "manifest.json",
        "--scheme", "dec-bp", "--out", hyp,
    ) == 0
    rows = dict(
        line.split("\t", 1)
        for line in hyp.read_text(encoding="utf-8").splitlines()
    )
    assert rows["l0000"] == "the cat"

    capsys.readouterr()
    assert run_cli("eval", "--hyp", hyp, "--ref", out_dir / "refs.tsv") == 0
    output = capsys.readouterr().out
    assert "cer=0.0" in output
    assert "wer=0.0" in output


def test_lexicon_build_and_dictionary_decode(workspace, capsys):
    lex_path = workspace / "words.tsv"
    assert run_cli(
        "lexicon", "build", "--corpus", workspace / "corpus", "--out", lex_path
    ) == 0
    content = lex_path.read_text(encoding="utf-8")
    assert "3\tthe" in content

    out_dir = workspace / "synth"
    run_cli(
        "synth", "--lines", workspace / "lines.txt", "--out-dir", out_dir,
        "--noise", 0.15, "--seed", 3,
    )
    hyp = workspace / "hyp.tsv"
    assert run_cli(
        "decode", "--manifest", out_dir / "manifest.json", "--scheme", "dec-dm",
        "--lexicon", lex_path, "--out", hyp, "--beam", 8,
    ) == 0
    assert len(hyp.read_text(encoding="utf-8").splitlines()) == 3


def test_dictionary_scheme_requires_lexicon(workspace):
    out_dir = workspace / "synth"
    run_cli("synth", "--lines", workspace / "lines.txt", "--out-dir", out_dir)
    code = run_cli(
        "decode", "--manifest", out_dir / "manifest.json",
        "--scheme", "dec-dm", "--out", workspace / "x.tsv",
    )
    assert code == 2


def test_expression_decode_with_rules_file(workspace):
    out_dir = workspace / "synth"
    run_cli("synth", "--lines", workspace / "lines.txt", "--out-dir", out_dir)
    rules = workspace / "rules.txt"
    rules.write_text(
        "class lowercase abcdefghijklmnopqrstuvwxyz\n"
        "class uppercase ABCDEFGHIJKLMNOPQRSTUVWXYZ\n"
        "class digit 0123456789\n"
        "class punct_attach .,:;!?\"()[]£$\n"
        "class punct_inword '-\n"
        "class punct_standalone &+=/_\n"
        "class separator \\s\n"
        "rule line_start_capital lenient\n",
        encoding="utf-8",
    )
    hyp = workspace / "hyp.tsv"
    assert run_cli(
        "decode", "--manifest", out_dir / "manifest.json", "--scheme", "dec-ce",
        "--rules", rules, "--out", hyp, "--beam", 16,
    ) == 0
    rows = dict(
        line.split("\t", 1) for line in hyp.read_text(encoding="utf-8").splitlines()
    )
    assert rows["l0000"] == "the cat"


def test_committee_decode(workspace):
    lex_path = workspace / "words.tsv"
    run_cli("lexicon", "build", "--corpus", workspace / "corpus", "--out", lex_path)
    out_dir = workspace / "synth"
    run_cli(
        "synth", "--lines", workspace / "lines.txt", "--out-dir", out_dir,
        "--noise", 0.2, "--experts", 3, "--seed", 5,
    )
    hyp = workspace / "hyp.tsv"
    assert run_cli(
        "decode", "--manifest", out_dir / "manifest.json", "--scheme", "dec-e",
        "--lexicon", lex_path, "--out", hyp, "--beam", 8, "--experts", 3,
    ) == 0
    assert len(hyp.read_text(encoding="utf-8").splitlines()) == 3


def test_committee_too_many_experts(workspace):
    lex_path = workspace / "words.tsv"
    run_cli("lexicon", "build", "--corpus", workspace / "corpus", "--out", lex_path)
    out_dir = workspace / "synth"
    run_cli("synth", "--lines", workspace / "lines.txt", "--out-dir", out_dir)
    code = run_cli(
        "decode", "--manifest", out_dir / "manifest.json", "--scheme", "dec-e",
        "--lexicon", lex_path, "--out", workspace / "x.tsv", "--experts", 5,
    )
    assert code == 2


def test_inspect(workspace, capsys):
    out_dir = workspace / "synth"
    run_cli("synth", "--lines", workspace / "lines.txt", "--out-dir", out_dir)
    manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    matrix_path = out_dir / manifest["lines"][0]["matrices"][0]
    capsys.readouterr()
    assert run_cli("inspect", "--matrix", matrix_path) == 0
    output = capsys.readouterr().out
    assert "frames" in output
    assert "boundaries" in output
    assert "the cat" in output


def test_binary_synth_round_trip(workspace):
    out_dir = workspace / "synth"
    assert run_cli(
        "synth", "--lines", workspace / "lines.txt", "--out-dir", out_dir, "--binary"
    ) == 0
    hyp = workspace / "hyp.tsv"
    assert run_cli(
        "decode", "--manifest", out_dir / "manifest.json",
        "--scheme", "dec-bp", "--out", hyp,
    ) == 0
    assert "the cat" in hyp.read_text(encoding="utf-8")


def test_eval_pairs_by_order_for_bare_files(tmp_path, capsys):
    hyp = tmp_path / "h.txt"
    ref = tmp_path / "r.txt"
    hyp.write_text("the cat\n", encoding="utf-8")
    ref.write_text("the bat\n", encoding="utf-8")
    capsys.readouterr()
    assert run_cli("eval", "--hyp", hyp, "--ref", ref, "--per-line") == 0
    out = capsys.readouterr().out
    assert "wer=0.5" in out
    assert "line 0: char 1/7  word 1/2" in out


@pytest.mark.parametrize("symbols", [None, ["t", "h", "e", "c", "a", " ", "<NaC>"]])
def test_eval_scores_a_failed_line_as_empty(tmp_path, capsys, symbols):
    """An ``ERROR:<code>`` line is an empty hypothesis, also where the
    alphabet lacks the characters of ``ERROR``."""
    hyp = tmp_path / "hyp.tsv"
    hyp.write_text("l0\tthe cat\nl1\tERROR:NoAcceptedString\n", encoding="utf-8")
    ref = tmp_path / "ref.tsv"
    ref.write_text("l0\tthe cat\nl1\tthe hat\n", encoding="utf-8")
    argv = ["eval", "--hyp", hyp, "--ref", ref]
    if symbols is not None:
        alphabet = tmp_path / "alphabet.json"
        alphabet.write_text(json.dumps({"symbols": symbols}), encoding="utf-8")
        argv += ["--alphabet", alphabet]
    capsys.readouterr()
    assert run_cli(*argv) == 0
    out = capsys.readouterr().out.splitlines()
    assert "cer=0.5" in out
    assert "char_deletions=7" in out
    assert "char_insertions=0" in out
    assert "wer=0.5" in out
    assert out[-1] == "failed=1"


def test_bad_alphabet_file_fails_cleanly(tmp_path):
    bad = tmp_path / "alphabet.json"
    bad.write_text(json.dumps({"symbols": ["a", "b"]}), encoding="utf-8")  # no NaC
    lines = tmp_path / "lines.txt"
    lines.write_text("ab\n", encoding="utf-8")
    code = run_cli(
        "synth", "--lines", lines, "--out-dir", tmp_path / "out", "--alphabet", bad
    )
    assert code == 1


def test_manifest_error_aborts_with_nonzero_exit(tmp_path):
    bad = tmp_path / "manifest.json"
    bad.write_text("{broken", encoding="utf-8")
    code = run_cli(
        "decode", "--manifest", bad, "--scheme", "dec-bp", "--out", tmp_path / "x.tsv"
    )
    assert code == 1


def test_unlimited_beam_flag(workspace):
    out_dir = workspace / "synth"
    run_cli("synth", "--lines", workspace / "lines.txt", "--out-dir", out_dir)
    hyp = workspace / "hyp.tsv"
    assert run_cli(
        "decode", "--manifest", out_dir / "manifest.json", "--scheme", "dec-ce",
        "--beam", "inf", "--out", hyp,
    ) == 0
    rows = dict(
        line.split("\t", 1) for line in hyp.read_text(encoding="utf-8").splitlines()
    )
    assert rows["l0001"] == "the hat"


def test_an_unlimited_beam_past_the_search_limit_fails_each_line(tmp_path):
    """The README quick start at ``--beam none``: at floor 0 every symbol is
    usable, so the candidates multiply about 84-fold a frame. The run exits
    0 with ``ERROR:SearchLimit`` on every line, and the decoding process
    peaks under 400 MB. It runs with a 2 GB address space, so a limit that
    does not hold fails here instead of filling the host's memory."""
    lines = tmp_path / "lines.txt"
    lines.write_text("the cat sat\na hat\nthe cat\n", encoding="utf-8")
    demo = tmp_path / "demo"
    assert run_cli(
        "synth", "--lines", lines, "--out-dir", demo, "--noise", 0.2, "--experts", 2, "--seed", 7
    ) == 0
    out = tmp_path / "none-ce.tsv"
    child = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
        "from ctcdec.cli import main\n"
        "status = main(sys.argv[1:])\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
        "sys.exit(status)\n"
    )
    env = {
        **os.environ,
        "PYTHONPATH": str(Path(cli.__file__).parents[1]),
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
    }
    run = subprocess.run(
        [sys.executable, "-c", child, "decode", "--manifest", demo / "manifest.json",
         "--scheme", "dec-ce", "--beam", "none", "--out", out],
        capture_output=True, text=True, env=env,
    )
    assert run.returncode == 0, run.stderr
    assert out.read_text(encoding="utf-8").splitlines() == [f"l000{i}\tERROR:SearchLimit" for i in range(3)]
    peak_kb = int(run.stdout.split()[-1])
    assert peak_kb < 400 * 1024


def test_rules_overlay_on_dictionary_scheme(workspace):
    # Strict capitalization rules exclude every lowercase lexicon word, so
    # stacking them onto dec-dm leaves only the empty line; on clean
    # matrices the empty line has zero mass, so each line reports
    # NoAcceptedString without failing the batch.
    lex_path = workspace / "words.tsv"
    run_cli("lexicon", "build", "--corpus", workspace / "corpus", "--out", lex_path)
    out_dir = workspace / "synth"
    run_cli("synth", "--lines", workspace / "lines.txt", "--out-dir", out_dir)
    rules = workspace / "strict.rules"
    rules.write_text(
        "class lowercase abcdefghijklmnopqrstuvwxyz\n"
        "class uppercase ABCDEFGHIJKLMNOPQRSTUVWXYZ\n"
        "class digit 0123456789\n"
        "class punct_attach .,:;!?\"()[]£$\n"
        "class punct_inword '-\n"
        "class punct_standalone &+=/_\n"
        "class separator \\s\n"
        "rule line_start_capital strict\n",
        encoding="utf-8",
    )
    hyp = workspace / "hyp.tsv"
    assert run_cli(
        "decode", "--manifest", out_dir / "manifest.json", "--scheme", "dec-dm",
        "--lexicon", lex_path, "--rules", rules, "--beam", 16, "--out", hyp,
    ) == 0
    rows = dict(
        line.split("\t", 1) for line in hyp.read_text(encoding="utf-8").splitlines()
    )
    assert rows["l0000"] == "ERROR:NoAcceptedString"
    # Without the overlay the same lines decode fine.
    assert run_cli(
        "decode", "--manifest", out_dir / "manifest.json", "--scheme", "dec-dm",
        "--lexicon", lex_path, "--beam", 16, "--out", hyp,
    ) == 0
    rows = dict(
        line.split("\t", 1) for line in hyp.read_text(encoding="utf-8").splitlines()
    )
    assert rows["l0000"] == "the cat"


@pytest.mark.parametrize("scheme, rules", [("dec-ce", False), ("dec-dm", False), ("dec-dm", True)])
def test_a_used_decoder_pickles_and_its_copy_decodes_the_same(scheme, rules):
    """A decoder that has decoded keeps its compiled tables (on its rules'
    model and on its lexicon). It still pickles, as a pool that pickles
    its initializer's arguments needs, and the copy decodes the same text
    and score hex."""
    from ctcdec import DecodeParams, Lexicon, generate_synthetic

    alphabet = default_alphabet()
    decoder = cli.SchemeDecoder(
        scheme,
        rule_config=default_rule_config(alphabet) if rules else None,
        lexicon=Lexicon({"the": 5, "cat": 3, "sat": 2, "a": 4}, separator=" "),
        params=DecodeParams(beam_width=16),
    )
    matrices = [
        generate_synthetic(line, alphabet, frames_per_char=3, noise=0.3, seed=i)
        for i, line in enumerate(["the cat sat.", "a cat"])
    ]
    want = [decoder([m]) for m in matrices]
    copy = pickle.loads(pickle.dumps(decoder))
    got = [copy([m]) for m in matrices]
    assert [(h.text, h.score.hex()) for h in got] == [(h.text, h.score.hex()) for h in want]


def test_custom_alphabet_json(tmp_path, capsys):
    alphabet_json = tmp_path / "alphabet.json"
    alphabet_json.write_text(
        json.dumps({"symbols": ["x", "y", " ", "<NaC>"], "separator": " "}),
        encoding="utf-8",
    )
    lines = tmp_path / "lines.txt"
    lines.write_text("xy yx\n", encoding="utf-8")
    out_dir = tmp_path / "synth"
    assert run_cli(
        "synth", "--lines", lines, "--out-dir", out_dir, "--alphabet", alphabet_json
    ) == 0
    hyp = tmp_path / "hyp.tsv"
    assert run_cli(
        "decode", "--manifest", out_dir / "manifest.json",
        "--scheme", "dec-bp", "--out", hyp,
    ) == 0
    assert hyp.read_text(encoding="utf-8") == "l0000\txy yx\n"


def test_per_line_errors_still_exit_zero(workspace):
    out_dir = workspace / "synth"
    run_cli("synth", "--lines", workspace / "lines.txt", "--out-dir", out_dir)
    manifest_path = out_dir / "manifest.json"
    doc = json.loads(manifest_path.read_text(encoding="utf-8"))
    corrupt = out_dir / doc["lines"][1]["matrices"][0]
    corrupt.write_text("CTCMAT v1\na\t<NaC>\nT=1\n0.2\t0.2\n", encoding="utf-8")
    hyp = workspace / "hyp.tsv"
    assert run_cli(
        "decode", "--manifest", manifest_path, "--scheme", "dec-bp", "--out", hyp
    ) == 0
    lines = hyp.read_text(encoding="utf-8").splitlines()
    assert lines[1] == "l0001\tERROR:InvariantViolation"
    assert len(lines) == 3


@pytest.mark.parametrize(
    "scheme, flags",
    [
        ("dec-bp", ("--beam", 0)),
        ("dec-e", ("--lambda", 1.5)),
        ("dec-e", ("--experts", -1)),
        ("dec-dm", ("--min-symbol-prob", 2)),
        ("dec-ce", ("--min-symbol-prob", -0.1)),
        ("dec-ce", ("--min-symbol-prob", "nan")),
        ("dec-e", ("--null-conf", 1.5, "--lambda", 0)),
        ("dec-e", ("--null-conf", "nan")),
        ("dec-bp", ("--jobs", 0)),
        ("dec-dm", ("--jobs", -2)),
        ("dec-dm", ("--alpha", "nan")),
        ("dec-dm", ("--beta", "nan")),
        ("dec-dm", ("--alpha", "inf")),
        ("dec-dm", ("--beta", "inf")),
        ("dec-e", ("--lambda", -1)),
        ("dec-e", ("--null-conf", 2)),
        ("dec-bp", ("--beam", -3)),
        ("dec-e", ("--experts", 99)),
        ("dec-e", ("--experts", 0)),
        ("dec-bp", ("--lambda", -1)),
        ("dec-ce", ("--null-conf", 1.5)),
        ("dec-dm", ("--experts", 0)),
        ("dec-dm", ("--experts", 99)),
    ],
)
def test_bad_decode_numbers_exit_2_with_one_line(workspace, capsys, scheme, flags):
    lex_path = workspace / "words.tsv"
    run_cli("lexicon", "build", "--corpus", workspace / "corpus", "--out", lex_path)
    out_dir = workspace / "synth"
    run_cli("synth", "--lines", workspace / "lines.txt", "--out-dir", out_dir)
    capsys.readouterr()
    code = run_cli(
        "decode", "--manifest", out_dir / "manifest.json", "--scheme", scheme,
        "--lexicon", lex_path, "--out", workspace / "x.tsv", *flags,
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (workspace / "x.tsv").exists()
    assert err.startswith(f"error: {flags[0]} ")


def test_a_beam_that_is_not_a_number_names_the_accepted_values(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("decode", "--manifest", tmp_path / "m.json", "--scheme", "dec-bp", "--out", tmp_path / "x", "--beam", "abc")
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --beam: expected an integer >= 1, or inf, none or unlimited; got 'abc'" in err
    assert "_parse_beam" not in err


def _decode_inputs(workspace):
    lex_path = workspace / "words.tsv"
    run_cli("lexicon", "build", "--corpus", workspace / "corpus", "--out", lex_path)
    out_dir = workspace / "synth"
    run_cli("synth", "--lines", workspace / "lines.txt", "--out-dir", out_dir)
    return out_dir / "manifest.json", lex_path


def test_rules_file_not_utf8_exits_1_with_one_line(workspace, capsys):
    manifest, _ = _decode_inputs(workspace)
    rules = workspace / "bad.rules"
    rules.write_bytes(b"# rules\nrule line_start_capital str\xffict\n")
    capsys.readouterr()
    code = run_cli(
        "decode", "--manifest", manifest, "--scheme", "dec-ce", "--rules", rules,
        "--out", workspace / "x.tsv",
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: line 2: invalid UTF-8") and err.count("\n") == 1


def test_alphabet_json_syntax_error_names_its_line(tmp_path, capsys):
    alphabet_json = tmp_path / "alphabet.json"
    alphabet_json.write_text('{"symbols": ["a", "<NaC>"]\n "normalization": {}}\n', encoding="utf-8")
    hyp = tmp_path / "hyp.txt"
    hyp.write_text("a\n", encoding="utf-8")
    capsys.readouterr()
    assert run_cli("eval", "--hyp", hyp, "--ref", hyp, "--alphabet", alphabet_json) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: line 2: bad alphabet file") and "Expecting ',' delimiter" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("missing", ["manifest", "lexicon"])
def test_missing_input_file_exits_1_with_one_line(workspace, capsys, missing):
    manifest, lex_path = _decode_inputs(workspace)
    if missing == "manifest":
        manifest = workspace / "nope.json"
    else:
        lex_path = workspace / "nope.tsv"
    capsys.readouterr()
    code = run_cli(
        "decode", "--manifest", manifest, "--scheme", "dec-dm", "--lexicon", lex_path,
        "--out", workspace / "x.tsv",
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "nope" in err
    assert not (workspace / "x.tsv").exists()


def test_eval_file_not_utf8_exits_1_with_one_line(tmp_path, capsys):
    hyp = tmp_path / "hyp.tsv"
    hyp.write_bytes(b"l0\tthe cat\nl1\tthe h\xffat\n")
    ref = tmp_path / "ref.tsv"
    ref.write_text("l0\tthe cat\nl1\tthe hat\n", encoding="utf-8")
    capsys.readouterr()
    assert run_cli("eval", "--hyp", hyp, "--ref", ref) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: line 2: invalid UTF-8") and err.count("\n") == 1


def test_lexicon_corpus_not_utf8_exits_1_with_one_line(workspace, capsys):
    (workspace / "corpus" / "bad.txt").write_bytes(b"the cat\n\xff\n")
    out = workspace / "words.tsv"
    capsys.readouterr()
    assert run_cli("lexicon", "build", "--corpus", workspace / "corpus", "--out", out) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: line 2: invalid UTF-8") and err.count("\n") == 1
    assert not out.exists()


def test_eval_reads_lines_as_text_mode_does(tmp_path, capsys):
    """CRLF and a missing final newline read as before; a trailing blank
    line still counts as a line."""
    hyp = tmp_path / "hyp.txt"
    hyp.write_bytes(b"the cat\r\nthe hat\r\n\n")
    ref = tmp_path / "ref.txt"
    ref.write_bytes(b"the cat\nthe hat\n")
    capsys.readouterr()
    assert run_cli("eval", "--hyp", hyp, "--ref", ref) == 1
    assert f"error: line 3: id '2' of {hyp} is not in {ref}" in capsys.readouterr().err
    hyp.write_bytes(b"the cat\r\nthe hat")
    assert run_cli("eval", "--hyp", hyp, "--ref", ref) == 0
    assert "cer=0.0" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ("inspect", "--threshold", 2),
        ("synth", "--fpc", 1),
        ("synth", "--noise", 1.5),
        ("synth", "--experts", 0),
        ("synth", "--fpc", 0),
        ("synth", "--noise", -0.1),
        ("synth", "--noise", "nan"),
    ],
)
def test_bad_numbers_exit_2_with_one_line(workspace, capsys, argv):
    out_dir = workspace / "synth"
    run_cli("synth", "--lines", workspace / "lines.txt", "--out-dir", out_dir)
    matrix = out_dir / "e0_l0000.ctcmat"
    inputs = {
        "inspect": ("--matrix", matrix),
        "synth": ("--lines", workspace / "lines.txt", "--out-dir", workspace / "again"),
    }
    capsys.readouterr()
    assert run_cli(argv[0], *inputs[argv[0]], *argv[1:]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    # synth checks everything before it writes a file, and names the option.
    assert not (workspace / "again").exists()
    assert argv[0] != "synth" or argv[1] in err


def test_synth_checks_its_numbers_before_reading_the_lines(tmp_path, capsys):
    """With no lines to build, a bad number is still an error."""
    lines = tmp_path / "lines.txt"
    lines.write_text("", encoding="utf-8")
    capsys.readouterr()
    assert run_cli("synth", "--lines", lines, "--out-dir", tmp_path / "out", "--fpc", 1) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --fpc") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_alphabet_json_separator_must_follow_the_file_rule(tmp_path, capsys):
    """Matrix files take the space symbol as the separator if present, else
    none; an alphabet file declaring another one would decode silently
    wrong against the matrices written with it, so it is refused."""
    alphabet_json = tmp_path / "alphabet.json"
    alphabet_json.write_text(
        json.dumps({"symbols": ["a", "b", "|", "<NaC>"], "separator": "|"}), encoding="utf-8"
    )
    lines = tmp_path / "lines.txt"
    lines.write_text("ab|ba\nba|ab|ab\n", encoding="utf-8")
    capsys.readouterr()
    assert run_cli("synth", "--lines", lines, "--out-dir", tmp_path / "x", "--alphabet", alphabet_json) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "separator" in err and err.count("\n") == 1

    # Without the entry the alphabet has no separator, as its matrices do,
    # so every line is one lexicon word and decodes back as written.
    alphabet_json.write_text(json.dumps({"symbols": ["a", "b", "|", "<NaC>"]}), encoding="utf-8")
    out_dir = tmp_path / "synth"
    assert run_cli("synth", "--lines", lines, "--out-dir", out_dir, "--alphabet", alphabet_json) == 0
    lex_path = tmp_path / "words.tsv"
    assert run_cli(
        "lexicon", "build", "--corpus", out_dir / "refs", "--out", lex_path, "--alphabet", alphabet_json
    ) == 0
    hyp = tmp_path / "hyp.tsv"
    assert run_cli(
        "decode", "--manifest", out_dir / "manifest.json", "--scheme", "dec-dm",
        "--lexicon", lex_path, "--out", hyp,
    ) == 0
    assert hyp.read_text(encoding="utf-8") == "l0000\tab|ba\nl0001\tba|ab|ab\n"
    capsys.readouterr()
    assert run_cli("inspect", "--matrix", out_dir / "e0_l0000.ctcmat") == 0
    assert "separator   None" in capsys.readouterr().out


def test_single_matrix_scheme_ignores_other_experts(workspace):
    out_dir = workspace / "synth"
    run_cli("synth", "--lines", workspace / "lines.txt", "--out-dir", out_dir, "--experts", 2)
    doc = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    (out_dir / doc["lines"][0]["matrices"][1]).unlink()
    hyp = workspace / "hyp.tsv"
    assert run_cli(
        "decode", "--manifest", out_dir / "manifest.json", "--scheme", "dec-bp", "--out", hyp
    ) == 0
    assert hyp.read_text(encoding="utf-8").splitlines()[0] == "l0000\tthe cat"


@pytest.mark.parametrize("scheme", ["dec-bp", "dec-ce", "dec-dm"])
def test_single_matrix_scheme_loads_one_matrix_per_line(workspace, monkeypatch, scheme):
    import ctcdec.batch

    lex_path = workspace / "words.tsv"
    run_cli("lexicon", "build", "--corpus", workspace / "corpus", "--out", lex_path)
    out_dir = workspace / "synth"
    run_cli("synth", "--lines", workspace / "lines.txt", "--out-dir", out_dir, "--experts", 3)
    loaded = []

    def counting_load(path, *args, **kwargs):
        loaded.append(path)
        return load_matrix(path, *args, **kwargs)

    load_matrix = ctcdec.batch.load_matrix
    monkeypatch.setattr(ctcdec.batch, "load_matrix", counting_load)
    assert run_cli(
        "decode", "--manifest", out_dir / "manifest.json", "--scheme", scheme,
        "--lexicon", lex_path, "--out", workspace / "hyp.tsv",
    ) == 0
    assert len(loaded) == 3
    assert all("/e0_" in p for p in loaded)


def test_synth_with_an_unmappable_line_writes_nothing(workspace):
    lines = workspace / "lines.txt"
    lines.write_text("the cat\nthe ~ hat\n", encoding="utf-8")
    out_dir = workspace / "out"
    assert run_cli("synth", "--lines", lines, "--out-dir", out_dir) == 1
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "doc",
    [
        {"symbols": ["ab", "c", "<NaC>"]},
        {"symbols": ["a", "\t", "<NaC>"]},
        {"symbols": ["a", "\n", "<NaC>"]},
        {"symbols": ["a", "", "<NaC>"]},
        {"symbols": ["a", 1, "<NaC>"]},
        {"symbols": ["a", "<NaC>", "<NaC>"]},
        ["a", "<NaC>"],
        {"symbols": 5},
        {"symbols": "a<NaC>"},
        {"normalization": {}},
        {"symbols": ["a", "<NaC>"], "normalization": ["a"]},
        {"symbols": ["a", "<NaC>"], "normalization": {"b": "c"}},
    ],
    ids=[
        "two-chars", "tab", "newline", "empty", "number", "two-nac", "top-level-array",
        "symbols-number", "symbols-string", "no-symbols", "normalization-list", "normalization-target",
    ],
)
def test_bad_alphabet_json_exits_1_with_one_line(tmp_path, capsys, doc):
    """Every alphabet JSON that matrix files could not carry, or that is
    not shaped like one, is refused before anything is written."""
    alphabet_json = tmp_path / "alphabet.json"
    alphabet_json.write_text(json.dumps(doc), encoding="utf-8")
    lines = tmp_path / "lines.txt"
    lines.write_text("a\n", encoding="utf-8")
    capsys.readouterr()
    out_dir = tmp_path / "out"
    assert run_cli("synth", "--lines", lines, "--out-dir", out_dir, "--alphabet", alphabet_json) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "bad alphabet file" in err and err.count("\n") == 1
    assert not out_dir.exists()


@pytest.mark.parametrize("scheme", ["dec-dm", "dec-e"])
def test_empty_lexicon_exits_1_with_one_line(workspace, capsys, scheme):
    manifest, _ = _decode_inputs(workspace)
    lex_path = workspace / "empty.tsv"
    lex_path.write_text("", encoding="utf-8")
    capsys.readouterr()
    out = workspace / "x.tsv"
    assert run_cli("decode", "--manifest", manifest, "--scheme", scheme, "--lexicon", lex_path, "--out", out) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "empty.tsv" in err and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("scheme", ["dec-bp", "dec-ce", "dec-dm", "dec-e"])
def test_a_manifest_with_no_lines_writes_an_empty_file(workspace, scheme):
    lex_path = workspace / "words.tsv"
    run_cli("lexicon", "build", "--corpus", workspace / "corpus", "--out", lex_path)
    manifest = workspace / "empty.json"
    manifest.write_text('{"lines": []}', encoding="utf-8")
    out = workspace / "out.tsv"
    argv = ("decode", "--manifest", manifest, "--scheme", scheme, "--lexicon", lex_path, "--out", out)
    assert run_cli(*argv) == 0
    assert out.read_text(encoding="utf-8") == ""
    # With no lines there is no expert count to check --experts against, but it is still at least 1.
    assert run_cli(*argv, "--experts", 0) == 2


def test_a_line_id_with_a_tab_exits_1_naming_the_record(workspace, capsys):
    manifest, _ = _decode_inputs(workspace)
    doc = json.loads(manifest.read_text(encoding="utf-8"))
    doc["lines"][1]["id"] = "a\tb"
    manifest.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    out = workspace / "x.tsv"
    assert run_cli("decode", "--manifest", manifest, "--scheme", "dec-bp", "--out", out) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "record 'a\\tb'" in err and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "hyp_text, ref_text, error",
    [
        ("l0\tthe cat\nl1\ta hat\nl0\tthe cat\n", "l0\tthe cat\nl1\ta hat\n", "line 3: id 'l0' of {hyp} repeats line 1"),
        ("l0\tthe cat\nl1\ta hat\n", "l0\tthe cat\nl0\tthe cat\n", "line 2: id 'l0' of {ref} repeats line 1"),
        ("zzz\tthe cat\nyyy\ta hat\n", "l0\tthe cat\nl1\ta hat\n", "line 1: id 'zzz' of {hyp} is not in {ref}"),
        ("l0\tthe cat\n", "l0\tthe cat\nl1\ta hat\n", "line 2: id 'l1' of {ref} is not in {hyp}"),
        ("the cat\na hat\nthe cat\n", "the cat\na hat\n", "line 3: id '2' of {hyp} is not in {ref}"),
    ],
    ids=["duplicate-hyp-id", "duplicate-ref-id", "hyp-id-not-in-refs", "ref-id-not-in-hyps", "bare-3-vs-2"],
)
def test_eval_pairs_lines_by_id_only(tmp_path, capsys, hyp_text, ref_text, error):
    """Each id must be on one line of each file; a file that breaks this
    exits 1 naming the line and the id, and nothing is scored."""
    hyp, ref = tmp_path / "hyp.tsv", tmp_path / "ref.tsv"
    hyp.write_text(hyp_text, encoding="utf-8")
    ref.write_text(ref_text, encoding="utf-8")
    capsys.readouterr()
    assert run_cli("eval", "--hyp", hyp, "--ref", ref) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {error.format(hyp=hyp, ref=ref)}\n"


def test_decode_to_a_directory_fails_before_the_first_line(workspace, capsys, monkeypatch):
    manifest, _ = _decode_inputs(workspace)
    out = workspace / "outdir"
    out.mkdir()
    monkeypatch.setattr("ctcdec.cli.decode_best_path", lambda matrix: pytest.fail("decoded a line"))
    capsys.readouterr()
    assert run_cli("decode", "--manifest", manifest, "--scheme", "dec-bp", "--out", out) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "is a directory" in err and err.count("\n") == 1
    assert not (workspace / "outdir.tmp").exists()
    assert not any(out.iterdir())


class ExitOnFrames:
    """Best path, except that the process decoding a matrix of ``frames``
    frames ends at once, as a worker killed for memory would."""

    def __init__(self, frames: int):
        self.frames = frames

    def __call__(self, matrices):
        if matrices[0].num_frames == self.frames:
            os._exit(1)
        return cli.decode_best_path(matrices[0])


def test_a_worker_that_dies_exits_1_with_one_line(tmp_path, capsys, monkeypatch):
    """A pool whose worker process dies breaks: the run exits 1 with one
    ``error:`` line, the lines written before it stay in ``<out>.tmp``,
    and no ``<out>`` is written."""
    lines = tmp_path / "lines.txt"
    lines.write_text("a\nthe\nthe cat\ncat\nhat sat a\nsat\n", encoding="utf-8")
    run_cli("synth", "--lines", lines, "--out-dir", tmp_path / "synth")
    paths = sorted((tmp_path / "synth").glob("e0_*.ctcmat"))
    want = [f"{p.stem[3:]}\t{cli.decode_best_path(cli.load_matrix(p)).text}\n" for p in paths]
    # The third line is the only one of its length.
    frames = cli.load_matrix(paths[2]).num_frames
    monkeypatch.setattr(cli, "SchemeDecoder", lambda *args, **kwargs: ExitOnFrames(frames))
    out = tmp_path / "hyp.tsv"
    capsys.readouterr()
    assert run_cli(
        "decode", "--manifest", tmp_path / "synth" / "manifest.json", "--scheme", "dec-bp", "--out", out, "--jobs", 2
    ) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and f"{out}.tmp" in err
    assert not out.exists()
    written = (tmp_path / "hyp.tsv.tmp").read_text(encoding="utf-8")
    assert written in ("", *itertools.accumulate(want[:2]))


def test_alphabet_json_not_utf8_names_its_line(tmp_path, capsys):
    alphabet_json = tmp_path / "alphabet.json"
    alphabet_json.write_bytes(b'{"symbols":\n ["a", "\xff", "<NaC>"]}\n')
    hyp = tmp_path / "hyp.txt"
    hyp.write_text("a\n", encoding="utf-8")
    capsys.readouterr()
    assert run_cli("eval", "--hyp", hyp, "--ref", hyp, "--alphabet", alphabet_json) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: line 2: invalid UTF-8") and err.count("\n") == 1


def _mutated(data: bytes, edits) -> bytes:
    """``data`` with each ``(position, removed, inserted)`` edit applied in
    turn, the position wrapped to the data's current size."""
    data = bytearray(data)
    for pos, removed, inserted in edits:
        pos %= len(data) + 1
        data[pos : pos + removed] = inserted
    return bytes(data)


def assert_exits_0_or_1(*argv) -> int:
    """``ctcdec`` exits 0 with nothing on stderr, or 1 with one ``error:``
    line; a fault in a file is never a bad option (exit 2)."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = run_cli(*argv)
    err = err.getvalue()
    assert code in (0, 1)
    assert err == "" if code == 0 else err.startswith("error: ") and err.count("\n") == 1
    return code


@settings(max_examples=200, deadline=None)
@given(hyp_edits=_edits, ref_edits=_edits)
def test_eval_of_mutated_files_exits_0_or_1_with_one_error_line(tmp_path_factory, hyp_edits, ref_edits):
    tmp = tmp_path_factory.mktemp("fuzz")
    paths = []
    for name, edits in (("hyp.tsv", hyp_edits), ("ref.tsv", ref_edits)):
        (tmp / name).write_bytes(_mutated(b"l0000\tthe cat sat\nl0001\ta hat\nl0002\tERROR:NoAcceptedString\n", edits))
        paths.append(tmp / name)
    assert_exits_0_or_1("eval", "--hyp", paths[0], "--ref", paths[1])


_ALPHABET_JSON = json.dumps({"symbols": list("the cas'") + ["<NaC>"], "separator": " ", "normalization": {"’": "'"}})


@settings(max_examples=100, deadline=None)
@given(
    target=st.sampled_from(["alphabet:eval", "alphabet:lexicon", "alphabet:synth", "lines:synth"]),
    edits=_edits,
)
def test_a_mutated_alphabet_or_lines_file_exits_0_or_1(tmp_path_factory, target, edits):
    """An ``--alphabet`` JSON read by ``eval``, ``lexicon build`` and
    ``synth``, and a ``synth --lines`` file."""
    tmp = tmp_path_factory.mktemp("fuzz")
    victim, command = target.split(":")
    files = {"alphabet": _ALPHABET_JSON.encode(), "lines": "the cat’s hat\nsat\n".encode()}
    files[victim] = _mutated(files[victim], edits)
    for name, data in files.items():
        (tmp / name).write_bytes(data)
    (tmp / "refs.tsv").write_text("l0\tthe cat\nl1\tsat\n", encoding="utf-8")
    argv = {
        "eval": ("eval", "--hyp", tmp / "refs.tsv", "--ref", tmp / "refs.tsv"),
        "lexicon": ("lexicon", "build", "--corpus", tmp / "lines", "--out", tmp / "words.tsv"),
        "synth": ("synth", "--lines", tmp / "lines", "--out-dir", tmp / "out"),
    }[command]
    assert_exits_0_or_1(*argv, "--alphabet", tmp / "alphabet")


@pytest.fixture(scope="module")
def dm_inputs(tmp_path_factory):
    """A two-line manifest, its lexicon TSV and the stock rules as a file's bytes."""
    root = tmp_path_factory.mktemp("dm")
    (root / "lines.txt").write_text("the cat\nthe hat\n", encoding="utf-8")
    (root / "corpus.txt").write_text("the cat sat\nthe hat\n", encoding="utf-8")
    assert run_cli("synth", "--lines", root / "lines.txt", "--out-dir", root / "synth", "--noise", 0.1) == 0
    assert run_cli("lexicon", "build", "--corpus", root / "corpus.txt", "--out", root / "words.tsv") == 0
    rules = format_rules(default_rule_config(default_alphabet())).encode()
    return root / "synth" / "manifest.json", (root / "words.tsv").read_bytes(), rules


def test_rules_that_fail_on_the_alphabet_compile_once_and_fail_each_line(tmp_path, dm_inputs, monkeypatch):
    manifest, lexicon, _ = dm_inputs
    (tmp_path / "words.tsv").write_bytes(lexicon)
    (tmp_path / "r.rules").write_text("class lowercase abcé\n", encoding="utf-8")
    calls = []
    compile_rules = cli.compile_rules
    monkeypatch.setattr(cli, "compile_rules", lambda *args: calls.append(args) or compile_rules(*args))
    code = run_cli(
        "decode", "--manifest", manifest, "--scheme", "dec-dm", "--lexicon", tmp_path / "words.tsv",
        "--rules", tmp_path / "r.rules", "--out", tmp_path / "hyp.tsv",
    )
    assert code == 0 and len(calls) == 1
    lines = (tmp_path / "hyp.tsv").read_text(encoding="utf-8").splitlines()
    assert [line.split("\t", 1)[1] for line in lines] == ["ERROR:InvalidRule"] * 2


def assert_decode_exits_0_or_1(out, *argv) -> None:
    """``ctcdec decode`` exits 1 with one ``error:`` line, or exits 0 and
    every line it could not decode names a toolkit or OS error."""
    if assert_exits_0_or_1("decode", *argv, "--out", out) == 1:
        return
    for line in out.read_text(encoding="utf-8").splitlines():
        _, text = line.split("\t", 1)
        if text.startswith("ERROR:"):
            name = text.removeprefix("ERROR:")
            cls = getattr(errors, name, None) or getattr(builtins, name, None)
            assert cls is not None and issubclass(cls, (errors.CtcDecError, OSError)), text


@settings(max_examples=150, deadline=None)
@given(mutate_rules=st.booleans(), edits=_edits)
def test_decode_with_mutated_lexicon_or_rules_exits_0_or_1(tmp_path_factory, dm_inputs, mutate_rules, edits):
    manifest, lexicon, rules = dm_inputs
    data = _mutated(rules if mutate_rules else lexicon, edits)
    tmp = tmp_path_factory.mktemp("fuzz")
    (tmp / "words.tsv").write_bytes(lexicon if mutate_rules else data)
    (tmp / "stock.rules").write_bytes(data if mutate_rules else rules)
    assert_decode_exits_0_or_1(
        tmp / "hyp.tsv", "--manifest", manifest, "--scheme", "dec-dm", "--beam", 8,
        "--lexicon", tmp / "words.tsv", "--rules", tmp / "stock.rules",
    )


@pytest.fixture(scope="module")
def committee_inputs(tmp_path_factory):
    """Two lines of two experts, once as text and once as binary matrices
    (each with its manifest), and a lexicon."""
    root = tmp_path_factory.mktemp("committee")
    (root / "lines.txt").write_text("the cat\nthe hat\n", encoding="utf-8")
    for kind, flags in (("text", ()), ("binary", ("--binary",))):
        assert run_cli("synth", "--lines", root / "lines.txt", "--out-dir", root / kind, "--experts", 2, *flags) == 0
    assert run_cli("lexicon", "build", "--corpus", root / "lines.txt", "--out", root / "words.tsv") == 0
    return root


@settings(max_examples=100, deadline=None)
@given(target=st.sampled_from(["manifest.json", "text", "binary"]), scheme=st.sampled_from(["dec-bp", "dec-e"]), edits=_edits)
def test_decode_of_a_mutated_manifest_or_matrix_exits_0_or_1(tmp_path_factory, committee_inputs, target, scheme, edits):
    tmp = tmp_path_factory.mktemp("fuzz")
    kind = "text" if target == "manifest.json" else target
    shutil.copytree(committee_inputs / kind, tmp / kind)
    victim = tmp / kind / ("manifest.json" if target == "manifest.json" else "e0_l0000.ctcmat")
    victim.write_bytes(_mutated(victim.read_bytes(), edits))
    assert_decode_exits_0_or_1(
        tmp / "hyp.tsv", "--manifest", tmp / kind / "manifest.json", "--scheme", scheme, "--beam", 8,
        "--lexicon", committee_inputs / "words.tsv",
    )
