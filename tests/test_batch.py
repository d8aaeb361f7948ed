import json
import re

import pytest

from ctcdec import (
    Alphabet,
    CommitteeConfig,
    DecodeParams,
    Lexicon,
    LineRecord,
    Manifest,
    ParseError,
    committee_decode,
    decode_best_path,
    generate_synthetic,
    load_manifest,
    run_batch,
    save_manifest,
    store_matrix,
)
from ctcdec.batch import decode_record

AB = Alphabet.with_nac("ab ", separator=" ")


def write_line(tmp_path, name: str, text: str, seed=0) -> str:
    m = generate_synthetic(text, AB, frames_per_char=3, noise=0.0, seed=seed)
    path = tmp_path / f"{name}.ctcmat"
    store_matrix(m, path)
    return str(path)


def bp_decoder(matrices):
    return decode_best_path(matrices[0])


class TestManifest:
    def test_round_trip(self, tmp_path):
        records = (
            LineRecord("l1", (write_line(tmp_path, "l1", "ab"),)),
            LineRecord("l2", (write_line(tmp_path, "l2", "ba"),)),
        )
        manifest = Manifest(records)
        path = tmp_path / "manifest.json"
        save_manifest(manifest, path)
        again = load_manifest(path)
        assert [r.line_id for r in again.records] == ["l1", "l2"]
        assert again.expert_count == 1
        # A matrix outside the manifest's directory keeps its whole path.
        (tmp_path / "sub").mkdir()
        save_manifest(manifest, tmp_path / "sub" / "manifest.json")
        assert load_manifest(tmp_path / "sub" / "manifest.json").records == again.records

    def test_duplicate_ids_rejected(self, tmp_path):
        p = write_line(tmp_path, "x", "ab")
        with pytest.raises(ParseError):
            Manifest((LineRecord("l1", (p,)), LineRecord("l1", (p,))))

    def test_unequal_expert_counts_rejected(self, tmp_path):
        p = write_line(tmp_path, "x", "ab")
        with pytest.raises(ParseError):
            Manifest((LineRecord("l1", (p,)), LineRecord("l2", (p, p))))

    def test_empty_matrix_list_rejected(self):
        with pytest.raises(ParseError):
            Manifest((LineRecord("l1", ()),))

    @pytest.mark.parametrize(
        "records, name",
        [
            ((("l1", 1), ("l1", 1)), "l1"),
            ((("l1", 1), ("l2", 0)), "l2"),
            ((("l1", 1), ("l2", 1), ("l3", 2)), "l3"),
            ((("l1", 1), ("a\tb", 1)), "a\tb"),
            ((("a\rb", 1),), "a\rb"),
            ((("l1", 1), ("a\nb", 1)), "a\nb"),
        ],
        ids=["duplicate", "no-matrices", "expert-count", "tab", "carriage-return", "newline"],
    )
    def test_each_record_rule_names_the_record(self, tmp_path, records, name):
        p = write_line(tmp_path, "x", "ab")
        with pytest.raises(ParseError, match=re.escape(f"record {name!r}")):
            Manifest(tuple(LineRecord(line_id, (p,) * n) for line_id, n in records))

    def test_an_id_with_a_tab_is_rejected_on_load(self, tmp_path):
        """Such an id would write an output line that ``ctcdec eval`` splits
        in the wrong place."""
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"lines": [{"id": "a\tb", "matrices": ["x.ctcmat"]}]}), encoding="utf-8")
        with pytest.raises(ParseError, match=re.escape(repr("a\tb"))):
            load_manifest(path)

    def test_an_empty_matrix_array_is_rejected_on_load(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"lines": [{"id": "l1", "matrices": []}]}), encoding="utf-8")
        with pytest.raises(ParseError, match="record 'l1'"):
            load_manifest(path)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ParseError):
            load_manifest(path)
        for doc in ([], {"line": []}, {"lines": {}}):
            path.write_text(json.dumps(doc), encoding="utf-8")
            with pytest.raises(ParseError, match="'lines' array"):
                load_manifest(path)

    def test_bytes_that_are_not_utf8(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_bytes(b'{"lines": [\n  {"id": "l\xff1", "matrices": ["a.ctcmat"]}\n]}\n')
        with pytest.raises(ParseError, match="line 2: invalid UTF-8"):
            load_manifest(path)

    def test_missing_fields(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"lines": [{"id": "l1"}]}), encoding="utf-8")
        with pytest.raises(ParseError):
            load_manifest(path)

    @pytest.mark.parametrize(
        "entry",
        [
            {"id": "l1", "matrices": [1]},
            {"id": "l1", "matrices": [{"x": 1}]},
            {"id": "l1", "matrices": ["a.ctcmat"], "ref": 5},
        ],
    )
    def test_entries_of_the_wrong_type(self, tmp_path, entry):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"lines": [entry]}), encoding="utf-8")
        with pytest.raises(ParseError, match="record 'l1'"):
            load_manifest(path)

    def test_paths_resolve_relative_to_manifest(self, tmp_path):
        write_line(tmp_path, "l1", "ab")
        path = tmp_path / "manifest.json"
        path.write_text(
            json.dumps({"lines": [{"id": "l1", "matrices": ["l1.ctcmat"]}]}),
            encoding="utf-8",
        )
        manifest = load_manifest(path)
        assert decode_record(manifest.records[0], bp_decoder) == "ab"


class TestRunBatch:
    def test_order_preserved(self, tmp_path):
        records = tuple(
            LineRecord(f"l{i}", (write_line(tmp_path, f"l{i}", text),))
            for i, text in enumerate(["ab", "ba", "a b"])
        )
        out = tmp_path / "out.tsv"
        results = run_batch(Manifest(records), bp_decoder, out)
        assert results == [("l0", "ab"), ("l1", "ba"), ("l2", "a b")]
        assert out.read_text(encoding="utf-8") == "l0\tab\nl1\tba\nl2\ta b\n"

    def test_empty_manifest(self, tmp_path):
        out = tmp_path / "out.tsv"
        assert run_batch(Manifest(()), bp_decoder, out) == []
        assert out.read_text(encoding="utf-8") == ""

    def test_corrupt_matrix_is_isolated(self, tmp_path):
        good1 = write_line(tmp_path, "g1", "ab")
        good2 = write_line(tmp_path, "g2", "ba")
        bad = tmp_path / "bad.ctcmat"
        bad.write_text("CTCMAT v1\na\t<NaC>\nT=1\n0.2\t0.2\n", encoding="utf-8")
        records = (
            LineRecord("l0", (good1,)),
            LineRecord("l1", (str(bad),)),
            LineRecord("l2", (good2,)),
        )
        out = tmp_path / "out.tsv"
        results = run_batch(Manifest(records), bp_decoder, out)
        assert results[0] == ("l0", "ab")
        assert results[1] == ("l1", "ERROR:InvariantViolation")
        assert results[2] == ("l2", "ba")

    def test_missing_file_is_isolated(self, tmp_path):
        records = (LineRecord("l0", (str(tmp_path / "nope.ctcmat"),)),)
        results = run_batch(Manifest(records), bp_decoder, tmp_path / "out.tsv")
        assert results[0][1].startswith("ERROR:")

    def test_parallel_jobs_match_serial(self, tmp_path):
        records = tuple(
            LineRecord(f"l{i}", (write_line(tmp_path, f"l{i}", "ab ba"[: 2 + i % 3], seed=i),))
            for i in range(6)
        )
        serial = run_batch(Manifest(records), bp_decoder, tmp_path / "s.tsv")
        parallel = run_batch(Manifest(records), bp_decoder, tmp_path / "p.tsv", jobs=2)
        assert serial == parallel

    def test_the_decoder_is_pickled_at_most_once_per_worker(self, tmp_path):
        records = tuple(
            LineRecord(f"l{i}", (write_line(tmp_path, f"l{i}", "ab ba"[: 2 + i % 3], seed=i),))
            for i in range(8)
        )
        serial = run_batch(Manifest(records), bp_decoder, tmp_path / "s.tsv")
        PickleCountingDecoder.pickles = 0
        parallel = run_batch(Manifest(records), PickleCountingDecoder(), tmp_path / "p.tsv", jobs=2)
        assert parallel == serial
        assert PickleCountingDecoder.pickles <= 2

    def test_mismatched_expert_alphabets_error(self, tmp_path):
        """The committee's search refuses experts with different alphabets,
        and the batch records that line's error."""
        a = write_line(tmp_path, "a", "ab")
        other = Alphabet.with_nac("xy")
        m = generate_synthetic("xy", other, 3, 0.0)
        b = tmp_path / "b.ctcmat"
        store_matrix(m, b)
        record = LineRecord("l0", (a, str(b)))
        lexicon = Lexicon({"ab": 1}, separator=" ")

        def committee(matrices):
            return committee_decode(matrices, lexicon, DecodeParams(), CommitteeConfig(n=2))

        results = run_batch(Manifest((record,)), committee, tmp_path / "out.tsv")
        assert results[0][1] == "ERROR:InvariantViolation"


class PickleCountingDecoder:
    """Best path, counting how often this process pickles it."""

    pickles = 0

    def __reduce__(self):
        PickleCountingDecoder.pickles += 1
        return PickleCountingDecoder, ()

    def __call__(self, matrices):
        return decode_best_path(matrices[0])


def fail_on_third(matrices):
    """Best path, except a program fault on the matrix of line ``l2``."""
    if matrices[0].num_frames == 9:
        raise TypeError("a decoder bug")
    return decode_best_path(matrices[0])


class TestStreamedOutput:
    def test_a_missing_output_directory_fails_before_decoding(self, tmp_path):
        calls = []
        record = LineRecord("l0", (write_line(tmp_path, "l0", "ab"),))
        with pytest.raises(FileNotFoundError):
            run_batch(Manifest((record,)), calls.append, tmp_path / "nodir" / "out.tsv")
        assert calls == []

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_a_program_fault_keeps_the_finished_lines(self, tmp_path, jobs):
        """A fault that user input cannot cause is not an ``ERROR:`` line:
        it stops the batch, the lines before it stay in ``<out>.tmp``, and
        no ``<out>`` is written."""
        records = tuple(
            LineRecord(f"l{i}", (write_line(tmp_path, f"l{i}", text),))
            for i, text in enumerate(["ab", "ba", "aba", "b"])
        )
        out = tmp_path / "out.tsv"
        with pytest.raises(TypeError, match="a decoder bug"):
            run_batch(Manifest(records), fail_on_third, out, jobs=jobs)
        assert (tmp_path / "out.tsv.tmp").read_text(encoding="utf-8") == "l0\tab\nl1\tba\n"
        assert not out.exists()

    def test_the_finished_file_replaces_the_temporary_one(self, tmp_path):
        out = tmp_path / "out.tsv"
        out.write_text("stale\n", encoding="utf-8")
        record = LineRecord("l0", (write_line(tmp_path, "l0", "ab"),))
        run_batch(Manifest((record,)), bp_decoder, out)
        assert out.read_text(encoding="utf-8") == "l0\tab\n"
        assert not (tmp_path / "out.tsv.tmp").exists()
