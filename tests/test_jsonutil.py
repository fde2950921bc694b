"""Deterministic JSON serialization: lossless floats, stable digests,
and artifact files that are replaced whole or not at all."""

import json
import math
import os
import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from conftest import make_dataset
from labelnoise import jsonutil
from labelnoise.embedder import write_loss_curve
from labelnoise.errors import ConfigurationError, ParseError, ValidationError
from labelnoise.evaluation import Trials, write_trials_csv
from labelnoise.jsonutil import (
    canonical_json,
    digest_config,
    dump_json17,
    json_field,
    read_json,
    read_json_object,
    sha256_file,
    sha256_text,
    write_json17,
    write_text,
)
from labelnoise.nld import write_histogram_csv, write_scores_csv
from labelnoise.synthdata import Dataset


def test_floats_round_trip_losslessly():
    tricky = [0.1, 1.0 / 3.0, 1e-308, 1.7976931348623157e308, -2.5e-17,
              123456789.123456789, float(np.nextafter(1.0, 2.0))]
    text = dump_json17(tricky)
    assert json.loads(text) == tricky


def test_keys_sorted_and_scalars_encoded():
    text = dump_json17({"b": 1, "a": None, "c": True, "d": "x"})
    assert text == '{"a": null, "b": 1, "c": true, "d": "x"}'


@pytest.mark.parametrize("value,name", [(np.asarray([0.5]), "ndarray"), (np.int64(3), "int64")])
def test_numpy_values_refused(value, name):
    # artifacts hold Python values: ``tolist()`` and ``int()`` convert before writing
    with pytest.raises(TypeError, match=f"^cannot serialize {name}$"):
        dump_json17({"x": value})


def test_nested_structures():
    obj = {"outer": [{"y": 2, "x": [1.5]}, []]}
    assert dump_json17(obj) == '{"outer": [{"x": [1.5], "y": 2}, []]}'


def test_non_string_keys_rejected():
    with pytest.raises(TypeError):
        dump_json17({1: "x"})


def test_identical_objects_identical_text():
    a = {"x": [0.1, 0.2], "y": {"z": 3}}
    b = {"y": {"z": 3}, "x": [0.1, 0.2]}
    assert dump_json17(a) == dump_json17(b)


def test_write_json17_trailing_newline(tmp_path):
    path = tmp_path / "out.json"
    write_json17({"a": 0.1}, path)
    raw = path.read_bytes()
    assert raw.endswith(b"\n")
    assert json.loads(raw) == {"a": 0.1}


def test_write_json17_byte_identical_rerun(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    payload = {"values": [1.0 / 3.0, 0.1], "seed": 2}
    write_json17(payload, p1)
    write_json17(payload, p2)
    assert p1.read_bytes() == p2.read_bytes()


def _trials_failing_on_row_2():
    trials = Trials(enroll_id=[1, 2], test_id=[3, 4], is_target=[True, False])
    trials.enroll_id = np.array([1, "x"], dtype=object)
    return trials


_DS = make_dataset([[1.0], [2.0]], [0, 1])

# Each CSV writer, given rows whose second one cannot be formatted, so it
# fails after the header and a first row are written.
CSV_WRITERS = {
    "scores": lambda path: write_scores_csv(np.array([0.5, "x"], dtype=object), _DS,
                                            "intra", path),
    "histogram": lambda path: write_histogram_csv([(0.0, 0.5, 1, 2), (0.5, 1.0, "x", 0)], path),
    "trials": lambda path: write_trials_csv(_trials_failing_on_row_2(), path),
    "loss_curve": lambda path: write_loss_curve([(0, 0.5), (1, "x")], path),
}


@pytest.mark.parametrize("writer", sorted(CSV_WRITERS))
def test_csv_writer_failing_mid_write_leaves_the_previous_file(tmp_path, writer):
    path = tmp_path / "artifact.csv"
    path.write_bytes(b"previous,contents\n")
    with pytest.raises((TypeError, ValueError)):
        CSV_WRITERS[writer](path)
    assert path.read_bytes() == b"previous,contents\n"
    assert os.listdir(tmp_path) == ["artifact.csv"]  # no *.tmp sibling


# Floats whose 17-digit text is easy to get wrong: signed zeros, the
# smallest subnormal and normal, the largest double, non-finite values.
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
               -1.7976931348623157e308, 0.1, 1.0 / 3.0, math.nan, math.inf, -math.inf]
FLOATS = st.sampled_from(EDGE_FLOATS) | st.floats()
INT64 = st.integers(-2**63, 2**63 - 1)


def test_percent_17g_is_format_17g_over_random_bit_patterns():
    bits = np.random.default_rng(17).integers(0, 2**64, size=200_000, dtype=np.uint64)
    values = bits.view(np.float64).tolist() + EDGE_FLOATS
    assert [v for v in values if "%.17g" % v != format(v, ".17g")] == []


def _written(writer, *args) -> bytes:
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "artifact.csv"
        writer(*args, path)
        return path.read_bytes()


# ``write_rows`` formats this many rows per chunk while a test runs, so
# that 30 rows cross several block boundaries
BLOCKS = st.integers(1, 8)


def _same_bytes(block, writer, oracle, *args) -> bool:
    with mock.patch.object(jsonutil, "_ROW_BLOCK", block):
        return _written(writer, *args) == _written(oracle, *args)


@st.composite
def score_tables(draw):
    n = draw(st.integers(0, 30))
    column = lambda elements: draw(st.lists(elements, min_size=n, max_size=n))
    observed = column(st.integers(0, 2))
    ds = Dataset(features=np.zeros((n, 1)), utt_id=column(INT64), true_class=column(
        st.integers(0, 2)), observed_class=observed, is_ood=column(st.booleans()),
        class_count=3, feature_dim=1)
    return np.array(column(FLOATS), dtype=np.float64), ds


# the method is printable ASCII, "%" included, which the row format escapes
@given(BLOCKS, score_tables(),
       st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=8))
def test_scores_csv_has_the_bytes_of_the_per_row_writer(block, table, method):
    scores, ds = table
    assert _same_bytes(block, write_scores_csv, oracles.write_scores_csv, scores, ds, method)


@given(BLOCKS, st.lists(st.tuples(FLOATS, FLOATS, st.integers(0, 2**40),
                                  st.integers(0, 2**40)), max_size=30))
def test_histogram_csv_has_the_bytes_of_the_per_row_writer(block, rows):
    assert _same_bytes(block, write_histogram_csv, oracles.write_histogram_csv, rows)


@given(BLOCKS, st.lists(st.tuples(INT64, INT64, st.booleans()), max_size=30))
def test_trials_csv_has_the_bytes_of_the_per_row_writer(block, rows):
    trials = Trials(enroll_id=[r[0] for r in rows], test_id=[r[1] for r in rows],
                    is_target=[r[2] for r in rows])
    assert _same_bytes(block, write_trials_csv, oracles.write_trials_csv, trials)


@given(BLOCKS, st.lists(st.tuples(st.integers(0, 2**40), FLOATS), max_size=30))
def test_loss_curve_has_the_bytes_of_the_per_row_writer(block, curve):
    assert _same_bytes(block, write_loss_curve, oracles.write_loss_curve, curve)


@pytest.mark.parametrize("count", ["0", "1", "B-1", "B", "B+1", "2B+1"])
def test_csv_writers_at_the_row_block_boundaries(count):
    # the real block size B, at the row counts around its multiples
    b = jsonutil._ROW_BLOCK
    n = {"0": 0, "1": 1, "B-1": b - 1, "B": b, "B+1": b + 1, "2B+1": 2 * b + 1}[count]
    rng = np.random.default_rng(n)
    floats = lambda: np.where(rng.random(n) < 0.2, rng.choice(EDGE_FLOATS, n),
                              rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n))
    ints = lambda: rng.integers(-2**63, 2**63 - 1, n, endpoint=True)
    counts = lambda: rng.integers(0, 2**40, n).tolist()
    flags = lambda: rng.random(n) < 0.5
    classes = rng.integers(0, 3, n)
    ds = Dataset(features=np.zeros((n, 1)), utt_id=ints(), true_class=classes,
                 observed_class=np.where(flags(), classes, (classes + 1) % 3),
                 is_ood=flags(), class_count=3, feature_dim=1)
    cases = [
        (write_scores_csv, oracles.write_scores_csv, floats(), ds, "inter"),
        (write_histogram_csv, oracles.write_histogram_csv,
         list(zip(floats().tolist(), floats().tolist(), counts(), counts()))),
        (write_trials_csv, oracles.write_trials_csv, Trials(ints(), ints(), flags())),
        (write_loss_curve, oracles.write_loss_curve, list(zip(counts(), floats().tolist()))),
    ]
    for writer, oracle, *args in cases:
        assert _written(writer, *args) == _written(oracle, *args)


def test_write_text_writes_each_chunk_once_in_order(tmp_path, monkeypatch):
    writes = []

    class RecordingFile:
        def __init__(self, fh):
            self.fh = fh

        def write(self, data):
            writes.append(data)
            return self.fh.write(data)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return self.fh.__exit__(*exc)

    monkeypatch.setattr(jsonutil, "open", lambda *a, **k: RecordingFile(open(*a, **k)),
                        raising=False)
    path = tmp_path / "out.txt"
    # a string is written as ASCII, bytes as they are
    write_text(path, iter(["a,b\n", "", b"1,\x93\n"]))
    assert writes == [b"a,b\n", b"", b"1,\x93\n"]
    assert path.read_bytes() == b"a,b\n1,\x93\n"
    write_text(path, [])
    assert path.read_bytes() == b""
    assert os.listdir(tmp_path) == ["out.txt"]


def test_write_text_refuses_a_non_ascii_string_and_keeps_the_file(tmp_path):
    path = tmp_path / "out.txt"
    write_text(path, ["earlier\n"])
    with pytest.raises(UnicodeEncodeError):
        write_text(path, ["run,", "caf\u00e9\n"])
    assert path.read_bytes() == b"earlier\n"
    assert os.listdir(tmp_path) == ["out.txt"]


@pytest.mark.parametrize("v", [-2**63 - 1, 2**63, 10**400], ids=["below", "above", "huge"])
def test_json_field_refuses_integers_beyond_64_bits(v):
    assert json_field({"k": 2**63 - 1}, "k", int, "p") == 2**63 - 1
    assert json_field({"k": -2**63}, "k", int, "p") == -2**63
    with pytest.raises(ConfigurationError, match=r"^p\.k must be a 64-bit integer, got "):
        json_field({"k": v}, "k", int, "p")


def test_json_field_bounds_are_closed_and_skip_null():
    for v in (0, 0.5, 1):
        assert json_field({"k": v}, "k", float, "p", bounds=(0, 1)) == v
    assert json_field({"k": None}, "k", float, "p", nullable=True, bounds=(0, 1)) is None
    for v in (-0.5, 1.5, 10**400):
        with pytest.raises(ConfigurationError, match=r"^p\.k must be "):
            json_field({"k": v}, "k", float, "p", bounds=(0, 1))
    with pytest.raises(ConfigurationError, match=r"^p\.k must be in \[0, 100\], got 101$"):
        json_field({"k": 101}, "k", int, "p", bounds=(0, 100))


def test_read_json_object_names_the_file_in_every_fault(tmp_path):
    path = tmp_path / "thing.json"
    path.write_text("[1]")
    with pytest.raises(ConfigurationError, match=f"^{re.escape(str(path))}: thing must be a "
                                                 "JSON object$"):
        read_json_object(path, "thing", dict)

    def refuse(obj):
        raise ValidationError(f"thing.k is {obj['k']}")

    path.write_text('{"k": 3}')
    assert read_json_object(path, "thing", lambda obj: obj["k"] + 1) == 4
    with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}: thing.k is 3$"):
        read_json_object(path, "thing", refuse)
    path.write_text("{")
    with pytest.raises(ParseError, match=f"^malformed thing file {re.escape(str(path))}: "):
        read_json_object(path, "thing", dict)


def test_sha256_text_known_value():
    assert sha256_text("") == (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    )


def test_sha256_file_matches_text(tmp_path):
    path = tmp_path / "f.txt"
    path.write_text("hello\n", encoding="ascii")
    assert sha256_file(path) == sha256_text("hello\n")


def test_canonical_json_is_compact_and_sorted():
    assert canonical_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'


def test_digest_config_key_order_invariant():
    a = {"train": {"steps": 10}, "seed": 0}
    b = {"seed": 0, "train": {"steps": 10}}
    assert digest_config(a) == digest_config(b)
    assert digest_config(a) != digest_config({"seed": 1, "train": {"steps": 10}})


def test_digest_config_stable_across_json_round_trip():
    # integral floats reload from disk as ints; the digest must not care
    cfg = {"q": 25.0, "lr": 1e-4, "steps": 30, "nested": {"margin": 0.1, "scale": 30.0}}
    reparsed = json.loads(dump_json17(cfg))
    assert reparsed["q"] == 25 and isinstance(reparsed["q"], int)
    assert digest_config(reparsed) == digest_config(cfg)
    assert canonical_json(25.0) == canonical_json(25) == "25"


def test_non_finite_floats_are_written_as_the_literals_read_json_reads(tmp_path):
    path = tmp_path / "out.json"
    values = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "np": np.float64("nan")}
    write_json17(values, path)
    text = path.read_text()
    assert text == '{"-inf": -Infinity, "inf": Infinity, "nan": NaN, "np": NaN}\n'
    back = read_json(path, "test")
    assert back["inf"] == math.inf and back["-inf"] == -math.inf
    assert math.isnan(back["nan"]) and math.isnan(back["np"])
    assert canonical_json([math.nan, -math.inf]) == "[NaN,-Infinity]"


def test_negative_zero_keeps_its_sign_across_json_round_trip():
    # "-0" would reload as the integer 0 and digest differently
    cfg = {"level_q": -0.0, "scale": 0.0}
    text = dump_json17(cfg)
    assert text == '{"level_q": -0.0, "scale": 0}'
    assert digest_config(json.loads(text)) == digest_config(cfg)


@pytest.mark.parametrize("text,line", [
    ("[" * 100_000, 1),
    ('{"a": "[[[[",\n "b":\n' + "[" * 100_000, 3),
    ('{"a": 1,\n "b": ' + '[{"c": ' * 60_000, 2),
], ids=["arrays", "after-a-string", "objects"])
def test_read_json_locates_nesting_too_deep(tmp_path, text, line):
    path = tmp_path / "deep.json"
    path.write_text(text)
    with pytest.raises(ParseError, match=rf"^malformed config file .*: nested too deeply "
                                         rf"\(line {line}\)$"):
        read_json(path, "config")
