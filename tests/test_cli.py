"""Config resolution and the end-to-end command-line pipeline."""

import csv
import dataclasses
import io
import json
import logging
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import labelnoise
import labelnoise.cli as cli
import labelnoise.nld as nld
from labelnoise.cli import (
    SECTIONS,
    TOP_LEVEL_KEYS,
    build_train_config,
    main,
    resolve_config,
    run_config_digest,
)
from labelnoise.embedder import load_model
from labelnoise.errors import ConfigurationError
from labelnoise.jsonutil import dump_json17, sha256_file
from labelnoise.losses import LOSS_KINDS, AAMConfig, AAMSCConfig, CEConfig, GE2EConfig
from labelnoise.nld import (
    build_centroid_classifier,
    embed_dataset,
    inter_inconsistency,
    intra_inconsistency,
    write_scores_csv,
)
from labelnoise.seeding import derive_seed
from labelnoise.synthdata import load_dataset, save_dataset
from oracles import handwritten_resolve_config

# keep main()'s logging.basicConfig from binding a handler to a
# capsys-replaced stderr that outlives the test
logging.getLogger().addHandler(logging.NullHandler())


# ----------------------------------------------------------------------
# config resolution


def test_resolve_config_fills_defaults():
    got = resolve_config({"output_dir": "path/to/run7"})
    assert got["name"] == "run7"
    assert got["seeds"] == [0, 2]
    assert got["noise"] is None
    assert got["dataset"]["class_count"] == 50
    assert got["dataset"]["aux_class_count"] == 50  # mirrors class_count
    assert got["train"]["loss"] == {"kind": "aam", "scale": 30.0, "margin": 0.1}
    assert got["train"]["total_steps"] == 5000
    assert got["detect"]["methods"] == ["intra", "inter"]
    assert got["detect"]["q"] is None
    assert got["eval"]["pairs_per_kind"] == 2000
    assert got["retrain"]["detection_method"] == "inter"


@pytest.mark.parametrize("raw,needle", [
    ({"output_dir": "x", "bogus": 1}, "config.bogus"),
    ({"output_dir": "x", "format_version": 2}, "format_version"),
    ({}, "output_dir"),
    ({"output_dir": "x", "seeds": []}, "seeds"),
    ({"output_dir": "x", "seeds": [1, 1]}, "must not repeat"),
    ({"output_dir": "x", "seeds": [0, -3]}, "seeds"),
    ({"output_dir": "x", "seeds": [True]}, "seeds"),
    ({"output_dir": "x", "name": ""}, "name"),
    ({"output_dir": "x", "dataset": {"bogus": 1}}, "dataset.bogus"),
    ({"output_dir": "x", "dataset": {"class_count": "five"}}, "must be an integer"),
    ({"output_dir": "x", "dataset": {"class_count": 1}}, "must be >= 2"),
    ({"output_dir": "x", "dataset": {"within_class_spread": -0.1}}, "within_class_spread"),
    ({"output_dir": "x", "dataset": {"latent_dim": 9, "feature_dim": 4}}, "feature_dim"),
    ({"output_dir": "x", "noise": {"kind": "martian", "level_q": 5}}, "noise"),
    ({"output_dir": "x", "noise": {"kind": "permute", "level_q": 150}}, "noise"),
    ({"output_dir": "x", "train": {"loss": {"kind": "huber"}}}, "unknown loss"),
    ({"output_dir": "x", "train": {"loss": {"kind": "ce", "margin": 0.1}}}, "train.loss.margin"),
    ({"output_dir": "x", "train": {"hidden_dims": [0]}}, "hidden_dims"),
    ({"output_dir": "x", "train": {"hidden_dims": "64"}}, "hidden_dims"),
    ({"output_dir": "x", "train": {"total_steps": -1}}, "total_steps"),
    ({"output_dir": "x", "detect": {"q": 150}}, "detect.q"),
    ({"output_dir": "x", "detect": {"q": 0}}, "detect.q"),
    ({"output_dir": "x", "detect": {"methods": ["intra", "intra"]}}, "methods"),
    ({"output_dir": "x", "detect": {"methods": ["bogus"]}}, "methods"),
    ({"output_dir": "x", "detect": {"centroid_temperature": 0}}, "centroid_temperature"),
    ({"output_dir": "x", "eval": {"pairs_per_kind": 0}}, "pairs_per_kind"),
    ({"output_dir": "x", "retrain": {"detection_method": "psychic"}}, "detection_method"),
    ({"output_dir": "x", "format_version": True}, "format_version"),
    ({"output_dir": "x", "format_version": 1.0}, "format_version"),
])
def test_resolve_config_field_errors(raw, needle):
    with pytest.raises(ConfigurationError, match=needle):
        resolve_config(raw)


@pytest.mark.parametrize("section,key,value", [
    ("train", "learning_rate", math.nan),
    ("train", "easy_margin_fraction", math.nan),
    ("dataset", "within_class_spread", math.inf),
    ("detect", "centroid_temperature", math.nan),
    ("detect", "q", math.inf),
    ("noise", "level_q", -math.inf),
    ("train.loss", "scale", math.inf),
    ("train.loss", "margin", 10 ** 400),
])
def test_resolve_config_rejects_non_finite_numbers(section, key, value):
    raw = {"output_dir": "x", "noise": {"kind": "permute", "level_q": 10},
           "train": {"loss": {"kind": "aam"}}}
    target = raw
    for part in section.split("."):
        target = target.setdefault(part, {})
    target[key] = value
    with pytest.raises(ConfigurationError, match=rf"{section}\.{key} must be a finite number"):
        resolve_config(raw)


def test_resolve_config_rejects_inconsistent_loss_batching():
    raw = {"output_dir": "x", "train": {"loss": {"kind": "ge2e"}, "utts_per_speaker": 1}}
    with pytest.raises(ConfigurationError, match="GE2E"):
        resolve_config(raw)
    raw = {"output_dir": "x", "train": {"loss": {"kind": "ce"}, "utts_per_speaker": 2}}
    with pytest.raises(ConfigurationError, match="utts_per_speaker"):
        resolve_config(raw)


def test_run_config_digest_ignores_location_and_label():
    a = resolve_config({"output_dir": "a", "name": "first"})
    b = resolve_config({"output_dir": "elsewhere/b", "name": "second"})
    assert run_config_digest(a) == run_config_digest(b)
    c = resolve_config({"output_dir": "a", "detect": {"q": 10.0}})
    assert run_config_digest(a) != run_config_digest(c)


def test_build_train_config_derives_the_stage_seed():
    resolved = resolve_config({"output_dir": "x", "train": {"loss": {"kind": "ce"}}})
    cfg = build_train_config(resolved, class_count=7, run_seed=3)
    assert cfg.seed == derive_seed(3, "train")
    assert isinstance(cfg.loss, CEConfig)
    assert cfg.loss.class_count == 7


def test_build_train_config_loss_kinds():
    for kind, cls in (("nsl", AAMConfig), ("aamsc", AAMSCConfig), ("ge2e", GE2EConfig)):
        raw = {"output_dir": "x", "train": {"loss": {"kind": kind}}}
        if kind == "ge2e":
            raw["train"]["utts_per_speaker"] = 2
        cfg = build_train_config(resolve_config(raw), class_count=4, run_seed=0)
        assert isinstance(cfg.loss, cls)
    nsl = build_train_config(
        resolve_config({"output_dir": "x", "train": {"loss": {"kind": "nsl"}}}),
        class_count=4, run_seed=0)
    assert nsl.loss.margin == 0.0


# Any JSON value, the awkward ones included: NaN, the infinities, an
# integer past float64, bools (which are ints in Python) and nesting.
ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 60) | st.floats()
    | st.sampled_from([math.nan, math.inf, -math.inf, 10 ** 400, 0.5, 150.0, "", "x"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(["kind", "a"]),
                                                                inner, max_size=2),
    max_leaves=4)
LOSS_TABLE = {key: spec for _, table in LOSS_KINDS.values() for key, spec in table.items()}
METHOD_LISTS = st.lists(st.sampled_from(["intra", "inter"]), min_size=1, max_size=2, unique=True)


def fitting(kind: type, minimum) -> st.SearchStrategy:
    """Values of a field's JSON kind that its one-field bound admits (the
    string fields and ``detect.methods`` get theirs from the caller)."""
    if kind is int:
        return st.integers(minimum, minimum + 40)
    if kind is float:
        return st.floats(0, 1)
    return {list: st.lists(st.integers(1, 64), max_size=3)}[kind]


def fitting_section(table: dict, **values) -> st.SearchStrategy:
    """Objects holding the keys given ``values`` and any subset of the
    table's other keys, each with a fitting value."""
    return st.fixed_dictionaries(values, optional={
        key: fitting(kind, minimum)
        for key, (kind, _, minimum) in table.items() if key not in values})


def fitting_train(kind: str) -> st.SearchStrategy:
    """A train section for the loss ``kind``, with its batching."""
    return fitting_section(
        SECTIONS["train"],
        loss=fitting_section({"kind": (str, None, None), **LOSS_KINDS[kind][1]},
                             kind=st.just(kind)),
        utts_per_speaker=st.integers(2, 4) if kind == "ge2e" else st.just(1))


# Configs that mostly resolve; the ones that do not cross a many-field rule.
FITTING_CONFIGS = st.fixed_dictionaries(
    {"output_dir": st.just("runs/x")},
    optional={
        "name": st.just("r"),
        "seeds": st.lists(st.integers(0, 5), min_size=1, max_size=3, unique=True),
        "dataset": fitting_section(SECTIONS["dataset"]),
        "noise": fitting_section(SECTIONS["noise"], kind=st.sampled_from(["permute", "open_set"])),
        "train": st.sampled_from(list(LOSS_KINDS)).flatmap(fitting_train),
        "detect": fitting_section(SECTIONS["detect"], methods=METHOD_LISTS,
                                  q=st.none() | st.floats(1, 100)),
        "eval": fitting_section(SECTIONS["eval"]),
        "retrain": fitting_section(SECTIONS["retrain"],
                                   detection_method=st.sampled_from(["intra", "inter"])),
    })
# Where an edit may put any JSON value: every key, every section, an unknown key.
EDIT_PATHS = [(key,) for key in TOP_LEVEL_KEYS] + [
    (section, key) for section, table in SECTIONS.items() for key in table] + [
    ("train", "loss", key) for key in ["kind", *LOSS_TABLE]] + [("bogus",), ("detect", "bogus")]


def edited(raw: dict, edits: list) -> dict:
    for path, value in edits:
        target = raw
        for part in path[:-1]:
            if not isinstance(target.get(part), dict):
                target[part] = {}
            target = target[part]
        target[path[-1]] = value
    return raw


RAW_CONFIGS = FITTING_CONFIGS | st.builds(
    edited, FITTING_CONFIGS,
    st.lists(st.tuples(st.sampled_from(EDIT_PATHS), ANY_JSON), min_size=1, max_size=2))


@settings(max_examples=1000, deadline=None)
@given(RAW_CONFIGS)
def test_resolve_config_matches_the_handwritten_resolver(raw):
    # the resolver takes only the JSON integer 1 as format_version; the
    # hand-written one also took true and 1.0. Both report an unknown
    # top-level key before they look at format_version.
    if "format_version" in raw and type(raw["format_version"]) is not int:
        needle = "unknown config field" if set(raw) - set(TOP_LEVEL_KEYS) else "format_version"
        with pytest.raises(ConfigurationError, match=needle):
            resolve_config(raw)
        return
    try:
        expected = handwritten_resolve_config(raw)
    except ConfigurationError:
        with pytest.raises(ConfigurationError):
            resolve_config(raw)
        return
    got = resolve_config(raw)
    assert got == expected
    assert dump_json17(got) == dump_json17(expected)
    # the config.json a run writes resolves to the same config
    assert dump_json17(resolve_config(json.loads(dump_json17(got)))) == dump_json17(got)


def test_readme_config_table_names_every_accepted_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("### Config reference", 1)[1].split("\n#", 1)[0]
    documented = set(re.findall(r"^\| `([a-z_.]+)` \|", table, flags=re.M))
    accepted = {key for key in TOP_LEVEL_KEYS if key not in SECTIONS}
    accepted |= {f"{section}.{key}" for section, table in SECTIONS.items()
                 for key, (kind, _, _) in table.items() if kind is not dict}
    accepted |= {f"train.loss.{key}" for key in ["kind", *LOSS_TABLE]}
    assert documented == accepted


# ----------------------------------------------------------------------
# end-to-end pipeline


def tiny_raw_config(out_dir: str) -> dict:
    return {
        "output_dir": out_dir,
        "seeds": [1],
        "dataset": {"class_count": 5, "per_class": 6, "latent_dim": 4,
                    "feature_dim": 8, "aux_class_count": 5, "aux_per_class": 3,
                    "heldout_per_class": 4},
        "noise": {"kind": "permute", "level_q": 25.0},
        "train": {"loss": {"kind": "aamsc", "scale": 30.0, "margin": 0.1,
                           "subcenters": 2},
                  "total_steps": 30, "batch_speakers": 5,
                  "hidden_dims": [8], "embed_dim": 6},
        "detect": {"histogram_bins": 4},
        "eval": {"pairs_per_kind": 20},
    }


def write_config(path: Path, raw: dict) -> Path:
    path.write_text(json.dumps(raw))
    return path


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    raw = tiny_raw_config(str(root / "run"))
    cfg_path = write_config(root / "tiny.json", raw)
    for command in ("simulate", "train", "detect", "eval", "retrain"):
        assert main([command, "--config", str(cfg_path), "--quiet"]) == 0
    return SimpleNamespace(root=root, raw=raw, cfg_path=cfg_path,
                           run=root / "run", sdir=root / "run" / "seed_1")


def test_pipeline_writes_all_artifacts(pipeline):
    expected = [
        "clean.jsonl", "aux.jsonl", "heldout.jsonl", "noisy.jsonl",
        "model.json", "loss_curve.csv",
        "scores_intra.csv", "detection_intra.json", "histogram_intra.csv",
        "scores_inter.csv", "detection_inter.json", "histogram_inter.csv",
        "trials.csv", "eer.json",
        "model_retrained.json", "retrain.json", "manifest.json",
    ]
    for name in expected:
        assert (pipeline.sdir / name).exists(), name
    assert (pipeline.run / "config.json").exists()


def test_pipeline_manifest_tracks_every_stage(pipeline):
    manifest = json.loads((pipeline.sdir / "manifest.json").read_text())
    assert set(manifest["stages"]) == {"simulate", "train", "detect", "eval", "retrain"}
    assert manifest["seed"] == 1
    sim = manifest["stages"]["simulate"]
    assert sim["artifacts"]["clean.jsonl"] == sha256_file(pipeline.sdir / "clean.jsonl")
    assert sim["utterance_count"] == 30
    resolved = json.loads((pipeline.run / "config.json").read_text())
    assert manifest["config_digest"] == run_config_digest(resolved)


def test_pipeline_detect_falls_back_to_noise_level(pipeline):
    det = json.loads((pipeline.sdir / "detection_intra.json").read_text())
    assert det["q"] == 25.0
    assert det["selected_count"] == math.ceil(0.25 * 30)
    assert sorted(det["predicted_noisy"]) == det["predicted_noisy"]
    assert det["precision"] is None or 0.0 <= det["precision"] <= 1.0


def test_pipeline_eer_artifact_well_formed(pipeline):
    eer = json.loads((pipeline.sdir / "eer.json").read_text())
    assert 0.0 <= eer["eer"] <= 1.0
    assert eer["trial_count"] <= 40  # 20 per kind, minus any dropped
    assert eer["model_digest"] == sha256_file(pipeline.sdir / "model.json")


def test_pipeline_retrain_artifact_well_formed(pipeline):
    retrain = json.loads((pipeline.sdir / "retrain.json").read_text())
    assert retrain["detection_method"] == "inter"
    assert retrain["removed_count"] == 8
    assert 0.0 <= retrain["before"]["eer"] <= 1.0
    assert 0.0 <= retrain["after"]["eer"] <= 1.0


def test_pipeline_report_aggregates(pipeline, capsys):
    assert main(["report", str(pipeline.run)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "run,noise_kind,noise_q,loss,method,precision,recall,eer,seeds"
    assert len(lines) == 3  # one row per detect method
    intra, inter = lines[1].split(","), lines[2].split(",")
    assert intra[:5] == ["run", "permute", "25", "aamsc", "intra"]
    assert inter[4] == "inter"
    assert intra[8] == "1"
    assert float(intra[7]) == pytest.approx(
        json.loads((pipeline.sdir / "eer.json").read_text())["eer"], abs=1e-6)


def test_pipeline_report_to_file_and_missing_cells(pipeline, tmp_path):
    bare = tmp_path / "bare"
    bare.mkdir()
    (bare / "config.json").write_text(json.dumps({
        "name": "empty", "seeds": [0], "noise": None,
        "train": {"loss": {"kind": "ce"}}, "detect": {"methods": ["intra"]},
    }))
    out = tmp_path / "report.csv"
    assert main(["report", str(pipeline.run), str(bare), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 4
    assert lines[3] == "empty,clean,0,ce,intra,missing,missing,missing,0"


def test_simulate_reruns_are_byte_identical(pipeline, tmp_path):
    for out in (tmp_path / "a", tmp_path / "b"):
        assert main(["simulate", "--config", str(pipeline.cfg_path),
                     "--out", str(out), "--quiet"]) == 0
    for name in ("clean.jsonl", "aux.jsonl", "heldout.jsonl", "noisy.jsonl"):
        assert sha256_file(tmp_path / "a" / "seed_1" / name) == \
            sha256_file(tmp_path / "b" / "seed_1" / name), name
    # same derived data seeds as the original pipeline run, too
    assert sha256_file(tmp_path / "a" / "seed_1" / "noisy.jsonl") == \
        sha256_file(pipeline.sdir / "noisy.jsonl")


def test_simulate_without_noise_copies_clean(pipeline, tmp_path):
    raw = tiny_raw_config(str(tmp_path / "run"))
    raw["noise"] = None
    cfg_path = write_config(tmp_path / "clean.json", raw)
    assert main(["simulate", "--config", str(cfg_path), "--quiet"]) == 0
    sdir = tmp_path / "run" / "seed_1"
    assert sha256_file(sdir / "noisy.jsonl") == sha256_file(sdir / "clean.jsonl")


def test_simulate_round_trip_check_sees_a_lost_negative_zero(pipeline, tmp_path, monkeypatch,
                                                             capsys):
    real_save = cli.save_dataset

    def sign_dropping_save(ds, path):
        ds.features[0, 0] = -0.0  # the dataset in memory holds a negative zero
        unsigned = ds.features.copy()
        unsigned[0, 0] = 0.0  # that the written file loses
        real_save(dataclasses.replace(ds, features=unsigned), path)

    monkeypatch.setattr(cli, "save_dataset", sign_dropping_save)
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(pipeline.cfg_path), "--out", str(out),
                 "--quiet"]) == 1
    path = out / "seed_1" / "clean.jsonl"
    assert f"round-trip validation failed for {path}" in capsys.readouterr().err


def test_seed_flag_selects_a_single_seed(pipeline, tmp_path):
    assert main(["simulate", "--config", str(pipeline.cfg_path),
                 "--out", str(tmp_path / "run"), "--seed", "7", "--quiet"]) == 0
    assert (tmp_path / "run" / "seed_7").is_dir()
    assert not (tmp_path / "run" / "seed_1").exists()


def test_negative_seed_flag_exits_one_and_writes_nothing(pipeline, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(pipeline.cfg_path), "--out", str(out),
                 "--seed", "-1", "--quiet"]) == 1
    assert "error: --seed must be >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()


def test_retrain_refuses_predicted_ids_outside_int64(pipeline, tmp_path, capsys):
    sdir = tmp_path / "run" / "seed_1"
    sdir.mkdir(parents=True)
    for name in ("noisy.jsonl", "heldout.jsonl", "model.json"):
        shutil.copy(pipeline.sdir / name, sdir)
    det = json.loads((pipeline.sdir / "detection_inter.json").read_text())
    det_path = tmp_path / "detection.json"
    argv = ["retrain", "--config", str(pipeline.cfg_path), "--out", str(tmp_path / "run"),
            "--detection", str(det_path), "--quiet"]
    for bad in (2**70, 2**63, -2**63 - 1):
        det_path.write_text(json.dumps({**det, "predicted_noisy": [0, bad]}))
        assert main(argv) == 1
        assert (f"error: detection file {det_path}: predicted_noisy id {bad} is outside "
                "the 64-bit range") in capsys.readouterr().err
        assert not (sdir / "retrain.json").exists()
    # a repeated id is removed once; an in-range id absent from the dataset is ignored
    det_path.write_text(json.dumps({**det, "predicted_noisy": [0, 0, 2**63 - 1]}))
    assert main(argv) == 0
    assert json.loads((sdir / "retrain.json").read_text())["removed_count"] == 1


def test_detect_method_both_runs_both_methods_whatever_the_config_lists(pipeline, tmp_path):
    run = copy_run(pipeline, tmp_path)
    for path in (run / "seed_1").glob("*_in*"):  # the intra and inter artifacts
        path.unlink()
    raw = {**pipeline.raw, "output_dir": str(run),
           "detect": {**pipeline.raw["detect"], "methods": ["inter"]}}
    cfg_path = write_config(tmp_path / "inter_only.json", raw)
    assert main(["detect", "--config", str(cfg_path), "--method", "both", "--quiet"]) == 0
    manifest = json.loads((run / "seed_1" / "manifest.json").read_text())
    assert sorted(manifest["stages"]["detect"]["artifacts"]) == [
        f"{kind}_{method}.{ext}" for kind, ext in (("detection", "json"), ("histogram", "csv"),
                                                   ("scores", "csv"))
        for method in ("inter", "intra")]
    for method in ("intra", "inter"):
        for name in (f"scores_{method}.csv", f"histogram_{method}.csv"):
            assert (run / "seed_1" / name).read_bytes() == (pipeline.sdir / name).read_bytes()


@pytest.mark.parametrize("damage", [None, "edit", "delete", "other q"])
def test_detect_with_fewer_methods_keeps_the_other_methods_unchanged_entries(pipeline, tmp_path,
                                                                             damage):
    run = copy_run(pipeline, tmp_path)
    sdir = run / "seed_1"
    before = json.loads((sdir / "manifest.json").read_text())["stages"]["detect"]
    if damage == "edit":
        with open(sdir / "histogram_inter.csv", "a") as fh:
            fh.write("0,0,0,0\n")
    elif damage == "delete":
        (sdir / "scores_inter.csv").unlink()
    q = ["--q", "40"] if damage == "other q" else []
    assert main(["detect", "--config", str(pipeline.cfg_path), "--out", str(run),
                 "--method", "intra", *q, "--quiet"]) == 0
    after = json.loads((sdir / "manifest.json").read_text())["stages"]["detect"]
    intra = {f"{kind}_intra.{ext}" for kind, ext in (("scores", "csv"), ("detection", "json"),
                                                     ("histogram", "csv"))}
    inter = {name.replace("intra", "inter") for name in intra}
    for name, digest in after["artifacts"].items():
        assert digest == sha256_file(sdir / name)
    if damage is None:  # the inter entries stay, as recorded before
        assert set(after["artifacts"]) == intra | inter
        assert after["inter"] == before["inter"]
        assert {n: after["artifacts"][n] for n in inter} == {
            n: before["artifacts"][n] for n in inter}
        assert after["intra"] == before["intra"]
    else:  # a file lost its recorded hash, or q changed: the method's entries go
        assert set(after["artifacts"]) == intra
        assert "inter" not in after


def test_retrain_records_the_method_of_the_detection_file(pipeline, tmp_path):
    run = copy_run(pipeline, tmp_path)
    det_path = run / "seed_1" / "detection_intra.json"
    assert main(["retrain", "--config", str(pipeline.cfg_path), "--out", str(run),
                 "--detection", str(det_path), "--quiet"]) == 0
    report = json.loads((run / "seed_1" / "retrain.json").read_text())
    assert report["detection_method"] == "intra"
    assert report["removed_count"] == json.loads(det_path.read_text())["selected_count"]
    manifest = json.loads((run / "seed_1" / "manifest.json").read_text())
    assert manifest["stages"]["retrain"]["method"] == "intra"


def test_retrain_refuses_a_method_the_detection_file_was_not_made_with(pipeline, tmp_path,
                                                                       capsys):
    run = copy_run(pipeline, tmp_path)
    det_path = run / "seed_1" / "detection_intra.json"
    report = (run / "seed_1" / "retrain.json").read_bytes()
    set_inter = write_config(tmp_path / "set_inter.json", {
        **pipeline.raw, "output_dir": str(run), "retrain": {"detection_method": "inter"}})
    det = json.loads(det_path.read_text())
    odd_method, not_object = tmp_path / "odd_method.json", tmp_path / "not_object.json"
    odd_method.write_text(json.dumps({**det, "method": "x"}))
    not_object.write_text(json.dumps([det]))
    cases = [
        ([str(pipeline.cfg_path), "--method", "inter"], det_path,
         f"error: detection file {det_path} was made by method 'intra', but --method asks for "
         "'inter'"),
        ([str(set_inter)], det_path,
         f"error: detection file {det_path} was made by method 'intra', but config field "
         "retrain.detection_method asks for 'inter'"),
        ([str(pipeline.cfg_path)], odd_method,
         f"error: detection file {odd_method}: method must be one of ['intra', 'inter'], "
         "got 'x'"),
        ([str(pipeline.cfg_path)], not_object,
         f"error: detection file {not_object} must hold a JSON object"),
    ]
    for (config, *flags), path, message in cases:
        assert main(["retrain", "--config", config, "--out", str(run), "--detection",
                     str(path), *flags, "--quiet"]) == 1
        assert message in capsys.readouterr().err
        assert (run / "seed_1" / "retrain.json").read_bytes() == report


def test_detect_builds_the_centroid_bank_only_when_needed_and_once(pipeline, tmp_path,
                                                                   monkeypatch, caplog):
    calls = []
    real = nld.compute_centroids
    for module in (cli, nld):  # wherever detect might look it up
        monkeypatch.setattr(module, "compute_centroids",
                            lambda emb, ds: calls.append(len(ds)) or real(emb, ds))
    # an AAMSC model's inter scores need no bank
    run = copy_run(pipeline, tmp_path / "aamsc")
    assert main(["detect", "--config", str(pipeline.cfg_path), "--out", str(run),
                 "--method", "inter", "--quiet"]) == 0
    assert calls == []
    # GE2E's inter classifier and the intra scores share one bank; observed
    # class 0, relabelled as 1, leaves the bank an empty class to warn about
    raw = tiny_raw_config(str(tmp_path / "ge2e"))
    raw["train"] = {**raw["train"], "loss": {"kind": "ge2e"}, "utts_per_speaker": 3}
    cfg_path = write_config(tmp_path / "ge2e.json", raw)
    for command in ("simulate", "train"):
        assert main([command, "--config", str(cfg_path), "--quiet"]) == 0
    sdir = tmp_path / "ge2e" / "seed_1"
    ds = load_dataset(sdir / "noisy.jsonl")
    ds = dataclasses.replace(ds, observed_class=np.maximum(ds.observed_class, 1))
    save_dataset(ds, tmp_path / "emptied.jsonl")
    with caplog.at_level(logging.WARNING, logger="labelnoise.nld"):
        assert main(["detect", "--config", str(cfg_path), "--dataset",
                     str(tmp_path / "emptied.jsonl"), "--method", "both", "--quiet"]) == 0
    assert calls == [30]
    assert [r.getMessage() for r in caplog.records].count(
        "centroid bank: 1 empty class(es): [0]") == 1
    # the shared bank gives the scores a bank of their own gives
    emb = embed_dataset(load_model(sdir / "model.json"), ds)
    for method, scores in (
            ("intra", intra_inconsistency(emb, ds, real(emb, ds))),
            ("inter", inter_inconsistency(emb, ds, build_centroid_classifier(real(emb, ds))))):
        write_scores_csv(scores, ds, method, tmp_path / "want.csv")
        assert (sdir / f"scores_{method}.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


# ----------------------------------------------------------------------
# error paths


def test_missing_config_file_exits_nonzero(tmp_path, capsys):
    assert main(["simulate", "--config", str(tmp_path / "nope.json")]) == 1
    assert "error:" in capsys.readouterr().err


def test_malformed_config_file_exits_nonzero(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["train", "--config", str(bad)]) == 1
    assert "malformed config" in capsys.readouterr().err


def test_eval_without_model_exits_nonzero(pipeline, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(pipeline.cfg_path),
                 "--out", str(out), "--quiet"]) == 0
    assert main(["eval", "--config", str(pipeline.cfg_path),
                 "--out", str(out), "--quiet"]) == 1
    assert "model file not found" in capsys.readouterr().err
    assert not (out / "seed_1" / "eer.json").exists()


def test_detect_rejects_out_of_range_q(pipeline, capsys):
    assert main(["detect", "--config", str(pipeline.cfg_path),
                 "--q", "150", "--quiet"]) == 1
    assert "q must be in (0, 100]" in capsys.readouterr().err


def run_cli(*args: str) -> subprocess.CompletedProcess:
    """Run the CLI in a fresh interpreter, as a user would."""
    src = Path(labelnoise.__file__).resolve().parents[1]
    return subprocess.run(
        [sys.executable, "-m", "labelnoise.cli", *args],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(src)))


def test_detect_with_malformed_dataset_exits_one_without_traceback(pipeline, tmp_path):
    lines = (pipeline.sdir / "noisy.jsonl").read_text().splitlines()
    row = json.loads(lines[2])
    row["features"] = "abc"
    lines[2] = json.dumps(row)
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    proc = run_cli("detect", "--config", str(pipeline.cfg_path), "--dataset", str(bad),
                   "--quiet")
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: line 3: features")
    assert "Traceback" not in proc.stderr


def test_config_with_nan_exits_one_without_traceback(tmp_path):
    cfg = tmp_path / "nan.json"
    cfg.write_text('{"output_dir": "%s", "train": {"learning_rate": NaN}}' % (tmp_path / "run"))
    proc = run_cli("simulate", "--config", str(cfg), "--quiet")
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: config field train.learning_rate must be a finite "
                                  "number, got nan")
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("edit,message", [
    (lambda m: {"format_version": 1}, "error: model.mlp is missing"),
    (lambda m: {**m, "loss_config": {**m["loss_config"], "class_count": "5"}},
     "error: model.loss_config.class_count must be an integer, got '5'"),
    (lambda m: {**m, "classifier": {**m["classifier"], "bias": [0.5] * 10}},
     "error: model.classifier.bias must be null for loss kind 'aamsc'"),
    (lambda m: {**m, "classifier": {**m["classifier"], "ge2e_w": 3.0}},
     "error: model.classifier.ge2e_w must be null for loss kind 'aamsc'"),
])
def test_detect_with_malformed_model_exits_one_without_traceback(pipeline, tmp_path,
                                                                  edit, message):
    model = json.loads((pipeline.sdir / "model.json").read_text())
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(edit(model)))
    proc = run_cli("detect", "--config", str(pipeline.cfg_path), "--model", str(bad), "--quiet")
    assert proc.returncode == 1
    assert proc.stderr.startswith(message)
    assert "Traceback" not in proc.stderr


# A non-ASCII byte, an integer literal past Python's int-conversion limit
# and nesting past the decoder's recursion limit, each on the second line
# of an otherwise valid JSON object.
UNDECODABLE = [
    (b'{"format_version": 1,\n "name": "caf\xe9"}', "non-ASCII byte (line 2)"),
    (b'{"format_version": 1,\n "seeds": [' + b"7" * 5000 + b"]}",
     "integer literal over 4300 digits (line 2)"),
    (b'{"name": "[[[",\n "seeds": ' + b"[" * 100_000, "nested too deeply (line 2)"),
]
UNDECODABLE_IDS = ["non-ascii", "long-int", "deep"]


@pytest.mark.parametrize("content,problem", UNDECODABLE, ids=UNDECODABLE_IDS)
def test_undecodable_config_exits_one_without_traceback(tmp_path, content, problem):
    cfg = tmp_path / "bad.json"
    cfg.write_bytes(content)
    proc = run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "run"), "--quiet")
    assert proc.returncode == 1
    assert proc.stderr == f"error: malformed config file {cfg}: {problem}\n"
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("content,problem", UNDECODABLE, ids=UNDECODABLE_IDS)
def test_detect_with_undecodable_model_exits_one_without_traceback(pipeline, tmp_path,
                                                                    content, problem):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    proc = run_cli("detect", "--config", str(pipeline.cfg_path), "--model", str(bad), "--quiet")
    assert proc.returncode == 1
    assert proc.stderr == f"error: malformed model file {bad}: {problem}\n"


def test_detect_with_over_long_utt_id_exits_one_without_traceback(pipeline, tmp_path):
    lines = (pipeline.sdir / "noisy.jsonl").read_text().splitlines()
    row = json.loads(lines[2])
    lines[2] = json.dumps({**row, "utt_id": 0}).replace('"utt_id": 0', '"utt_id": ' + "9" * 5000)
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    proc = run_cli("detect", "--config", str(pipeline.cfg_path), "--dataset", str(bad), "--quiet")
    assert proc.returncode == 1
    assert proc.stderr == "error: line 3: integer literal over 4300 digits\n"


def test_undecodable_manifest_is_rebuilt_with_a_warning(tmp_path):
    cfg_path = write_config(tmp_path / "tiny.json", tiny_raw_config(str(tmp_path / "run")))
    assert main(["simulate", "--config", str(cfg_path), "--quiet"]) == 0
    manifest = tmp_path / "run" / "seed_1" / "manifest.json"
    with open(manifest, "ab") as fh:
        fh.write(b"\xff")
    proc = run_cli("train", "--config", str(cfg_path), "--quiet")
    assert proc.returncode == 0
    assert proc.stderr == f"WARNING manifest {manifest} unreadable, rebuilding it\n"
    assert list(json.loads(manifest.read_text(encoding="ascii"))["stages"]) == ["train"]


def test_detect_with_deeply_nested_dataset_line_exits_one_without_traceback(pipeline, tmp_path):
    lines = (pipeline.sdir / "noisy.jsonl").read_text().splitlines()
    lines[2] = "[" * 100_000
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    proc = run_cli("detect", "--config", str(pipeline.cfg_path), "--dataset", str(bad), "--quiet")
    assert proc.returncode == 1
    assert proc.stderr == "error: line 3: nested too deeply\n"


@pytest.mark.parametrize("content", ["[]", '{"stages": 5}'], ids=["list", "stages-int"])
def test_manifest_of_the_wrong_shape_is_rebuilt_with_a_warning(tmp_path, content):
    cfg_path = write_config(tmp_path / "tiny.json", tiny_raw_config(str(tmp_path / "run")))
    assert main(["simulate", "--config", str(cfg_path), "--quiet"]) == 0
    manifest = tmp_path / "run" / "seed_1" / "manifest.json"
    manifest.write_text(content)
    proc = run_cli("train", "--config", str(cfg_path), "--quiet")
    assert proc.returncode == 0
    assert proc.stderr == f"WARNING manifest {manifest} unreadable, rebuilding it\n"
    assert list(json.loads(manifest.read_text(encoding="ascii"))["stages"]) == ["train"]


def copy_run(pipeline, tmp_path) -> Path:
    """A copy of the pipeline's config.json and artifacts, free to damage."""
    run = tmp_path / "run"
    (run / "seed_1").mkdir(parents=True)
    (run / "config.json").write_bytes((pipeline.run / "config.json").read_bytes())
    for src in pipeline.sdir.iterdir():
        (run / "seed_1" / src.name).write_bytes(src.read_bytes())
    return run


@pytest.mark.parametrize("name,content,message", [
    ("config.json", "[]", "run config must be a JSON object"),
    ("seed_1/detection_intra.json", '{"precision": "x", "recall": null}',
     "detection.precision must be a finite number, got 'x'"),
    ("seed_1/eer.json", "{}", "EER report.eer is missing"),
])
def test_report_with_malformed_input_exits_one_naming_the_file(pipeline, tmp_path,
                                                                name, content, message):
    run = copy_run(pipeline, tmp_path)
    (run / name).write_text(content)
    proc = run_cli("report", str(run))
    assert proc.returncode == 1
    assert proc.stderr == f"error: {run / name}: {message}\n"


def test_report_resolves_a_partial_run_config_with_the_defaults(tmp_path):
    run = tmp_path / "clean_run"
    run.mkdir()
    (run / "config.json").write_text('{"noise": null}')
    proc = run_cli("report", str(run))
    assert proc.returncode == 0
    assert "Traceback" not in proc.stderr
    assert proc.stdout.splitlines()[1:] == [
        f"clean_run,clean,0,aam,{method},missing,missing,missing,0"
        for method in ("intra", "inter")]


def test_report_quotes_run_names_holding_commas_and_quotes(tmp_path, capsys):
    names = ["a,b", 'say "hi"']
    runs = []
    for i, name in enumerate(names):
        run = tmp_path / f"run{i}"
        run.mkdir()
        (run / "config.json").write_text(json.dumps({"name": name, "noise": None,
                                                     "detect": {"methods": ["intra"]}}))
        runs.append(str(run))
    assert main(["report", *runs]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert [len(row) for row in rows] == [9, 9, 9]
    assert [row[0] for row in rows[1:]] == names


def test_report_refuses_a_non_ascii_run_name_and_keeps_the_earlier_out_file(tmp_path):
    # the report is ASCII: a run named "café" exits 1 naming its config, and
    # the --out file from an earlier report keeps its bytes
    run = tmp_path / "run"
    run.mkdir()
    (run / "config.json").write_text(json.dumps({"name": "café", "noise": None}))
    out = tmp_path / "out.csv"
    out.write_bytes(b"run,noise_kind\nearlier,clean\n")
    proc = run_cli("report", str(run), "--out", str(out))
    assert proc.returncode == 1
    assert proc.stderr == (f"error: {run / 'config.json'}: config field name must be ASCII, "
                           "got 'caf\\xe9'\n")
    assert out.read_bytes() == b"run,noise_kind\nearlier,clean\n"
    assert list(tmp_path.glob("*.tmp")) == []


def test_detect_without_any_q_source_exits_nonzero(pipeline, tmp_path, capsys):
    raw = tiny_raw_config(str(tmp_path / "run"))
    raw["noise"] = None
    cfg_path = write_config(tmp_path / "no_q.json", raw)
    assert main(["simulate", "--config", str(cfg_path), "--quiet"]) == 0
    assert main(["train", "--config", str(cfg_path), "--quiet"]) == 0
    assert main(["detect", "--config", str(cfg_path), "--quiet"]) == 1
    assert "no noise level" in capsys.readouterr().err


def test_report_with_no_usable_runs_exits_nonzero(tmp_path, capsys):
    empty = tmp_path / "not_a_run"
    empty.mkdir()
    assert main(["report", str(empty)]) == 1
    assert "nothing to report" in capsys.readouterr().err
