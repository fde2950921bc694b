"""Config resolution and the end-to-end command-line pipeline."""

import base64
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
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import labelnoise
import labelnoise.cli as cli
import labelnoise.embedder as embedder
import labelnoise.nld as nld
from labelnoise.cli import (
    SECTIONS,
    TOP_LEVEL_KEYS,
    build_train_config,
    detection_config_digest,
    main,
    resolve_config,
    run_config_digest,
)
from conftest import edit_parameters
from labelnoise.embedder import load_model, mlp_forward, parameter_layout
from labelnoise.errors import ConfigurationError
from labelnoise.jsonutil import canonical_json, digest_config, dump_json17, sha256_file
from labelnoise.losses import (
    LOSS_KINDS,
    AAMConfig,
    AAMSCConfig,
    CEConfig,
    GE2EConfig,
    loss_config_from_dict,
)
from labelnoise.nld import (
    CentroidClassifier,
    compute_centroids,
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
    assert got["detect"] == {"q": None, "centroid_temperature": 0.1, "histogram_bins": 20}
    assert got["eval"]["pairs_per_kind"] == 2000
    assert got["retrain"]["detection_method"] is None


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
    # detect always scores both methods; a config of older runs that lists them is refused
    ({"output_dir": "x", "detect": {"methods": ["intra", "inter"]}},
     "unknown config field detect.methods"),
    ({"output_dir": "x", "detect": {"methods": ["inter"]}}, "unknown config field detect.methods"),
    ({"output_dir": "x", "detect": {"centroid_temperature": 0}}, "centroid_temperature"),
    ({"output_dir": "x", "detect": {"histogram_bins": 1}}, "detect.histogram_bins must be >= 2"),
    ({"output_dir": "x", "dataset": {"aux_per_class": 1}}, "dataset.aux_per_class must be >= 2"),
    ({"output_dir": "x", "dataset": {"per_class": 1}}, "dataset.per_class must be >= 2"),
    ({"output_dir": "x", "dataset": {"latent_dim": 0}}, "dataset.latent_dim must be >= 1"),
    # the train section is checked by building it; its refusals name the section
    ({"output_dir": "x", "train": {"learning_rate": 0}},
     "^config field train: learning_rate must be positive, got 0.0$"),
    ({"output_dir": "x", "train": {"easy_margin_fraction": 1.5}},
     "^config field train: easy_margin_fraction must be in"),
    ({"output_dir": "x", "train": {"loss": {"kind": "aam", "scale": 0}}},
     "^config field train: scale must be positive"),
    ({"output_dir": "x", "train": {"loss": {"kind": "aamsc", "margin": 2.0}}},
     "^config field train: margin must be in"),
    ({"output_dir": "x", "train": {"loss": {"kind": "ge2e"}, "batch_speakers": 1,
                                   "utts_per_speaker": 2}},
     "^config field train: GE2E needs batch_speakers >= 2"),
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


def test_default_config_digest_is_unchanged():
    # the text every config digest is taken over; a valid config holds
    # only finite floats, so the NaN and Infinity literals never reach it
    assert digest_config(resolve_config({"output_dir": "runs/x"})) == (
        "db709eabc166a7a0387e6bec4d31adaced670bf33735bcb7ad84d676b6cebd18")


def _refuse(literal):
    raise AssertionError(f"{literal} in a resolved config")


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


def fitting(kind: type, minimum) -> st.SearchStrategy:
    """Values of a field's JSON kind that its one-field bound admits (the
    string fields get theirs from the caller)."""
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
        "detect": fitting_section(SECTIONS["detect"], q=st.none() | st.floats(1, 100)),
        "eval": fitting_section(SECTIONS["eval"]),
        "retrain": fitting_section(SECTIONS["retrain"],
                                   detection_method=st.sampled_from([None, "intra", "inter"])),
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
    json.loads(canonical_json(got), parse_constant=_refuse)
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
        "clean.dataset", "aux.dataset", "heldout.dataset", "noisy.dataset",
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
    assert sim["artifacts"]["clean.dataset"] == sha256_file(pipeline.sdir / "clean.dataset")
    assert sim["utterance_count"] == 30
    resolved = json.loads((pipeline.run / "config.json").read_text())
    assert "config_digest" not in manifest and manifest["format_version"] == 2
    for stage in manifest["stages"].values():
        assert stage["config_digest"] == run_config_digest(resolved)


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
        "train": {"loss": {"kind": "ce"}},
    }))
    out = tmp_path / "report.csv"
    assert main(["report", str(pipeline.run), str(bare), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[3:] == [f"empty,clean,0,ce,{method},missing,missing,missing,0"
                         for method in ("intra", "inter")]


def test_simulate_reruns_are_byte_identical(pipeline, tmp_path):
    for out in (tmp_path / "a", tmp_path / "b"):
        assert main(["simulate", "--config", str(pipeline.cfg_path),
                     "--out", str(out), "--quiet"]) == 0
    for name in ("clean.dataset", "aux.dataset", "heldout.dataset", "noisy.dataset"):
        assert sha256_file(tmp_path / "a" / "seed_1" / name) == \
            sha256_file(tmp_path / "b" / "seed_1" / name), name
    # same derived data seeds as the original pipeline run, too
    assert sha256_file(tmp_path / "a" / "seed_1" / "noisy.dataset") == \
        sha256_file(pipeline.sdir / "noisy.dataset")


def test_simulate_without_noise_copies_clean(pipeline, tmp_path):
    raw = tiny_raw_config(str(tmp_path / "run"))
    raw["noise"] = None
    cfg_path = write_config(tmp_path / "clean.json", raw)
    assert main(["simulate", "--config", str(cfg_path), "--quiet"]) == 0
    sdir = tmp_path / "run" / "seed_1"
    assert sha256_file(sdir / "noisy.dataset") == sha256_file(sdir / "clean.dataset")


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
    path = out / "seed_1" / "clean.dataset"
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
    for name in ("noisy.dataset", "heldout.dataset", "model.json"):
        shutil.copy(pipeline.sdir / name, sdir)
    det = json.loads((pipeline.sdir / "detection_inter.json").read_text())
    det_path = tmp_path / "detection.json"
    argv = ["retrain", "--config", str(pipeline.cfg_path), "--out", str(tmp_path / "run"),
            "--detection", str(det_path), "--quiet"]
    for bad in (2**70, 2**63, -2**63 - 1):
        det_path.write_text(json.dumps({**det, "predicted_noisy": [0, bad]}))
        assert main(argv) == 1
        assert (f"error: {det_path}: detection.predicted_noisy must list 64-bit integers, "
                f"got {bad}") in capsys.readouterr().err
        assert not (sdir / "retrain.json").exists()
    # a repeated id is removed once; an in-range id absent from the dataset is ignored
    det_path.write_text(json.dumps({**det, "predicted_noisy": [0, 0, 2**63 - 1]}))
    assert main(argv) == 0
    assert json.loads((sdir / "retrain.json").read_text())["removed_count"] == 1


@pytest.mark.parametrize("damage", [None, "edit", "delete", "other q", "other detect section"])
def test_detect_rewrites_both_methods_files_and_entries_whatever_came_before(pipeline, tmp_path,
                                                                             damage):
    # detect scores both methods, so no file or entry of an earlier detect
    # outlives it: a damaged file is made again and a changed section recorded
    run = copy_run(pipeline, tmp_path)
    sdir = run / "seed_1"
    detect = dict(pipeline.raw["detect"])
    if damage == "edit":
        with open(sdir / "histogram_inter.csv", "a") as fh:
            fh.write("0,0,0,0\n")
    elif damage == "delete":
        (sdir / "scores_inter.csv").unlink()
    elif damage == "other q":
        detect["q"] = 40
    elif damage == "other detect section":
        detect["histogram_bins"] = 7
    raw = {**pipeline.raw, "output_dir": str(run), "detect": detect}
    resolved = resolve_config(raw)
    assert main(["detect", "--config", str(write_config(tmp_path / "c.json", raw)),
                 "--quiet"]) == 0
    entry = json.loads((sdir / "manifest.json").read_text())["stages"]["detect"]
    names = [f"{kind}_{method}.{ext}" for kind, ext in (("scores", "csv"), ("detection", "json"),
                                                        ("histogram", "csv"))
             for method in ("intra", "inter")]
    assert entry["artifacts"] == {name: sha256_file(sdir / name) for name in names}
    assert entry["config_digest"] == run_config_digest(resolved)
    assert entry["q"] == (40.0 if damage == "other q" else 25.0)
    for method in ("intra", "inter"):
        det = json.loads((sdir / f"detection_{method}.json").read_text())
        assert (det["q"], det["config_digest"]) == (entry["q"], detection_config_digest(resolved))
        assert entry[method] == {k: det[k] for k in ("selected_count", "precision", "recall")}
        bins = len((sdir / f"histogram_{method}.csv").read_text().splitlines()) - 1
        assert bins == (7 if damage == "other detect section" else 4)
    if damage in (None, "edit", "delete"):  # the same config makes the same bytes
        for name in names:
            assert (sdir / name).read_bytes() == (pipeline.sdir / name).read_bytes(), name


@pytest.mark.parametrize("argv,left_over", [
    (["detect", "--method", "intra"], "--method intra"),
    (["detect", "--q", "40"], "--q 40"),  # not an abbreviated --quiet
    (["detect", "--mod", "model.json"], "--mod model.json"),  # not an abbreviated --model
    (["retrain", "--method", "inter"], "--method inter"),
])
def test_the_removed_method_and_q_flags_are_refused(pipeline, argv, left_over, capsys):
    # the config alone chooses q and the retrain method, so an old flag is
    # refused by argparse rather than ignored
    with pytest.raises(SystemExit) as exc:
        main([argv[0], "--config", str(pipeline.cfg_path), *argv[1:], "--quiet"])
    assert exc.value.code == 2
    assert f"error: unrecognized arguments: {left_over}\n" in capsys.readouterr().err


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


def test_the_config_json_a_run_writes_replays_its_retrain(pipeline, tmp_path):
    # the resolved file leaves retrain.detection_method null, as the run's
    # config did, so it too applies a detection file of either method
    run = copy_run(pipeline, tmp_path)
    assert main(["retrain", "--config", str(run / "config.json"), "--out", str(run),
                 "--detection", str(run / "seed_1" / "detection_intra.json"), "--quiet"]) == 0
    assert json.loads((run / "seed_1" / "retrain.json").read_text())["detection_method"] == "intra"
    assert json.loads((run / "config.json").read_text())["retrain"]["detection_method"] is None


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
        (str(set_inter), det_path,
         f"error: detection file {det_path} was made by method 'intra', but config field "
         "retrain.detection_method asks for 'inter'"),
        (str(pipeline.cfg_path), odd_method,
         f"error: {odd_method}: detection.method must be one of ['intra', 'inter'], got 'x'"),
        (str(pipeline.cfg_path), not_object, f"error: {not_object}: detection must be a JSON "
                                               "object"),
    ]
    for config, path, message in cases:
        assert main(["retrain", "--config", config, "--out", str(run), "--detection",
                     str(path), "--quiet"]) == 1
        assert message in capsys.readouterr().err
        assert (run / "seed_1" / "retrain.json").read_bytes() == report


def test_retrain_refuses_a_stale_detection_file_and_warns_on_a_named_one(pipeline, tmp_path,
                                                                        capsys, caplog):
    run = copy_run(pipeline, tmp_path)
    sdir = run / "seed_1"
    report = (sdir / "retrain.json").read_bytes()
    raw = {**pipeline.raw, "output_dir": str(run),
           "detect": {**pipeline.raw["detect"], "histogram_bins": 7}}
    cfg_path = write_config(tmp_path / "other_bins.json", raw)
    det_path = sdir / "detection_inter.json"
    recorded = json.loads(det_path.read_text())["config_digest"]
    digest = detection_config_digest(resolve_config(raw))
    assert recorded != digest
    stale = f"detection file {det_path} has config digest {recorded}, the config has {digest}"
    assert main(["retrain", "--config", str(cfg_path), "--quiet"]) == 1
    assert f"error: {stale}\n" in capsys.readouterr().err
    assert (sdir / "retrain.json").read_bytes() == report
    # named on the command line, the same file is applied, with a warning
    with caplog.at_level(logging.WARNING, logger="labelnoise.cli"):
        assert main(["retrain", "--config", str(cfg_path), "--detection", str(det_path),
                     "--quiet"]) == 0
    assert [r.getMessage() for r in caplog.records if r.name == "labelnoise.cli"] == [
        f"{stale}; applying it as --detection asks"]
    assert json.loads((sdir / "retrain.json").read_text())["config_digest"] == run_config_digest(
        resolve_config(raw))


@pytest.mark.parametrize("edit", [{"eval": {"pairs_per_kind": 24}},
                                  {"retrain": {"detection_method": "intra"}}],
                         ids=["eval", "retrain"])
def test_retrain_applies_the_seed_directory_file_after_an_edit_detection_does_not_read(
        pipeline, tmp_path, edit):
    run = copy_run(pipeline, tmp_path)
    sdir = run / "seed_1"
    manifest = json.loads((sdir / "manifest.json").read_text())
    raw = {**pipeline.raw, "output_dir": str(run), **edit}
    resolved = resolve_config(raw)
    assert run_config_digest(resolved) != run_config_digest(resolve_config(pipeline.raw))
    assert main(["retrain", "--config", str(write_config(tmp_path / "edited.json", raw)),
                 "--quiet"]) == 0
    method = resolved["retrain"]["detection_method"] or "inter"
    recorded = json.loads((sdir / f"detection_{method}.json").read_text())["config_digest"]
    assert recorded == detection_config_digest(resolved)
    report = json.loads((sdir / "retrain.json").read_text())
    assert report["detection_method"] == method
    assert report["config_digest"] == run_config_digest(resolved)
    # the retrain stage records the digest it ran under; the stages before it keep theirs
    stages = json.loads((sdir / "manifest.json").read_text())["stages"]
    assert stages["retrain"]["config_digest"] == run_config_digest(resolved)
    for stage in ("simulate", "train", "detect", "eval"):
        assert stages[stage] == manifest["stages"][stage]


@pytest.mark.parametrize("edit,message", [
    (lambda d: {**d, "predicted_noisy": [0, 1.5]},
     "detection.predicted_noisy must list 64-bit integers, got 1.5"),
    (lambda d: {k: v for k, v in d.items() if k != "config_digest"},
     "detection.config_digest is missing"),
    (lambda d: {**d, "q": 101}, "detection.q must be in [0, 100], got 101"),
    (lambda d: {**d, "recall": -0.5}, "detection.recall must be in [0, 1], got -0.5"),
], ids=["float-id", "no-digest", "q-over-100", "negative-recall"])
def test_retrain_and_report_refuse_the_same_detection_files(pipeline, tmp_path, capsys,
                                                            edit, message):
    run = copy_run(pipeline, tmp_path)
    det_path = run / "seed_1" / "detection_inter.json"
    det_path.write_text(json.dumps(edit(json.loads(det_path.read_text()))))
    report = (run / "seed_1" / "retrain.json").read_bytes()
    for argv in (["retrain", "--config", str(pipeline.cfg_path), "--out", str(run), "--quiet"],
                 ["report", str(run), "--quiet"]):
        assert main(argv) == 1
        assert f"error: {det_path}: {message}\n" in capsys.readouterr().err
    assert (run / "seed_1" / "retrain.json").read_bytes() == report


def test_detect_fails_when_a_detection_file_does_not_read_back(pipeline, tmp_path, capsys,
                                                               monkeypatch):
    run = copy_run(pipeline, tmp_path)
    real = cli.write_detection_json
    monkeypatch.setattr(cli, "write_detection_json", lambda result, method, *rest:
                        real(result, "other", *rest))
    assert main(["detect", "--config", str(pipeline.cfg_path), "--out", str(run),
                 "--quiet"]) == 1
    det_path = run / "seed_1" / "detection_intra.json"
    assert (f"error: {det_path}: detection.method must be one of ['intra', 'inter'], "
            "got 'other'\n") in capsys.readouterr().err


@pytest.mark.parametrize("content", ["[]", '[["seeds", [1]]]'])
def test_a_config_that_is_not_an_object_is_refused_with_out_too(tmp_path, capsys, content):
    cfg_path = tmp_path / "list.json"
    cfg_path.write_text(content)
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out), "--quiet"]) == 1
    assert "error: config root must be a JSON object\n" in capsys.readouterr().err
    assert not out.exists()


def test_detect_builds_the_centroid_bank_once(tmp_path, monkeypatch, caplog):
    calls = []
    real = nld.compute_centroids
    for module in (cli, nld):  # wherever detect might look it up
        monkeypatch.setattr(module, "compute_centroids",
                            lambda emb, ds: calls.append(len(ds)) or real(emb, ds))
    # GE2E's inter classifier and the intra scores share one bank; observed
    # class 0, relabelled as 1, leaves the bank an empty class to warn about
    _, cfg_path, sdir = trained_ge2e_run(tmp_path)
    ds = load_dataset(sdir / "noisy.dataset")
    ds = dataclasses.replace(ds, observed_class=np.maximum(ds.observed_class, 1))
    save_dataset(ds, tmp_path / "emptied.dataset")
    with caplog.at_level(logging.WARNING, logger="labelnoise.nld"):
        assert main(["detect", "--config", str(cfg_path), "--dataset",
                     str(tmp_path / "emptied.dataset"), "--quiet"]) == 0
    assert calls == [30]
    assert [r.getMessage() for r in caplog.records].count(
        "centroid bank: 1 empty class(es): [0]") == 1
    # the shared bank gives the scores a bank of their own gives
    emb = embed_dataset(load_model(sdir / "model.json"), ds)
    for method, scores in (
            ("intra", intra_inconsistency(emb, ds, real(emb, ds))),
            ("inter", inter_inconsistency(emb, ds, CentroidClassifier(real(emb, ds), 0.1)))):
        write_scores_csv(scores, ds, method, tmp_path / "want.csv")
        assert (sdir / f"scores_{method}.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_detect_scores_a_ge2e_model_at_the_configured_centroid_temperature(tmp_path):
    raw, _, sdir = trained_ge2e_run(tmp_path)
    ds = load_dataset(sdir / "noisy.dataset")
    emb = embed_dataset(load_model(sdir / "model.json"), ds)
    written = []
    for temperature in (0.1, 1.0):
        cfg_path = write_config(tmp_path / f"t{temperature}.json", {
            **raw, "detect": {**raw["detect"], "centroid_temperature": temperature}})
        assert main(["detect", "--config", str(cfg_path), "--quiet"]) == 0
        clf = CentroidClassifier(compute_centroids(emb, ds), temperature)
        write_scores_csv(inter_inconsistency(emb, ds, clf), ds, "inter", tmp_path / "want.csv")
        written.append((sdir / "scores_inter.csv").read_bytes())
        assert written[-1] == (tmp_path / "want.csv").read_bytes()
    assert written[0] != written[1]


def trained_ge2e_run(tmp_path) -> tuple[dict, Path, Path]:
    """The raw config, config path and seed directory of a tiny GE2E run
    taken through simulate and train."""
    raw = tiny_raw_config(str(tmp_path / "ge2e"))
    raw["train"] = {**raw["train"], "loss": {"kind": "ge2e"}, "utts_per_speaker": 3}
    cfg_path = write_config(tmp_path / "ge2e.json", raw)
    for command in ("simulate", "train"):
        assert main([command, "--config", str(cfg_path), "--quiet"]) == 0
    return raw, cfg_path, tmp_path / "ge2e" / "seed_1"


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


def test_retrain_refuses_a_missing_model_path(pipeline, tmp_path, capsys):
    run = copy_run(pipeline, tmp_path)
    missing = tmp_path / "nope.json"
    assert main(["retrain", "--config", str(pipeline.cfg_path), "--out", str(run),
                 "--model", str(missing), "--quiet"]) == 1
    assert f"error: model file not found: {missing}" in capsys.readouterr().err
    assert (run / "seed_1" / "retrain.json").read_bytes() == \
        (pipeline.sdir / "retrain.json").read_bytes()


def test_retrain_without_the_seed_model_trains_the_baseline(pipeline, tmp_path, caplog):
    run = copy_run(pipeline, tmp_path)
    sdir = run / "seed_1"
    for name in ("model.json", "model_retrained.json", "retrain.json"):
        (sdir / name).unlink()
    with caplog.at_level(logging.INFO, logger="labelnoise.cli"):
        assert main(["retrain", "--config", str(pipeline.cfg_path), "--out", str(run)]) == 0
    assert f"seed 1: no trained model at {sdir / 'model.json'}, training the baseline now" in \
        [r.getMessage() for r in caplog.records]
    # the baseline trained here is the model train wrote, so the report is the pipeline's
    for name in ("model_retrained.json", "retrain.json"):
        assert (sdir / name).read_bytes() == (pipeline.sdir / name).read_bytes(), name


def test_retrain_without_a_model_refuses_a_held_out_set_of_another_width(pipeline, tmp_path,
                                                                        capsys, monkeypatch):
    run = copy_run(pipeline, tmp_path)
    sdir = run / "seed_1"
    for name in ("model.json", "model_retrained.json", "retrain.json"):
        (sdir / name).unlink()
    heldout = load_dataset(sdir / "heldout.dataset")
    wide = np.hstack([heldout.features, np.zeros((len(heldout), 1))])
    save_dataset(dataclasses.replace(heldout, features=wide, feature_dim=9),
                 sdir / "heldout.dataset")
    monkeypatch.setattr(cli, "train", _no_training)
    monkeypatch.setattr("labelnoise.evaluation.train", _no_training)
    assert main(["retrain", "--config", str(pipeline.cfg_path), "--out", str(run),
                 "--quiet"]) == 1
    assert capsys.readouterr().err == (
        f"error: held-out dataset {sdir / 'heldout.dataset'} has dim 9, "
        f"training dataset {sdir / 'noisy.dataset'} has dim 8\n")
    assert not (sdir / "model_retrained.json").exists()
    assert not (sdir / "retrain.json").exists()


@pytest.mark.parametrize("command,written", [("train", "model.json"),
                                             ("retrain", "model_retrained.json")])
def test_a_model_file_that_reads_back_with_other_bits_fails_the_stage(pipeline, tmp_path,
                                                                      capsys, monkeypatch,
                                                                      command, written):
    run = copy_run(pipeline, tmp_path)
    model_to_dict = embedder.model_to_dict

    def one_ulp_off(model):
        def bump(v):
            v[0] = np.nextafter(v[0], np.inf)
            return v
        return edit_parameters(model_to_dict(model), bump)

    monkeypatch.setattr(embedder, "model_to_dict", one_ulp_off)
    assert main([command, "--config", str(pipeline.cfg_path), "--out", str(run),
                 "--quiet"]) == 1
    assert capsys.readouterr().err == \
        f"error: round-trip validation failed for {run / 'seed_1' / written}\n"


def test_detect_rejects_out_of_range_q(pipeline, tmp_path, capsys):
    run = copy_run(pipeline, tmp_path)
    before = _seed_dir_bytes(run / "seed_1")
    cfg_path = write_config(tmp_path / "q150.json", {
        **pipeline.raw, "output_dir": str(run), "detect": {**pipeline.raw["detect"], "q": 150}})
    assert main(["detect", "--config", str(cfg_path), "--quiet"]) == 1
    assert capsys.readouterr().err == "error: config field detect.q must be in (0, 100], got 150.0\n"
    assert _seed_dir_bytes(run / "seed_1") == before


def test_detect_refuses_a_dataset_with_no_rows(pipeline, tmp_path, capsys):
    run = copy_run(pipeline, tmp_path)
    before = _seed_dir_bytes(run / "seed_1")
    ds = load_dataset(pipeline.sdir / "noisy.dataset")
    empty = tmp_path / "empty.dataset"
    save_dataset(dataclasses.replace(ds, **{name: getattr(ds, name)[:0] for name in (
        "features", "utt_id", "true_class", "observed_class", "is_ood")}), empty)
    assert len(load_dataset(empty)) == 0
    assert main(["detect", "--config", str(pipeline.cfg_path), "--out", str(run),
                 "--dataset", str(empty), "--quiet"]) == 1
    assert capsys.readouterr().err == f"error: dataset file {empty}: no utterances to score\n"
    assert _seed_dir_bytes(run / "seed_1") == before


def run_cli(*args: str) -> subprocess.CompletedProcess:
    """Run the CLI in a fresh interpreter, as a user would."""
    src = Path(labelnoise.__file__).resolve().parents[1]
    return subprocess.run(
        [sys.executable, "-m", "labelnoise.cli", *args],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(src)))


@pytest.mark.parametrize("edit,what", [
    (lambda data: data[:200], "rows are not a 1-D C-order np.save array of dtype [('utt_id', "),
    (lambda data: data[:-1], "30 rows need "),
    (lambda data: b"\xff" + data, "header line: non-ASCII byte\n"),
    (lambda data: b'{"format_version": 1}' + data[data.index(b"\n"):],
     "unsupported format_version 1\n"),
], ids=["truncated-header", "truncated-rows", "non-ascii", "jsonl-version"])
def test_detect_with_malformed_dataset_exits_one_without_traceback(pipeline, tmp_path,
                                                                     edit, what):
    bad = tmp_path / "bad.dataset"
    bad.write_bytes(edit((pipeline.sdir / "noisy.dataset").read_bytes()))
    proc = run_cli("detect", "--config", str(pipeline.cfg_path), "--dataset", str(bad),
                   "--quiet")
    assert proc.returncode == 1
    assert proc.stderr.startswith(f"error: dataset file {bad}: {what}")
    assert "Traceback" not in proc.stderr


def test_train_on_a_truncated_dataset_exits_one_naming_it(pipeline, tmp_path):
    bad = tmp_path / "noisy.dataset"
    bad.write_bytes((pipeline.sdir / "noisy.dataset").read_bytes()[:200])
    proc = run_cli("train", "--config", str(pipeline.cfg_path), "--out", str(tmp_path / "run"),
                   "--dataset", str(bad), "--quiet")
    assert proc.returncode == 1
    assert proc.stderr.startswith(f"error: dataset file {bad}: ")
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "run" / "config.json").exists()


def test_a_failed_stage_leaves_no_directory_it_created(pipeline, tmp_path, capsys):
    bad = tmp_path / "noisy.dataset"
    bad.write_bytes((pipeline.sdir / "noisy.dataset").read_bytes()[:200])
    assert main(["train", "--config", str(pipeline.cfg_path), "--out",
                 str(tmp_path / "new" / "run"), "--dataset", str(bad), "--quiet"]) == 1
    assert capsys.readouterr().err.startswith(f"error: dataset file {bad}: ")
    assert not (tmp_path / "new").exists()
    # a seed directory that was there before the stage stays as it was
    run = copy_run(pipeline, tmp_path)
    before = sorted((p.name, p.read_bytes()) for p in (run / "seed_1").iterdir())
    assert main(["train", "--config", str(pipeline.cfg_path), "--out", str(run),
                 "--dataset", str(bad), "--quiet"]) == 1
    assert sorted((p.name, p.read_bytes()) for p in (run / "seed_1").iterdir()) == before


@pytest.mark.parametrize("command", ["train", "detect", "retrain"])
def test_a_missing_dataset_is_named_in_the_error(pipeline, tmp_path, capsys, command):
    run = copy_run(pipeline, tmp_path)
    missing = tmp_path / "nope.dataset"
    assert main([command, "--config", str(pipeline.cfg_path), "--out", str(run),
                 "--dataset", str(missing), "--quiet"]) == 1
    assert capsys.readouterr().err == f"error: dataset file not found: {missing}\n"


@pytest.mark.parametrize("command", ["eval", "retrain"])
def test_a_missing_held_out_dataset_is_named_in_the_error(pipeline, tmp_path, capsys, command):
    run = copy_run(pipeline, tmp_path)
    heldout = run / "seed_1" / "heldout.dataset"
    heldout.unlink()
    assert main([command, "--config", str(pipeline.cfg_path), "--out", str(run),
                 "--quiet"]) == 1
    assert capsys.readouterr().err == f"error: dataset file not found: {heldout}\n"


@pytest.mark.parametrize("command", ["eval", "retrain"])
def test_a_bad_held_out_dataset_is_named_in_the_error(pipeline, tmp_path, capsys, command):
    run = copy_run(pipeline, tmp_path)
    heldout = run / "seed_1" / "heldout.dataset"
    heldout.write_bytes(heldout.read_bytes()[:-8])
    assert main([command, "--config", str(pipeline.cfg_path), "--out", str(run),
                 "--quiet"]) == 1
    assert capsys.readouterr().err.startswith(f"error: dataset file {heldout}: 20 rows need ")


def test_config_with_nan_exits_one_without_traceback(tmp_path):
    cfg = tmp_path / "nan.json"
    cfg.write_text('{"output_dir": "%s", "train": {"learning_rate": NaN}}' % (tmp_path / "run"))
    proc = run_cli("simulate", "--config", str(cfg), "--quiet")
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: config field train.learning_rate must be a finite "
                                  "number, got nan")
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "run").exists()


# Integers outside the 64-bit range, which no numpy array dimension or
# count can take, are refused with the config, before any stage runs.
@pytest.mark.parametrize("section,value,field", [
    ("dataset", {"class_count": 10**21}, "dataset.class_count must be a 64-bit integer"),
    ("train", {"hidden_dims": [8, 10**20]}, "train.hidden_dims must list ints in [1, 2**63)"),
    ("train", {"loss": {"kind": "aamsc", "subcenters": 10**20}},
     "train.loss.subcenters must be a 64-bit integer"),
    ("eval", {"pairs_per_kind": -2**63 - 1}, "eval.pairs_per_kind must be a 64-bit integer"),
])
def test_config_integer_beyond_64_bits_exits_one_without_traceback(tmp_path, section, value,
                                                                   field):
    cfg = tmp_path / "big.json"
    cfg.write_text(json.dumps({"output_dir": str(tmp_path / "run"), section: value}))
    proc = run_cli("simulate", "--config", str(cfg), "--quiet")
    assert proc.returncode == 1
    assert proc.stderr.startswith(f"error: config field {field}")
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "run").exists()


# Sizes inside the 64-bit range that no machine can allocate: each request
# is far beyond a 47-bit address space, so it fails at once.
def test_unallocatable_class_count_exits_one_without_traceback(tmp_path):
    cfg = tmp_path / "huge.json"
    raw = tiny_raw_config(str(tmp_path / "run"))
    raw["dataset"] = {**raw["dataset"], "class_count": 10**15}
    write_config(cfg, raw)
    proc = run_cli("simulate", "--config", str(cfg), "--quiet")
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


def test_unallocatable_histogram_exits_one_and_leaves_config_json_as_it_was(pipeline,
                                                                            tmp_path):
    run = copy_run(pipeline, tmp_path)
    before = (run / "config.json").read_bytes()
    raw = {**pipeline.raw, "output_dir": str(run), "detect": {"histogram_bins": 10**15}}
    cfg = write_config(tmp_path / "huge.json", raw)
    proc = run_cli("detect", "--config", str(cfg), "--quiet")
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr
    assert (run / "config.json").read_bytes() == before
    # the same stage with a config that works records that config
    raw["detect"] = {"histogram_bins": 5}
    assert main(["detect", "--config", str(write_config(tmp_path / "five.json", raw)),
                 "--quiet"]) == 0
    assert json.loads((run / "config.json").read_text())["detect"]["histogram_bins"] == 5


@pytest.mark.parametrize("edit,message", [
    (lambda m: {**m, "format_version": 1}, "unsupported format_version 1\n"),
    # format 2 held the vector as a JSON list of numbers
    (lambda m: {**m, "format_version": 2,
                "parameters": np.frombuffer(base64.b64decode(m["parameters"]), "<f8").tolist()},
     "unsupported format_version 2\n"),
    (lambda m: {"format_version": 3}, "model.layer_dims is missing\n"),
    (lambda m: {**m, "loss_config": {**m["loss_config"], "class_count": "5"}},
     "model.loss_config.class_count must be an integer, got '5'\n"),
    (lambda m: {**m, "loss_config": {**m["loss_config"], "subcenters": 2**63}},
     "model.loss_config.subcenters must be a 64-bit integer, got 9223372036854775808\n"),
    # a bias, which an AAMSC classifier does not have, makes the vector too long
    (lambda m: edit_parameters(m, lambda v: np.append(v, [0.5] * 5)),
     "model.parameters must be the base64 of 186 finite little-endian float64 values\n"),
    (lambda m: {**m, "parameters": m["parameters"][:-4]},
     "model.parameters must be the base64 of 186 finite little-endian float64 values\n"),
])
def test_detect_with_malformed_model_exits_one_without_traceback(pipeline, tmp_path,
                                                                  edit, message):
    model = json.loads((pipeline.sdir / "model.json").read_text())
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(edit(model)))
    proc = run_cli("detect", "--config", str(pipeline.cfg_path), "--model", str(bad), "--quiet")
    assert proc.returncode == 1
    assert proc.stderr == f"error: model file {bad}: {message}"


def _seed_dir_bytes(sdir: Path) -> dict:
    return {p.name: p.read_bytes() for p in sdir.iterdir() if p.name != "manifest.json"}


def _edited_model(pipeline, path: Path, edit) -> Path:
    """The pipeline's model.json with ``edit`` applied to its JSON object, at ``path``."""
    model = json.loads((pipeline.sdir / "model.json").read_text())
    path.write_text(json.dumps(edit(model)))
    return path


def _widened(model: dict) -> dict:
    # one more input feature: mlp.weight0 gains a column, 8 entries in all
    return {**edit_parameters(model, lambda v: np.append([0.25] * 8, v)),
            "layer_dims": [9, *model["layer_dims"][1:]]}


def _no_training(*args, **kwargs):
    raise AssertionError("train was called")


@pytest.mark.parametrize("command,dataset", [("detect", "noisy.dataset"),
                                             ("eval", "heldout.dataset"),
                                             ("retrain", "noisy.dataset")])
def test_a_model_of_another_width_is_refused_before_any_work(pipeline, tmp_path, capsys,
                                                             monkeypatch, command, dataset):
    run = copy_run(pipeline, tmp_path)
    wide = _edited_model(pipeline, tmp_path / "wide.json", _widened)
    before = _seed_dir_bytes(run / "seed_1")
    monkeypatch.setattr(cli, "train", _no_training)
    monkeypatch.setattr("labelnoise.evaluation.train", _no_training)
    assert main([command, "--config", str(pipeline.cfg_path), "--out", str(run),
                 "--model", str(wide), "--quiet"]) == 1
    assert capsys.readouterr().err == (f"error: model file {wide}: expects dim-9 features, "
                                       f"dataset {run / 'seed_1' / dataset} has dim 8\n")
    assert _seed_dir_bytes(run / "seed_1") == before


def _overflowing(model: dict) -> dict:
    # finite parameters whose embeddings' norms overflow: the last layer times 1e308
    layout = dict((name, sl) for name, _, sl in parameter_layout(
        model["layer_dims"], loss_config_from_dict(model["loss_config"])))

    def scale(params):
        params[layout["mlp.weight1"]] *= 1e308
        assert np.isfinite(params).all()
        return params
    return edit_parameters(model, scale)


@pytest.mark.parametrize("command,dataset", [("detect", "noisy.dataset"),
                                             ("eval", "heldout.dataset"),
                                             ("retrain", "heldout.dataset")])
def test_a_model_with_non_finite_embeddings_is_refused(pipeline, tmp_path, capsys, monkeypatch,
                                                       command, dataset):
    run = copy_run(pipeline, tmp_path)
    bad = _edited_model(pipeline, tmp_path / "overflow.json", _overflowing)
    ds = load_dataset(run / "seed_1" / dataset)
    with np.errstate(all="ignore"):
        emb = mlp_forward(load_model(bad).embedder, ds.features)[0]
        first = ds.utt_id[np.argmin(np.isfinite((emb * emb).sum(axis=1)))]
    before = _seed_dir_bytes(run / "seed_1")
    monkeypatch.setattr(cli, "train", _no_training)
    monkeypatch.setattr("labelnoise.evaluation.train", _no_training)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning reaches the user either
        assert main([command, "--config", str(pipeline.cfg_path), "--out", str(run),
                     "--model", str(bad), "--quiet"]) == 1
    assert capsys.readouterr().err == (f"error: model file {bad}: utterance {first} "
                                       f"has a non-finite embedding norm\n")
    assert _seed_dir_bytes(run / "seed_1") == before


def test_width_and_overflow_refusals_exit_one_without_traceback(pipeline, tmp_path):
    run = copy_run(pipeline, tmp_path)
    wide = _edited_model(pipeline, tmp_path / "wide.json", _widened)
    bad = _edited_model(pipeline, tmp_path / "overflow.json", _overflowing)
    for command, model in (("eval", wide), ("detect", bad)):
        proc = run_cli(command, "--config", str(pipeline.cfg_path), "--out", str(run),
                       "--model", str(model), "--quiet")
        assert proc.returncode == 1
        assert proc.stderr.startswith(f"error: model file {model}: ")
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


@pytest.mark.parametrize("line,problem", [
    (b'{"C": ' + b"9" * 5000 + b"}", "integer literal over 4300 digits"),
    (b"[" * 100_000, "nested too deeply"),
], ids=["long-int", "deep"])
def test_detect_with_undecodable_dataset_header_exits_one_without_traceback(pipeline, tmp_path,
                                                                             line, problem):
    data = (pipeline.sdir / "noisy.dataset").read_bytes()
    bad = tmp_path / "bad.dataset"
    bad.write_bytes(line + data[data.index(b"\n"):])
    proc = run_cli("detect", "--config", str(pipeline.cfg_path), "--dataset", str(bad), "--quiet")
    assert proc.returncode == 1
    assert proc.stderr == f"error: dataset file {bad}: header line: {problem}\n"


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


@pytest.mark.parametrize("content", ["[]", '{"format_version": 2, "stages": 5}',
                                     '{"format_version": 1, "stages": {}}'],
                         ids=["list", "stages-int", "version-1"])
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
    ("seed_1/detection_intra.json", '{"precision": 0.5, "recall": null}',
     "detection.method is missing"),
    ("seed_1/eer.json", '{"eer": 1.5}', "EER report.eer must be in [0, 1], got 1.5"),
    ("seed_1/eer.json", '{"eer": 0.5, "threshold": 0.1, "trial_count": 40}',
     "EER report.model_digest is missing"),
])
def test_report_with_malformed_input_exits_one_naming_the_file(pipeline, tmp_path,
                                                                name, content, message):
    run = copy_run(pipeline, tmp_path)
    (run / name).write_text(content)
    proc = run_cli("report", str(run))
    assert proc.returncode == 1
    assert proc.stderr == f"error: {run / name}: {message}\n"


def test_report_warns_once_about_a_missing_eer_file(pipeline, tmp_path, caplog, capsys):
    run = copy_run(pipeline, tmp_path)
    (run / "seed_1" / "eer.json").unlink()
    with caplog.at_level(logging.WARNING, logger="labelnoise.cli"):
        assert main(["report", str(run), "--quiet"]) == 0
    assert [r.getMessage() for r in caplog.records if r.name == "labelnoise.cli"] == [
        f"missing artifact {run / 'seed_1' / 'eer.json'}"]
    # each method's row lacks the EER, not the detection
    assert [row[5:] for row in csv.reader(io.StringIO(capsys.readouterr().out))][1:] == [
        [format(json.loads((run / "seed_1" / f"detection_{method}.json").read_text())[k], ".6g")
         for k in ("precision", "recall")] + ["missing", "1"] for method in ("intra", "inter")]


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
        (run / "config.json").write_text(json.dumps({"name": name, "noise": None}))
        runs.append(str(run))
    assert main(["report", *runs]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert [len(row) for row in rows] == [9] * 5
    assert [row[0] for row in rows[1:]] == [name for name in names for _ in range(2)]


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
