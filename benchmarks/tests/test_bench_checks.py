"""Each output check passes on real artifacts and fails on a corrupted copy."""

from __future__ import annotations

import json
import shutil

import pytest

import checks


def _copy(pipeline_dir, tmp_path):
    seed_dir, cfg = pipeline_dir
    target = tmp_path / seed_dir.name
    shutil.copytree(seed_dir, target)
    return target, cfg


def _edit_json(path, **changes):
    payload = json.loads(path.read_text())
    payload.update(changes)
    path.write_text(json.dumps(payload))


def _edit_csv_cell(path, row, column, value):
    lines = path.read_text().splitlines()
    cells = lines[row].split(",")
    cells[column] = value
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def _failed(seed_dir, cfg):
    return {name for name, ok, _ in checks.check_seed_dir(seed_dir, cfg) if not ok}


def test_all_checks_pass_on_a_real_run(pipeline_dir):
    assert _failed(*pipeline_dir) == set()


def _swap_selected(d):
    det = json.loads((d / "detection_inter.json").read_text())
    chosen = set(det["predicted_noisy"])
    other = next(i for i in range(10 ** 6) if i not in chosen)
    det["predicted_noisy"] = sorted(chosen - {max(chosen)} | {other})
    (d / "detection_inter.json").write_text(json.dumps(det))


CORRUPTIONS = {
    "artifact changed after the manifest": (
        "manifest_hashes",
        lambda d: (d / "loss_curve.csv").write_text("step,loss\n0,1\n")),
    "stage missing from the manifest": (
        "manifest_hashes",
        lambda d: _edit_json(d / "manifest.json", stages={})),
    "selected_count off by one": (
        "detection_inter",
        lambda d: _edit_json(d / "detection_inter.json",
                             selected_count=json.loads(
                                 (d / "detection_inter.json").read_text())["selected_count"] + 1)),
    "selection is not the top q%": ("detection_inter", _swap_selected),
    "precision not recomputable": (
        "detection_intra",
        lambda d: _edit_json(d / "detection_intra.json", precision=0.123)),
    "recall not recomputable": (
        "detection_intra",
        lambda d: _edit_json(d / "detection_intra.json", recall=0.5)),
    "truth flag flipped in the scores file": (
        "detection_intra",
        lambda d: _edit_csv_cell(d / "scores_intra.csv", 1, 3,
                                 "false" if "true" in (d / "scores_intra.csv")
                                 .read_text().splitlines()[1] else "true")),
    "intra score above 2": (
        "score_ranges", lambda d: _edit_csv_cell(d / "scores_intra.csv", 1, 2, "2.5")),
    "inter score below 0": (
        "score_ranges", lambda d: _edit_csv_cell(d / "scores_inter.csv", 2, 2, "-0.1")),
    "EER above 1": ("eer_and_trials", lambda d: _edit_json(d / "eer.json", eer=1.5)),
    "trial_count not 2 * pairs_per_kind": (
        "eer_and_trials", lambda d: _edit_json(d / "eer.json", trial_count=59)),
    "retrained EER below 0": (
        "eer_and_trials",
        lambda d: _edit_json(d / "retrain.json",
                             after={"eer": -0.01, "threshold": 0.0, "trial_count": 60})),
    "trials file truncated": (
        "eer_and_trials",
        lambda d: (d / "trials.csv").write_text(
            "\n".join((d / "trials.csv").read_text().splitlines()[:-1]) + "\n")),
    "artifact unreadable": ("eer_and_trials", lambda d: (d / "eer.json").write_text("{")),
}


@pytest.mark.parametrize("case", sorted(CORRUPTIONS))
def test_check_fails_on_corrupted_copy(case, pipeline_dir, tmp_path):
    check, corrupt = CORRUPTIONS[case]
    seed_dir, cfg = _copy(pipeline_dir, tmp_path)
    corrupt(seed_dir)
    assert check in _failed(seed_dir, cfg)


def test_rerun_comparison_catches_a_changed_byte(pipeline_dir, tmp_path):
    seed_dir, _ = _copy(pipeline_dir, tmp_path)
    first = checks.artifact_hashes(seed_dir)
    assert "manifest.json" not in first and "model.json" in first
    (seed_dir / "manifest.json").write_text("{}")  # timings may differ between reruns
    assert checks.rerun_differences(first, checks.artifact_hashes(seed_dir)) == []
    with open(seed_dir / "model.json", "a") as fh:
        fh.write(" ")
    assert checks.rerun_differences(first, checks.artifact_hashes(seed_dir)) == ["model.json"]
    (seed_dir / "trials.csv").unlink()
    assert "trials.csv" in checks.rerun_differences(first, checks.artifact_hashes(seed_dir))
