"""Output checks on one seed directory of a finished pipeline pass.

Every check recomputes a fact from the artifacts with its own code, so
each holds whatever RNG streams the program uses. ``check_seed_dir``
returns ``(name, ok, detail)`` per check; a failed check counts as a
failed operation.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path

from workloads import STAGES

NOT_COMPARED = ("manifest.json",)  # carries wall-clock timings by design


def file_sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def artifact_hashes(seed_dir: Path) -> dict[str, str]:
    """Hash of every artifact that must be byte-identical across reruns."""
    return {p.name: file_sha256(p) for p in sorted(seed_dir.iterdir())
            if p.is_file() and p.name not in NOT_COMPARED}


def rerun_differences(first: dict[str, str], second: dict[str, str]) -> list[str]:
    """Artifacts whose hashes differ (or exist only once) between two passes."""
    return sorted(k for k in first.keys() | second.keys() if first.get(k) != second.get(k))


def _read_json(path: Path) -> dict:
    with open(path, encoding="ascii") as fh:
        return json.load(fh)


def _read_scores(path: Path) -> list[tuple[int, float, bool]]:
    lines = path.read_text(encoding="ascii").splitlines()
    if lines[0] != "utt_id,method,score,is_noisy_truth":
        raise ValueError(f"unexpected header {lines[0]!r}")
    rows = []
    for line in lines[1:]:
        utt, _method, score, truth = line.split(",")
        if truth not in ("true", "false"):
            raise ValueError(f"bad is_noisy_truth {truth!r}")
        rows.append((int(utt), float(score), truth == "true"))
    return rows


def check_manifest(seed_dir: Path, cfg: dict) -> str | None:
    stages = _read_json(seed_dir / "manifest.json")["stages"]
    missing = [s for s in STAGES if s not in stages]
    if missing:
        return f"manifest lacks stages {missing}"
    for stage, entry in stages.items():
        for name, digest in entry["artifacts"].items():
            if file_sha256(seed_dir / name) != digest:
                return f"{stage}: hash of {name} does not match the manifest"
    return None


def check_detection(seed_dir: Path, cfg: dict, method: str) -> str | None:
    """Selection size, top-q selection and precision/recall, recomputed."""
    det = _read_json(seed_dir / f"detection_{method}.json")
    rows = _read_scores(seed_dir / f"scores_{method}.csv")
    q, n = det["q"], len(rows)
    k = math.ceil(Fraction(q) * n / 100)
    if det["selected_count"] != k:
        return f"selected_count {det['selected_count']} != ceil(q*n/100) = {k}"
    ranked = sorted(rows, key=lambda r: (-r[1], r[0]))
    selected = {r[0] for r in ranked[:k]}
    if set(det["predicted_noisy"]) != selected:
        return f"predicted_noisy is not the top q% of scores_{method}.csv"
    noisy = {r[0] for r in rows if r[2]}
    hit = len(selected & noisy)
    precision = hit / k if k else None
    recall = hit / len(noisy) if noisy else None
    if det["precision"] != precision or det["recall"] != recall:
        return (f"precision/recall {det['precision']}/{det['recall']} != "
                f"recomputed {precision}/{recall}")
    return None


def check_score_ranges(seed_dir: Path, cfg: dict) -> str | None:
    for method, hi in (("intra", 2.0), ("inter", 1.0)):
        bad = [u for u, s, _ in _read_scores(seed_dir / f"scores_{method}.csv")
               if not 0.0 <= s <= hi]
        if bad:
            return f"{len(bad)} {method} score(s) outside [0, {hi}], first utt {bad[0]}"
    return None


def check_eer(seed_dir: Path, cfg: dict) -> str | None:
    eer = _read_json(seed_dir / "eer.json")
    retrain = _read_json(seed_dir / "retrain.json")
    trials = 2 * cfg["eval"]["pairs_per_kind"]
    rows = len((seed_dir / "trials.csv").read_text(encoding="ascii").splitlines()) - 1
    for what, result in (("eer.json", eer), ("retrain.json before", retrain["before"]),
                         ("retrain.json after", retrain["after"])):
        if not 0.0 <= result["eer"] <= 1.0:
            return f"{what}: EER {result['eer']} outside [0, 1]"
        if result["trial_count"] != trials:
            return f"{what}: trial_count {result['trial_count']} != 2 * pairs_per_kind = {trials}"
    if rows != trials:
        return f"trials.csv has {rows} trials, expected {trials}"
    return None


CHECKS = (
    ("manifest_hashes", check_manifest),
    ("detection_intra", lambda d, c: check_detection(d, c, "intra")),
    ("detection_inter", lambda d, c: check_detection(d, c, "inter")),
    ("score_ranges", check_score_ranges),
    ("eer_and_trials", check_eer),
)


def check_seed_dir(seed_dir: Path, cfg: dict) -> list[tuple[str, bool, str]]:
    results = []
    for name, check in CHECKS:
        try:
            problem = check(seed_dir, cfg)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            problem = f"unreadable artifact: {type(exc).__name__}: {exc}"
        results.append((name, problem is None, problem or ""))
    return results


def quality(seed_dir: Path) -> dict[str, float]:
    """The four quality metrics of one seed, read from its artifacts."""
    retrain = _read_json(seed_dir / "retrain.json")
    return {
        "inter_precision": _read_json(seed_dir / "detection_inter.json")["precision"],
        "intra_precision": _read_json(seed_dir / "detection_intra.json")["precision"],
        "eer": _read_json(seed_dir / "eer.json")["eer"],
        "eer_retrained": retrain["after"]["eer"],
    }
