"""Acceptance suite: nine desk-scale criteria, one verdict line each.

Every test prints ``[criterion N] PASS/FAIL — detail`` to the real
stdout (bypassing capture) and then asserts, so a plain ``pytest``
run shows one line per criterion. Trained models are cached at module
scope; the full suite trains ~20 small embedders and takes a few
minutes on one CPU core.
"""

import json
import math
import sys
import time

import numpy as np

from conftest import identity_model, make_dataset
from labelnoise.cli import main as cli_main
from labelnoise.embedder import TrainConfig, train
from labelnoise.evaluation import (
    compute_eer,
    generate_trials,
    retrain_after_removal,
    score_trials,
)
from labelnoise.jsonutil import sha256_file
from labelnoise.losses import (
    AAMConfig,
    AAMSCConfig,
    CEConfig,
    ClassifierParams,
    GE2EConfig,
    aamsc_loss,
    ce_loss,
    ge2e_loss,
)
from labelnoise.nld import (
    DEFAULT_CENTROID_TEMPERATURE,
    CentroidClassifier,
    DetectionResult,
    ParametricClassifier,
    compute_centroids,
    detection_precision,
    embed_dataset,
    inter_inconsistency,
    intra_inconsistency,
    rank_and_select,
)
from labelnoise.seeding import derive_seed
from labelnoise.synthdata import (
    NoiseSpec,
    apply_openset_noise,
    apply_permute_noise,
    generate_dataset,
)
from oracles import (
    brute_centroids,
    brute_eer_midpoint,
    brute_inter,
    brute_intra,
    brute_precision_recall,
    brute_top_q_percent,
    evaluate_model,
)


# one line per criterion; conftest's pytest_terminal_summary prints these
# after the run so they survive output capture
VERDICT_LINES: list[str] = []


def _verdict(num: int, ok: bool, detail: str) -> None:
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'} — {detail}"
    VERDICT_LINES.append(line)
    print(line, file=sys.__stdout__, flush=True)  # live feedback under -s
    assert ok, line


# ----------------------------------------------------------------------
# criterion 1: analytic gradients match finite differences


FD_EPS = 1e-6
FD_TOL = 1e-5


def _fd(value_fn, array, eps=FD_EPS):
    """Central finite differences, mutating ``array`` in place per coordinate."""
    grad = np.zeros_like(array, dtype=np.float64)
    flat, out = array.reshape(-1), grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = value_fn()
        flat[i] = orig - eps
        lo = value_fn()
        flat[i] = orig
        out[i] = (hi - lo) / (2.0 * eps)
    return grad


def _rel(analytic, numeric):
    a = np.asarray(analytic, dtype=np.float64).ravel()
    b = np.asarray(numeric, dtype=np.float64).ravel()
    return float(np.linalg.norm(a - b)
                 / max(np.linalg.norm(a), np.linalg.norm(b), 1e-8))


def _unit_cosines(x, w):
    xh = x / np.linalg.norm(x, axis=1, keepdims=True)
    wh = w / np.linalg.norm(w, axis=1, keepdims=True)
    return xh @ wh.T


def test_criterion_1_gradients_match_finite_differences():
    rng = np.random.default_rng(101)
    t0 = time.monotonic()
    worst = 0.0
    counts = {"ce": 0, "aam": 0, "aamsc": 0, "ge2e": 0}

    def draw_dims():
        return (int(rng.integers(2, 17)), int(rng.integers(2, 17)),
                int(rng.integers(2, 9)))

    for _ in range(50):
        n, d, c = draw_dims()
        x = rng.standard_normal((n, d))
        y = rng.integers(0, c, size=n)
        params = ClassifierParams(weight=rng.standard_normal((c, d)) * 0.5,
                                  bias=rng.standard_normal(c) * 0.1)
        got = ce_loss(x, y, params)
        worst = max(worst,
                    _rel(got.grad_embeddings, _fd(lambda: ce_loss(x, y, params).value, x)),
                    _rel(got.grad_params.weight,
                         _fd(lambda: ce_loss(x, y, params).value, params.weight)),
                    _rel(got.grad_params.bias,
                         _fd(lambda: ce_loss(x, y, params).value, params.bias)))
        counts["ce"] += 1

    aam_grid = [(0.1, 15.0), (0.1, 30.0), (0.2, 15.0), (0.2, 30.0)]
    for i in range(50):
        margin, scale = aam_grid[i % len(aam_grid)]
        while True:
            n, d, c = draw_dims()
            x = rng.standard_normal((n, d))
            y = rng.integers(0, c, size=n)
            w = rng.standard_normal((c, d))
            cos = _unit_cosines(x, w)
            target = cos[np.arange(n), y]
            # stay away from the linearized-fallback switch and the clip
            if (np.all(np.abs(target - math.cos(math.pi - margin)) > 1e-3)
                    and np.max(np.abs(cos)) < 0.999):
                break
        cfg = AAMConfig(class_count=c, scale=scale, margin=margin)
        params = ClassifierParams(weight=w)
        got = aamsc_loss(x, y, params, cfg)
        worst = max(worst,
                    _rel(got.grad_embeddings,
                         _fd(lambda: aamsc_loss(x, y, params, cfg).value, x)),
                    _rel(got.grad_params.weight,
                         _fd(lambda: aamsc_loss(x, y, params, cfg).value, params.weight)))
        counts["aam"] += 1

    for i in range(50):
        k = (3, 10)[i % 2]
        while True:
            n, d, c = draw_dims()
            x = rng.standard_normal((n, d))
            y = rng.integers(0, c, size=n)
            w = rng.standard_normal((c * k, d))
            cos_sub = np.sort(_unit_cosines(x, w).reshape(n, c, k), axis=2)
            gap = cos_sub[:, :, -1] - cos_sub[:, :, -2]
            target_best = cos_sub[np.arange(n), y, -1]
            if (np.min(gap) > 1e-4 and np.max(np.abs(cos_sub)) < 0.999
                    and np.all(np.abs(target_best - math.cos(math.pi - 0.1)) > 1e-3)):
                break
        cfg = AAMSCConfig(class_count=c, scale=30.0, margin=0.1, subcenters=k)
        params = ClassifierParams(weight=w)
        got = aamsc_loss(x, y, params, cfg)
        worst = max(worst,
                    _rel(got.grad_embeddings,
                         _fd(lambda: aamsc_loss(x, y, params, cfg).value, x)),
                    _rel(got.grad_params.weight,
                         _fd(lambda: aamsc_loss(x, y, params, cfg).value, params.weight)))
        counts["aamsc"] += 1

    for _ in range(50):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(2, 5))
        d = int(rng.integers(2, 13))
        e = rng.standard_normal((n, m, d))
        wv = float(rng.uniform(0.5, 12.0))
        bv = float(rng.uniform(-6.0, 0.0))
        params = ClassifierParams(ge2e_w=wv, ge2e_b=bv)
        got = ge2e_loss(e, params)
        worst = max(worst,
                    _rel(got.grad_embeddings,
                         _fd(lambda: ge2e_loss(e, params).value, e)))
        fd_w = (ge2e_loss(e, ClassifierParams(ge2e_w=wv + FD_EPS, ge2e_b=bv)).value
                - ge2e_loss(e, ClassifierParams(ge2e_w=wv - FD_EPS, ge2e_b=bv)).value
                ) / (2.0 * FD_EPS)
        worst = max(worst, abs(got.grad_params.ge2e_w - fd_w)
                    / max(abs(got.grad_params.ge2e_w), abs(fd_w), 1e-8))
        # the bias gradient is analytically zero (softmax shift invariance):
        # compare absolutely, a relative check on ~0 would only measure noise
        fd_b = (ge2e_loss(e, ClassifierParams(ge2e_w=wv, ge2e_b=bv + FD_EPS)).value
                - ge2e_loss(e, ClassifierParams(ge2e_w=wv, ge2e_b=bv - FD_EPS)).value
                ) / (2.0 * FD_EPS)
        assert abs(got.grad_params.ge2e_b) <= 1e-12
        assert abs(fd_b) <= 1e-6
        counts["ge2e"] += 1

    elapsed = time.monotonic() - t0
    ok = worst <= FD_TOL and all(v >= 50 for v in counts.values()) and elapsed < 60.0
    _verdict(1, ok,
             f"max rel err {worst:.2e} (tol {FD_TOL:.0e}) over "
             f"{sum(counts.values())} instances in {elapsed:.1f}s")


# ----------------------------------------------------------------------
# criterion 2: brute-force oracle equivalence up to 1000 utterances


def test_criterion_2_scores_match_brute_force_oracles():
    rng = np.random.default_rng(202)
    worst_real = 0.0
    sets_ok = True
    for n, class_count in ((57, 5), (1000, 30)):
        dim = 12
        feats = rng.standard_normal((n, dim))
        observed = rng.integers(0, class_count, size=n).tolist()
        true = [(c + 1) % class_count if rng.random() < 0.3 else c for c in observed]
        ds = make_dataset(feats, observed, true_classes=true, class_count=class_count)
        weight = rng.standard_normal((class_count, dim)) * 0.5
        bias = rng.standard_normal(class_count) * 0.1
        model = identity_model(dim, loss_cfg=CEConfig(class_count=class_count),
                               classifier=ClassifierParams(weight=weight, bias=bias))
        emb = embed_dataset(model, ds)

        bank = compute_centroids(emb, ds)
        ref_cent, ref_counts = brute_centroids(feats.tolist(), observed)
        assert bank.counts.tolist() == [ref_counts.get(c, 0) for c in range(class_count)]
        for c_id, row in ref_cent.items():
            worst_real = max(worst_real,
                             float(np.max(np.abs(bank.centroids[c_id] - np.asarray(row)))))

        intra = intra_inconsistency(emb, ds, bank)
        ref_intra = brute_intra(feats.tolist(), observed, dict(enumerate(bank.centroids.tolist())))
        worst_real = max(worst_real, float(np.max(np.abs(intra - np.asarray(ref_intra)))))

        inter = inter_inconsistency(emb, ds, ParametricClassifier(model))
        probs = []
        for row in feats:
            logits = [sum(weight[c][j] * row[j] for j in range(dim)) + bias[c]
                      for c in range(class_count)]
            top = max(logits)
            exps = [math.exp(z - top) for z in logits]
            probs.append([v / sum(exps) for v in exps])
        ref_inter = brute_inter(probs, observed, list(range(class_count)))
        worst_real = max(worst_real, float(np.max(np.abs(inter - np.asarray(ref_inter)))))

        # selection: continuous scores and heavily tied (rounded) scores
        for values in (inter.tolist(), [round(v, 2) for v in inter.tolist()]):
            for q in (7.5, 20.0, 33.34, 50.0, 100.0):
                got = rank_and_select(np.asarray(values), np.arange(n), q).predicted_noisy
                sets_ok = sets_ok and got.tolist() == sorted(brute_top_q_percent(range(n),
                                                                                 values, q))

        predicted = np.sort(rng.choice(n, size=max(2, n // 4), replace=False))
        filled = detection_precision(
            DetectionResult(predicted_noisy=predicted, q_used=25.0), ds)
        ref_p, ref_r = brute_precision_recall(predicted.tolist(),
                                              ds.utt_id[ds.is_noisy].tolist())
        sets_ok = sets_ok and filled.precision == ref_p and filled.recall == ref_r

    ok = worst_real <= 1e-12 and sets_ok
    _verdict(2, ok,
             f"centroid/intra/inter max |diff| {worst_real:.2e} (tol 1e-12); "
             f"selection and precision exact up to n=1000: {sets_ok}")


# ----------------------------------------------------------------------
# shared desk-scale fixtures for criteria 3-7 (cached trainings)


TREND_STEPS = 5000
_DATA: dict = {}
_MODELS: dict = {}
_TRAIN_SECONDS: list = []


def _data_for(seed):
    if seed not in _DATA:
        clean = generate_dataset(50, 40, 8, 20, 0.2,
                                 seed=derive_seed(seed, "data-train"),
                                 mix_seed=derive_seed(seed, "data-mix"))
        dirs = clean.directions
        aux = generate_dataset(50, 40, 8, 20, 0.2,
                               seed=derive_seed(seed, "data-aux"),
                               mix_seed=derive_seed(seed, "data-mix"),
                               avoid_directions=dirs)
        held = generate_dataset(50, 10, 8, 20, 0.2,
                                seed=derive_seed(seed, "data-heldout"),
                                mix_seed=derive_seed(seed, "data-mix"),
                                avoid_directions=dirs)
        trials = generate_trials(held, 2000, seed=seed)
        _DATA[seed] = (clean, aux, held, trials)
    return _DATA[seed]


def _noised(seed, kind, q):
    clean, aux, _, _ = _data_for(seed)
    spec = NoiseSpec(kind=kind, level_q=q, seed=derive_seed(seed, "noise"))
    if kind == "permute":
        return apply_permute_noise(clean, spec)
    return apply_openset_noise(clean, aux, spec)


def _loss_cfg(kind):
    if kind == "aamsc":
        return AAMSCConfig(class_count=50, scale=30.0, margin=0.1, subcenters=3)
    return CEConfig(class_count=50)


def _train_cfg(seed, loss):
    return TrainConfig(loss=_loss_cfg(loss), total_steps=TREND_STEPS,
                       batch_speakers=50, utts_per_speaker=1,
                       seed=derive_seed(seed, "train"))


def _model(seed, loss, kind, q):
    key = (seed, loss, kind, q)
    if key not in _MODELS:
        ds = _noised(seed, kind, q)
        t0 = time.monotonic()
        model, _ = train(ds, _train_cfg(seed, loss))
        _TRAIN_SECONDS.append(time.monotonic() - t0)
        _MODELS[key] = model
    return _MODELS[key]


def _detect(seed, loss, kind, q, method):
    model = _model(seed, loss, kind, q)
    ds = _noised(seed, kind, q)
    emb = embed_dataset(model, ds)
    if method == "intra":
        scores = intra_inconsistency(emb, ds, compute_centroids(emb, ds))
    else:
        classifier = (CentroidClassifier(compute_centroids(emb, ds), DEFAULT_CENTROID_TEMPERATURE)
                      if isinstance(model.loss_config, GE2EConfig) else ParametricClassifier(model))
        scores = inter_inconsistency(emb, ds, classifier)
    result = detection_precision(rank_and_select(scores, ds.utt_id, q), ds)
    return result, scores


def _heldout_eer(seed, loss, kind, q):
    model = _model(seed, loss, kind, q)
    _, _, held, trials = _data_for(seed)
    scores, labels, _ = score_trials(model, trials, held)
    return compute_eer(scores, labels).eer


# ----------------------------------------------------------------------
# criteria 3-7: desk-scale detection/EER trends


def test_criterion_3_inter_precision_at_moderate_noise():
    means = {}
    for q in (20.0, 50.0):
        values = [_detect(s, "aamsc", "permute", q, "inter")[0].precision
                  for s in (0, 2)]
        means[q] = float(np.mean(values))
    ok = all(v >= 0.90 for v in means.values())
    slowest = max(_TRAIN_SECONDS) if _TRAIN_SECONDS else 0.0
    _verdict(3, ok,
             f"inter precision mean over seeds {{0,2}}: q=20 -> {means[20.0]:.3f}, "
             f"q=50 -> {means[50.0]:.3f} (need >= 0.90; slowest run {slowest:.1f}s)")


def test_criterion_4_inter_beats_intra_at_extreme_noise():
    outcome = {}
    for loss in ("aamsc", "ce"):
        inter = float(np.mean([_detect(s, loss, "permute", 75.0, "inter")[0].precision
                               for s in (0, 2)]))
        intra = float(np.mean([_detect(s, loss, "permute", 75.0, "intra")[0].precision
                               for s in (0, 2)]))
        outcome[loss] = (inter, intra)
    ok = all(inter >= intra for inter, intra in outcome.values())
    _verdict(4, ok,
             "q=75 precision (inter vs intra): "
             f"aamsc {outcome['aamsc'][0]:.3f} vs {outcome['aamsc'][1]:.3f}, "
             f"ce {outcome['ce'][0]:.3f} vs {outcome['ce'][1]:.3f}")


def test_criterion_5_open_set_noise_is_at_least_as_harmful():
    outcome = {}
    for loss in ("ce", "aamsc"):
        open_eer = float(np.mean([_heldout_eer(s, loss, "open_set", 50.0)
                                  for s in (0, 2)]))
        permute_eer = float(np.mean([_heldout_eer(s, loss, "permute", 50.0)
                                     for s in (0, 2)]))
        outcome[loss] = (open_eer, permute_eer)
    ok = all(open_eer >= permute_eer - 0.005 for open_eer, permute_eer in outcome.values())
    _verdict(5, ok,
             "q=50 held-out EER (open-set vs permute): "
             f"ce {outcome['ce'][0]:.4f} vs {outcome['ce'][1]:.4f}, "
             f"aamsc {outcome['aamsc'][0]:.4f} vs {outcome['aamsc'][1]:.4f} "
             "(ties within 0.005 pass)")


def test_criterion_6_removal_and_retraining_lower_eer():
    wins, pairs = 0, []
    for seed in (0, 1, 2):
        result, _ = _detect(seed, "aamsc", "open_set", 50.0, "inter")
        ds = _noised(seed, "open_set", 50.0)
        _, _, held, trials = _data_for(seed)
        before = evaluate_model(_model(seed, "aamsc", "open_set", 50.0), held, trials)
        outcome = retrain_after_removal(
            ds, result.predicted_noisy, _train_cfg(seed, "aamsc"), held, trials, before)
        improved = outcome.after.eer < outcome.before.eer
        wins += improved
        pairs.append(f"seed {seed}: {outcome.before.eer:.4f} -> {outcome.after.eer:.4f}")
    ok = wins >= 2
    _verdict(6, ok, f"retrained EER improved in {wins}/3 seeds ({'; '.join(pairs)})")


def test_criterion_7_noisy_scores_separate_from_clean():
    margins = []
    for seed in (0, 2):
        _, scores = _detect(seed, "aamsc", "permute", 20.0, "inter")
        ds = _noised(seed, "permute", 20.0)
        values, noisy = scores, ds.is_noisy
        med_noisy = float(np.median(values[noisy]))
        p90_clean = float(np.percentile(values[~noisy], 90))
        margins.append((seed, med_noisy, p90_clean))
    ok = all(med > p90 for _, med, p90 in margins)
    _verdict(7, ok,
             "median noisy inter score vs 90th-pct clean: " + ", ".join(
                 f"seed {s}: {med:.4f} vs {p90:.4f}" for s, med, p90 in margins))


# ----------------------------------------------------------------------
# criterion 8: byte-identical pipeline reruns


def test_criterion_8_pipeline_reruns_are_byte_identical(tmp_path):
    raw = {
        "output_dir": "placeholder",
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
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(raw))
    for out in ("a", "b"):
        for command in ("simulate", "train", "detect", "eval", "retrain"):
            code = cli_main([command, "--config", str(cfg_path),
                             "--out", str(tmp_path / out), "--quiet"])
            assert code == 0, (command, out)

    rel_paths = {}
    for out in ("a", "b"):
        base = tmp_path / out
        rel_paths[out] = sorted(
            p.relative_to(base) for p in base.rglob("seed_*/*") if p.is_file())
    assert rel_paths["a"] == rel_paths["b"]

    mismatched, compared = [], 0
    for rel in rel_paths["a"]:
        if rel.name == "manifest.json":
            continue  # carries wall-clock timings by design
        compared += 1
        if sha256_file(tmp_path / "a" / rel) != sha256_file(tmp_path / "b" / rel):
            mismatched.append(str(rel))
    ok = compared >= 16 and not mismatched
    _verdict(8, ok,
             f"{compared} artifacts byte-identical across independent reruns"
             + (f"; mismatched: {mismatched}" if mismatched else ""))


# ----------------------------------------------------------------------
# criterion 9: interpolated EER vs midpoint-threshold search


def test_criterion_9_eer_interpolation_matches_midpoint_search():
    rng = np.random.default_rng(909)
    worst_scaled = 0.0
    for _ in range(100):
        n = int(rng.integers(5, 51))
        tar = rng.normal(0.5, 0.25, size=n)
        non = rng.normal(0.0, 0.25, size=n)
        scores = np.concatenate([tar, non])
        labels = np.concatenate([np.ones(n, bool), np.zeros(n, bool)])
        got = compute_eer(scores, labels).eer
        ref = brute_eer_midpoint(scores.tolist(), labels.tolist())
        tol = 1.0 / (2.0 * scores.size)
        worst_scaled = max(worst_scaled, abs(got - ref) / tol)
    separated = compute_eer(np.array([0.9, 0.8, 0.1, 0.2]),
                            np.array([True, True, False, False])).eer
    ok = worst_scaled <= 1.0 and separated == 0.0
    _verdict(9, ok,
             f"worst |interpolated - midpoint| over 100 sets: {worst_scaled:.3f} "
             f"of the 1/(2n) budget; separated case EER == {separated}")
