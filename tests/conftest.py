"""Shared builders: hand-wired models, small in-memory datasets, and the
Hypothesis profile CI runs with."""

from __future__ import annotations

import base64
import json
import sys

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st

from labelnoise.embedder import MlpParams, TrainedModel
from labelnoise.losses import CEConfig, ClassifierParams, LossConfig
from labelnoise.synthdata import Dataset

# ``--hypothesis-profile=ci`` replays the same examples on every run, so a
# CI failure points at a code change, never at a newly drawn example;
# local runs keep the default profile and keep exploring.
settings.register_profile("ci", derandomize=True, deadline=None)


# The dataset sections of the CI tiny config and of the detect-wide
# benchmark workload, whose simulate and eval outputs are pinned by digest.
TINY_DATASET = {"class_count": 5, "per_class": 6, "latent_dim": 4, "feature_dim": 8,
                "aux_class_count": 5, "aux_per_class": 3, "heldout_per_class": 4}
WIDE_DATASET = {"class_count": 200, "per_class": 40, "latent_dim": 16, "feature_dim": 20,
                "aux_class_count": 200, "aux_per_class": 40, "heldout_per_class": 20}


def identity_model(dim: int, loss_cfg: LossConfig | None = None,
                   classifier: ClassifierParams | None = None) -> TrainedModel:
    """A single linear layer with identity weights: embedding == features.

    Lets tests choose embeddings directly through utterance features.
    """
    mlp = MlpParams(weights=[np.eye(dim)], biases=[np.zeros(dim)])
    if loss_cfg is None:
        loss_cfg = CEConfig(class_count=2)
    if classifier is None:
        classifier = ClassifierParams(weight=np.zeros((2, dim)), bias=np.zeros(2))
    return TrainedModel(embedder=mlp, classifier=classifier, loss_config=loss_cfg,
                        train_manifest={})


def make_dataset(features, observed, true_classes=None, class_count=None) -> Dataset:
    """Dataset from an (n, d) feature array and observed labels.

    ``true_classes`` defaults to the observed labels (clean). Utterances
    whose observed and true class differ are noisy.
    """
    feats = np.asarray(features, dtype=np.float64)
    observed = list(observed)
    true_classes = observed if true_classes is None else list(true_classes)
    if class_count is None:
        class_count = max(max(observed), max(true_classes)) + 1
    n = feats.shape[0]
    return Dataset(features=feats.copy(), utt_id=np.arange(n), true_class=true_classes,
                   observed_class=observed, is_ood=np.zeros(n, dtype=bool),
                   class_count=class_count, feature_dim=feats.shape[1])


def edit_parameters(model: dict, edit) -> dict:
    """A copy of ``model``, a model file's JSON object, whose parameter vector
    is ``edit(v)`` for ``v`` a writable copy of its own."""
    vec = np.frombuffer(base64.b64decode(model["parameters"], validate=True), "<f8").copy()
    raw = np.asarray(edit(vec), dtype="<f8").tobytes()
    return {**model, "parameters": base64.b64encode(raw).decode("ascii")}


# Up to three edits of a file's bytes: (kind, position, byte value)
BYTE_EDITS = st.lists(st.tuples(st.sampled_from(["flip", "set", "delete", "insert", "truncate"]),
                                st.integers(0, 10 ** 6), st.integers(0, 255)), max_size=3)


def edit_bytes(data: bytes, edits) -> bytes:
    """``data`` after each ``BYTE_EDITS`` edit in turn; the position wraps
    around the length, and an edit of the byte past the end is none."""
    for kind, i, b in edits:
        k = i % (len(data) + 1)
        if kind == "truncate":
            data = data[:k]
        elif kind == "insert":
            data = data[:k] + bytes([b]) + data[k:]
        elif k < len(data):
            new = {"flip": bytes([data[k] ^ (1 << b % 8)]), "set": bytes([b]), "delete": b""}[kind]
            data = data[:k] + new + data[k + 1:]
    return data


# Any JSON value: scalars (floats NaN and infinite included) nested in lists and objects
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2 ** 70, 2 ** 70) | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)


def _json_paths(node, path=()):
    """The key path of ``node`` and of every value nested in it."""
    yield path
    if isinstance(node, (dict, list)):
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _json_paths(child, (*path, key))


def replace_values(obj, edits):
    """A copy of the JSON value ``obj`` after each edit ``(i, value)`` in turn:
    ``value`` replaces the value at the ``i``-th key path (wrapping around),
    the root's included."""
    d = json.loads(json.dumps(obj))
    for i, value in edits:
        paths = list(_json_paths(d))
        *parents, key = paths[i % len(paths)] or (None,)
        if key is None:
            d = value
            continue
        node = d
        for k in parents:
            node = node[k]
        node[key] = value
    return d


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance-criteria verdicts after the run, capture or not."""
    module = sys.modules.get("test_acceptance")
    lines = getattr(module, "VERDICT_LINES", None) if module else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
