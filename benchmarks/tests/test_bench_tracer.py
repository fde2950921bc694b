"""Span arithmetic and name patching of the benchmark's tracer."""

from __future__ import annotations

import pytest

import metrics
import tracer


def span(sid, parent, name, start, end, error=False, count=0):
    return (sid, parent, name, start, end, error, count)


# cli.train [0, 10]
# +- synthdata.load_dataset [0, 1]
# +- embedder.train [1, 9]
#    +- embedder.mlp_forward [2, 3]
#    +- losses.aamsc_loss [3, 6]
#    |  +- numerics.softmax [4, 5]
#    +- embedder.adam_step [6, 7]
#    +- embedder.adam_step [7, 8]
TREE = [
    span(1, None, "cli.train", 0.0, 10.0),
    span(2, 1, "synthdata.load_dataset", 0.0, 1.0, count=100),
    span(3, 1, "embedder.train", 1.0, 9.0),
    span(4, 3, "embedder.mlp_forward", 2.0, 3.0),
    span(5, 3, "losses.aamsc_loss", 3.0, 6.0),
    span(6, 5, "numerics.softmax", 4.0, 5.0),
    span(7, 3, "embedder.adam_step", 6.0, 7.0),
    span(8, 3, "embedder.adam_step", 7.0, 8.0, error=True),
]


def test_self_time_is_duration_minus_children():
    selfs = metrics.self_times(TREE)
    assert selfs == {1: 1.0, 2: 1.0, 3: 2.0, 4: 1.0, 5: 2.0, 6: 1.0, 7: 1.0, 8: 1.0}
    assert sum(selfs.values()) == pytest.approx(10.0)  # self times partition the root


def test_self_time_counts_overlapping_children_once():
    spans = [span(1, None, "a.x", 0.0, 10.0), span(2, 1, "a.y", 1.0, 5.0),
             span(3, 1, "a.z", 4.0, 6.0), span(4, 1, "a.w", 9.0, 12.0)]
    # children cover [1, 6] and [9, 10] once clipped to the parent
    assert metrics.self_times(spans)[1] == pytest.approx(4.0)


def test_covered_merges_intervals():
    assert metrics.covered([(0, 2), (1, 3), (5, 6), (6, 7)]) == pytest.approx(5.0)
    assert metrics.covered([]) == 0.0


def test_layer_values_on_the_hand_built_tree():
    v = metrics.layer_values(TREE)
    assert v["embedder.train.calls"] == 1
    assert v["embedder.train.self_s"] == pytest.approx(2.0)
    assert v["embedder.steps"] == 2
    assert v["embedder.step_us"] == pytest.approx(8.0 / 2 * 1e6)
    assert v["embedder.adam_step.busy_s"] == pytest.approx(2.0)
    assert v["losses.training_loss.busy_s"] == pytest.approx(3.0)
    assert v["numerics.softmax.calls"] == 1
    assert v["synthdata.load_dataset.calls"] == 1
    assert v["synthdata.bytes_read"] == 100
    assert v["embedder.errors"] == 1
    assert v["losses.errors"] == 0
    assert v["cli.train.self_s"] == pytest.approx(1.0)
    assert v["trace.pipeline_s"] == pytest.approx(10.0)
    assert v["share.training"] == pytest.approx(0.8)
    assert v["share.nld_synthdata_evaluation"] == pytest.approx(0.1)
    missing = {m.name for m in metrics.PER_LAYER} - set(v) - {"trace.overhead_s"}
    assert not missing


def test_data_share_excludes_training_nested_in_evaluation():
    spans = [span(1, None, "cli.retrain", 0.0, 10.0),
             span(2, 1, "evaluation.retrain_after_removal", 0.0, 10.0),
             span(3, 2, "embedder.train", 2.0, 8.0)]
    v = metrics.layer_values(spans)
    assert v["share.training"] == pytest.approx(0.6)
    assert v["share.nld_synthdata_evaluation"] == pytest.approx(0.4)


def test_install_patches_every_lookup_site_and_restores():
    import labelnoise.cli as cli
    import labelnoise.embedder as embedder
    import labelnoise.losses as losses
    import labelnoise.nld as nld
    import labelnoise.numerics as numerics

    originals = (cli.load_dataset, embedder.aamsc_loss, nld.classify_confidence,
                 losses.softmax, nld.ParametricClassifier.confidences)
    t = tracer.Tracer()
    restore = tracer.install(t)
    try:
        assert cli.load_dataset is not originals[0]
        assert embedder.aamsc_loss is losses.aamsc_loss is not originals[1]
        assert nld.classify_confidence is losses.classify_confidence
        assert losses.softmax is numerics.softmax is nld.softmax
        numerics.softmax([0.0, 0.0])
        nld.softmax([1.0, 2.0])
        with pytest.raises(Exception):
            losses.softmax([])
        with t.span("cli.detect"):
            numerics.log_sum_exp([0.0])
    finally:
        restore()
    assert (cli.load_dataset, embedder.aamsc_loss, nld.classify_confidence,
            losses.softmax, nld.ParametricClassifier.confidences) == originals
    names = [s[2] for s in t.spans]
    assert names == ["numerics.softmax", "numerics.softmax", "numerics.softmax",
                     "numerics.log_sum_exp", "cli.detect"]
    assert [s[5] for s in t.spans] == [False, False, True, False, False]
    assert t.spans[3][1] == t.spans[4][0]  # log_sum_exp is a child of the stage span
