"""Noisy-label detection for embedding classifiers, end to end.

Simulate label noise on synthetic class-structured data, train a small
embedder under one of four metric-learning losses, rank utterances by
intra-/inter-class inconsistency to find the mislabeled ones, and measure
the effect on held-out verification EER.
"""

__version__ = "0.1.0"

from .embedder import TrainConfig, TrainedModel, load_model, save_model, train
from .errors import (
    ConfigurationError,
    DivergenceError,
    DomainError,
    InternalError,
    LabelNoiseError,
    ParseError,
    ValidationError,
)
from .evaluation import compute_eer, generate_trials, retrain_after_removal, score_trials
from .losses import (
    AAMConfig,
    AAMSCConfig,
    CEConfig,
    GE2EConfig,
    aamsc_loss,
    ce_loss,
    ge2e_loss,
    nsl_config,
)
from .nld import (
    CentroidClassifier,
    compute_centroids,
    detection_precision,
    inter_inconsistency,
    intra_inconsistency,
    rank_and_select,
)
from .synthdata import (
    Dataset,
    NoiseSpec,
    apply_openset_noise,
    apply_permute_noise,
    generate_dataset,
    load_dataset,
    save_dataset,
)

__all__ = [
    "__version__",
    "AAMConfig",
    "AAMSCConfig",
    "CEConfig",
    "CentroidClassifier",
    "ConfigurationError",
    "Dataset",
    "DivergenceError",
    "DomainError",
    "GE2EConfig",
    "InternalError",
    "LabelNoiseError",
    "NoiseSpec",
    "ParseError",
    "TrainConfig",
    "TrainedModel",
    "ValidationError",
    "aamsc_loss",
    "apply_openset_noise",
    "apply_permute_noise",
    "ce_loss",
    "compute_centroids",
    "compute_eer",
    "detection_precision",
    "generate_dataset",
    "generate_trials",
    "ge2e_loss",
    "inter_inconsistency",
    "intra_inconsistency",
    "load_dataset",
    "load_model",
    "nsl_config",
    "rank_and_select",
    "retrain_after_removal",
    "save_dataset",
    "save_model",
    "score_trials",
    "train",
]
