"""Noisy-label detection for embedding classifiers, end to end.

Simulate label noise on synthetic class-structured data, train a small
embedder under one of four metric-learning losses, rank utterances by
intra-/inter-class inconsistency to find the mislabeled ones, and measure
the effect on held-out verification EER.
"""

__version__ = "0.1.0"
