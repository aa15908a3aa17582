"""Synthetic desk-scale fixtures: blob datasets and classifiers fitted to them.

Models here are synthesized, not trained: hidden layers get fixed random
weights and the output layer is solved in closed form (ridge least squares
on scaled one-hot targets), which lands well above 90% accuracy on separated
blobs and is fully deterministic per seed.
"""

from __future__ import annotations

import numpy as np

from .dataset import LabeledDataset
from .model import RELU, SOFTMAX, DenseLayer, FcnnClassifier
from .mutants import MutantSet, MutatorKind, _manifest_entry, _target_space, rebuild_mutant
from .util import philox_rng


def gaussian_blobs(
    n_points: int,
    n_classes: int,
    dim: int,
    seed: int,
    spread: float = 0.5,
) -> LabeledDataset:
    """Round-robin labeled points around per-class Gaussian centers."""
    rng = philox_rng(seed)
    centers = rng.normal(size=(n_classes, dim))
    centers *= 2.0 / np.linalg.norm(centers, axis=1, keepdims=True)
    labels = np.arange(n_points, dtype=np.int64) % n_classes
    points = centers[labels] + spread * rng.normal(size=(n_points, dim))
    return LabeledDataset(points, labels, n_classes)


def fitted_classifier(
    dataset: LabeledDataset,
    hidden: tuple[int, ...] = (16, 16),
    seed: int = 0,
    margin: float = 4.0,
    bias_shift: float = 0.0,
    ridge: float = 1.0,
) -> FcnnClassifier:
    """Random ReLU feature stack with a ridge-regularized softmax readout.

    A positive ``bias_shift`` keeps hidden pre-activations above zero for
    typical inputs, so every neuron contributes on every point and local
    weight mutations are visible from any subsample (no dead-on-sample
    blind spots).  The ridge penalty keeps readout weights moderate even
    when hidden features are collinear, which keeps logits in a range where
    softmax outputs stay informative instead of saturating.
    """
    rng = philox_rng(seed)
    layers = []
    acts = dataset.features
    in_dim = dataset.input_dim
    for width in hidden:
        w = rng.normal(scale=np.sqrt(2.0 / in_dim), size=(width, in_dim))
        z = acts @ w.T
        b = rng.normal(scale=0.1, size=width)
        if bias_shift:
            # shift each neuron by a multiple of its own pre-activation spread
            b = b + bias_shift * z.std(axis=0)
        layers.append(DenseLayer(w, b, RELU))
        acts = np.maximum(z + b, 0.0)
        in_dim = width
    targets = np.full((len(dataset), dataset.class_count), -margin)
    targets[np.arange(len(dataset)), dataset.labels] = margin
    design = np.hstack([acts, np.ones((len(dataset), 1))])
    gram = design.T @ design + ridge * np.eye(design.shape[1])
    coef = np.linalg.solve(gram, design.T @ targets)
    layers.append(DenseLayer(coef[:-1].T, coef[-1], SOFTMAX))
    return FcnnClassifier(tuple(layers))


def diverse_mutant_set(
    model: FcnnClassifier,
    count: int,
    seed: int,
    weak_sigma: tuple[float, float] = (1e-4, 0.01),
    strong_sigma: tuple[float, float] = (0.4, 1.2),
) -> MutantSet:
    """Mutant pool with a bimodal intensity profile.

    Even ids are gaussian fuzzing with sigma drawn log-uniform from
    ``weak_sigma`` (behaviour-preserving on a high-margin model); odd ids
    cycle through the structural operators plus strong gaussian fuzzing from
    ``strong_sigma``.  The log spread keeps similarity values covering (0, 1)
    at any sample size while avoiding the ambiguous middle band where mutants
    look identical on a small sample but differ on the full dataset.
    """
    rng = philox_rng(seed)
    strong = (
        MutatorKind.WEIGHT_SHUFFLE,
        MutatorKind.NEURON_EFFECT_BLOCK,
        MutatorKind.NEURON_ACTIVATION_INVERSE,
        MutatorKind.NEURON_SWITCH,
        MutatorKind.GAUSSIAN_FUZZING,
    )
    records = []
    for mutant_id in range(count):
        if mutant_id % 2 == 0:
            kind = MutatorKind.GAUSSIAN_FUZZING
            sigma_range = weak_sigma
        else:
            kind = strong[(mutant_id // 2) % len(strong)]
            sigma_range = strong_sigma
        space = _target_space(model, kind)
        target = space[int(rng.integers(len(space)))]
        mutant_seed = int(rng.integers(0, 2**63))
        params = {}
        if kind is MutatorKind.GAUSSIAN_FUZZING:
            params["sigma"] = float(
                np.exp(rng.uniform(np.log(sigma_range[0]), np.log(sigma_range[1])))
            )
        entry = _manifest_entry(kind, mutant_id, target, mutant_seed, params)
        records.append(rebuild_mutant(model, entry))
    return MutantSet(model, records, seed)
