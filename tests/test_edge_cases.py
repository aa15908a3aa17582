"""Edge-case coverage: label gaps, single-class scoring, sampling and seeding."""

import numpy as np
import pytest

from mutspect.dataset import LabeledDataset
from mutspect.errors import ParameterError
from mutspect.mutants import MutatorKind, generate_mutant_set
from mutspect.pipeline import Seeds, run_accelerated
from mutspect.spectra import stratified_sample
from mutspect.synth import fitted_classifier
from mutspect.testing import mutation_score, vanilla_test
from mutspect.util import philox_rng


def test_label_gaps_are_respected():
    # classes 5 and 9 absent: the label set and sampling only see 0, 3, 7
    rng = np.random.default_rng(2)
    labels = np.array([0, 3, 7] * 8)
    ds = LabeledDataset(rng.normal(size=(24, 4)) + labels[:, None], labels, 10)
    assert ds.labels_present().tolist() == [0, 3, 7]
    sample = stratified_sample(ds, 2, seed=1)
    assert len(sample) == 6
    sampled_labels = sorted(set(int(l) for l in ds.labels[sample.indices]))
    assert sampled_labels == [0, 3, 7]

    model = fitted_classifier(ds, hidden=(6,), seed=1, margin=5.0, bias_shift=2.0)
    mutants = generate_mutant_set(model, 8, (MutatorKind.GAUSSIAN_FUZZING,), seed=4)
    table = vanilla_test(model, mutants, ds)
    assert table.labels == (0, 3, 7)  # denominator uses labels present, not class_count
    assert 0.0 <= mutation_score(table) <= 1.0
    res = run_accelerated(
        model, mutants, ds, seeds=Seeds(1, 2), fixed_per_class=2, fixed_tau=0.5
    )
    assert res.found


def test_single_class_dataset_scores():
    rng = np.random.default_rng(5)
    ds = LabeledDataset(rng.normal(size=(12, 3)), np.zeros(12, dtype=int), 1)
    model = fitted_classifier(ds, hidden=(4,), seed=0, margin=3.0)
    mutants = generate_mutant_set(model, 5, (MutatorKind.GAUSSIAN_FUZZING,), seed=9)
    table = vanilla_test(model, mutants, ds)
    assert table.labels == (0,)
    score = mutation_score(table)
    assert 0.0 <= score <= 1.0  # counts are 0 or 1 with a single label


def test_sampling_rejects_nonpositive_rate():
    rng = np.random.default_rng(1)
    ds = LabeledDataset(rng.normal(size=(6, 2)), np.arange(6) % 2, 2)
    with pytest.raises(ParameterError):
        stratified_sample(ds, 0, seed=1)


def test_philox_streams_are_independent_per_seed():
    a = philox_rng(1).normal(size=8)
    b = philox_rng(2).normal(size=8)
    c = philox_rng(1).normal(size=8)
    assert a.tobytes() == c.tobytes()
    assert a.tobytes() != b.tobytes()
