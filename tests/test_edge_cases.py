"""Edge-case coverage: label gaps, single-class scoring, sampling and seeding."""

import numpy as np
import pytest

from mutspect.baselines import bss_select, rms_test
from mutspect.clustering import ClusterSet, select_representatives
from mutspect.dataset import LabeledDataset
from mutspect.errors import ParameterError, TargetError, ValidationError
from mutspect.model import count_forward_passes
from mutspect.mutants import MutatorKind, generate_mutant_set, rebuild_mutant
from mutspect.pipeline import Seeds, SweepSpec, run_accelerated, run_sweep
from mutspect.spectra import stratified_sample
from mutspect.synth import diverse_mutant_set, fitted_classifier
from mutspect.testing import mutation_score, vanilla_test
from mutspect.util import derived_seed, is_integer, philox_rng


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


def _seeding_world():
    rng = np.random.default_rng(3)
    labels = np.arange(12) % 2
    ds = LabeledDataset(rng.normal(size=(12, 3)) + labels[:, None], labels, 2)
    model = fitted_classifier(ds, hidden=(4,), seed=0, margin=3.0)
    return model, generate_mutant_set(model, 6, (MutatorKind.GAUSSIAN_FUZZING,), seed=1), ds


@pytest.mark.parametrize("call", [
    lambda m, ms, ds: philox_rng(-1),
    lambda m, ms, ds: philox_rng(None),  # numpy would seed from OS entropy
    lambda m, ms, ds: philox_rng(1.0),
    lambda m, ms, ds: philox_rng("1"),
    lambda m, ms, ds: philox_rng(True),
    lambda m, ms, ds: derived_seed(0, -1),
    lambda m, ms, ds: derived_seed(0, 2.5),
    lambda m, ms, ds: stratified_sample(ds, 2, -1),
    lambda m, ms, ds: generate_mutant_set(m, 3, seed=None),
    lambda m, ms, ds: rms_test(m, ms, ds, seed=-1),
    lambda m, ms, ds: select_representatives(ClusterSet(((0, 1), (2,)), 0.5), -1),
    lambda m, ms, ds: run_accelerated(m, ms, ds, seeds=Seeds(-1, 0), fixed_per_class=2,
                                      fixed_tau=0.5),
    lambda m, ms, ds: run_sweep(m, ms, ds, SweepSpec((1,), (0.5,), 1), seeds=Seeds(0, -1)),
    lambda m, ms, ds: rebuild_mutant(m, {"kind": MutatorKind.WEIGHT_SHUFFLE.value, "id": 0,
                                         "layer": 0, "neuron": 0, "seed": -1}),
], ids=["philox-negative", "philox-none", "philox-float", "philox-str", "philox-bool",
        "derived-negative", "derived-float", "stratified-sample", "generate-none", "rms-test",
        "select-representatives", "run-accelerated", "run-sweep", "manifest-entry"])
def test_a_seed_that_is_not_a_non_negative_integer_is_a_parameter_error(call):
    with pytest.raises(ParameterError, match="seed must be a non-negative integer"):
        call(*_seeding_world())


@pytest.mark.parametrize("call, message", [
    (lambda m, ms, ds: run_sweep(m, ms, ds, SweepSpec((1,), (0.5,), 1), seeds=Seeds(0, -1)),
     "seed must be a non-negative integer"),
    (lambda m, ms, ds: run_sweep(m, ms, ds, SweepSpec((1,), (0.5,), 1), seeds=Seeds(-1, 0)),
     "seed must be a non-negative integer"),
    (lambda m, ms, ds: run_accelerated(m, ms, ds, seeds=Seeds(0, -1)),
     "seed must be a non-negative integer"),
    (lambda m, ms, ds: run_accelerated(m, ms, ds, fixed_per_class=2, fixed_tau=1.5),
     "tau must lie in"),
    (lambda m, ms, ds: run_accelerated(m, ms, ds, fixed_per_class=2, fixed_tau="0.5"),
     "tau must lie in"),
], ids=["sweep-representative", "sweep-sampling", "accelerated-representative", "fixed-tau",
        "fixed-tau-text"])
def test_bad_seeds_and_a_bad_fixed_tau_raise_before_any_forward_pass(call, message):
    world = _seeding_world()
    with count_forward_passes() as counter, pytest.raises(ParameterError, match=message):
        call(*world)
    assert counter.count == 0


def test_numpy_integer_seeds_draw_as_python_ints():
    assert philox_rng(np.uint64(7)).integers(1 << 60) == philox_rng(7).integers(1 << 60)
    assert derived_seed(np.int64(3), np.uint64(2**63)) == derived_seed(3, 2**63)



@pytest.mark.parametrize("call, error", [
    (lambda m, ms, ds: generate_mutant_set(m, 2.5), TargetError),
    (lambda m, ms, ds: generate_mutant_set(m, True), TargetError),
    (lambda m, ms, ds: diverse_mutant_set(m, 2.5, 0), ValidationError),
    (lambda m, ms, ds: diverse_mutant_set(m, True, 0), ValidationError),
    (lambda m, ms, ds: bss_select(m, ds, True), ParameterError),
    (lambda m, ms, ds: bss_select(m, ds, 2.5), ParameterError),
    (lambda m, ms, ds: rms_test(m, ms, ds, fraction=True), ParameterError),
], ids=["generate-float", "generate-bool", "diverse-float", "diverse-bool", "bss-bool",
        "bss-float", "rms-bool"])
def test_counts_and_thresholds_must_be_integers(call, error):
    # True would count as 1 (one mutant, every point, the whole mutant set)
    # and 2.5 would reach range() or be rounded up silently
    world = _seeding_world()
    with count_forward_passes() as counter, pytest.raises(error, match="got (2.5|True)"):
        call(*world)
    assert counter.count == 0


def test_numpy_integer_counts_and_thresholds_are_accepted():
    model, mutants, ds = _seeding_world()
    assert [is_integer(v) for v in (3, np.int64(3), np.uint8(3), True, 3.0, "3")] == [
        True, True, True, False, False, False]
    assert len(generate_mutant_set(model, np.int64(3), seed=1)) == 3
    assert len(diverse_mutant_set(model, np.int32(3), 0)) == 3
    assert bss_select(model, ds, np.int64(4)).tolist() == bss_select(model, ds, 4).tolist()
