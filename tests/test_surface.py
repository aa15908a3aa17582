"""Interface-level checks: stored mutant models, margin tie handling."""

import numpy as np
import pytest

from mutspect.baselines import bss_select
from mutspect.dataset import LabeledDataset
from mutspect.model import SOFTMAX, DenseLayer, FcnnClassifier, load_model
from mutspect.mutants import generate_mutant_set
from mutspect.synth import fitted_classifier, gaussian_blobs


@pytest.fixture(scope="module")
def world():
    ds = gaussian_blobs(80, 4, 6, seed=9, spread=0.3)
    model = fitted_classifier(ds, hidden=(8,), seed=2, margin=5.0, bias_shift=2.0)
    mutants = generate_mutant_set(model, 12, seed=3)
    return ds, model, mutants


def test_store_models_flag_writes_loadable_mutants(world, tmp_path):
    from mutspect.cli import main
    from mutspect.model import model_hash, save_model

    ds, model, mutants = world
    model_path = tmp_path / "m.fcnn"
    save_model(model, model_path)
    rc = main(
        [
            "generate",
            "--model", str(model_path),
            "--count", "4",
            "--seed", "5",
            "--out", str(tmp_path),
            "--store-models",
        ]
    )
    assert rc == 0
    regenerated = generate_mutant_set(model, 4, seed=5)
    for record in regenerated.mutants:
        stored = load_model(tmp_path / f"mutant_{record.mutant_id:04d}.fcnn")
        assert model_hash(stored) == model_hash(record.model)


def test_bss_zero_margin_ties_by_index():
    # all-zero weights: every output is uniform, every margin is exactly 0,
    # so selection falls back to dataset-index order
    net = FcnnClassifier((DenseLayer(np.zeros((3, 2)), np.zeros(3), SOFTMAX),))
    ds = LabeledDataset(np.random.default_rng(0).normal(size=(10, 2)),
                        np.arange(10) % 3, 3)
    sel = bss_select(net, ds, threshold=5)
    assert sel.tolist() == [0, 1]

