"""Every file writer replaces an existing regular file by a new one (see
util.open_fresh): a rewrite must give the same bytes as a fresh write, and a
symlink or hard link must be written through."""

import os

import pytest

from mutspect.dataset import save_dataset
from mutspect.model import save_model
from mutspect.mutants import MutantSet, generate_mutant_set, save_manifest
from mutspect.pipeline import SweepResult, SweepSpec, run_sweep
from mutspect.reports import (
    COMPARE_CSV_COLUMNS,
    write_compare_csv,
    write_json,
    write_rho_csv,
    write_sweep_csv,
    write_verdict_csv,
)
from mutspect.synth import fitted_classifier, gaussian_blobs
from mutspect.testing import vanilla_test


@pytest.fixture(scope="module")
def world():
    ds = gaussian_blobs(60, 3, 4, seed=1, spread=0.3)
    model = fitted_classifier(ds, hidden=(6,), seed=2, margin=5.0, bias_shift=2.0)
    mutants = generate_mutant_set(model, 6, seed=3)
    few = MutantSet(model, mutants.mutants[:2], mutants.generation_seed)
    sweep = run_sweep(model, mutants, ds, SweepSpec((1,), (0.5,), 1))
    row = dict.fromkeys(COMPARE_CSV_COLUMNS, 0.25) | {"technique": "spectral", "runs": 1}
    # per writer: (writer(path, content), first content, second content)
    return {
        "write_json": (write_json, {"a": list(range(40))}, {"b": 1}),
        "save_model": (lambda p, m: save_model(m, p), mutants.mutants[0].model, model),
        "save_dataset": (lambda p, d: save_dataset(d, p), ds, ds.subset(range(5))),
        "save_manifest": (lambda p, m: save_manifest(m, p), mutants, few),
        "write_verdict_csv": (lambda p, t: write_verdict_csv(p, t, mutants),
                              vanilla_test(model, mutants, ds), vanilla_test(model, few, ds)),
        "write_compare_csv": (write_compare_csv, [row, row], [row]),
        "write_sweep_csv": (write_sweep_csv, sweep, SweepResult([], {}, {}, 0.0)),
        "write_rho_csv": (write_rho_csv, sweep, SweepResult([], {}, {}, 0.0)),
    }


WRITERS = ("write_json", "save_model", "save_dataset", "save_manifest",
           "write_verdict_csv", "write_compare_csv", "write_sweep_csv", "write_rho_csv")


@pytest.mark.parametrize("name", WRITERS)
def test_rewrite_equals_fresh_write(world, tmp_path, name):
    writer, first, second = world[name]
    writer(tmp_path / "fresh", second)
    writer(tmp_path / "out", first)
    assert (tmp_path / "out").read_bytes() != (tmp_path / "fresh").read_bytes()
    writer(tmp_path / "out", second)
    assert (tmp_path / "out").read_bytes() == (tmp_path / "fresh").read_bytes()


@pytest.mark.parametrize("name", WRITERS)
def test_symlink_is_written_through_and_kept(world, tmp_path, name):
    writer, first, second = world[name]
    writer(tmp_path / "fresh", second)
    target, link = tmp_path / "target", tmp_path / "link"
    writer(target, first)
    link.symlink_to(target)
    writer(link, second)
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_bytes() == (tmp_path / "fresh").read_bytes()


def test_hard_link_is_written_through(world, tmp_path):
    writer, first, second = world["write_json"]
    writer(tmp_path / "fresh", second)
    writer(tmp_path / "a", first)
    os.link(tmp_path / "a", tmp_path / "b")
    writer(tmp_path / "b", second)
    assert (tmp_path / "a").read_bytes() == (tmp_path / "fresh").read_bytes()

