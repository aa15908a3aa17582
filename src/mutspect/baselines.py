"""Comparison techniques: RMS, BSS, RSS and the no-transform clustering variant.

* RMS (random mutant selection): vanilla-test a random fraction of the
  mutants on the full dataset; score over the tested subset only.
* BSS (boundary sample selection): vanilla-test all mutants, but only on the
  ceil(|T|/threshold) points with the smallest softmax margin (top1 - top2)
  under the original model.
* RSS (random sample selection): vanilla-test all mutants on a stratified
  sample of the same size the spectral pipeline uses.
* raw clustering: the spectral pipeline with raw sampled output columns as
  feature vectors instead of DFT magnitudes.

Every baseline collapses to vanilla at its degenerate parameter
(fraction 1, threshold 1, per-class rate >= class population).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .clustering import DEFAULT_REDUCTION, ReductionConstraint
from .dataset import LabeledDataset
from .errors import ParameterError
from .model import FcnnClassifier, batch_outputs
from .mutants import MutantSet
from .pipeline import PipelineResult, Seeds, run_accelerated
from .spectra import TRANSFORM_RAW, stratified_sample
from .testing import (
    UNTESTED,
    MutantVerdict,
    TimingRecord,
    VerdictTable,
    _test_records,
)
from .util import phase_timer, philox_rng


@dataclass(frozen=True)
class BaselineConfig:
    kind: str  # rms | bss | rss | raw
    rms_fraction: float = 0.75
    bss_threshold: int = 10
    per_class_rate: int | None = None
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.rms_fraction <= 1.0:
            raise ParameterError("rms fraction must lie in (0, 1]")
        if self.bss_threshold < 1:
            raise ParameterError("bss threshold must be at least 1")


def rms_test(
    original: FcnnClassifier,
    mutants: MutantSet,
    dataset: LabeledDataset,
    fraction: float = 0.75,
    seed: int = 0,
) -> VerdictTable:
    """Vanilla-test ceil(fraction * |M|) randomly chosen mutants on full T.

    Selection: first k entries of ``philox_rng(seed).permutation(ids)``,
    ids ascending.  Unselected mutants carry provenance "untested" and do
    not enter the score.
    """
    if not 0.0 < fraction <= 1.0:
        raise ParameterError("fraction must lie in (0, 1]")
    ids = sorted(mutants.ids())
    k = math.ceil(fraction * len(ids))
    chosen = sorted(philox_rng(seed).permutation(np.asarray(ids))[:k].tolist())
    phases: dict[str, float] = {}
    with phase_timer(phases, "testing"):
        records = [mutants.by_id(m) for m in chosen]
        verdicts = _test_records(original, records, dataset)
    for m in ids:
        if m not in verdicts:
            verdicts[m] = MutantVerdict(m, None, None, UNTESTED)
    timing = TimingRecord(phases, tested_count=len(chosen))
    return VerdictTable(
        verdicts, timing, "rms", tuple(int(l) for l in dataset.labels_present())
    )


def _test_on_subset(original, mutants, dataset, mode: str, select) -> VerdictTable:
    """Every mutant tested on ``dataset.subset(select())``; selection is timed."""
    phases: dict[str, float] = {}
    with phase_timer(phases, "selection"):
        sub = dataset.subset(select())
    with phase_timer(phases, "testing"):
        records = sorted(mutants.mutants, key=lambda m: m.mutant_id)
        verdicts = _test_records(original, records, sub)
    timing = TimingRecord(phases, tested_count=len(verdicts))
    return VerdictTable(
        verdicts, timing, mode, tuple(int(l) for l in sub.labels_present())
    )


def bss_select(
    original: FcnnClassifier, dataset: LabeledDataset, threshold: int = 10
) -> np.ndarray:
    """Indices of the ceil(|T|/threshold) smallest-margin points.

    Margin of a point is (largest - second largest) softmax entry under the
    original model; ties resolve by dataset index.  The result is ordered by
    (margin, index).
    """
    if threshold < 1:
        raise ParameterError("threshold must be at least 1")
    outputs = batch_outputs(original, dataset.features)
    if outputs.shape[1] < 2:
        margins = np.ones(len(dataset))
    else:
        top2 = np.partition(outputs, -2, axis=1)[:, -2:]
        margins = top2[:, 1] - top2[:, 0]
    order = np.lexsort((np.arange(len(dataset)), margins))
    k = max(1, math.ceil(len(dataset) / threshold))
    return order[:k]


def bss_test(
    original: FcnnClassifier,
    mutants: MutantSet,
    dataset: LabeledDataset,
    threshold: int = 10,
) -> VerdictTable:
    """All mutants tested, but only on the boundary subset of the dataset."""
    return _test_on_subset(original, mutants, dataset, "bss",
                           lambda: bss_select(original, dataset, threshold))


def rss_test(
    original: FcnnClassifier,
    mutants: MutantSet,
    dataset: LabeledDataset,
    per_class: int,
    seed: int = 0,
) -> VerdictTable:
    """All mutants tested on a stratified sample of the dataset."""
    return _test_on_subset(original, mutants, dataset, "rss",
                           lambda: stratified_sample(dataset, per_class, seed).indices)


def raw_cluster_test(
    original: FcnnClassifier,
    mutants: MutantSet,
    dataset: LabeledDataset,
    constraint: ReductionConstraint = DEFAULT_REDUCTION,
    seeds: Seeds = Seeds(),
    fixed_per_class: int | None = None,
    fixed_tau: float | None = None,
    threads: int = 1,
) -> PipelineResult:
    """The spectral pipeline minus the transform: cluster raw output columns."""
    return run_accelerated(
        original,
        mutants,
        dataset,
        constraint,
        seeds,
        transform=TRANSFORM_RAW,
        fixed_per_class=fixed_per_class,
        fixed_tau=fixed_tau,
        threads=threads,
        mode="raw",
    )


def baseline_test(
    original: FcnnClassifier,
    mutants: MutantSet,
    dataset: LabeledDataset,
    config: BaselineConfig,
) -> VerdictTable:
    """Dispatch a subset baseline (rms/bss/rss) from its config record."""
    if config.kind == "rms":
        return rms_test(original, mutants, dataset, config.rms_fraction, config.seed)
    if config.kind == "bss":
        return bss_test(original, mutants, dataset, config.bss_threshold)
    if config.kind == "rss":
        if config.per_class_rate is None:
            raise ParameterError("rss needs per_class_rate (the rate the spectral run used)")
        return rss_test(original, mutants, dataset, config.per_class_rate, config.seed)
    raise ParameterError(f"unknown baseline kind {config.kind!r}")
