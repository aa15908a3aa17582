"""Kill analysis, vanilla and representative-propagated mutation testing.

Two kill semantics coexist and are computed in one pass per model:

* label-kill counts: |killingLabels(mutant)| where a point kills a mutant iff
  the original predicts the point's label correctly and the mutant does not.
  The mutation score is sum(counts) / (|M| * |L|).
* classical killed/survived: a mutant survives iff its predicted class
  matches the original's on every test point (class-level match; float-exact
  softmax comparison would leave no survivors).

Mutants whose outputs go non-finite on a point are treated as mispredicting
that point (an exploded mutant is maximally different) and the event is
logged.

vanilla_test walks the test set in row blocks (model.forward_blocks) with
the original as the first model and each distinct mutant model after it,
once: models are equal when their layers' digests are
(model.DenseLayer.digest), and a mutant equal to the original or to a lower
id reads that model's verdict.  The original runs once per block, and each
mutant resumes from the original's cached activation at its first changed
layer.  The walk yields one flat stream of tiles of class-major logits, a
block's tiles together and the first starting with the original, whose
classes c0 model.predicted_classes reads off them.  No mutant's classes are
computed: model.agrees tells, per tile, where each model predicts c0 (a row
with a unique maximum and no near-tie by one comparison, the others by
predicted_classes).  A point kills a model where the original is correct and
the model disagrees; per model the tester accumulates the killed labels,
whether it disagrees anywhere and the count of rows with a non-finite
maximum.  Every mutant's verdict and warning follow from its model's, in id
order.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .dataset import LabeledDataset
from .errors import UndefinedScoreError, ValidationError
from .model import (
    FcnnClassifier,
    agrees,
    forward_blocks,
    predicted_classes,
    predictions_with_flags,
)
from .mutants import MutantSet
from .util import phase_timer

log = logging.getLogger(__name__)

TESTED = "tested"
PROPAGATED = "propagated"
UNTESTED = "untested"


@dataclass(frozen=True)
class MutantVerdict:
    mutant_id: int
    killing_count: int | None  # |killingLabels|; None when untested
    killed: bool | None  # classical reading: outputs differ somewhere
    provenance: str  # tested | propagated | untested
    representative_id: int | None = None

    def __post_init__(self):
        if self.provenance == PROPAGATED and self.representative_id is None:
            raise ValidationError("propagated verdicts must cite a representative")


@dataclass
class TimingRecord:
    """Wall-clock seconds per phase plus the tested-mutant count."""

    phases: dict[str, float] = field(default_factory=dict)
    tested_count: int = 0

    @property
    def total_seconds(self) -> float:
        return sum(self.phases.values())


@dataclass
class VerdictTable:
    verdicts: dict[int, MutantVerdict]
    timing: TimingRecord
    mode: str
    labels: tuple[int, ...]  # label set of the dataset actually used

    def verdict(self, mutant_id: int) -> MutantVerdict:
        return self.verdicts[mutant_id]

    def tested_ids(self) -> list[int]:
        return sorted(
            m for m, v in self.verdicts.items() if v.provenance == TESTED
        )

    def counts(self) -> dict[int, int]:
        return {
            m: v.killing_count
            for m, v in sorted(self.verdicts.items())
            if v.killing_count is not None
        }


def killing_labels(
    original: FcnnClassifier, mutant: FcnnClassifier, dataset: LabeledDataset
) -> set[int]:
    """Ground-truth labels of the points that kill the mutant: the original
    predicts their label and the mutant does not (a -1 row mispredicts every
    label)."""
    original_preds = predictions_with_flags(original, dataset.features)
    mutant_preds = predictions_with_flags(mutant, dataset.features)
    kills = (original_preds == dataset.labels) & (mutant_preds != dataset.labels)
    return {int(label) for label in np.unique(dataset.labels[kills])}


def check_labels(original: FcnnClassifier, dataset: LabeledDataset) -> None:
    """ValidationError when a label is one the original cannot predict: such a
    label can never kill a mutant, yet it would count in the score's |L|."""
    top = int(dataset.labels.max())
    if top >= original.num_outputs:
        raise ValidationError(f"dataset labels need {top + 1} classes, "
                              f"but the model has {original.num_outputs} outputs")


def mutation_score(table: VerdictTable) -> float:
    """sum of killingLabels sizes over (scored mutants * label-set size).

    Untested mutants (no count) are excluded from the denominator, so for
    subset techniques the score is over the tested subset.
    """
    counts = table.counts()
    if not counts:
        raise UndefinedScoreError("no scored mutants")
    return sum(counts.values()) / (len(counts) * len(table.labels))


def vanilla_test(
    original: FcnnClassifier,
    mutants: MutantSet,
    dataset: LabeledDataset,
    mode: str = "vanilla",
) -> VerdictTable:
    """Exhaustive testing: every mutant gets a verdict over every point of the
    dataset, and each distinct model is evaluated once.

    This is the one tester: the subset baselines and the accelerated run
    call it on the mutants or points they select.
    """
    check_labels(original, dataset)
    phases: dict[str, float] = {}
    with phase_timer(phases, "testing"):
        records = sorted(mutants.mutants, key=lambda m: m.mutant_id)
        present = dataset.labels_present()
        label_index = np.searchsorted(present, dataset.labels)
        # one row per distinct model, the original's first, so it leads each
        # block's first tile; equal models share the first one's row
        keys = [r.model.digests for r in records]
        first = {original.digests: original}
        for key, record in zip(keys, records):
            first.setdefault(key, record.model)
        row = {key: k for k, key in enumerate(first)}
        models = list(first.values())
        killed = np.zeros((len(models), len(present)), dtype=bool)
        differs = np.zeros(len(models), dtype=bool)
        non_finite = np.zeros(len(models), dtype=np.int64)
        for rows, members, logits in forward_blocks(original, models, dataset.features):
            if members[0] == 0:  # a block's first tile, led by the original
                c0 = predicted_classes(logits[0])
                if (c0 == -1).any():
                    raise ValidationError("original model produced non-finite outputs")
                correct, block_labels = c0 == dataset.labels[rows], label_index[rows]
            same, top = agrees(logits, c0)
            for k, miss, peak in zip(members, ~same, top):
                killed[k, block_labels[correct & miss]] = True  # the kill rule
                differs[k] |= miss.any()
                non_finite[k] += np.count_nonzero(~np.isfinite(peak))
        verdicts = {}
        for record, k in zip(records, map(row.get, keys)):
            if non_finite[k]:
                # -1 rows (non-finite outputs) mispredict everything by policy
                log.warning(
                    "mutant %d produced non-finite outputs on %d points; "
                    "counted as mispredictions",
                    record.mutant_id,
                    int(non_finite[k]),
                )
            verdicts[record.mutant_id] = MutantVerdict(
                record.mutant_id, int(killed[k].sum()), bool(differs[k]), TESTED
            )
    timing = TimingRecord(phases, tested_count=len(verdicts))
    return VerdictTable(verdicts, timing, mode, tuple(int(l) for l in present))


def accelerated_test(
    original: FcnnClassifier,
    mutants: MutantSet,
    dataset: LabeledDataset,
    representatives,
    quarantined=(),
    mode: str = "spectral",
) -> VerdictTable:
    """Full-dataset testing for representatives only; members inherit verdicts.

    The representative's killing count and classical status are copied
    verbatim to every member of its cluster.  Quarantined mutants bypass
    clustering and are always tested individually.  The timing record holds
    the tester's own phase; the caller adds the phases that chose the
    representatives.
    """
    tested = mutants.subset([*representatives.representatives(), *quarantined])
    table = vanilla_test(original, tested, dataset, mode)
    for rep, members in representatives.pairs:
        base = table.verdicts[rep]
        for member in members:
            if member != rep:
                table.verdicts[member] = MutantVerdict(
                    member, base.killing_count, base.killed, PROPAGATED, rep
                )
    return table


def accuracy(model: FcnnClassifier, dataset: LabeledDataset) -> float:
    preds = predictions_with_flags(model, dataset.features)
    return float(np.mean(preds == dataset.labels))
