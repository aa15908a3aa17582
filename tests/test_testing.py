import logging

import numpy as np
import pytest

import mutspect.model as mm
from mutspect.baselines import bss_test, rms_test, rss_test
from mutspect.clustering import ClusterSet, select_representatives
from mutspect.dataset import LabeledDataset
from mutspect.errors import UndefinedScoreError, ValidationError
from mutspect.model import count_forward_passes, predictions_with_flags, serialize_model
from mutspect.mutants import (
    MutantRecord,
    MutantSet,
    MutatorKind,
    gaussian_fuzz,
    generate_mutant_set,
    neuron_effect_block,
)
from mutspect.pipeline import SweepSpec, run_accelerated, run_sweep, run_vanilla
from mutspect.testing import (
    PROPAGATED,
    TESTED,
    MutantVerdict,
    TimingRecord,
    VerdictTable,
    accelerated_test,
    check_labels,
    killing_labels,
    mutation_score,
    vanilla_test,
)
from mutspect.synth import fitted_classifier, gaussian_blobs

from conftest import (
    WALK_SIZES,
    _replace_layer,
    exploding_mutant,
    reference_predictions,
    tile_world,
    walk_world,
)

SMALL_SWEEP = SweepSpec(x_grid=(1,), tau_grid=(0.5,), repeats=1)


def killless_table(mutants, labels):
    """A vanilla table that killed nothing, over the given label set."""
    verdicts = {m: MutantVerdict(m, 0, False, TESTED) for m in mutants.ids()}
    return VerdictTable(verdicts, TimingRecord(), "vanilla", labels)


@pytest.fixture(scope="module")
def blob_world():
    ds = gaussian_blobs(60, 3, 6, seed=5, spread=0.25)
    model = fitted_classifier(ds, hidden=(8,), seed=3, margin=5.0, bias_shift=2.0)
    return ds, model


class TestUnpredictableLabels:
    """A label at or above the original's output count can never kill a
    mutant, yet it would count in the score's |L|: every tester refuses it
    before its first forward pass."""

    @pytest.fixture(scope="class")
    def world(self):
        narrow = gaussian_blobs(50, 5, 4, seed=1)
        model = fitted_classifier(narrow, hidden=(6,), seed=0)
        return model, generate_mutant_set(model, 6, seed=0), gaussian_blobs(70, 7, 4, seed=1)

    @pytest.mark.parametrize("run", [
        lambda m, ms, ds: vanilla_test(m, ms, ds),
        lambda m, ms, ds: run_vanilla(m, ms, ds),
        lambda m, ms, ds: run_accelerated(m, ms, ds),
        lambda m, ms, ds: accelerated_test(
            m, ms, ds, select_representatives(ClusterSet(((0, 1, 2, 3, 4, 5),), 0.5), 0)),
        lambda m, ms, ds: bss_test(m, ms, ds),
        lambda m, ms, ds: rms_test(m, ms, ds),
        lambda m, ms, ds: rss_test(m, ms, ds, 3),
        lambda m, ms, ds: run_sweep(m, ms, ds, SMALL_SWEEP),
        lambda m, ms, ds: run_sweep(m, ms, ds, SMALL_SWEEP,
                                    vanilla=killless_table(ms, (0, 1, 2, 3, 4))),
    ], ids=["vanilla-test", "run-vanilla", "run-accelerated", "accelerated-test", "bss", "rms",
            "rss", "sweep", "sweep-given-vanilla"])
    def test_labels_beyond_the_outputs_raise(self, world, run):
        with count_forward_passes() as counter:
            with pytest.raises(ValidationError, match="labels need 7 classes, but the model has 5"):
                run(*world)
        assert counter.count == 0

    def test_sweep_refuses_a_vanilla_table_over_another_label_set(self, world):
        model, mutants, _ = world
        narrow = gaussian_blobs(50, 5, 4, seed=2)
        with count_forward_passes() as counter:
            with pytest.raises(ValidationError, match="label set"):
                run_sweep(model, mutants, narrow, SMALL_SWEEP,
                          vanilla=killless_table(mutants, (0, 1, 2, 3)))
        assert counter.count == 0

    def test_a_wide_class_count_with_predictable_labels_is_accepted(self, world):
        model, mutants, _ = world
        narrow = gaussian_blobs(50, 5, 4, seed=2)
        wide = LabeledDataset(narrow.features, narrow.labels, 9)
        check_labels(model, wide)
        assert vanilla_test(model, mutants, wide).labels == (0, 1, 2, 3, 4)


class TestKillingLabels:
    def test_identical_mutant_empty(self, blob_world):
        ds, model = blob_world
        assert killing_labels(model, model, ds) == set()

    def test_constant_class_mutant(self, blob_world):
        ds, model = blob_world
        # force predictions to a constant class via an output-layer bias spike
        import mutspect.model as mm

        layers = list(model.layers)
        b = layers[-1].biases.copy()
        b[0] += 1e6
        layers[-1] = mm.DenseLayer(layers[-1].weights.copy(), b, mm.SOFTMAX)
        constant = mm.FcnnClassifier(tuple(layers))
        labels = killing_labels(model, constant, ds)
        preds = predictions_with_flags(model, ds.features)
        expected = {
            int(l)
            for l in np.unique(ds.labels[(preds == ds.labels) & (ds.labels != 0)])
        }
        assert labels == expected

    def test_brute_force_oracle(self, blob_world):
        ds, model = blob_world
        mutant = gaussian_fuzz(model, 0, 1, 3.0, seed=11).model
        got = killing_labels(model, mutant, ds)
        want = set()
        for i in range(len(ds)):
            x, label = ds.features[i : i + 1], int(ds.labels[i])
            if (predictions_with_flags(model, x)[0] == label
                    and predictions_with_flags(mutant, x)[0] != label):
                want.add(label)
        assert got == want


def table_from_counts(counts, labels=(0, 1, 2), mode="vanilla"):
    verdicts = {
        m: MutantVerdict(m, c, c > 0, TESTED) for m, c in enumerate(counts)
    }
    return VerdictTable(verdicts, TimingRecord({"testing": 1.0}, len(counts)), mode, labels)


class TestMutationScore:
    def test_all_killed_by_every_label(self):
        table = table_from_counts([3, 3], labels=(0, 1, 2))
        assert mutation_score(table) == 1.0

    def test_none_killed(self):
        table = table_from_counts([0, 0, 0])
        assert mutation_score(table) == 0.0

    def test_direct_formula(self):
        table = table_from_counts([1, 2], labels=(0, 1, 2))
        assert mutation_score(table) == pytest.approx(0.5)

    def test_empty_errors(self):
        table = VerdictTable({}, TimingRecord({}, 0), "vanilla", (0, 1))
        with pytest.raises(UndefinedScoreError):
            mutation_score(table)

    def test_untested_excluded(self):
        verdicts = {
            0: MutantVerdict(0, 3, True, TESTED),
            1: MutantVerdict(1, None, None, "untested"),
        }
        table = VerdictTable(verdicts, TimingRecord({}, 1), "rms", (0, 1, 2))
        assert mutation_score(table) == 1.0


class TestVanilla:
    def test_counts_match_brute_force(self, blob_world):
        ds, model = blob_world
        mutants = generate_mutant_set(model, 20, seed=77)
        table = vanilla_test(model, mutants, ds)
        assert table.timing.tested_count == 20
        for rec in mutants.mutants:
            want = len(killing_labels(model, rec.model, ds))
            assert table.verdicts[rec.mutant_id].killing_count == want

    def test_original_equal_mutant_survives(self, blob_world):
        ds, model = blob_world
        rec = gaussian_fuzz(model, 0, 0, 0.0, seed=1, mutant_id=0)
        table = vanilla_test(model, MutantSet(model, [rec], 0), ds)
        verdict = table.verdicts[0]
        assert verdict.killed is False and verdict.killing_count == 0

    def test_provenance_all_tested(self, blob_world):
        ds, model = blob_world
        mutants = generate_mutant_set(model, 5, seed=1)
        table = vanilla_test(model, mutants, ds)
        assert all(v.provenance == TESTED for v in table.verdicts.values())


class TestAccelerated:
    def test_all_singletons_equals_vanilla(self, blob_world):
        ds, model = blob_world
        mutants = generate_mutant_set(model, 12, seed=13)
        vt = vanilla_test(model, mutants, ds)
        clusters = ClusterSet(tuple((m,) for m in mutants.ids()), tau=0.99)
        reps = select_representatives(clusters, seed=0)
        at = accelerated_test(model, mutants, ds, reps)
        assert at.timing.tested_count == 12
        assert mutation_score(at) == mutation_score(vt)
        for m in mutants.ids():
            assert at.verdicts[m].killing_count == vt.verdicts[m].killing_count
            assert at.verdicts[m].killed == vt.verdicts[m].killed

    def test_propagated_verdicts_copied_verbatim(self, blob_world):
        ds, model = blob_world
        mutants = generate_mutant_set(model, 9, seed=31)
        clusters = ClusterSet((tuple(mutants.ids()),), tau=0.5)
        reps = select_representatives(clusters, seed=2)
        table = accelerated_test(model, mutants, ds, reps)
        rep = reps.representatives()[0]
        base = table.verdicts[rep]
        for m, verdict in table.verdicts.items():
            # count and classical status travel together
            assert verdict.killing_count == base.killing_count
            assert verdict.killed == base.killed

    def test_duplicate_cluster_propagates_exactly(self, blob_world):
        ds, model = blob_world
        base = gaussian_fuzz(model, 0, 1, 1.5, seed=21, mutant_id=0)
        dup1 = gaussian_fuzz(model, 0, 1, 1.5, seed=21, mutant_id=1)
        dup2 = gaussian_fuzz(model, 0, 1, 1.5, seed=21, mutant_id=2)
        mutants = MutantSet(model, [base, dup1, dup2], 0)
        vt = vanilla_test(model, mutants, ds)
        clusters = ClusterSet(((0, 1, 2),), tau=0.9)
        reps = select_representatives(clusters, seed=5)
        at = accelerated_test(model, mutants, ds, reps)
        assert at.timing.tested_count == 1
        rep = reps.representatives()[0]
        for m in (0, 1, 2):
            assert at.verdicts[m].killing_count == vt.verdicts[m].killing_count
            if m != rep:
                assert at.verdicts[m].provenance == PROPAGATED
                assert at.verdicts[m].representative_id == rep
        assert mutation_score(at) == mutation_score(vt)

    def test_quarantined_always_tested(self, blob_world):
        ds, model = blob_world
        mutants = generate_mutant_set(model, 4, seed=2)
        clusters = ClusterSet(((0, 1, 2),), tau=0.5)
        reps = select_representatives(clusters, seed=0)
        at = accelerated_test(model, mutants, ds, reps, quarantined=(3,))
        assert at.verdicts[3].provenance == TESTED
        assert at.timing.tested_count == 2  # one representative + one quarantined

    def test_overhead_folded_into_timing(self, blob_world):
        # the tester times only itself; the accelerated run folds the phases
        # that chose the representatives into the same record
        from mutspect.pipeline import run_accelerated

        ds, model = blob_world
        mutants = generate_mutant_set(model, 3, seed=2)
        clusters = ClusterSet(tuple((m,) for m in mutants.ids()), tau=0.9)
        reps = select_representatives(clusters, seed=0)
        assert set(accelerated_test(model, mutants, ds, reps).timing.phases) == {"testing"}
        res = run_accelerated(model, mutants, ds, fixed_per_class=2, fixed_tau=0.9)
        phases = res.table.timing.phases
        assert set(phases) == {"sampling", "spectra", "graph", "clustering", "testing"}
        assert all(seconds > 0.0 for seconds in phases.values())
        assert res.table.timing.total_seconds == sum(phases.values())


# ---------------------------------------------------------------------------
# vanilla_test over the row-blocked walk, against verdicts built from the
# full-product reference.  CI runs these a second time with one BLAS thread.
# ---------------------------------------------------------------------------


def reference_verdicts(original, records, dataset):
    original_preds = reference_predictions(original, dataset.features)
    verdicts = {}
    for record in records:
        preds = reference_predictions(record.model, dataset.features)
        kills = (original_preds == dataset.labels) & (preds != dataset.labels)
        verdicts[record.mutant_id] = MutantVerdict(
            record.mutant_id, len(set(dataset.labels[kills].tolist())),
            bool((preds != original_preds).any()), TESTED)
    return verdicts


def expected_warnings(records, dataset):
    """The tester's warnings, one per mutant id with non-finite rows, in id order."""
    expected = []
    for record in sorted(records, key=lambda r: r.mutant_id):
        bad = int((reference_predictions(record.model, dataset.features) == -1).sum())
        if bad:
            expected.append(f"mutant {record.mutant_id} produced non-finite outputs on "
                            f"{bad} points; counted as mispredictions")
    return expected


def distinct_models(original, records):
    """Mutant models whose bytes differ from the original's and from each other's."""
    return len({serialize_model(r.model) for r in records} - {serialize_model(original)})


def with_twins(original, records):
    """``records`` and, after their ids, byte-equal twins built as separate
    objects: a walk_world record rebuilt twice (NEB), a fuzz made twice from
    one seed, the -0.0 record rebuilt, and an exploding mutant made twice."""
    signed = original.layers[1].weights.copy()
    signed[3, 7] = -0.0  # walk_world's -0.0 record
    models = [
        neuron_effect_block(original, 0, 3).model,
        gaussian_fuzz(original, 1, 7, 0.5, seed=9).model,
        exploding_mutant(original, 0).model,
        neuron_effect_block(original, 0, 3).model,
        _replace_layer(original, 1, signed, original.layers[1].biases),
        gaussian_fuzz(original, 1, 7, 0.5, seed=9).model,
        exploding_mutant(original, 0).model,
    ]
    return [*records, *(
        MutantRecord(len(records) + i, MutatorKind.GAUSSIAN_FUZZING, 0, 0, None, {}, 0, model)
        for i, model in enumerate(models))]


def labelled(original, points, class_count=5, seed=0):
    """Labels mostly equal to the original's predictions, so that mutants
    can be killed, with every fifth point relabelled at random."""
    labels = reference_predictions(original, points)
    rng = np.random.default_rng(seed)
    flip = np.arange(len(points)) % 5 == 4
    labels[flip] = rng.integers(0, 5, size=flip.sum())
    if class_count > 5:
        labels[::7] = class_count - 1  # a label no output can predict
    return LabeledDataset(points, labels, class_count)


@pytest.mark.one_blas_thread
class TestWalkOracle:
    @pytest.fixture(scope="class")
    def world(self):
        original, records, _ = walk_world()
        return original, records

    @pytest.mark.parametrize("size", WALK_SIZES.values(), ids=WALK_SIZES.keys())
    def test_verdicts_match_the_full_product_reference(self, world, size):
        original, records = world
        n = size(mm._block_rows(64))
        points = np.random.default_rng(n).normal(size=(n, original.input_dim))
        dataset = labelled(original, points)
        table = vanilla_test(original, MutantSet(original, records, 0), dataset)
        assert table.verdicts == reference_verdicts(original, records, dataset)
        assert list(table.verdicts) == sorted(table.verdicts)

    @pytest.mark.parametrize("size", WALK_SIZES.values(), ids=WALK_SIZES.keys())
    def test_byte_equal_mutants_keep_their_reference_verdicts(self, world, size, caplog):
        # pins the verdicts byte-equal mutants share: the no-op and the
        # original read the original's row, each set of twins its first copy's,
        # and every id keeps its reference verdict and its own warning
        original, records = world
        pool = with_twins(original, records)
        n = size(mm._block_rows(64))
        points = np.random.default_rng(n).normal(size=(n, original.input_dim))
        dataset = labelled(original, points)
        with caplog.at_level(logging.WARNING, logger="mutspect.testing"):
            table = vanilla_test(original, MutantSet(original, pool[::-1], 0), dataset)
        assert table.verdicts == reference_verdicts(original, pool, dataset)
        assert [r.getMessage() for r in caplog.records] == expected_warnings(pool, dataset)

    def test_labels_indexed_over_the_labels_present(self, world):
        original, records = world
        n = 2 * mm._block_rows(64) + 1
        points = np.random.default_rng(3).normal(size=(n, original.input_dim))
        mutants = MutantSet(original, records, 0)
        dataset = labelled(original, points, class_count=2**32 - 1)
        with pytest.raises(ValidationError, match=f"need {2**32 - 1} classes, but the model has 5"):
            vanilla_test(original, mutants, dataset)
        # a class count of 2**32 - 1 with label 3 absent: columns for 0, 1, 2 and 4 only
        labels = np.where(dataset.labels >= 3, 4, dataset.labels)
        dataset = LabeledDataset(dataset.features, labels, 2**32 - 1)
        table = vanilla_test(original, mutants, dataset)
        assert table.labels == (0, 1, 2, 4)
        assert table.verdicts == reference_verdicts(original, records, dataset)


def per_model_reference(original, records, dataset):
    """vanilla_test's verdicts and warnings, read the way the tester read
    them before it took kill facts from model.agrees: over the same walk,
    with every record's model run (byte-equal ones included), each model's
    classes from model.predicted_classes and the kill rule against the
    original's, model by model."""
    records = sorted(records, key=lambda r: r.mutant_id)
    models = [original, *(r.model for r in records)]
    killed = [set() for _ in models]
    differs = [False] * len(models)
    bad = [0] * len(models)
    for rows, members, logits in mm.forward_blocks(original, models, dataset.features):
        labels = dataset.labels[rows]
        for k, out in zip(members, logits):
            preds = mm.predicted_classes(out)
            original_preds = preds if k == 0 else original_preds
            killed[k] |= set(labels[(original_preds == labels) & (preds != labels)].tolist())
            differs[k] |= bool((preds != original_preds).any())
            bad[k] += int((preds == -1).sum())
    verdicts = {r.mutant_id: MutantVerdict(r.mutant_id, len(killed[k]), differs[k], TESTED)
                for k, r in enumerate(records, 1)}
    warnings = [f"mutant {r.mutant_id} produced non-finite outputs on {bad[k]} points; "
                "counted as mispredictions" for k, r in enumerate(records, 1) if bad[k]]
    return verdicts, warnings


@pytest.mark.one_blas_thread
@pytest.mark.oldest_supported
class TestAgreementOracle:
    """vanilla_test reads kill facts off each tile's agreement with the
    original's classes; they must equal the per-model reading, on tile_world's
    models (exploding, tied, deeper and shallower ones among them), two whose
    rows all need predicted_classes' own reading, and byte-equal twins, in
    tiles of one model and in stacked tiles."""

    @pytest.fixture(scope="class")
    def world(self):
        original, models, _ = tile_world()
        last = len(original.layers) - 1
        out = original.layers[last]
        # every class ties on every point, so each row predicts class 0
        zeros = np.zeros_like(out.weights)
        flat = _replace_layer(original, last, zeros, np.zeros_like(out.biases))
        # class 1 sits 2**-45 above class 0, a near-tie on the rows where they lead
        weights, biases = out.weights.copy(), out.biases.copy()
        weights[1], biases[1] = weights[0], biases[0] + 2.0 ** -45
        nudged = _replace_layer(original, last, weights, biases)
        records = [MutantRecord(i, MutatorKind.GAUSSIAN_FUZZING, 0, 0, None, {}, 0, model)
                   for i, model in enumerate([*models, flat, nudged])]
        return original, with_twins(original, records)

    @staticmethod
    def check(original, pool, n, caplog):
        points = np.random.default_rng(n).normal(size=(n, original.input_dim))
        dataset = labelled(original, points)
        with caplog.at_level(logging.WARNING, logger="mutspect.testing"):
            table = vanilla_test(original, MutantSet(original, pool[::-1], 0), dataset)
        verdicts, warnings = per_model_reference(original, pool, dataset)
        assert table.verdicts == verdicts
        assert [r.getMessage() for r in caplog.records] == warnings
        assert len(warnings) >= 3  # the inputs do explode

    @pytest.mark.parametrize("size", WALK_SIZES.values(), ids=WALK_SIZES.keys())
    def test_verdicts_and_warnings_equal_the_per_model_reading(self, world, size, caplog):
        original, pool = world
        self.check(original, pool, size(mm._block_rows(64)), caplog)

    @pytest.mark.parametrize("tile", [1, 3, 200])
    def test_stacked_tiles_equal_the_per_model_reading(self, world, tile, monkeypatch, caplog):
        original, pool = world
        n = 37
        monkeypatch.setattr(mm, "TILE_BYTES", 512 * n * tile)  # tiles of `tile` at width 64
        self.check(original, pool, n, caplog)


@pytest.mark.one_blas_thread
class TestBlockedAccounting:
    """vanilla_test over several row blocks of a shrunken budget."""

    ROWS = 40  # rows per block at width 64

    @pytest.fixture
    def world(self, monkeypatch):
        monkeypatch.setattr(mm, "BLOCK_BYTES", self.ROWS * 64 * 8)
        original, records, _ = walk_world(seed=2)
        points = np.random.default_rng(4).normal(size=(4 * self.ROWS + 3, original.input_dim))
        assert len(mm._row_blocks(len(points), mm._block_rows(64))) == 5
        return original, records, labelled(original, points)

    def test_forward_passes_are_exact(self, world):
        # one pass per point for the original and each distinct mutant model:
        # the no-op and the original itself share the original's, while the
        # -0.0 record is a model of its own
        original, records, dataset = world
        with count_forward_passes() as counter:
            vanilla_test(original, MutantSet(original, records, 0), dataset)
        assert distinct_models(original, records) == len(records) - 2
        assert counter.count == (distinct_models(original, records) + 1) * len(dataset)

    def test_byte_equal_twins_share_one_evaluation(self, world):
        original, records, dataset = world
        pool = with_twins(original, records)
        with count_forward_passes() as counter:
            vanilla_test(original, MutantSet(original, pool, 0), dataset)
        # the fuzz and the explosion are new models, each made twice; the
        # other twins repeat walk_world records
        assert distinct_models(original, pool) == len(records) - 2 + 2
        assert counter.count == (distinct_models(original, pool) + 1) * len(dataset)

    def test_original_overflow_in_the_last_block_raises(self, world, caplog):
        original, records, dataset = world
        features = dataset.features.copy()
        features[-1] = 1e308
        assert reference_predictions(original, features)[:-1].min() >= 0
        assert reference_predictions(original, features)[-1] == -1
        bad = LabeledDataset(features, dataset.labels, dataset.class_count)
        with caplog.at_level(logging.WARNING, logger="mutspect.testing"):
            with pytest.raises(ValidationError, match="^original model produced non-finite outputs$"):
                vanilla_test(original, MutantSet(original, records, 0), bad)
        assert caplog.records == []

    def test_mutant_warnings_keep_text_totals_and_id_order(self, world, caplog):
        original, records, dataset = world
        shuffled = [records[i] for i in np.random.default_rng(0).permutation(len(records))]
        with caplog.at_level(logging.WARNING, logger="mutspect.testing"):
            vanilla_test(original, MutantSet(original, shuffled, 0), dataset)
        expected = expected_warnings(records, dataset)
        assert len(expected) == 2
        assert [r.getMessage() for r in caplog.records] == expected
