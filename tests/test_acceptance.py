"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
All fixtures are fully seeded, so every criterion is deterministic.
"""

import json
import time

import numpy as np
import pytest

from mutspect.baselines import bss_test, rms_test, rss_test
from mutspect.cli import main as cli_main
from mutspect.clustering import hac_cluster
from mutspect.dataset import LabeledDataset, save_dataset
from mutspect.metrics import measures, predictive_metrics
from mutspect.model import SOFTMAX, DenseLayer, FcnnClassifier, count_forward_passes, save_model
from mutspect.mutants import (
    MutantRecord,
    MutantSet,
    MutatorKind,
    gaussian_fuzz,
    generate_mutant_set,
)
from mutspect.pipeline import Seeds, SweepSpec, run_accelerated, run_sweep
from mutspect.reports import strip_timing
from mutspect.spectra import (
    SampleSet,
    SpectraSet,
    TRANSFORM_DFT,
    TRANSFORM_RAW,
    dft_magnitude,
    mutant_distance,
    mutant_similarity,
    mutant_spectra,
    stratified_sample,
)
from mutspect.synth import diverse_mutant_set, fitted_classifier, gaussian_blobs
from mutspect.testing import (
    MutantVerdict,
    TESTED,
    TimingRecord,
    VerdictTable,
    mutation_score,
    vanilla_test,
)
from mutspect.util import load_json

from test_clustering import graph_from_weights, oracle_agglomerate, random_weight_table


def _verdict(num: int, name: str, ok: bool, detail: str = ""):
    line = f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# Shared desk-scale fixture: 5-class blob dataset of 500 points, a 2x16
# hidden-layer classifier, and a 100-mutant pool with bimodal intensities.
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def desk():
    dataset = gaussian_blobs(500, 5, 12, seed=7, spread=0.30)
    model = fitted_classifier(
        dataset, hidden=(16, 16), seed=12, margin=6.0, bias_shift=3.0
    )
    mutants = diverse_mutant_set(model, 100, seed=23)
    vanilla = vanilla_test(model, mutants, dataset)
    return dataset, model, mutants, vanilla


def test_criterion_01_dft_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(20240601)
    worst = 0.0
    parseval_worst = 0.0
    for n in range(1, 513):
        series = rng.normal(size=(100, n))
        # naive O(n^2) DFT: direct evaluation of the defining sum, its matrix
        # entries exp(-2 pi i jk / n) looked up from the n twiddles by jk mod n
        j = np.arange(n)
        dft_matrix = np.exp(-2j * np.pi * j / n)[np.outer(j, j) % n]
        want = np.abs(series @ dft_matrix.T)
        got = np.vstack([dft_magnitude(row) for row in series])
        scale = np.maximum(np.abs(want).max(axis=1, keepdims=True), 1e-30)
        worst = max(worst, float((np.abs(got - want) / scale).max()))
        energy_time = n * np.sum(series**2, axis=1)
        energy_freq = np.sum(got**2, axis=1)
        parseval_worst = max(
            parseval_worst,
            float(np.max(np.abs(energy_freq - energy_time) / energy_time)),
        )
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and parseval_worst <= 1e-6 and elapsed < 10.0
    _verdict(
        1,
        "dft matches naive oracle (n=1..512) with parseval check",
        ok,
        f"rel err {worst:.2e}, parseval {parseval_worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_02_similarity_axioms():
    start = time.perf_counter()
    rng = np.random.default_rng(77)
    ok = True
    for _ in range(500):
        q = int(rng.integers(1, 5))
        s = int(rng.integers(2, 9))
        values = rng.uniform(0.0, 3.0, size=(3, q, s))
        spectra = SpectraSet((0, 1, 2), values, SampleSet(np.arange(s), 1, 0), TRANSFORM_DFT)
        d01 = mutant_distance(0, 1, spectra)
        d10 = mutant_distance(1, 0, spectra)
        d02 = mutant_distance(0, 2, spectra)
        d12 = mutant_distance(1, 2, spectra)
        ok &= d01 >= 0 and d01 == d10
        ok &= mutant_distance(0, 0, spectra) == 0.0
        ok &= d02 <= d01 + d12 + 1e-12
        for a, b, d in ((0, 1, d01), (0, 2, d02), (1, 2, d12)):
            ok &= abs(mutant_similarity(a, b, spectra) - np.exp(-d)) <= 1e-12
        ok &= mutant_similarity(0, 0, spectra) == 1.0
        if not ok:
            break
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    _verdict(2, "distance axioms and similarity = exp(-distance)", ok, f"{elapsed:.1f}s")


def test_criterion_03_clustering_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(4242)
    taus = [round(0.05 * k, 2) for k in range(1, 20)]
    mismatches = 0
    for _ in range(200):
        n = int(rng.integers(2, 9))
        weights = random_weight_table(n, rng)
        graph = graph_from_weights(weights)
        for tau in taus:
            got = sorted(tuple(c) for c in hac_cluster(graph, tau).clusters)
            want = oracle_agglomerate(weights, tau)
            if got != want:
                mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 60.0
    _verdict(
        3,
        "clustering equals exhaustive agglomeration oracle (200 graphs x 19 taus)",
        ok,
        f"{mismatches} mismatches, {elapsed:.1f}s",
    )


def test_criterion_04_monotonicity(desk):
    start = time.perf_counter()
    dataset, model, mutants, vanilla = desk
    sweep = run_sweep(
        model, mutants, dataset, SweepSpec(), Seeds(sampling=1, representative=2),
        vanilla=vanilla,
    )
    assert len(sweep.cells) == 11 * 19 * 5  # the full measurement grid
    bad = {
        key: rho
        for key, rho in sweep.rho_per_repeat.items()
        if rho is not None and rho > -0.7
    }
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < 300.0
    _verdict(
        4,
        "reduction rate vs tau: rho <= -0.7 or constant for every (x, repeat)",
        ok,
        f"{len(sweep.cells)} cells, bad={bad}, {elapsed:.1f}s",
    )


def test_criterion_05_degenerate_equivalence(desk):
    dataset, model, _, _ = desk
    pool = generate_mutant_set(model, 40, (MutatorKind.GAUSSIAN_FUZZING,), seed=43)
    vanilla = vanilla_test(model, pool, dataset)
    res = run_accelerated(
        model, pool, dataset, seeds=Seeds(1, 2), fixed_per_class=2, fixed_tau=0.99999
    )
    rep = measures(res.table, vanilla)
    ok = rep.score_error == 0.0 and rep.mutant_reduction == 0.0
    _verdict(
        5,
        "forced singleton clustering reproduces vanilla exactly",
        ok,
        f"error={rep.score_error}, reduction={rep.mutant_reduction}",
    )


def test_criterion_06_faithful_cluster_exactness(desk):
    dataset, model, _, _ = desk
    bases = [(0, 3, 1.0, 101), (1, 7, 0.8, 102), (0, 11, 1.2, 103), (1, 2, 0.9, 104)]
    dup_counts = [3, 2, 2, 1]
    records, mid = [], 0
    for (layer, neuron, sigma, seed), k in zip(bases, dup_counts):
        for _ in range(k):
            records.append(gaussian_fuzz(model, layer, neuron, sigma, seed, mid))
            mid += 1
    pool = MutantSet(model, records, 0)
    vanilla = vanilla_test(model, pool, dataset)
    res = run_accelerated(
        model, pool, dataset, seeds=Seeds(1, 2), fixed_per_class=2, fixed_tau=0.9995
    )
    rep = measures(res.table, vanilla)
    expected_reduction = (len(pool) - len(bases)) / len(pool)
    ok = rep.score_error == 0.0 and rep.mutant_reduction == expected_reduction
    _verdict(
        6,
        "bitwise-duplicate clusters give exact score and expected reduction",
        ok,
        f"error={rep.score_error}, reduction={rep.mutant_reduction} "
        f"(expected {expected_reduction})",
    )


def test_criterion_07_end_to_end_default_constraint(desk):
    dataset, model, mutants, vanilla = desk
    ok = True
    details = []
    for repeat in range(5):
        start = time.perf_counter()
        res = run_accelerated(
            model, mutants, dataset, seeds=Seeds(100 + repeat, 200 + repeat)
        )
        elapsed = time.perf_counter() - start
        if not res.found:
            ok = False
            details.append(f"r{repeat}: not satisfiable")
            continue
        rep = measures(res.table, vanilla)
        usable = len(mutants) - len(res.quarantined)
        rate = (usable - len(res.clusters)) / usable
        max_iters = max(r.iterations for r in res.search_rounds)
        ok &= 0.26 <= rate <= 0.56
        ok &= rep.score_error is not None and rep.score_error <= 0.05
        ok &= max_iters <= 25
        ok &= elapsed < 120.0
        details.append(
            f"r{repeat}: rate={rate:.2f} err={rep.score_error:.4f} "
            f"iters={max_iters} {elapsed:.1f}s"
        )
    _verdict(7, "end-to-end run under the default reduction constraint", ok,
             "; ".join(details))


def _ablation_fixture():
    """Basis-point dataset where circular shifts of a mutant's outputs exist
    as real mutants: shift partners have identical DFT magnitudes but distant
    raw output vectors, while one 'dip pair' differs in a single position
    (raw-near) yet in killing counts."""
    gain = 1.5
    labels = np.array([0, 0, 0, 0, 1, 1, 1, 1])
    dataset = LabeledDataset(gain * np.eye(8), labels, 2)
    base = np.where(labels == 0, 1.0, -1.0)
    w0 = np.vstack([base, -base])
    original = FcnnClassifier((DenseLayer(w0, np.zeros(2), SOFTMAX),))

    def flip(positions):
        w = w0.copy()
        w[:, list(positions)] *= -1.0
        return FcnnClassifier((DenseLayer(w, np.zeros(2), SOFTMAX),))

    def rolled(model_, k=4):
        w = np.roll(model_.layers[0].weights, k, axis=1)
        return FcnnClassifier((DenseLayer(w, np.zeros(2), SOFTMAX),))

    records, mid = [], 0
    for pattern in [(0, 1, 4, 5), (0, 2, 4, 6), (0, 1, 5, 6), (0, 3, 4, 7)]:
        a = flip(pattern)
        for model_ in (a, rolled(a)):
            records.append(
                MutantRecord(mid, MutatorKind.WEIGHT_SHUFFLE, 0, 0, None, {}, 0, model_)
            )
            mid += 1
    for dip in [(0, 1, 2), (0, 1, 2, 4)]:
        records.append(
            MutantRecord(mid, MutatorKind.WEIGHT_SHUFFLE, 0, 0, None, {}, 0, flip(dip))
        )
        mid += 1
    return dataset, original, MutantSet(original, records, 0)


def test_criterion_08_transform_ablation():
    dataset, original, pool = _ablation_fixture()
    vanilla = vanilla_test(original, pool, dataset)
    ok = True
    details = []
    for seed in range(5):
        spectral = run_accelerated(
            original, pool, dataset, seeds=Seeds(0, seed), fixed_per_class=4
        )
        raw = run_accelerated(
            original, pool, dataset, seeds=Seeds(0, seed), transform=TRANSFORM_RAW,
            fixed_per_class=4,
        )
        if not (spectral.found and raw.found):
            ok = False
            details.append(f"s{seed}: search failed")
            continue
        different = sorted(spectral.clusters.clusters) != sorted(raw.clusters.clusters)
        err_spectral = measures(spectral.table, vanilla).score_error
        err_raw = measures(raw.table, vanilla).score_error
        ok &= different and err_spectral <= err_raw
        details.append(f"s{seed}: dft={err_spectral:.4f} raw={err_raw:.4f}")
    _verdict(8, "transform ablation: different clusterings, no worse score error",
             ok, "; ".join(details))


def test_criterion_09_baseline_degeneracy():
    dataset = gaussian_blobs(120, 4, 8, seed=3, spread=0.3)
    model = fitted_classifier(dataset, hidden=(10,), seed=6, margin=5.0, bias_shift=2.5)
    mutants = generate_mutant_set(model, 20, seed=17)
    vanilla = vanilla_test(model, mutants, dataset)
    ms_v = mutation_score(vanilla)
    results = {
        "rms(fraction=1)": mutation_score(rms_test(model, mutants, dataset, 1.0, seed=5)),
        "bss(threshold=1)": mutation_score(bss_test(model, mutants, dataset, threshold=1)),
        "rss(x>=population)": mutation_score(
            rss_test(model, mutants, dataset, per_class=1000, seed=5)
        ),
    }
    ok = all(value == ms_v for value in results.values())
    _verdict(9, "each baseline reproduces vanilla at its degenerate parameter",
             ok, f"vanilla={ms_v:.4f}, {results}")


def test_criterion_10_memoization_accounting(desk):
    dataset, model, mutants, _ = desk
    sample = stratified_sample(dataset, 3, seed=9)
    with count_forward_passes() as counter:
        mutant_spectra(mutants, dataset, sample)
    expected = len(mutants) * len(sample)
    ok = counter.count == expected
    _verdict(
        10,
        "spectra computation costs exactly |M| * |S| forward passes",
        ok,
        f"counted {counter.count}, expected {expected} "
        f"(|M|={len(mutants)}, |S|={len(sample)})",
    )


def test_criterion_11_metrics_arithmetic():
    labels = (0, 1, 2)

    def table(rows, mode):
        verdicts = {
            m: MutantVerdict(m, c, k, TESTED) for m, (c, k) in enumerate(rows)
        }
        return VerdictTable(verdicts, TimingRecord({"testing": 1.0}, len(rows)), mode, labels)

    actual = [(2, True), (3, True), (1, True), (4, True), (2, True),
              (5, True), (0, False), (0, False), (0, False), (0, False)]
    predicted = list(actual)
    predicted[2] = (0, False)  # false negative
    predicted[7] = (2, True)  # false positive
    rep = predictive_metrics(table(predicted, "spectral"), table(actual, "vanilla"))
    ok = (
        (rep.tp, rep.fp, rep.tn, rep.fn) == (5, 1, 3, 1)
        and abs(rep.mae - 0.3) <= 1e-12
        and abs(rep.rmae - 0.3 / 1.7) <= 1e-12
        and abs(rep.precision - 5 / 6) <= 1e-12
        and abs(rep.recall - 5 / 6) <= 1e-12
        and abs(rep.f1 - 5 / 6) <= 1e-12
        and abs(rep.mcc - 14 / 24) <= 1e-12
    )
    # zero denominator: every mutant killed in both tables
    all_killed = [(2, True)] * 6
    rep_na = predictive_metrics(table(all_killed, "spectral"), table(all_killed, "vanilla"))
    ok = ok and rep_na.mcc is None
    _verdict(11, "predictive metrics match hand-computed confusion arithmetic",
             ok, f"mcc={rep.mcc}, undefined-mcc={rep_na.mcc}")


def test_criterion_12_determinism(tmp_path):
    dataset = gaussian_blobs(120, 4, 8, seed=3, spread=0.3)
    model = fitted_classifier(dataset, hidden=(10,), seed=6, margin=5.0, bias_shift=2.5)
    model_path = tmp_path / "model.fcnn"
    data_path = tmp_path / "data.fdst"
    save_model(model, model_path)
    save_dataset(dataset, data_path)
    rc = cli_main(
        ["generate", "--model", str(model_path), "--count", "25", "--seed", "11",
         "--out", str(tmp_path)]
    )
    assert rc == 0
    reports = []
    for run in ("one", "two"):
        out = tmp_path / run
        rc = cli_main(
            [
                "run",
                "--model", str(model_path),
                "--dataset", str(data_path),
                "--manifest", str(tmp_path / "manifest.json"),
                "--mode", "spectral",
                "--repeats", "2",
                "--seed", "3",
                "--out", str(out),
            ]
        )
        assert rc == 0
        payloads = [
            strip_timing(load_json(out / f"report_spectral_r{k}.json")) for k in range(2)
        ]
        reports.append(json.dumps(payloads, sort_keys=True))
    ok = reports[0] == reports[1]
    _verdict(12, "identical config and seeds give identical non-timing reports", ok)
