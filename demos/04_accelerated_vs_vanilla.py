"""Head-to-head: vanilla testing, spectral acceleration, and the baselines.

Produces a comparison table of score loss, mutant/point reduction and
speed-up, plus the propagation-quality metrics.
"""

import mutspect as ms

dataset = ms.gaussian_blobs(500, 5, 12, seed=7, spread=0.3)
model = ms.fitted_classifier(dataset, hidden=(16, 16), seed=12, margin=6.0, bias_shift=3.0)
mutants = ms.diverse_mutant_set(model, 100, seed=23)
print(f"original accuracy: {ms.accuracy(model, dataset):.3f}, {len(mutants)} mutants")

vanilla = ms.run_vanilla(model, mutants, dataset)
print(f"vanilla: score={vanilla.score:.4f}, "
      f"{vanilla.table.timing.total_seconds:.2f}s for {len(mutants)} mutants")

rows = []
spectral = ms.run_accelerated(model, mutants, dataset, seeds=ms.Seeds(1, 2))
rows.append(("spectral", spectral.table))
# the no-transform variant: the same pipeline clustering raw output columns
raw = ms.run_accelerated(model, mutants, dataset, seeds=ms.Seeds(1, 2),
                         transform=ms.TRANSFORM_RAW)
rows.append(("raw-cluster", raw.table))
rows.append(("rms 75%", ms.rms_test(model, mutants, dataset, 0.75, seed=3)))
rows.append(("bss 10", ms.bss_test(model, mutants, dataset, threshold=10)))
rows.append(("rss x=1", ms.rss_test(model, mutants, dataset, per_class=1, seed=3)))

print(f"\n{'technique':<12} {'score':>7} {'loss':>8} {'reduction':>9} {'speed-up':>9}")
for name, table in rows:
    rep = ms.measures(table, vanilla.table)
    loss = "n/a" if rep.score_error is None else f"{rep.score_error:8.4f}"
    print(f"{name:<12} {rep.score_accel:7.4f} {loss:>8} "
          f"{rep.mutant_reduction:9.2f} {rep.speed_up:9.2f}")

print("\nnote: at desk scale full testing takes milliseconds, so the pipeline")
print("overhead makes wall-clock speed-up negative; the mutant reduction is the")
print("quantity that turns into real speed-up once per-mutant testing is costly.")

print(f"\nspectral run settled at x={spectral.sample.per_class_rate}, "
      f"tau={spectral.clusters.tau:.4f}, "
      f"{len(spectral.clusters)} clusters, {len(spectral.quarantined)} quarantined")

quality = ms.predictive_metrics(spectral.table, vanilla.table)
print(f"propagation quality: MAE={quality.mae:.4f} RMAE={quality.rmae} "
      f"precision={quality.precision} recall={quality.recall} "
      f"F1={quality.f1} MCC={quality.mcc}")
