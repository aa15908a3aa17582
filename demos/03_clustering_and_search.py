"""Threshold clustering and the coupled sampling-rate / threshold search.

Demonstrates how the partition coarsens as the linkage threshold drops, and
how the tau search walks tau into the requested reduction interval on one
graph, and how the pipeline's search repeats it over sampling rates.
"""

import mutspect as ms

dataset = ms.gaussian_blobs(400, 5, 10, seed=8, spread=0.3)
model = ms.fitted_classifier(dataset, hidden=(14, 14), seed=9, margin=5.5, bias_shift=2.5)
mutants = ms.diverse_mutant_set(model, 60, seed=13)

sample = ms.stratified_sample(dataset, per_class=2, seed=21)
spectra = ms.mutant_spectra(mutants, dataset, sample)
graph = ms.build_similarity_graph(spectra)

print("partition size as the threshold rises (monotone, never decreasing):")
for tau in (0.05, 0.2, 0.4, 0.6, 0.8, 0.95):
    clusters = ms.hac_cluster(graph, tau)
    rate = ms.mutant_reduction_rate(graph.n_nodes, len(clusters))
    print(f"  tau={tau:.2f}  |C|={len(clusters):3d}  reduction={rate:.2f}")

# The pipeline's search walks samples-per-class linearly and, on each
# rate's graph, the clustering layer's tau search bisects tau until the
# reduction rate enters [lo, hi].
constraint = ms.ReductionConstraint(0.26, 0.56)
trace = ms.XRound(per_class_rate=2)
clusters = ms.tau_search(graph, constraint, trace)
print(f"\ntau search on the x=2 graph: stop={trace.stop_reason}, "
      f"{trace.iterations} iterations")


def build(per_class):
    s = ms.stratified_sample(dataset, per_class, seed=21)
    sp = ms.mutant_spectra(mutants, dataset, s)
    return s, ms.build_similarity_graph(sp)


phases = {}
rounds, sample, clusters = ms.parameter_search(build, constraint, ms.X_GRID, phases)
print(f"search: satisfied={clusters is not None} at x={rounds[-1].per_class_rate}, "
      f"tau={clusters.tau:.6f}, |C|={len(clusters)}, "
      f"clustering {phases['clustering'] * 1e3:.1f} ms")
for trace in rounds:
    print(f"  x={trace.per_class_rate}: {trace.iterations} iterations, "
          f"stop={trace.stop_reason}")
    for tau, rate in zip(trace.taus, trace.rates):
        print(f"    tried tau={tau:.6f} -> reduction {rate:.3f}")

reps = ms.select_representatives(clusters, seed=5)
sizes = sorted((len(members) for _, members in reps.pairs), reverse=True)
print(f"\nrepresentatives: {len(reps.pairs)} (largest clusters: {sizes[:5]})")
