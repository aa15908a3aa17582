"""From mutant outputs to frequency-domain signatures and a similarity graph.

Shows the stratified sample shared by all mutants, the per-output magnitude
vectors, the max-over-outputs distance, and the complete similarity graph.
"""

import numpy as np

import mutspect as ms

dataset = ms.gaussian_blobs(300, 5, 10, seed=3, spread=0.3)
model = ms.fitted_classifier(dataset, hidden=(14,), seed=4, margin=5.0, bias_shift=2.5)
mutants = ms.diverse_mutant_set(model, 12, seed=7)

# One stratified sample, canonical order (label asc, index asc), shared by
# every mutant in the run: the transform is order-sensitive.
sample = ms.stratified_sample(dataset, per_class=3, seed=5)
print(f"sample: {len(sample)} points across {dataset.class_count} classes "
      f"(hash {sample.content_hash()[:12]}...)")

# The magnitude vector of a constant series concentrates in the DC bin.
print("\ndft_magnitude([c,...,c]) =", ms.dft_magnitude(np.full(6, 2.0)))
print("dft_magnitude([0,1,0,-1]) =", ms.dft_magnitude([0.0, 1.0, 0.0, -1.0]))

# Each mutant is applied to each sampled point once; the output matrix is
# reused for all outputs, so this costs exactly |M| * |S| forward passes.
with ms.count_forward_passes() as counter:
    spectra = ms.mutant_spectra(mutants, dataset, sample)
print(f"\nspectra: {spectra.values.shape} (mutants x outputs x bins), "
      f"{counter.count} forward passes = {len(mutants)} * {len(sample)}")

a, b = spectra.ids[0], spectra.ids[1]
print(f"distance({a},{b}) = {ms.mutant_distance(a, b, spectra):.4f}  "
      f"similarity = {ms.mutant_similarity(a, b, spectra):.4f}")

graph = ms.build_similarity_graph(mutants, spectra)
rows, cols = np.triu_indices(graph.n_nodes, k=1)  # one edge per unordered pair
weights = graph.weights[rows, cols]
print(f"\nsimilarity graph: {graph.n_nodes} nodes, {len(weights)} edges, "
      f"weights in [{weights.min():.4f}, {weights.max():.4f}]")
top = int(np.argmax(weights))
closest = graph.ids[rows[top]], graph.ids[cols[top]]
print(f"most similar pair: {closest[0]} and {closest[1]} at {weights[top]:.4f}")
