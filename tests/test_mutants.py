import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mutspect.errors import (
    MissingMutantError,
    MutspectError,
    TargetError,
    UnsupportedTargetError,
    ValidationError,
)
from mutspect.model import (
    DenseLayer,
    FcnnClassifier,
    PatchedLayer,
    _first_change,
    batch_outputs,
    count_forward_passes,
    load_model,
    model_hash,
    save_model,
)
import mutspect.mutants as mutants_module
from mutspect.mutants import (
    ALL_KINDS,
    MutantSet,
    MutatorKind,
    _fisher_yates,
    _target_space,
    gaussian_fuzz,
    generate_mutant_set,
    load_manifest,
    neuron_activation_inverse,
    neuron_effect_block,
    neuron_switch,
    save_manifest,
    weight_shuffle,
)
from mutspect.synth import STRONG_SIGMA, WEAK_SIGMA, diverse_mutant_set
from mutspect.util import philox_rng

from conftest import small_stack


def scalar_fisher_yates(n, rng):
    """The documented draw sequence of weight shuffle: one scalar
    ``integers(0, i + 1)`` per swap, i = n-1 .. 1; test-side reference."""
    perm = list(range(n))
    for i in range(n - 1, 0, -1):
        j = int(rng.integers(0, i + 1))
        perm[i], perm[j] = perm[j], perm[i]
    return perm


def outputs_on_grid(model, seed=1, n=25):
    rng = np.random.default_rng(seed)
    return batch_outputs(model, rng.normal(size=(n, model.input_dim)))


class TestGaussianFuzz:
    def test_sigma_zero_is_bitwise_identity(self, random_net):
        rec = gaussian_fuzz(random_net, 1, 2, 0.0, seed=99)
        assert model_hash(rec.model) == model_hash(random_net)

    def test_seeded_determinism(self, random_net):
        a = gaussian_fuzz(random_net, 0, 1, 1.0, seed=7)
        b = gaussian_fuzz(random_net, 0, 1, 1.0, seed=7)
        assert model_hash(a.model) == model_hash(b.model)

    def test_noise_replay_oracle(self, random_net):
        # replay the documented draw: normal(0, sigma * layer.weights.std(), in_dim)
        layer, neuron, sigma, seed = 1, 3, 1.0, 4242
        rec = gaussian_fuzz(random_net, layer, neuron, sigma, seed)
        scale = sigma * random_net.layers[layer].weights.std()
        expected_noise = philox_rng(seed).normal(0.0, scale, size=random_net.layers[layer].in_dim)
        expected_row = random_net.layers[layer].weights[neuron] + expected_noise
        np.testing.assert_array_equal(rec.model.layers[layer].weights[neuron], expected_row)
        # everything else untouched, bit for bit
        mask = np.ones(random_net.layers[layer].out_dim, dtype=bool)
        mask[neuron] = False
        assert (
            rec.model.layers[layer].weights[mask].tobytes()
            == random_net.layers[layer].weights[mask].tobytes()
        )

    def test_index_error(self, random_net):
        with pytest.raises(TargetError):
            gaussian_fuzz(random_net, 0, 99, 1.0, seed=0)

    @pytest.mark.parametrize("sigma", [-0.1, float("nan"), float("inf"), float("-inf")])
    def test_negative_or_non_finite_sigma_is_a_target_error(self, random_net, sigma):
        # NaN fails every comparison, so a bare ``sigma < 0`` would let it through
        with pytest.raises(TargetError, match="sigma must be finite and nonnegative"):
            gaussian_fuzz(random_net, 0, 0, sigma, seed=0)


class TestWeightShuffle:
    def test_singleton_row_identity(self):
        net = small_stack(seed=3, input_dim=1, hidden=(2,), outputs=2)
        rec = weight_shuffle(net, 0, 1, seed=5)
        assert model_hash(rec.model) == model_hash(net)

    def test_all_equal_weights_identity_values(self, random_net):
        import mutspect.model as mm

        layers = list(random_net.layers)
        w = layers[0].weights.copy()
        w[2] = 0.37
        layers[0] = mm.DenseLayer(w, layers[0].biases.copy(), mm.RELU)
        net = mm.FcnnClassifier(tuple(layers))
        rec = weight_shuffle(net, 0, 2, seed=11)
        np.testing.assert_array_equal(rec.model.layers[0].weights[2], net.layers[0].weights[2])

    def test_permutation_replay_oracle(self, random_net):
        layer, neuron, seed = 0, 1, 777
        rec = weight_shuffle(random_net, layer, neuron, seed)
        original_row = random_net.layers[layer].weights[neuron]
        mutated_row = rec.model.layers[layer].weights[neuron]
        # multiset preserved
        np.testing.assert_array_equal(np.sort(mutated_row), np.sort(original_row))
        # replay: Fisher-Yates with draws integers(0, i + 1), i = n-1 .. 1
        perm = scalar_fisher_yates(original_row.size, philox_rng(seed))
        np.testing.assert_array_equal(mutated_row, original_row[perm])


@pytest.mark.oldest_supported
class TestPermutationOracle:
    """_fisher_yates makes all its draws in one broadcast ``integers`` call;
    it must give the permutation of the scalar draw sequence and leave the
    generator where those calls leave it.  This rests on numpy's broadcast
    path of ``integers``, so CI also runs it on the lowest supported numpy."""

    @staticmethod
    def check(n, seed):
        rng, reference = philox_rng(seed), philox_rng(seed)
        perm = _fisher_yates(n, rng)
        assert perm.dtype == np.arange(n).dtype
        assert perm.tolist() == scalar_fisher_yates(n, reference)
        assert rng.integers(0, 2**63) == reference.integers(0, 2**63)  # the next draw

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 12, 16, 64, 257, 1000])
    def test_listed_sizes(self, n):
        for seed in range(40):
            self.check(n, seed)

    @settings(max_examples=300, deadline=None)
    @given(n=st.one_of(st.integers(1, 9), st.integers(1, 1100)), seed=st.integers(0, 2**64 - 1))
    def test_single_draw_equals_scalar_draws(self, n, seed):
        self.check(n, seed)


class TestNeuronEffectBlock:
    def test_blocked_neuron_has_no_downstream_effect(self, random_net):
        rec = neuron_effect_block(random_net, 0, 2, mutant_id=1)
        # changing the blocked neuron's incoming weights must not matter
        import mutspect.model as mm

        layers = list(rec.model.layers)
        w = layers[0].weights.copy()
        w[2] += 123.0
        layers[0] = mm.DenseLayer(w, layers[0].biases.copy(), mm.RELU)
        poked = mm.FcnnClassifier(tuple(layers))
        np.testing.assert_array_equal(outputs_on_grid(rec.model), outputs_on_grid(poked))

    def test_structural_oracle(self, random_net):
        rec = neuron_effect_block(random_net, 0, 3)
        expected = random_net.layers[1].weights.copy()
        expected[:, 3] = 0.0
        np.testing.assert_array_equal(rec.model.layers[1].weights, expected)

    def test_final_layer_rejected(self, random_net):
        with pytest.raises(UnsupportedTargetError):
            neuron_effect_block(random_net, len(random_net.layers) - 1, 0)


class TestNeuronActivationInverse:
    def test_zero_outgoing_is_identity_function(self, random_net):
        blocked = neuron_effect_block(random_net, 0, 1).model
        rec = neuron_activation_inverse(blocked, 0, 1)
        np.testing.assert_array_equal(outputs_on_grid(rec.model), outputs_on_grid(blocked))

    def test_involution(self, random_net):
        once = neuron_activation_inverse(random_net, 1, 2).model
        twice = neuron_activation_inverse(once, 1, 2).model
        assert model_hash(twice) == model_hash(random_net)

    def test_dual_construction_oracle(self, random_net):
        # negating outgoing weights must equal feeding -relu(z) downstream
        layer, neuron = 0, 4
        rec = neuron_activation_inverse(random_net, layer, neuron)
        rng = np.random.default_rng(8)
        for _ in range(10):
            x = rng.normal(size=random_net.input_dim)
            z = random_net.layers[0].weights @ x + random_net.layers[0].biases
            a = np.maximum(z, 0.0)
            a_inv = a.copy()
            a_inv[neuron] = -a_inv[neuron]
            rest = a_inv
            for lay in random_net.layers[1:-1]:
                rest = np.maximum(lay.weights @ rest + lay.biases, 0.0)
            last = random_net.layers[-1]
            logits = last.weights @ rest + last.biases
            e = np.exp(logits - logits.max())
            expected = e / e.sum()
            got = batch_outputs(rec.model, x[None, :])[0]
            np.testing.assert_allclose(got, expected, atol=1e-12)


class TestNeuronSwitch:
    def test_same_index_identity(self, random_net):
        rec = neuron_switch(random_net, 0, 2, 2)
        assert model_hash(rec.model) == model_hash(random_net)

    def test_involution(self, random_net):
        once = neuron_switch(random_net, 1, 0, 3).model
        twice = neuron_switch(once, 1, 0, 3).model
        assert model_hash(twice) == model_hash(random_net)

    def test_structural_oracle(self, random_net):
        rec = neuron_switch(random_net, 0, 1, 4)
        w = random_net.layers[0].weights.copy()
        b = random_net.layers[0].biases.copy()
        w[[1, 4]] = w[[4, 1]]
        b[[1, 4]] = b[[4, 1]]
        np.testing.assert_array_equal(rec.model.layers[0].weights, w)
        np.testing.assert_array_equal(rec.model.layers[0].biases, b)
        # outgoing weights deliberately not swapped: function changes
        assert (
            rec.model.layers[1].weights.tobytes()
            == random_net.layers[1].weights.tobytes()
        )

    def test_final_layer_rejected(self, random_net):
        with pytest.raises(UnsupportedTargetError):
            neuron_switch(random_net, len(random_net.layers) - 1, 0, 1)


class TestGenerate:
    def test_single_neuron_switch(self, random_net):
        ms = generate_mutant_set(random_net, 1, (MutatorKind.NEURON_SWITCH,), seed=5)
        assert len(ms) == 1 and ms.mutants[0].mutant_id == 0
        assert ms.mutants[0].kind is MutatorKind.NEURON_SWITCH

    def test_same_seed_identical(self, random_net):
        a = generate_mutant_set(random_net, 20, seed=99)
        b = generate_mutant_set(random_net, 20, seed=99)
        assert [model_hash(m.model) for m in a.mutants] == [
            model_hash(m.model) for m in b.mutants
        ]

    def test_different_seeds_differ(self, random_net):
        a = generate_mutant_set(random_net, 50, seed=1)
        b = generate_mutant_set(random_net, 50, seed=2)
        assert [model_hash(m.model) for m in a.mutants] != [
            model_hash(m.model) for m in b.mutants
        ]

    def test_draw_replay_oracle(self, random_net):
        # replay documented draws: kind index, flat target index, mutant seed
        count, seed = 50, 31337
        ms = generate_mutant_set(random_net, count, seed=seed)
        rng = philox_rng(seed)
        kinds = list(ALL_KINDS)
        spaces = {k: _target_space(random_net, k) for k in kinds}
        for rec in ms.mutants:
            kind = kinds[int(rng.integers(len(kinds)))]
            target = spaces[kind][int(rng.integers(len(spaces[kind])))]
            mutant_seed = int(rng.integers(0, 2**63))
            assert rec.kind is kind
            if kind is MutatorKind.NEURON_SWITCH:
                assert (rec.layer, rec.neuron, rec.partner) == target
            else:
                assert (rec.layer, rec.neuron) == (target[0], target[1])
            if kind in (MutatorKind.GAUSSIAN_FUZZING, MutatorKind.WEIGHT_SHUFFLE):
                assert rec.seed == mutant_seed

    def test_diverse_set_replays_direct_operator_calls(self, random_net):
        # reference: the documented draw order, one direct operator call each
        count, seed = 40, 23
        ms = diverse_mutant_set(random_net, count, seed)
        rng = philox_rng(seed)
        strong = (MutatorKind.WEIGHT_SHUFFLE, MutatorKind.NEURON_EFFECT_BLOCK,
                  MutatorKind.NEURON_ACTIVATION_INVERSE, MutatorKind.NEURON_SWITCH,
                  MutatorKind.GAUSSIAN_FUZZING)
        for i, rec in enumerate(ms.mutants):
            kind = MutatorKind.GAUSSIAN_FUZZING if i % 2 == 0 else strong[(i // 2) % 5]
            space = _target_space(random_net, kind)
            target = space[int(rng.integers(len(space)))]
            mutant_seed = int(rng.integers(0, 2**63))
            if kind is MutatorKind.GAUSSIAN_FUZZING:
                lo, hi = WEAK_SIGMA if i % 2 == 0 else STRONG_SIGMA
                sigma = float(np.exp(rng.uniform(np.log(lo), np.log(hi))))
                want = gaussian_fuzz(random_net, *target, sigma, mutant_seed, i)
            elif kind is MutatorKind.WEIGHT_SHUFFLE:
                want = weight_shuffle(random_net, *target, mutant_seed, i)
            elif kind is MutatorKind.NEURON_EFFECT_BLOCK:
                want = neuron_effect_block(random_net, *target, i)
            elif kind is MutatorKind.NEURON_ACTIVATION_INVERSE:
                want = neuron_activation_inverse(random_net, *target, i)
            else:
                want = neuron_switch(random_net, *target, i)
            assert (rec.kind, rec.target, rec.params, rec.seed) == (
                want.kind, want.target, want.params, want.seed)
            assert model_hash(rec.model) == model_hash(want.model)

    def test_shapes_preserved(self, random_net):
        ms = generate_mutant_set(random_net, 30, seed=4)
        for rec in ms.mutants:
            assert rec.model.input_dim == random_net.input_dim
            assert rec.model.num_outputs == random_net.num_outputs
            for a, b in zip(rec.model.layers, random_net.layers):
                assert a.weights.shape == b.weights.shape

    def test_inapplicable_kind_excluded_with_warning(self):
        net = small_stack(seed=0, hidden=(1,))  # NS impossible: one hidden neuron
        ms = generate_mutant_set(
            net, 5, (MutatorKind.NEURON_SWITCH, MutatorKind.GAUSSIAN_FUZZING), seed=0
        )
        assert any("NS" in w for w in ms.warnings)
        assert all(m.kind is MutatorKind.GAUSSIAN_FUZZING for m in ms.mutants)

    def test_error_when_nothing_applicable(self):
        net = small_stack(seed=0, hidden=(1,))
        with pytest.raises(TargetError):
            generate_mutant_set(net, 2, (MutatorKind.NEURON_SWITCH,), seed=0)


class TestSubset:
    def test_keeps_listed_records_in_set_order(self, random_net):
        ms = generate_mutant_set(random_net, 10, seed=3)
        sub = ms.subset([7, 2, 7, 5])
        assert sub.ids() == [2, 5, 7]
        assert all(m is ms.mutants[k] for m, k in zip(sub.mutants, (2, 5, 7)))
        assert sub.original is ms.original
        assert sub.generation_seed == ms.generation_seed

    def test_unknown_id_raises_missing_mutant(self, random_net):
        ms = generate_mutant_set(random_net, 4, seed=3)
        with pytest.raises(MissingMutantError, match="mutant 9 "):
            ms.subset([1, 9])

    def test_empty_subset_is_refused(self, random_net):
        ms = generate_mutant_set(random_net, 4, seed=3)
        with pytest.raises(ValidationError, match="at least one mutant"):
            ms.subset([])

    def test_part_keeps_the_set_apart(self, random_net):
        # a part does not re-check its records, but it is a set of its own
        ms = generate_mutant_set(random_net, 6, seed=3)
        ms.warnings.append("kept on the whole set")
        part = ms.part(ms.mutants[1:4])
        assert part.ids() == [1, 2, 3] and part.warnings == []
        assert (part.original, part.generation_seed) == (ms.original, ms.generation_seed)
        part.mutants.pop()
        assert len(ms) == 6 and ms.warnings == ["kept on the whole set"]


class TestDimensionCheck:
    """A set built from outside input re-checks every record's dimensions;
    only a part of an already checked set skips it."""

    @staticmethod
    def wider(record, net):
        # one more input feature: the mutant no longer fits the original
        first = net.layers[0]
        layer = DenseLayer(np.zeros((first.out_dim, first.in_dim + 1)), first.biases,
                           first.activation)
        model = FcnnClassifier((layer, *net.layers[1:]))
        return dataclasses.replace(record, model=model)

    def test_direct_construction(self, random_net):
        records = generate_mutant_set(random_net, 3, seed=1).mutants
        records[1] = self.wider(records[1], random_net)
        with pytest.raises(ValidationError, match="mutant 1 changed model dimensions"):
            MutantSet(random_net, records, 0)

    @pytest.mark.parametrize("build", ["generate", "manifest"])
    def test_rebuilt_records(self, random_net, tmp_path, monkeypatch, build):
        path = tmp_path / "manifest.json"
        save_manifest(generate_mutant_set(random_net, 3, seed=1), path)
        real = mutants_module.rebuild_mutant

        def rebuilt(original, entry):
            record = real(original, entry)
            return self.wider(record, original) if record.mutant_id == 2 else record

        monkeypatch.setattr(mutants_module, "rebuild_mutant", rebuilt)
        with pytest.raises(ValidationError, match="mutant 2 changed model dimensions"):
            if build == "generate":
                generate_mutant_set(random_net, 3, seed=1)
            else:
                load_manifest(path, random_net)


class TestManifest:
    def test_round_trip(self, tmp_path, random_net):
        ms = generate_mutant_set(random_net, 12, seed=2024)
        path = tmp_path / "manifest.json"
        save_manifest(ms, path)
        loaded = load_manifest(path, random_net)
        assert loaded.generation_seed == ms.generation_seed
        assert [model_hash(m.model) for m in loaded.mutants] == [
            model_hash(m.model) for m in ms.mutants
        ]

    def test_save_load_save_is_byte_identical(self, tmp_path, random_net):
        ms = diverse_mutant_set(random_net, 12, seed=5)  # every operator kind
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        save_manifest(ms, first)
        loaded = load_manifest(first, random_net)
        save_manifest(loaded, second)
        assert second.read_bytes() == first.read_bytes()
        assert [model_hash(m.model) for m in loaded.mutants] == [
            model_hash(m.model) for m in ms.mutants
        ]

    def test_every_truncated_prefix_raises(self, tmp_path, random_net):
        ms = diverse_mutant_set(random_net, 6, seed=5)
        path = tmp_path / "manifest.json"
        save_manifest(ms, path)
        data = path.read_bytes()
        assert data.endswith(b"\n")
        for n in range(len(data)):
            prefix = tmp_path / f"prefix_{n}.json"  # a fresh path each time
            prefix.write_bytes(data[:n])
            if n == len(data) - 1:
                loaded = load_manifest(prefix, random_net)
                assert [model_hash(m.model) for m in loaded.mutants] == [
                    model_hash(m.model) for m in ms.mutants
                ]
            else:
                with pytest.raises(MutspectError):
                    load_manifest(prefix, random_net)

    @pytest.mark.parametrize("mutant_id, key, value", [
        (0, "layer", 1.5),
        (0, "layer", "0"),
        (0, "id", True),
        (0, "neuron", 0.0),
        (0, "seed", "5"),  # gaussian fuzzing reads its seed
        (1, "seed", 2.0),  # so does weight shuffle
        (7, "partner", 1.5),  # neuron switch
    ])
    def test_non_integer_field_rejected(self, tmp_path, random_net, mutant_id, key, value):
        ms = diverse_mutant_set(random_net, 8, seed=5)
        path = tmp_path / "manifest.json"
        save_manifest(ms, path)
        payload = json.loads(path.read_text())
        entry = payload["mutants"][mutant_id]
        assert entry["id"] == mutant_id and isinstance(entry[key], int)
        entry[key] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(ValidationError, match=f"'{key}' must be an integer"):
            load_manifest(path, random_net)

    @pytest.mark.parametrize("sigma", ["0.5", True])
    def test_non_number_sigma_rejected(self, tmp_path, random_net, sigma):
        # float() would read "0.5" as 0.5 and true as 1.0; an integer stays a number
        ms = diverse_mutant_set(random_net, 8, seed=5)
        path = tmp_path / "manifest.json"
        save_manifest(ms, path)
        payload = json.loads(path.read_text())
        entry = payload["mutants"][0]
        assert entry["kind"] == "GF"
        entry["params"]["sigma"] = 1
        path.write_text(json.dumps(payload))
        assert load_manifest(path, random_net).mutants[0].params == {"sigma": 1.0}
        entry["params"]["sigma"] = sigma
        path.write_text(json.dumps(payload))
        with pytest.raises(ValidationError, match="'sigma' must be a number"):
            load_manifest(path, random_net)

    def test_wrong_original_rejected(self, tmp_path, random_net):
        ms = generate_mutant_set(random_net, 3, seed=1)
        path = tmp_path / "manifest.json"
        save_manifest(ms, path)
        other = small_stack(seed=123)
        with pytest.raises(ValidationError, match="different original"):
            load_manifest(path, other)


class TestIllTypedArguments:
    """Operator arguments of the wrong type raise TargetError, never numpy's
    or Python's own exceptions, and a bool is not read as 0 or 1."""

    @pytest.mark.parametrize("call", [
        lambda net: generate_mutant_set(net, 5, gf_sigma="0.5"),
        lambda net: generate_mutant_set(net, 5, gf_sigma=True),
        lambda net: gaussian_fuzz(net, 0, 0, None, 1),
        lambda net: gaussian_fuzz(net, 0, 0, "0.5", 1),
    ])
    def test_sigma_must_be_a_real_number(self, random_net, call):
        with pytest.raises(TargetError, match="sigma must be a real number"):
            call(random_net)

    def test_an_integer_beyond_float_range_is_not_finite(self, random_net):
        with pytest.raises(TargetError, match="finite and nonnegative"):
            gaussian_fuzz(random_net, 0, 0, 10**400, 1)

    def test_numpy_and_integer_sigmas_are_numbers(self, random_net):
        want = model_hash(gaussian_fuzz(random_net, 0, 1, 0.5, 3).model)
        assert model_hash(gaussian_fuzz(random_net, 0, 1, np.float64(0.5), 3).model) == want
        assert model_hash(gaussian_fuzz(random_net, 0, 1, np.float32(0.5), 3).model) == want
        assert model_hash(gaussian_fuzz(random_net, 0, 1, 1, 3).model) == \
            model_hash(gaussian_fuzz(random_net, 0, 1, 1.0, 3).model)

    @pytest.mark.parametrize("call", [
        lambda net: gaussian_fuzz(net, 0.0, 0, 0.5, 1),
        lambda net: weight_shuffle(net, 0, 1.5, 1),
        lambda net: neuron_effect_block(net, True, 0),
        lambda net: neuron_activation_inverse(net, 0, False),
        lambda net: neuron_switch(net, 0, 1, 2.0),
        lambda net: neuron_switch(net, "0", 1, 2),
    ])
    def test_targets_must_be_integers(self, random_net, call):
        with pytest.raises(TargetError, match="targets must be integers"):
            call(random_net)

    def test_numpy_integer_targets_are_integers(self, random_net):
        got = neuron_switch(random_net, np.int64(0), np.int32(1), np.uint8(4))
        assert model_hash(got.model) == model_hash(neuron_switch(random_net, 0, 1, 4).model)


# ---------------------------------------------------------------------------
# Patches.  Every operator returns its mutant's changed layer as a
# model.PatchedLayer over the original's.  Each must read, byte for byte, as
# the full-copy layer the operators built before patches, which these
# reference operators build.
# ---------------------------------------------------------------------------


def reference_mutant(model, kind, layer, neuron, partner=None, sigma=0.0, seed=0):
    """The full-copy operator: ``model`` with its changed layer a new
    DenseLayer, built from copies of the layer's weights and biases."""
    def rebuild(idx, w, b):
        layers = list(model.layers)
        layers[idx] = DenseLayer(w, b, layers[idx].activation)
        return FcnnClassifier(tuple(layers))

    target = model.layers[layer]
    if kind is MutatorKind.GAUSSIAN_FUZZING:
        scale = float(sigma * target.weights.std())
        noise = philox_rng(seed).normal(0.0, scale, size=target.in_dim)
        w = target.weights.copy()
        if scale > 0.0:
            w[neuron] += noise
        return rebuild(layer, w, target.biases.copy())
    if kind is MutatorKind.WEIGHT_SHUFFLE:
        w = target.weights.copy()
        w[neuron] = w[neuron][scalar_fisher_yates(target.in_dim, philox_rng(seed))]
        return rebuild(layer, w, target.biases.copy())
    if kind is MutatorKind.NEURON_SWITCH:
        w, b = target.weights.copy(), target.biases.copy()
        w[[neuron, partner]] = w[[partner, neuron]]
        b[[neuron, partner]] = b[[partner, neuron]]
        return rebuild(layer, w, b)
    nxt = model.layers[layer + 1]
    w = nxt.weights.copy()
    if kind is MutatorKind.NEURON_EFFECT_BLOCK:
        w[:, neuron] = 0.0
    else:
        w[:, neuron] = -w[:, neuron]
    return rebuild(layer + 1, w, nxt.biases.copy())


def patch_world():
    """A (6, 7, 6, 5, 4) stack whose first layer has weight std 0, whose
    second holds -0.0 entries and a column of zeros (column 2, the outgoing
    weights of neuron 2 of the first layer), and whose output layer holds
    -0.0 entries and a -0.0 bias."""
    net = small_stack(seed=8, input_dim=6, hidden=(7, 6, 5), outputs=4)
    first, second, third, last = net.layers
    w1 = second.weights.copy()
    w1[:, 2] = 0.0
    w1[0, 0] = w1[5, 3] = w1[4, 6] = -0.0
    w3, b3 = last.weights.copy(), last.biases.copy()
    w3[0, 1] = w3[3, 4] = b3[2] = -0.0
    return FcnnClassifier((
        DenseLayer(np.full_like(first.weights, 0.37), first.biases, first.activation),
        DenseLayer(w1, second.biases, second.activation),
        third,
        DenseLayer(w3, b3, last.activation),
    ))


def every_patched_mutant(net):
    """(record, reference model) for every operator at every target of
    ``net``, NS on every pair, GF at sigmas 0, 0.5 and 3."""
    for layer, neuron in _target_space(net, MutatorKind.GAUSSIAN_FUZZING):
        for sigma, seed in ((0.0, 1), (0.5, 2 + neuron), (3.0, 40 + layer)):
            yield (gaussian_fuzz(net, layer, neuron, sigma, seed),
                   reference_mutant(net, MutatorKind.GAUSSIAN_FUZZING, layer, neuron,
                                    sigma=sigma, seed=seed))
        yield (weight_shuffle(net, layer, neuron, 7 * neuron + layer),
               reference_mutant(net, MutatorKind.WEIGHT_SHUFFLE, layer, neuron,
                                seed=7 * neuron + layer))
    for layer, neuron in _target_space(net, MutatorKind.NEURON_EFFECT_BLOCK):
        yield (neuron_effect_block(net, layer, neuron),
               reference_mutant(net, MutatorKind.NEURON_EFFECT_BLOCK, layer, neuron))
        yield (neuron_activation_inverse(net, layer, neuron),
               reference_mutant(net, MutatorKind.NEURON_ACTIVATION_INVERSE, layer, neuron))
    for layer, i, j in _target_space(net, MutatorKind.NEURON_SWITCH):
        yield (neuron_switch(net, layer, i, j),
               reference_mutant(net, MutatorKind.NEURON_SWITCH, layer, i, j))


def assert_same_bytes(got, want):
    for mine, theirs in zip(got.layers, want.layers, strict=True):
        assert mine.weights.tobytes() == theirs.weights.tobytes()
        assert mine.biases.tobytes() == theirs.biases.tobytes()
        assert (mine.activation, mine.out_dim, mine.in_dim) == \
            (theirs.activation, theirs.out_dim, theirs.in_dim)
    assert got.digests == want.digests
    assert model_hash(got) == model_hash(want)


class TestPatchOracle:
    def test_every_operator_at_every_target_matches_the_full_copy(self):
        net = patch_world()
        pairs = list(every_patched_mutant(net))
        kinds = {rec.kind for rec, _ in pairs}
        assert kinds == set(ALL_KINDS) and len(pairs) == 22 * 4 + 18 * 2 + 21 + 15 + 10
        for rec, want in pairs:
            changed = [k for k, layer in enumerate(rec.model.layers)
                       if layer is not net.layers[k]]
            assert len(changed) == 1 and isinstance(rec.model.layers[changed[0]], PatchedLayer)
            assert rec.model.layers[changed[0]].base is net.layers[changed[0]]
            assert_same_bytes(rec.model, want)

    def test_the_edge_cases_are_covered(self):
        net = patch_world()
        last = len(net.layers) - 1
        assert net.layers[0].weights.std() == 0.0 and not net.layers[1].weights[:, 2].any()
        assert np.signbit(net.layers[1].weights).any() and np.signbit(net.layers[last].biases).any()
        # output-layer GF and WS, NS on the first and last rows of a layer
        assert (last, 3) in _target_space(net, MutatorKind.GAUSSIAN_FUZZING)
        assert (1, 0, 5) in _target_space(net, MutatorKind.NEURON_SWITCH)
        # NAI of a -0.0 entry writes 0.0, a changed layer
        nai = neuron_activation_inverse(net, 0, 0).model
        assert nai.layers[1].weights[0, 0] == 0.0 and not np.signbit(nai.layers[1].weights[0, 0])
        assert _first_change(net, nai) == 1

    @pytest.mark.parametrize("make", [
        lambda net: gaussian_fuzz(net, 2, 1, 0.0, seed=3),  # sigma 0
        lambda net: gaussian_fuzz(net, 0, 4, 2.0, seed=3),  # a layer of std 0
        lambda net: neuron_effect_block(net, 0, 2),  # a column already zero
        lambda net: neuron_switch(net, 2, 3, 3),
    ])
    def test_a_patch_equal_to_the_original_reads_as_the_original(self, make):
        from mutspect.dataset import LabeledDataset
        from mutspect.testing import vanilla_test

        net = patch_world()
        rec = make(net)
        assert rec.model.digests == net.digests
        assert _first_change(net, rec.model) == len(net.layers)
        rng = np.random.default_rng(0)
        ds = LabeledDataset(rng.normal(size=(30, net.input_dim)), rng.integers(0, 4, 30), 4)
        with count_forward_passes() as counter:
            table = vanilla_test(net, MutantSet(net, [rec], 0), ds)
        assert counter.count == len(ds.labels)  # the original's pass only
        assert table.verdicts[rec.mutant_id].killing_count == 0

    def test_negative_zero_patches_keep_their_sign(self):
        net = patch_world()
        # WS moving row 5's -0.0 and NS swapping rows 0 and 4, both with one
        for rec in (weight_shuffle(net, 1, 5, seed=2), neuron_switch(net, 1, 0, 4)):
            want = reference_mutant(net, rec.kind, rec.layer, rec.neuron, rec.partner,
                                    seed=rec.seed)
            assert_same_bytes(rec.model, want)
        signed = gaussian_fuzz(net, 1, 0, 0.0, seed=1).model  # keeps row 0's -0.0
        assert np.signbit(signed.layers[1].weights[0, 0])

    def test_each_read_builds_a_fresh_array(self):
        net = patch_world()
        layer = gaussian_fuzz(net, 1, 3, 1.0, seed=5).model.layers[1]
        a, b = layer.weights, layer.weights
        assert a is not b and not np.shares_memory(a, net.layers[1].weights)
        a[:] = 1.0
        assert layer.weights.tobytes() == b.tobytes()
        assert layer.biases is net.layers[1].biases  # biases not patched: the base's
        switched = neuron_switch(net, 1, 0, 4).model.layers[1]
        assert not np.shares_memory(switched.biases, net.layers[1].biases)

    def test_a_patch_is_checked_once_when_built(self):
        base = patch_world().layers[1]
        with pytest.raises(ValidationError, match="finite"):
            PatchedLayer(base, (0,), np.full(base.in_dim, np.inf))
        with pytest.raises(ValidationError, match="finite"):
            PatchedLayer(base, (np.array([0, 1]),), base.weights[[1, 0]], [0.0, np.nan])
        with pytest.raises(ValidationError, match="do not fit"):
            PatchedLayer(base, (0,), np.zeros(base.in_dim + 1))
        with pytest.raises(ValidationError, match="do not fit"):
            PatchedLayer(base, (np.array([0, 1]),), base.weights[[1, 0]], [0.0])
        with pytest.raises(ValidationError, match="finite"):  # fuzz overflowing to inf
            gaussian_fuzz(patch_world(), 1, 0, np.finfo(float).max, seed=1)

    def test_stored_patched_mutants_load_as_the_same_bytes(self, tmp_path):
        net = patch_world()
        for k, (rec, want) in enumerate(every_patched_mutant(net)):
            if k % 7:
                continue
            path = tmp_path / f"{k}.fcnn"
            save_model(rec.model, path)
            loaded = load_model(path)
            assert_same_bytes(loaded, want)
            save_model(want, tmp_path / f"{k}.ref")
            assert path.read_bytes() == (tmp_path / f"{k}.ref").read_bytes()

    def test_a_loaded_manifest_holds_patches_not_layer_copies(self, tmp_path):
        import tracemalloc

        original = small_stack(seed=2, input_dim=12, hidden=(64, 64, 64), outputs=5)
        path = tmp_path / "manifest.json"
        save_manifest(generate_mutant_set(original, 200, seed=4), path)
        load_manifest(path, original)  # first-call costs out of the traced run
        tracemalloc.start()
        try:
            loaded = load_manifest(path, original)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(loaded) == 200
        # a full copy of each changed layer would take 200 x 6-32 KiB; a
        # patch takes one or two 64-wide rows or columns
        assert peak < 32 * (64 * 64 * 8)
