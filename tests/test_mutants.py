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
from mutspect.model import DenseLayer, FcnnClassifier, batch_outputs, model_hash
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
