"""Model-level mutant generation.

Five neuron-level operators, each mutating exactly one neuron (or one neuron
pair) of a trained classifier:

* gaussian fuzzing   - add seeded Gaussian noise to a neuron's incoming weights,
                       noise std = sigma * std of that layer's weight matrix
* weight shuffle     - Fisher-Yates permutation of a neuron's incoming weights
* neuron effect block      - zero the neuron's outgoing weights
* neuron activation inverse - negate the neuron's outgoing weights (a(z) -> -a(z))
* neuron switch      - swap two neurons' incoming weights and biases

Randomness is Philox-seeded and the exact draw sequences are documented in
each docstring so tests can replay them independently.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import TargetError, UnsupportedTargetError, ValidationError
from .model import DenseLayer, FcnnClassifier, model_hash
from .util import philox_rng

DEFAULT_GF_SIGMA = 0.5  # relative to the layer weight std; stand-in default


class MutatorKind(enum.Enum):
    GAUSSIAN_FUZZING = "GF"
    WEIGHT_SHUFFLE = "WS"
    NEURON_EFFECT_BLOCK = "NEB"
    NEURON_ACTIVATION_INVERSE = "NAI"
    NEURON_SWITCH = "NS"


ALL_KINDS = tuple(MutatorKind)


@dataclass(frozen=True)
class MutantRecord:
    mutant_id: int
    kind: MutatorKind
    layer: int
    neuron: int
    partner: int | None  # second neuron, NEURON_SWITCH only
    params: dict
    seed: int
    model: FcnnClassifier

    @property
    def target(self):
        if self.kind is MutatorKind.NEURON_SWITCH:
            return (self.layer, (self.neuron, self.partner))
        return (self.layer, self.neuron)


@dataclass
class MutantSet:
    original: FcnnClassifier
    mutants: list[MutantRecord]
    generation_seed: int
    warnings: list[str] = field(default_factory=list)

    def __post_init__(self):
        if not self.mutants:
            raise ValidationError("a mutant set needs at least one mutant")
        ids = [m.mutant_id for m in self.mutants]
        if len(set(ids)) != len(ids):
            raise ValidationError("mutant ids must be unique")
        for m in self.mutants:
            if (
                m.model.input_dim != self.original.input_dim
                or m.model.num_outputs != self.original.num_outputs
            ):
                raise ValidationError(f"mutant {m.mutant_id} changed model dimensions")

    def __len__(self) -> int:
        return len(self.mutants)

    def ids(self) -> list[int]:
        return [m.mutant_id for m in self.mutants]

    def by_id(self, mutant_id: int) -> MutantRecord:
        for m in self.mutants:
            if m.mutant_id == mutant_id:
                return m
        raise KeyError(mutant_id)


def _check_target(model: FcnnClassifier, layer: int, neuron: int):
    if not 0 <= layer < len(model.layers):
        raise TargetError(f"layer {layer} out of range")
    if not 0 <= neuron < model.layers[layer].out_dim:
        raise TargetError(f"neuron {neuron} out of range in layer {layer}")


def _rebuild(model: FcnnClassifier, layer_idx: int, weights, biases) -> FcnnClassifier:
    layers = list(model.layers)
    layers[layer_idx] = DenseLayer(weights, biases, layers[layer_idx].activation)
    return FcnnClassifier(tuple(layers))


def gaussian_fuzz(
    model: FcnnClassifier,
    layer: int,
    neuron: int,
    sigma: float,
    seed: int,
    mutant_id: int = 0,
) -> MutantRecord:
    """Perturb the neuron's incoming weights with seeded Gaussian noise.

    Noise is drawn as ``philox_rng(seed).normal(0.0, scale, size=in_dim)``
    with ``scale = sigma * layer_weights.std()`` and added to row ``neuron``
    of the layer's weight matrix; every other parameter is bit-identical.
    """
    _check_target(model, layer, neuron)
    if sigma < 0:
        raise TargetError("sigma must be nonnegative")
    target_layer = model.layers[layer]
    scale = float(sigma * target_layer.weights.std())
    noise = philox_rng(seed).normal(0.0, scale, size=target_layer.in_dim)
    w = target_layer.weights.copy()
    if scale > 0.0:
        w[neuron] += noise
    mutated = _rebuild(model, layer, w, target_layer.biases.copy())
    return MutantRecord(
        mutant_id, MutatorKind.GAUSSIAN_FUZZING, layer, neuron, None,
        {"sigma": float(sigma)}, seed, mutated,
    )


def _fisher_yates(n: int, rng: np.random.Generator) -> np.ndarray:
    """Permutation of range(n); draws are rng.integers(0, i + 1) for i = n-1..1."""
    perm = np.arange(n)
    for i in range(n - 1, 0, -1):
        j = int(rng.integers(0, i + 1))
        perm[i], perm[j] = perm[j], perm[i]
    return perm


def weight_shuffle(
    model: FcnnClassifier, layer: int, neuron: int, seed: int, mutant_id: int = 0
) -> MutantRecord:
    """Permute the neuron's incoming weights with a seeded Fisher-Yates shuffle."""
    _check_target(model, layer, neuron)
    target_layer = model.layers[layer]
    perm = _fisher_yates(target_layer.in_dim, philox_rng(seed))
    w = target_layer.weights.copy()
    w[neuron] = w[neuron][perm]
    mutated = _rebuild(model, layer, w, target_layer.biases.copy())
    return MutantRecord(
        mutant_id, MutatorKind.WEIGHT_SHUFFLE, layer, neuron, None, {}, seed, mutated
    )


def neuron_effect_block(
    model: FcnnClassifier, layer: int, neuron: int, mutant_id: int = 0
) -> MutantRecord:
    """Zero the neuron's outgoing weights (column ``neuron`` of the next layer)."""
    _check_target(model, layer, neuron)
    if layer == len(model.layers) - 1:
        raise UnsupportedTargetError("cannot block an output-layer neuron")
    nxt = model.layers[layer + 1]
    w = nxt.weights.copy()
    w[:, neuron] = 0.0
    mutated = _rebuild(model, layer + 1, w, nxt.biases.copy())
    return MutantRecord(
        mutant_id, MutatorKind.NEURON_EFFECT_BLOCK, layer, neuron, None, {}, 0, mutated
    )


def neuron_activation_inverse(
    model: FcnnClassifier, layer: int, neuron: int, mutant_id: int = 0
) -> MutantRecord:
    """Negate the neuron's activation, realized by negating its outgoing weights."""
    _check_target(model, layer, neuron)
    if layer == len(model.layers) - 1:
        raise UnsupportedTargetError("cannot invert an output-layer neuron")
    nxt = model.layers[layer + 1]
    w = nxt.weights.copy()
    w[:, neuron] = -w[:, neuron]
    mutated = _rebuild(model, layer + 1, w, nxt.biases.copy())
    return MutantRecord(
        mutant_id, MutatorKind.NEURON_ACTIVATION_INVERSE, layer, neuron, None, {}, 0, mutated
    )


def neuron_switch(
    model: FcnnClassifier, layer: int, i: int, j: int, mutant_id: int = 0
) -> MutantRecord:
    """Swap neurons i and j of a hidden layer: incoming weights and biases only."""
    _check_target(model, layer, i)
    _check_target(model, layer, j)
    if layer == len(model.layers) - 1:
        raise UnsupportedTargetError("cannot switch output-layer neurons")
    target_layer = model.layers[layer]
    w = target_layer.weights.copy()
    b = target_layer.biases.copy()
    w[[i, j]] = w[[j, i]]
    b[[i, j]] = b[[j, i]]
    mutated = _rebuild(model, layer, w, b)
    return MutantRecord(
        mutant_id, MutatorKind.NEURON_SWITCH, layer, i, j, {}, 0, mutated
    )


# ---------------------------------------------------------------------------
# Seeded generation of a whole mutant set.
# ---------------------------------------------------------------------------


def _target_space(model: FcnnClassifier, kind: MutatorKind) -> list[tuple]:
    """Enumerated valid targets, in documented order (layer asc, neuron asc)."""
    hidden = range(len(model.layers) - 1)
    if kind in (MutatorKind.GAUSSIAN_FUZZING, MutatorKind.WEIGHT_SHUFFLE):
        return [
            (layer, neuron)
            for layer in range(len(model.layers))
            for neuron in range(model.layers[layer].out_dim)
        ]
    if kind in (MutatorKind.NEURON_EFFECT_BLOCK, MutatorKind.NEURON_ACTIVATION_INVERSE):
        return [
            (layer, neuron)
            for layer in hidden
            for neuron in range(model.layers[layer].out_dim)
        ]
    if kind is MutatorKind.NEURON_SWITCH:
        return [
            (layer, i, j)
            for layer in hidden
            for i in range(model.layers[layer].out_dim)
            for j in range(i + 1, model.layers[layer].out_dim)
        ]
    raise TargetError(f"unknown mutator kind {kind}")


def generate_mutant_set(
    model: FcnnClassifier,
    count: int,
    kinds=ALL_KINDS,
    seed: int = 0,
    gf_sigma: float = DEFAULT_GF_SIGMA,
) -> MutantSet:
    """Draw ``count`` seeded single-target mutants.

    Draw sequence per mutant, from ``philox_rng(seed)``: one integer for the
    kind (uniform over applicable kinds in MutatorKind declaration order),
    one integer flat-indexing that kind's enumerated target space, and one
    ``integers(0, 2**63)`` per-mutant seed (consumed even by deterministic
    operators so streams stay aligned).
    """
    if count < 1:
        raise TargetError("count must be at least 1")
    kinds = [k for k in ALL_KINDS if k in tuple(kinds)]
    if not kinds:
        raise TargetError("kinds must be nonempty")
    warnings = []
    spaces = {}
    applicable = []
    for kind in kinds:
        space = _target_space(model, kind)
        if space:
            applicable.append(kind)
            spaces[kind] = space
        else:
            warnings.append(f"{kind.value}: no valid target in this model; excluded")
    if not applicable:
        raise TargetError("no requested mutation operator is applicable to this model")
    for kind in applicable:
        if count > len(spaces[kind]) and applicable == [kind]:
            warnings.append(
                f"{kind.value}: requested {count} mutants but only "
                f"{len(spaces[kind])} distinct targets exist; targets will repeat"
            )
    rng = philox_rng(seed)
    records = []
    for mutant_id in range(count):
        kind = applicable[int(rng.integers(len(applicable)))]
        target = spaces[kind][int(rng.integers(len(spaces[kind])))]
        mutant_seed = int(rng.integers(0, 2**63))
        entry = {"kind": kind.value, "id": mutant_id, "layer": target[0],
                 "neuron": target[1], "seed": mutant_seed, "params": {"sigma": gf_sigma},
                 "partner": target[2] if len(target) > 2 else None}
        records.append(rebuild_mutant(model, entry))
    return MutantSet(model, records, seed, warnings)


# ---------------------------------------------------------------------------
# Manifest: JSON description from which every mutant is re-derivable given
# the original model.  The manifest is the authoritative store; individual
# mutant models can additionally be saved via the model file format.
# ---------------------------------------------------------------------------

MANIFEST_VERSION = 1


def rebuild_mutant(original: FcnnClassifier, entry: dict) -> MutantRecord:
    """The one operator dispatch: a manifest entry (or a fresh draw) -> mutant."""
    kind = MutatorKind(entry["kind"])
    mid = int(entry["id"])
    layer = int(entry["layer"])
    neuron = int(entry["neuron"])
    if kind is MutatorKind.GAUSSIAN_FUZZING:
        return gaussian_fuzz(
            original, layer, neuron, float(entry["params"]["sigma"]), int(entry["seed"]), mid
        )
    if kind is MutatorKind.WEIGHT_SHUFFLE:
        return weight_shuffle(original, layer, neuron, int(entry["seed"]), mid)
    if kind is MutatorKind.NEURON_EFFECT_BLOCK:
        return neuron_effect_block(original, layer, neuron, mid)
    if kind is MutatorKind.NEURON_ACTIVATION_INVERSE:
        return neuron_activation_inverse(original, layer, neuron, mid)
    return neuron_switch(original, layer, neuron, int(entry["partner"]), mid)


def save_manifest(mutant_set: MutantSet, path) -> None:
    payload = {
        "format": "mutant-manifest",
        "version": MANIFEST_VERSION,
        "generation_seed": mutant_set.generation_seed,
        "original_sha256": model_hash(mutant_set.original),
        "warnings": list(mutant_set.warnings),
        "mutants": [
            {
                "id": m.mutant_id,
                "kind": m.kind.value,
                "layer": m.layer,
                "neuron": m.neuron,
                "partner": m.partner,
                "params": m.params,
                "seed": m.seed,
            }
            for m in mutant_set.mutants
        ],
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def load_manifest(path, original: FcnnClassifier) -> MutantSet:
    with open(path, "r", encoding="utf-8") as f:
        payload = json.load(f)
    if payload.get("format") != "mutant-manifest":
        raise ValidationError("not a mutant manifest")
    if payload.get("version") != MANIFEST_VERSION:
        raise ValidationError(f"unsupported manifest version {payload.get('version')}")
    if payload["original_sha256"] != model_hash(original):
        raise ValidationError("manifest was generated from a different original model")
    records = [rebuild_mutant(original, entry) for entry in payload["mutants"]]
    return MutantSet(original, records, payload["generation_seed"], payload.get("warnings", []))
