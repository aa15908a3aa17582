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

import copy
import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    MissingMutantError,
    ParameterError,
    TargetError,
    UnsupportedTargetError,
    ValidationError,
)
from .model import DenseLayer, FcnnClassifier, model_hash
from .util import is_integer, load_json, philox_rng, write_json

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
        dims = (self.original.input_dim, self.original.num_outputs)
        for m in self.mutants:
            if (m.model.input_dim, m.model.num_outputs) != dims:
                raise ValidationError(f"mutant {m.mutant_id} changed model dimensions")

    def __len__(self) -> int:
        return len(self.mutants)

    def ids(self) -> list[int]:
        return [m.mutant_id for m in self.mutants]

    def subset(self, ids) -> MutantSet:
        """The records whose id is in ``ids``, in this set's order."""
        wanted = set(ids)
        picked = [m for m in self.mutants if m.mutant_id in wanted]
        if len(picked) != len(wanted):
            missing = min(wanted - {m.mutant_id for m in picked})
            raise MissingMutantError(f"mutant {missing} is not in the mutant set")
        return self.part(picked)

    def part(self, records: list[MutantRecord]) -> MutantSet:
        """A set of ``records`` taken from this one, with its original and generation
        seed.  Each record passed this set's checks, so only emptiness is checked again."""
        if not records:
            raise ValidationError("a mutant set needs at least one mutant")
        part = copy.copy(self)
        part.mutants, part.warnings = records, []
        return part


def _check_target(model: FcnnClassifier, layer: int, neuron: int):
    if not 0 <= layer < len(model.layers):
        raise TargetError(f"layer {layer} out of range")
    if not 0 <= neuron < model.layers[layer].out_dim:
        raise TargetError(f"neuron {neuron} out of range in layer {layer}")


def _rebuild(model: FcnnClassifier, layer_idx: int, weights, biases) -> FcnnClassifier:
    layers = list(model.layers)
    layers[layer_idx] = DenseLayer(weights, biases, layers[layer_idx].activation)
    return FcnnClassifier(tuple(layers))


def _check_sigma(sigma: float) -> None:
    if not (np.isfinite(sigma) and sigma >= 0):
        raise TargetError(f"sigma must be finite and nonnegative, got {sigma!r}")


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
    _check_sigma(sigma)
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
    """Permutation of range(n); draws are rng.integers(0, i + 1) for i = n-1..1.

    They are made in one broadcast call over the bounds n..2, which gives
    the values (and leaves the generator in the state) of those scalar calls.
    """
    perm = list(range(n))
    for i, j in zip(range(n - 1, 0, -1), rng.integers(0, np.arange(n, 1, -1)).tolist()):
        perm[i], perm[j] = perm[j], perm[i]
    return np.array(perm)


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


def _rewrite_outgoing(
    model: FcnnClassifier, layer: int, neuron: int, kind: MutatorKind, mutant_id: int, rewrite
) -> MutantRecord:
    """Replace the neuron's outgoing weights (column ``neuron`` of the next
    layer) by ``rewrite(column)``; every other parameter is bit-identical."""
    _check_target(model, layer, neuron)
    if layer == len(model.layers) - 1:
        raise UnsupportedTargetError(f"{kind.value}: an output neuron has no outgoing weights")
    nxt = model.layers[layer + 1]
    w = nxt.weights.copy()
    w[:, neuron] = rewrite(w[:, neuron])
    mutated = _rebuild(model, layer + 1, w, nxt.biases.copy())
    return MutantRecord(mutant_id, kind, layer, neuron, None, {}, 0, mutated)


def neuron_effect_block(
    model: FcnnClassifier, layer: int, neuron: int, mutant_id: int = 0
) -> MutantRecord:
    """Zero the neuron's outgoing weights (column ``neuron`` of the next layer)."""
    return _rewrite_outgoing(
        model, layer, neuron, MutatorKind.NEURON_EFFECT_BLOCK, mutant_id, lambda c: 0.0
    )


def neuron_activation_inverse(
    model: FcnnClassifier, layer: int, neuron: int, mutant_id: int = 0
) -> MutantRecord:
    """Negate the neuron's activation, realized by negating its outgoing weights."""
    return _rewrite_outgoing(
        model, layer, neuron, MutatorKind.NEURON_ACTIVATION_INVERSE, mutant_id, lambda c: -c
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
    """Enumerated valid targets, in documented order (layer asc, neuron asc).

    GF and WS rewrite a neuron's incoming weights, so they may target any
    layer; NEB, NAI and NS need a hidden layer."""
    any_layer = kind in (MutatorKind.GAUSSIAN_FUZZING, MutatorKind.WEIGHT_SHUFFLE)
    layers = model.layers if any_layer else model.layers[:-1]
    widths = list(enumerate(layer.out_dim for layer in layers))
    if kind is MutatorKind.NEURON_SWITCH:
        return [(layer, i, j) for layer, width in widths
                for i in range(width) for j in range(i + 1, width)]
    return [(layer, neuron) for layer, width in widths for neuron in range(width)]


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
    if not is_integer(count) or count < 1:
        raise TargetError(f"count must be an integer of at least 1, got {count!r}")
    _check_sigma(gf_sigma)  # before any draw, whichever kinds are drawn
    if isinstance(seed, int) and seed < 0:  # philox_rng rejects other non-seeds
        raise ParameterError(f"generation seed must be non-negative, got {seed}")
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
        entry = _manifest_entry(kind, mutant_id, target, mutant_seed, {"sigma": gf_sigma})
        records.append(rebuild_mutant(model, entry))
    return MutantSet(model, records, seed, warnings)


# ---------------------------------------------------------------------------
# Manifest: JSON description from which every mutant is re-derivable given
# the original model.  The manifest is the authoritative store; individual
# mutant models can additionally be saved via the model file format.
# ---------------------------------------------------------------------------

MANIFEST_VERSION = 1


def _manifest_entry(kind: MutatorKind, mutant_id: int, target: tuple, seed: int,
                    params: dict) -> dict:
    """Entry for a drawn target: (layer, neuron) or (layer, neuron, partner)."""
    return {"kind": kind.value, "id": mutant_id, "layer": target[0], "neuron": target[1],
            "seed": seed, "params": params, "partner": target[2] if len(target) > 2 else None}


def _integer(entry: dict, key: str) -> int:
    # JSON 1.5, "1" and true would otherwise be coerced to a different target
    value = entry[key]
    if not is_integer(value):
        raise ValidationError(f"manifest field {key!r} must be an integer, got {value!r}")
    return value


def _sigma(params: dict) -> float:
    # "0.5" and true would otherwise load as a sigma
    value = params["sigma"]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"manifest field 'sigma' must be a number, got {value!r}")
    return float(value)


def rebuild_mutant(original: FcnnClassifier, entry: dict) -> MutantRecord:
    """The one operator dispatch: a manifest entry (or a fresh draw) -> mutant."""
    kind = MutatorKind(entry["kind"])
    mid = _integer(entry, "id")
    layer = _integer(entry, "layer")
    neuron = _integer(entry, "neuron")
    if kind is MutatorKind.GAUSSIAN_FUZZING:
        return gaussian_fuzz(
            original, layer, neuron, _sigma(entry["params"]), _integer(entry, "seed"), mid
        )
    if kind is MutatorKind.WEIGHT_SHUFFLE:
        return weight_shuffle(original, layer, neuron, _integer(entry, "seed"), mid)
    if kind is MutatorKind.NEURON_EFFECT_BLOCK:
        return neuron_effect_block(original, layer, neuron, mid)
    if kind is MutatorKind.NEURON_ACTIVATION_INVERSE:
        return neuron_activation_inverse(original, layer, neuron, mid)
    return neuron_switch(original, layer, neuron, _integer(entry, "partner"), mid)


def save_manifest(mutant_set: MutantSet, path) -> None:
    payload = {
        "format": "mutant-manifest",
        "version": MANIFEST_VERSION,
        "generation_seed": mutant_set.generation_seed,
        "original_sha256": model_hash(mutant_set.original),
        "warnings": list(mutant_set.warnings),
        "mutants": [
            _manifest_entry(m.kind, m.mutant_id, (m.layer, m.neuron, m.partner), m.seed, m.params)
            for m in mutant_set.mutants
        ],
    }
    write_json(path, payload)


def load_manifest(path, original: FcnnClassifier) -> MutantSet:
    """Rebuild every mutant of a manifest; a malformed one raises MutspectError."""
    payload = load_json(path)
    if not isinstance(payload, dict) or payload.get("format") != "mutant-manifest":
        raise ValidationError("not a mutant manifest")
    if payload.get("version") != MANIFEST_VERSION:
        raise ValidationError(f"unsupported manifest version {payload.get('version')}")
    if payload.get("original_sha256") != model_hash(original):
        raise ValidationError(
            "manifest original_sha256 is missing or names a different original model"
        )
    try:
        records = [rebuild_mutant(original, entry) for entry in payload["mutants"]]
        generation_seed = payload["generation_seed"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed manifest: {exc!r}") from None
    return MutantSet(original, records, generation_seed, payload.get("warnings", []))
