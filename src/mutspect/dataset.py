"""Labeled test datasets and their binary file format.

File format, version 1, little-endian:
  magic "FDST" | version u8 | point_count u32 | input_dim u32 | class_count u32
  per point: features f64 (input_dim) | label u32
The points are one packed array of the structured dtype ``_point_dtype``.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, ValidationError
from .util import ByteReader, is_integer, open_fresh, readonly

_MAGIC = b"FDST"
_VERSION = 1
_HEADER_BYTES = 17  # magic, version and three u32 counts


def _point_dtype(dim: int) -> np.dtype:
    return np.dtype([("features", "<f8", (dim,)), ("label", "<u4")])


@dataclass(frozen=True)
class LabeledDataset:
    features: np.ndarray  # (n, input_dim) float64
    labels: np.ndarray  # (n,) int64
    class_count: int

    def __post_init__(self):
        x = np.asarray(self.features, dtype=np.float64)
        y = np.asarray(self.labels, dtype=np.int64)
        if x.ndim != 2 or y.ndim != 1 or x.shape[0] != y.shape[0]:
            raise ValidationError(
                f"features {x.shape} and labels {y.shape} do not line up"
            )
        if x.shape[0] == 0:
            raise ValidationError("dataset is empty")
        q = self.class_count
        if not is_integer(q) or q < 1:
            raise ValidationError(f"class_count must be an integer of at least 1, got {q!r}")
        if not np.isfinite(x).all():
            raise ValidationError("features must be finite")
        if y.min() < 0 or y.max() >= q:
            raise ValidationError(
                f"labels must lie in [0, {q}), got "
                f"[{y.min()}, {y.max()}]"
            )
        object.__setattr__(self, "features", readonly(x))
        object.__setattr__(self, "labels", readonly(y))

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def input_dim(self) -> int:
        return self.features.shape[1]

    def labels_present(self) -> np.ndarray:
        """Sorted distinct labels occurring in the dataset (the label set), read-only."""
        return self._label_set

    @functools.cached_property
    def _label_set(self) -> np.ndarray:
        # once per dataset: a run asks at every sampling rate and in the tester
        return readonly(np.unique(self.labels))

    def subset(self, indices) -> "LabeledDataset":
        """Dataset restricted to the given point indices, in the given order."""
        idx = np.asarray(indices, dtype=np.int64)
        return LabeledDataset(self.features[idx], self.labels[idx], self.class_count)


def serialize_dataset(dataset: LabeledDataset) -> bytes:
    counts = {"point_count": len(dataset), "input_dim": dataset.input_dim,
              "class_count": dataset.class_count}
    for name, value in counts.items():
        if value >= 2**32:
            raise ValidationError(f"dataset {name} {value} does not fit the u32 header field")
    header = struct.pack("<BIII", _VERSION, *counts.values())
    points = np.empty(len(dataset), dtype=_point_dtype(dataset.input_dim))
    points["features"] = dataset.features
    points["label"] = dataset.labels
    return _MAGIC + header + points.tobytes()


def deserialize_dataset(data: bytes) -> LabeledDataset:
    take = ByteReader(data, "dataset").take
    if take(4, "magic") != _MAGIC:
        raise FormatError("bad magic at byte 0: not a dataset file")
    (version,) = struct.unpack("<B", take(1, "version"))
    if version != _VERSION:
        raise FormatError(f"unsupported dataset format version {version} at byte 4")
    count, dim, classes = struct.unpack("<III", take(12, "header"))
    if count == 0:
        raise FormatError("point count is zero at byte 5")
    # sizes are checked before anything is allocated: the header is untrusted
    size = 8 * dim + 4
    end = _HEADER_BYTES + count * size
    if end > len(data):
        i, rest = divmod(len(data) - _HEADER_BYTES, size)
        what, at = ("features", 0) if rest < 8 * dim else ("label", 8 * dim)
        raise FormatError(f"truncated dataset file: need point {i} {what} at byte "
                          f"{_HEADER_BYTES + i * size + at}")
    if end != len(data):
        raise FormatError(f"trailing bytes at offset {end}")
    points = np.frombuffer(data, dtype=_point_dtype(dim), count=count, offset=_HEADER_BYTES)
    return LabeledDataset(points["features"], points["label"], classes)


def save_dataset(dataset: LabeledDataset, path) -> None:
    data = serialize_dataset(dataset)  # before the old file is replaced
    with open_fresh(path, "wb") as f:
        f.write(data)


def load_dataset(path) -> LabeledDataset:
    with open(path, "rb") as f:
        return deserialize_dataset(f.read())
