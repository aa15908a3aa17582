import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mutspect.dataset import (
    LabeledDataset,
    deserialize_dataset,
    load_dataset,
    save_dataset,
    serialize_dataset,
)
from mutspect.errors import FormatError, ValidationError
from mutspect.spectra import stratified_sample


def make_dataset(n=12, dim=3, classes=4, seed=0):
    rng = np.random.default_rng(seed)
    return LabeledDataset(
        rng.normal(size=(n, dim)), rng.integers(0, classes, size=n), classes
    )


def test_round_trip_bit_exact(tmp_path):
    ds = make_dataset()
    path = tmp_path / "data.fdst"
    save_dataset(ds, path)
    loaded = load_dataset(path)
    assert loaded.features.tobytes() == ds.features.tobytes()
    assert loaded.labels.tolist() == ds.labels.tolist()
    assert loaded.class_count == ds.class_count


def test_labels_present():
    ds = LabeledDataset(np.zeros((4, 2)), np.array([2, 0, 2, 3]), 5)
    assert ds.labels_present().tolist() == [0, 2, 3]
    # computed once per dataset and shared, so callers cannot write into it
    assert ds.labels_present() is ds.labels_present()
    assert not ds.labels_present().flags.writeable


@pytest.mark.parametrize("labels, class_count", [
    ([2, 0, 2, 3, 7, 3], 9),  # gaps at 1, 4-6 and above the largest label
    ([4, 4, 4], 5),  # a single label, the last class
    ([0], 1),
    ([6, 1, 0, 6, 3, 2, 5, 4], 7),  # every class, up to class_count - 1
])
def test_labels_present_equals_np_unique(labels, class_count):
    ds = LabeledDataset(np.zeros((len(labels), 2)), np.array(labels), class_count)
    got, want = ds.labels_present(), np.unique(ds.labels)
    assert got.dtype == want.dtype and got.tolist() == want.tolist()


def test_labels_present_far_above_the_point_count():
    # a count per possible label would take 8 PiB here
    ds = LabeledDataset(np.zeros((2, 1)), [0, 2**50], 2**51)
    got = ds.labels_present()
    assert got.dtype == np.int64 and got.tolist() == [0, 2**50]
    sample = stratified_sample(ds, 1, 0)
    assert sample.indices.tolist() == [0, 1] and sample.truncated_classes == ()


def test_subset_preserves_order():
    ds = make_dataset()
    sub = ds.subset([5, 1, 3])
    np.testing.assert_array_equal(sub.features, ds.features[[5, 1, 3]])
    np.testing.assert_array_equal(sub.labels, ds.labels[[5, 1, 3]])


@pytest.mark.parametrize("labels", [
    [0.5, 1.7],  # a cast would truncate them to 0 and 1
    np.array([0.0, 1.0]),  # integral values, but floats
    [True, False],  # a cast would read them as 1 and 0
    ["1", "2"],  # a cast would parse them as 1 and 2
    np.array([1, 2], dtype=object),
], ids=["fractional", "integral-floats", "bool", "str", "object"])
def test_non_integer_labels_are_validation_errors(labels):
    with pytest.raises(ValidationError, match="labels must be integers"):
        LabeledDataset(np.zeros((2, 2)), labels, 3)


@pytest.mark.parametrize("indices", [
    [True, False, True],  # a mask, which a cast would read as points 1, 0, 1
    [0.9, 2.2],  # a cast would truncate them to points 0 and 2
    np.array([0.0, 2.0]),
    ["0", "2"],
], ids=["bool-mask", "fractional", "integral-floats", "str"])
def test_non_integer_subset_indices_are_validation_errors(indices):
    with pytest.raises(ValidationError, match="subset indices must be integers"):
        make_dataset().subset(indices)


def test_integer_labels_and_indices_of_any_width_are_accepted():
    ds = LabeledDataset(np.zeros((3, 2)), np.array([2, 0, 1], dtype=np.uint8), 3)
    assert ds.labels.dtype == np.int64 and ds.labels.tolist() == [2, 0, 1]
    sub = ds.subset(np.array([2, 0], dtype=np.uint32))
    assert sub.labels.tolist() == [1, 2]
    with pytest.raises(ValidationError, match="^dataset is empty$"):
        ds.subset([])


def test_validation_errors():
    with pytest.raises(ValidationError):
        LabeledDataset(np.zeros((2, 2)), np.array([0, 5]), 3)  # label out of range
    with pytest.raises(ValidationError):
        LabeledDataset(np.array([[np.nan, 0.0]]), np.array([0]), 1)
    with pytest.raises(ValidationError):
        LabeledDataset(np.zeros((0, 2)), np.zeros(0, dtype=int), 1)


@pytest.mark.parametrize("class_count", [2.5, np.float64(3.0), True],
                         ids=["float", "numpy-float", "bool"])
def test_non_integer_class_count_is_validation_error(class_count):
    with pytest.raises(ValidationError, match="class_count must be an integer"):
        LabeledDataset(np.zeros((2, 2)), np.array([0, 0]), class_count)


def test_numpy_integer_class_count_round_trips(tmp_path):
    ds = LabeledDataset(np.zeros((2, 2)), np.array([0, 2]), np.int64(3))
    save_dataset(ds, tmp_path / "d.fdst")
    assert load_dataset(tmp_path / "d.fdst").class_count == 3


def test_truncated_file(tmp_path):
    ds = make_dataset()
    path = tmp_path / "data.fdst"
    save_dataset(ds, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-3])
    with pytest.raises(FormatError, match="byte"):
        load_dataset(path)


def test_bad_magic(tmp_path):
    path = tmp_path / "data.fdst"
    path.write_bytes(b"XXXX" + b"\x00" * 20)
    with pytest.raises(FormatError, match="byte 0"):
        load_dataset(path)



def test_huge_declared_count_rejected_before_allocation():
    data = b"FDST" + struct.pack("<BIII", 1, 2**32 - 1, 3, 2) + b"\x00" * 40
    with pytest.raises(FormatError, match="byte 45"):
        deserialize_dataset(data)


def _unchecked_dataset(features, labels, class_count):
    # bypasses LabeledDataset validation so a header field can be made huge
    # from broadcast views that allocate nothing
    ds = object.__new__(LabeledDataset)
    for name, value in (("features", features), ("labels", labels), ("class_count", class_count)):
        object.__setattr__(ds, name, value)
    return ds


@pytest.mark.parametrize("field, dataset", [
    ("class_count", lambda: LabeledDataset(np.zeros((1, 1)), [0], 2**32)),
    ("point_count", lambda: _unchecked_dataset(
        np.broadcast_to(np.zeros(1), (2**32, 1)), np.broadcast_to(np.zeros(1, int), (2**32,)), 1)),
    ("input_dim", lambda: _unchecked_dataset(
        np.broadcast_to(np.zeros(1), (1, 2**32)), np.zeros(1, int), 1)),
], ids=("class_count", "point_count", "input_dim"))
def test_header_field_overflow_is_validation_error(tmp_path, field, dataset):
    ds = dataset()
    message = f"^dataset {field} 4294967296 does not fit the u32 header field$"
    with pytest.raises(ValidationError, match=message):
        serialize_dataset(ds)
    path = tmp_path / "data.fdst"
    save_dataset(make_dataset(), path)
    before = path.read_bytes()
    with pytest.raises(ValidationError, match=message):
        save_dataset(ds, path)
    assert path.read_bytes() == before  # the old file survives a failed save


def test_zero_declared_count_rejected():
    with pytest.raises(FormatError, match="byte 5"):
        deserialize_dataset(b"FDST" + struct.pack("<BIII", 1, 0, 2**32 - 1, 2))


datasets = st.integers(0, 6).flatmap(
    lambda dim: st.integers(1, 5).flatmap(
        lambda classes: st.lists(
            st.tuples(
                st.lists(st.floats(allow_nan=False, allow_infinity=False),
                         min_size=dim, max_size=dim),
                st.integers(0, classes - 1),
            ),
            min_size=1,
            max_size=8,
        ).map(lambda rows: LabeledDataset(np.array([r[0] for r in rows]).reshape(len(rows), dim),
                                          [r[1] for r in rows], classes))
    )
)


def per_point_bytes(ds: LabeledDataset) -> bytes:
    """Reference encoding, one point at a time, as the format describes it."""
    head = b"FDST" + struct.pack("<BIII", 1, len(ds), ds.input_dim, ds.class_count)
    return head + b"".join(
        row.astype("<f8").tobytes() + struct.pack("<I", int(label))
        for row, label in zip(ds.features, ds.labels)
    )


@settings(max_examples=100, deadline=None)
@given(ds=datasets)
def test_round_trip_matches_reference_encoding(ds):
    data = serialize_dataset(ds)
    assert data == per_point_bytes(ds)
    loaded = deserialize_dataset(data)
    assert loaded.features.tobytes() == ds.features.tobytes()
    assert loaded.labels.tobytes() == ds.labels.tobytes()
    assert loaded.class_count == ds.class_count


def first_missing_part(length: int, count: int, dim: int) -> tuple[str, int]:
    """Reference: walk the parts in file order; the first one cut short."""
    parts = [("magic", 4), ("version", 1), ("header", 12)]
    for i in range(count):
        parts += [(f"point {i} features", 8 * dim), (f"point {i} label", 4)]
    offset = 0
    for what, size in parts:
        if offset + size > length:
            return what, offset
        offset += size
    raise AssertionError("nothing is missing")


@settings(max_examples=50, deadline=None)
@given(ds=datasets)
def test_every_truncation_raises_format_error(ds):
    data = serialize_dataset(ds)
    for cut in range(len(data)):
        what, offset = first_missing_part(cut, len(ds), ds.input_dim)
        with pytest.raises(FormatError) as err:
            deserialize_dataset(data[:cut])
        assert str(err.value) == f"truncated dataset file: need {what} at byte {offset}"
    with pytest.raises(FormatError, match=f"offset {len(data)}"):
        deserialize_dataset(data + b"\x00")
