"""Shared helpers: seeded RNG construction, hashing, phase timing, file I/O."""

from __future__ import annotations

import hashlib
import json
import os
import stat
import time
from contextlib import contextmanager, suppress
from numbers import Integral

import numpy as np

from .errors import FormatError, ParameterError


def is_integer(value) -> bool:
    """True for a non-bool ``Integral``: a Python or numpy integer, not True or 2.5."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def check_seed(seed) -> int:
    """``seed`` as a Python int; anything but a non-negative integer raises
    ParameterError (numpy would raise a bare error, or draw from OS entropy
    for ``None``)."""
    if not is_integer(seed) or seed < 0:
        raise ParameterError(f"seed must be a non-negative integer, got {seed!r}")
    return int(seed)


def philox_rng(seed: int) -> np.random.Generator:
    """Generator backed by the Philox counter-based bit generator.

    All randomness in the package flows through this constructor so that
    every draw sequence can be replayed from its integer seed alone.
    """
    return np.random.Generator(np.random.Philox(check_seed(seed)))


def derived_seed(*parts: int) -> int:
    """Deterministic child seed from a tuple of integers (SeedSequence-based)."""
    seeds = [check_seed(part) for part in parts]
    return int(np.random.SeedSequence(seeds).generate_state(1, np.uint64)[0])


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def open_fresh(path, mode: str = "w", **kwargs):
    """``open(path, mode)``, on a new file where ``path`` is a regular file.

    Truncating a non-empty file makes ext4 (``auto_da_alloc``) flush it on
    close, tens of milliseconds; unlinking it first does not.  A symlink or
    a file with other hard links is written through, as ``open`` does.
    """
    with suppress(FileNotFoundError):
        st = os.lstat(path)
        if stat.S_ISREG(st.st_mode) and st.st_nlink == 1:
            os.unlink(path)
    return open(path, mode, **kwargs)


def write_json(path, payload) -> None:
    """Indented, key-sorted JSON with a final newline, on a fresh file."""
    with open_fresh(path, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def load_json(path):
    """Parsed JSON; a file that is not JSON raises FormatError naming it."""
    with open(path, "r", encoding="utf-8") as f:
        try:
            return json.load(f)
        except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
            raise FormatError(f"{path} is not JSON: {exc}") from None


@contextmanager
def phase_timer(phases: dict, name: str):
    """Accumulate elapsed monotonic seconds into ``phases[name]``."""
    start = time.perf_counter()
    try:
        yield
    finally:
        phases[name] = phases.get(name, 0.0) + (time.perf_counter() - start)


def readonly(arr: np.ndarray) -> np.ndarray:
    """Return a C-contiguous view flagged read-only."""
    out = np.ascontiguousarray(arr)
    out.flags.writeable = False
    return out


class ByteReader:
    """Sequential reader of a binary file; truncation names the byte offset."""

    def __init__(self, data: bytes, kind: str):
        self.data = data
        self.kind = kind
        self.offset = 0

    def take(self, n: int, what: str) -> bytes:
        if self.offset + n > len(self.data):
            raise FormatError(f"truncated {self.kind} file: need {what} at byte {self.offset}")
        chunk = self.data[self.offset : self.offset + n]
        self.offset += n
        return chunk
