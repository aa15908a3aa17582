"""Shared helpers: seeded RNG construction, hashing, phase timing, binary reads."""

from __future__ import annotations

import hashlib
import time
from contextlib import contextmanager

import numpy as np

from .errors import FormatError


def philox_rng(seed: int) -> np.random.Generator:
    """Generator backed by the Philox counter-based bit generator.

    All randomness in the package flows through this constructor so that
    every draw sequence can be replayed from its integer seed alone.
    """
    return np.random.Generator(np.random.Philox(seed))


def derived_seed(*parts: int) -> int:
    """Deterministic child seed from a tuple of integers (SeedSequence-based)."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1, np.uint64)[0])


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        while True:
            block = f.read(1 << 20)
            if not block:
                break
            h.update(block)
    return h.hexdigest()


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
