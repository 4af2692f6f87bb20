"""Deterministic, splittable random streams.

Every random quantity in the package flows from a single integer seed.
Independent components get independent streams by *labeled splitting*: a
stream is a Philox (4x64-10, counter-based) generator keyed by the BLAKE2b
hash of ``"<seed>/<label>"``.  Philox bit streams are stable across platforms
and numpy releases, and distinct labels give statistically independent
streams, so results never depend on evaluation order or process layout.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["stream", "derive_seed"]


def stream_key(seed: int, label: str) -> np.ndarray:
    """128-bit Philox key for (seed, label), as two uint64 words."""
    digest = hashlib.blake2b(f"{seed}/{label}".encode(), digest_size=16).digest()
    return np.frombuffer(digest, dtype=np.uint64).copy()


def stream(seed: int, label: str) -> np.random.Generator:
    """A fresh generator for the given seed and label.

    Calling this twice with the same arguments yields identical streams.
    """
    return np.random.Generator(np.random.Philox(key=stream_key(seed, label)))


def derive_seed(seed: int, label: str) -> int:
    """A 63-bit child seed for handing to a sub-component."""
    digest = hashlib.blake2b(f"{seed}/{label}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little") >> 1
