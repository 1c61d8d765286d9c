"""Deterministic seed derivation.

All randomness in the package flows from a single master seed through
this helper: each (stage, task) pair maps to a stable child seed, so
results do not depend on scheduling or call order.
"""

from __future__ import annotations

import hashlib

import numpy as np

# numpy loads its random package lazily; importing it with the package keeps
# that one-off cost (about 15 ms: secrets, hmac) out of the first stage that draws
import numpy.random  # noqa: F401


def _tag_to_int(tag: object) -> int:
    if isinstance(tag, (int, np.integer)):
        return int(tag) & 0xFFFFFFFF
    digest = hashlib.blake2s(str(tag).encode("utf-8"), digest_size=4).digest()
    return int.from_bytes(digest, "big")


def spawn_seed(master: int, *tags: object) -> np.random.SeedSequence:
    """Child seed for (master, tags); stable across platforms and runs."""
    return np.random.SeedSequence([int(master) & 0xFFFFFFFF] + [_tag_to_int(t) for t in tags])
