"""Deterministic seed derivation for every stochastic consumer.

A single root seed plus a tuple of string labels (module name, task id, shard
index, ...) maps to an independent numpy Generator. The derivation hashes the
joined labels with sha256 and uses the digest as a spawn key, so streams are
stable across runs, platforms, and worker counts.
"""

from __future__ import annotations

import hashlib

import numpy as np

MAX_SEED = (1 << 63) - 1  # the largest root seed


def derive_seedseq(root_seed: int, *labels) -> np.random.SeedSequence:
    """SeedSequence for (root_seed, labels). Labels are stringified.

    root_seed must lie in [0, 2^63): a seed outside it raises ValueError
    rather than wrap onto the stream of another seed.
    """
    if not 0 <= root_seed <= MAX_SEED:
        raise ValueError(f"seed {root_seed} is outside [0, {MAX_SEED}]")
    tag = ":".join(str(x) for x in labels)
    digest = hashlib.sha256(tag.encode("utf-8")).digest()
    # two 64-bit words of the digest as the spawn key
    key = (
        int.from_bytes(digest[:8], "little"),
        int.from_bytes(digest[8:16], "little"),
    )
    return np.random.SeedSequence(entropy=int(root_seed), spawn_key=key)


def derive_rng(root_seed: int, *labels) -> np.random.Generator:
    """Independent PCG64 generator for the labelled substream."""
    return np.random.Generator(np.random.PCG64(derive_seedseq(root_seed, *labels)))


def derive_child_seed(root_seed: int, *labels) -> int:
    """Stable integer seed for a labelled sub-task that takes plain seeds."""
    state = derive_seedseq(root_seed, *labels).generate_state(1, np.uint64)[0]
    return int(state & MAX_SEED)
