"""Deterministic random streams, one independent substream per component.

Streams are keyed by name so that adding a new consumer never perturbs the
draws seen by existing ones: each stream's state is a pure function of
(seed, name), not of creation order.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .plants import _require_count


def _key_from_name(name: str) -> int:
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


class RngHub:
    """Factory of named, mutually independent random generators.

    Raises ConfigError unless `seed` is an integer >= 0.
    """

    def __init__(self, seed: int):
        _require_count("seed", seed, minimum=0)
        self.seed = int(seed)

    def stream(self, name: str) -> np.random.Generator:
        """Return a fresh generator for `name`; same (seed, name) -> same draws."""
        seq = np.random.SeedSequence(entropy=self.seed,
                                     spawn_key=(_key_from_name(name),))
        return np.random.Generator(np.random.Philox(seq))

    def spawn(self, name: str, index: int) -> np.random.Generator:
        """Indexed substream, e.g. one per trial or per rollout."""
        return self.stream(f"{name}/{index}")
