"""Deterministic random streams.

All randomness in the package flows through Philox, a counter-based generator
with a published algorithm, so streams reproduce bit-for-bit across platforms
and numpy versions.  Streams are addressed, not sequential: a stream is
identified by a root seed plus a tuple of non-negative integers (the spawn
key), and Monte Carlo replication ``r`` always uses stream ``(r,)`` under the
run's seed — the seed-plus-replication-index substream rule.  Disjoint spawn
keys give statistically independent streams, so replications may run in any
order or concurrently without affecting results.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError

__all__ = ["stream", "child_seed", "check_seed"]


def check_seed(seed: int) -> None:
    """A seed that is not an integer >= 0, from a flag, a config file or a caller, is a ConfigError."""
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ConfigError("seed must be a non-negative integer")


def _seed_sequence(seed: int, key: tuple[int, ...]) -> np.random.SeedSequence:
    """The seed sequence of substream ``key`` under ``seed``."""
    check_seed(seed)
    return np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))


def child_seed(seed: int, *key: int) -> int:
    """Derive a well-mixed integer seed for a keyed sub-computation.

    Deterministic in (seed, key) and collision-resistant across keys, so a
    study can hand independent seeds to generators that take a plain int.
    """
    return int(_seed_sequence(seed, key).generate_state(1, np.uint64)[0])


def stream(seed: int, *key: int) -> np.random.Generator:
    """Return the Philox generator for substream ``key`` under ``seed``.

    ``stream(seed)`` is the root stream; ``stream(seed, r)`` is replication
    r's substream; further components address nested uses (e.g. fold
    shuffles).  Equal arguments always return a generator in the same state.
    """
    return np.random.Generator(np.random.Philox(_seed_sequence(seed, key)))
