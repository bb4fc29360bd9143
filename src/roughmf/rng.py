"""Counter-based random number generation.

All randomness in the toolkit flows through Philox4x64 streams.  A stream is
addressed by ``(seed, lane, member)``: the seed is the Philox key, and the
(lane, member) pair is placed in the high words of the 256-bit counter, so
distinct addresses yield provably non-overlapping streams and identical
addresses replay bit-identically on every platform.

Lanes partition usage: lane 0 carries the driving noise of the rough-path
layer, lane 1 the per-particle Monte Carlo noise of the mean-field layer.
"""

from __future__ import annotations

import numpy as np

DRIVER_LANE = 0
PARTICLE_LANE = 1
INIT_LANE = 2


def _counter(seed: int, lane: int, member: int) -> np.ndarray:
    """The Philox counter of the stream (seed, lane, member)."""
    if seed < 0 or lane < 0 or member < 0:
        raise ValueError("stream address components must be non-negative")
    return np.array([0, 0, member, lane], dtype=np.uint64)


def stream(seed: int, lane: int, member: int = 0) -> np.random.Generator:
    """Generator for the Philox stream addressed by (seed, lane, member)."""
    counter = _counter(seed, lane, member)
    return np.random.Generator(np.random.Philox(key=np.uint64(seed), counter=counter))


def streams(seed: int, lane: int, members: range):
    """The generators of the streams (seed, lane, m) for m in members, in order.

    One Philox is re-keyed per member: it takes the fresh state of
    ``stream(seed, lane, members[0])`` (the key, an empty output buffer) with
    the counter of (seed, lane, m), so each generator draws exactly what
    ``stream(seed, lane, m)`` draws.  A generator is valid only until the
    next one is taken.
    """
    if not members:
        return
    g = stream(seed, lane, members[0])
    fresh = g.bit_generator.state
    for m in members:
        fresh["state"]["counter"] = _counter(seed, lane, m)
        g.bit_generator.state = fresh
        yield g
