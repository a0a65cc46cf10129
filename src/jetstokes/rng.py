"""Deterministic named random streams.

Every randomized routine draws from a counter-based Philox4x64-10 generator
keyed by (run seed, stream id). The stream ids are fixed here, so a given
(seed, purpose) pair produces identical draws in any process, on any run,
independent of call order elsewhere in the program.
"""

import numpy as np

STREAM_IDS = {
    "tests": 1,
    "project-input": 2,
    "sweep-rhs": 3,
    "evolution-initial": 4,
    "evolution-forcing": 5,
    "verify-projector-fields": 7,
    "verify-projector-pairs": 8,
    "verify-zero-trace": 9,
    "verify-resolvent": 10,
    "verify-contraction": 11,
    "verify-forcing": 12,
    "verify-gain-probe": 13,
}


def stream(seed, name):
    """Return a fresh Generator for the named stream of a run seed.

    Args:
        seed: run seed, any value accepted by numpy as uint64.
        name: one of the keys of STREAM_IDS.

    Returns:
        numpy.random.Generator backed by Philox keyed with (seed, stream id).
    """
    try:
        sid = STREAM_IDS[name]
    except KeyError:
        raise KeyError("unknown rng stream %r" % (name,)) from None
    key = np.array([seed, sid], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
