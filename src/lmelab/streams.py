"""Reproducible keyed random streams.

Streams are counter-based (Philox-4x64) and keyed directly by
(seed, label tuple): the 128-bit Philox key holds the seed in one word and
the bit-packed labels in the other, so a stream is a pure function of its
labels with no state hand-off between workers, identical output on every
platform, and statistical independence across distinct keys by design of
the generator.  Output depends on (seed, labels) alone.  The lme pool keys
one stream per scale, (domain, step), and its replica blocks draw
consecutive, disjoint stretches of it; the brw pool keys one stream per
replica block, (domain, step, block).  Either way the blocks stay
statistically independent.  brw keeps its per-block streams on purpose:
blocks that share no generator can run on several threads at once
(``engine.map_chunks``) with output bit-identical to a one-thread run,
where one stream per step would chain them in order on one thread.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .errors import _check_int

__all__ = [
    "DOMAIN_LME",
    "DOMAIN_BRW",
    "DOMAIN_CHAIN",
    "DOMAIN_PRBM",
    "DOMAIN_TEST",
    "derive_stream",
]

# label-space partition per module (first label of every tuple)
DOMAIN_LME = 1
DOMAIN_BRW = 2
DOMAIN_CHAIN = 3
DOMAIN_PRBM = 4
DOMAIN_TEST = 14

# bit widths for (domain, major, minor) label packing
_W_DOMAIN, _W_MAJOR, _W_MINOR = 4, 36, 24


def _pack(labels: Sequence[int]) -> int:
    if not 1 <= len(labels) <= 3:
        raise ValueError("labels must have 1 to 3 entries (domain, major, minor)")
    key = 0
    fields = zip(("domain", "major", "minor"), (*labels, 0, 0), (_W_DOMAIN, _W_MAJOR, _W_MINOR))
    for name, v, width in fields:
        _check_int(f"labels {name}", v, 0, (1 << width) - 1)
        key = (key << width) | int(v)
    return key


def _check_seed(seed: int) -> None:
    # the seed fills one 64-bit key word; wrapping it would alias -1 to
    # 2^64 - 1, and truncating it would alias 1.5 to 1
    _check_int("seed", seed, 0, 2**64 - 1)


def derive_stream(seed: int, labels: Iterable[int]) -> np.random.Generator:
    """Generator for the (seed, labels) cell of the stream space."""
    _check_seed(seed)
    key = np.array([int(seed), _pack(tuple(labels))], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
