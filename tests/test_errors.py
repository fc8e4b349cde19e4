"""The one integer rule of ``errors``: every size, depth, count, seed and
stream label is an integer by ``__index__`` within its range."""

import numpy as np
import pytest

from lmelab import analytics, brw, chain, engine, prbm
from lmelab.errors import _check_int
from lmelab.streams import DOMAIN_TEST, derive_stream


def rng():
    return derive_stream(0, (DOMAIN_TEST, 9))


@pytest.mark.parametrize(
    "make, good, bad, name",
    [
        (lambda n: chain.RgParams(N=n, b=0.3, n_max=4), 1024, 1024.0, "N"),
        (lambda n: chain.init_chain(n, rng()), 64, 64.0, "N"),
        (lambda d: brw.BrwParams(beta=0.5, depth=d, replicas=3200), 3, 3.0, "depth"),
        (lambda d: brw.tree_samples(0.5, d, 4, rng()), 3, 3.0, "depth"),
        (lambda n: prbm.build_matrix(n, 0.1, rng()), 100, 100.0, "N"),
        (lambda label: derive_stream(0, (1, label)), 1, 1.5, "labels"),
        (lambda d: brw.second_moment_recursion(0.5, d), 3, 3.0, "depth"),
        (analytics.find_qk, 3, 3.0, "k"),
        (
            lambda s: engine.LmeParams(q=0.75, b=0.5, n_max=4, pool_size=3200, seed=s),
            3, 3.0, "seed",
        ),
    ],
    ids=[
        "RgParams-N", "init_chain-N", "BrwParams-depth", "tree_samples-depth",
        "build_matrix-N", "derive_stream-label", "second_moment_recursion-depth",
        "find_qk-k", "LmeParams-seed",
    ],
)
def test_entry_points_refuse_floats_by_name(make, good, bad, name):
    # an unchecked float reaches numpy, which fails with a TypeError that
    # names no argument
    make(good)
    with pytest.raises(ValueError, match=f"^{name} "):
        make(bad)


@pytest.mark.parametrize("value", [2, 5, np.int64(3), np.uint8(5)])
def test_integers_within_the_bounds_pass(value):
    _check_int("x", value, 2, 5)


@pytest.mark.parametrize(
    "value, hi, message",
    [
        (1, 5, r"^x must be an integer in \[2, 5\], got 1$"),
        (6, 5, r"^x must be an integer in \[2, 5\], got 6$"),
        (1, None, r"^x must be an integer >= 2, got 1$"),
        (3.0, None, r"^x must be an integer >= 2, got 3\.0$"),
        (np.float64(3.0), 5, r"^x must be an integer in \[2, 5\], got 3\.0$"),
        ("3", None, r"^x must be an integer >= 2, got 3$"),
    ],
)
def test_the_rule_names_the_argument_and_its_range(value, hi, message):
    with pytest.raises(ValueError, match=message):
        _check_int("x", value, 2, hi)
