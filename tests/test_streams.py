"""Keyed streams: label packing and reproducibility from (seed, labels)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lmelab import streams
from lmelab.streams import DOMAIN_TEST, derive_stream

W_DOMAIN, W_MAJOR, W_MINOR = 4, 36, 24

labels3 = st.tuples(
    st.integers(0, 2**W_DOMAIN - 1),
    st.integers(0, 2**W_MAJOR - 1),
    st.integers(0, 2**W_MINOR - 1),
)


@given(labels3)
def test_pack_fields_read_back(labels):
    key = streams._pack(labels)
    assert 0 <= key < 2**64
    fields = (
        key >> (W_MAJOR + W_MINOR),
        (key >> W_MINOR) & (2**W_MAJOR - 1),
        key & (2**W_MINOR - 1),
    )
    assert fields == labels


@given(labels3, labels3)
def test_pack_is_injective(a, b):
    assert (streams._pack(a) == streams._pack(b)) == (a == b)


@pytest.mark.parametrize(
    "labels, field",
    [
        ((2**W_DOMAIN, 0, 0), "domain"),
        ((-1,), "domain"),
        ((DOMAIN_TEST, 2**W_MAJOR), "major"),
        ((DOMAIN_TEST, -1, 0), "major"),
        ((DOMAIN_TEST, 0, 2**W_MINOR), "minor"),
        ((DOMAIN_TEST, 0, -1), "minor"),
    ],
)
def test_out_of_range_label_names_its_field(labels, field):
    with pytest.raises(ValueError, match=field):
        streams._pack(labels)


@pytest.mark.parametrize("labels", [(), (1, 2, 3, 4)])
def test_label_count_is_checked(labels):
    with pytest.raises(ValueError):
        streams._pack(labels)


@given(st.integers(0, 2**64 - 1), labels3)
def test_equal_seed_and_labels_give_equal_draws(seed, labels):
    a = derive_stream(seed, labels).random(8)
    b = derive_stream(seed, list(labels)).random(8)
    assert np.array_equal(a, b)


def test_distinct_labels_give_distinct_draws():
    a = derive_stream(7, (DOMAIN_TEST, 1, 0)).random(8)
    b = derive_stream(7, (DOMAIN_TEST, 1, 1)).random(8)
    c = derive_stream(8, (DOMAIN_TEST, 1, 0)).random(8)
    assert not np.array_equal(a, b) and not np.array_equal(a, c)


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_seeds_outside_64_bits_are_rejected(seed):
    # a wrapped seed would alias: -1 would draw what 2^64 - 1 draws
    with pytest.raises(ValueError, match="seed"):
        derive_stream(seed, (DOMAIN_TEST, 0, 0))
