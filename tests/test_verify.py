"""Structure of the verify battery, checked without running any check."""

import pytest

from catsize.errors import DomainError
from catsize.verify import CHECKS, checks, run


def test_registry_names_are_unique():
    names = [c.name for c in CHECKS]
    assert len(names) == len(set(names))


def test_fast_suite_is_the_in_order_prefix_of_full():
    fast, full = checks("fast"), checks("full")
    assert full == CHECKS
    assert full[: len(fast)] == fast
    assert {c.suite for c in full[len(fast):]} == {"full"}


def test_suite_sizes_match_the_readme():
    assert (len(checks("fast")), len(checks("full"))) == (27, 34)


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_seed_outside_key_range_is_refused_before_any_row(seed):
    with pytest.raises(DomainError, match=r"expected a seed in \[0, 2\*\*64\)"):
        run("fast", seed)
