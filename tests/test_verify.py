"""Structure of the verify battery, checked without running any check."""

from catsize.verify import CHECKS, checks


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
