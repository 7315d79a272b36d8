"""Structure of the verify battery, and the seeds it once failed on."""

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


@pytest.mark.parametrize("seed", [2019913341, 2465509901])
def test_vacuum_mixing_row_redraws_unmatched_intensities(seed):
    # both seeds drew 5 pairs with no bitwise-matched beta and failed the row
    rows = run("fast", seed)
    (vacuum,) = [r for r in rows if r["name"] == "vacuum-mixing-invariance"]
    assert vacuum["status"] == "pass"
    assert vacuum["observed"] == 0.0 and vacuum["tolerance"] == 0.0
    assert all(r["status"] == "pass" for r in rows)


@pytest.mark.parametrize(
    "suite, seed",
    [("fast", 2283172114), ("fast", 838334454), ("fast", 1833313030), ("full", 779890653)],
)
def test_wigner_rows_take_their_cutoff_from_the_drawn_points(suite, seed):
    # at a fixed cutoff of 40 a drawn point pushed the displaced amplitude
    # into the top Fock levels and the headroom guard raised TruncationError
    rows = run(suite, seed)
    assert [r["name"] for r in rows if r["status"] != "pass"] == []
