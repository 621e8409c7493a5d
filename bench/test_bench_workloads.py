"""Determinism of the benchmark's seeded inputs (no timing, no workload runs)."""

import pytest

from workloads import GOLDEN_ARGV, WORKLOADS, make_ops


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_argv(workload):
    first = [op.argv for op in make_ops(workload, 7)]
    again = [op.argv for op in make_ops(workload, 7)]
    assert first == again
    assert all(isinstance(a, str) for argv in first for a in argv)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_different_seeds_differ(workload):
    assert [op.argv for op in make_ops(workload, 1)] != [op.argv for op in make_ops(workload, 2)]


@pytest.mark.parametrize("seed", [0, 1, 2, 12345])
def test_golden_collapse_in_every_seed(seed):
    assert GOLDEN_ARGV in [op.argv for op in make_ops("collapse", seed)]


def test_unknown_workload_rejected():
    with pytest.raises(ValueError):
        make_ops("nope", 1)
