"""Tests for the exact combinatorial primitives.

The brute-force reference counters here enumerate restricted growth
strings recursively and know nothing about the Bell/Stirling triangle
code they are checking.
"""

import math

import pytest

from cover_census import combinatorics
from cover_census.combinatorics import (
    DEFAULT_BELL_CAP,
    _pair_collision_terms,
    bell,
    image_distinct_partitions,
    separated_partitions,
    stirling2,
)

BELL_KNOWN = [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975, 678570, 4213597]

STIRLING_KNOWN = [
    [1],
    [0, 1],
    [0, 1, 1],
    [0, 1, 3, 1],
    [0, 1, 7, 6, 1],
    [0, 1, 15, 25, 10, 1],
    [0, 1, 31, 90, 65, 15, 1],
]


def count_partitions_brute(
    size: int, blocks: int | None = None, separated: int | None = None
) -> int:
    """Count set partitions of [size] by recursive label assignment.

    With ``separated=n`` only partitions in which no element j shares a
    block with j + n are counted.
    """
    labels = [0] * size

    def rec(position: int, used: int) -> int:
        if position == size:
            return 1 if blocks is None or used == blocks else 0
        total = 0
        for label in range(used + 1):
            if separated and position >= separated:
                if labels[position - separated] == label:
                    continue
            labels[position] = label
            total += rec(position + 1, used + (1 if label == used else 0))
        return total

    return rec(0, 0)


class TestBell:
    def test_known_values(self):
        assert [bell(n) for n in range(len(BELL_KNOWN))] == BELL_KNOWN

    def test_matches_brute_force(self):
        for n in range(10):
            assert bell(n) == count_partitions_brute(n)

    def test_binomial_recurrence(self):
        for n in range(40):
            assert bell(n + 1) == sum(
                math.comb(n, k) * bell(k) for k in range(n + 1)
            )

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            bell(-1)

    def test_cap_enforced(self, monkeypatch):
        monkeypatch.setattr(combinatorics, "DEFAULT_BELL_CAP", 6)
        with pytest.raises(ValueError):
            bell(7)
        assert bell(6) == 203

    def test_default_cap_value(self):
        assert DEFAULT_BELL_CAP == 1024


class TestStirling2:
    def test_known_triangle(self):
        for n, row in enumerate(STIRLING_KNOWN):
            assert [stirling2(n, k) for k in range(n + 1)] == row

    def test_row_sums_are_bell(self):
        for n in range(30):
            assert sum(stirling2(n, k) for k in range(n + 1)) == bell(n)

    def test_matches_brute_force(self):
        for n in range(8):
            for k in range(n + 1):
                assert stirling2(n, k) == count_partitions_brute(n, k)

    def test_recurrence(self):
        for n in range(1, 25):
            for k in range(1, n + 1):
                assert stirling2(n, k) == k * stirling2(n - 1, k) + stirling2(
                    n - 1, k - 1
                )

    def test_out_of_range(self):
        assert stirling2(3, 5) == 0
        assert stirling2(0, 0) == 1
        assert stirling2(4, 0) == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            stirling2(-1, 0)
        with pytest.raises(ValueError):
            stirling2(3, -1)

    def test_cap_enforced(self, monkeypatch):
        monkeypatch.setattr(combinatorics, "DEFAULT_BELL_CAP", 8)
        with pytest.raises(ValueError):
            stirling2(9, 3)
        assert stirling2(8, 3) == 966


class TestSeparatedPartitions:
    def test_matches_brute_force(self):
        for n in range(5):
            assert separated_partitions(n) == count_partitions_brute(
                2 * n, separated=n
            )

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            separated_partitions(-1)


class TestImageDistinctPartitions:
    def test_pair_terms_match_stirling_form(self):
        assert _pair_collision_terms(40) == [
            sum((-1) ** j * stirling2(k, j) * 2 ** (k - j) for j in range(k + 1))
            for k in range(41)
        ]

    def test_frozen_values(self):
        # Image-distinct counts of the exhaustive scan at n = 0..7; the last
        # is the n = 7 census, reached here without a scan.
        assert [image_distinct_partitions(n) for n in range(8)] == [
            1, 1, 10, 153, 3255, 93508, 3461983, 159183825,
        ]

    def test_bounded_by_bell(self):
        for n in range(0, 513, 73):
            assert 0 < image_distinct_partitions(n) <= bell(2 * n)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            image_distinct_partitions(-1)
