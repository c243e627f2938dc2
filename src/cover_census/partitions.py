"""Set partitions of [2n] and their folding onto [n], one partition at a time.

The set-based reference route: ``classify_partition`` reads a partition's
blocks as sets and folds them by the definitions, so the tests check the
oracle's bit-mask scan against it leaf by leaf.  No CLI command runs it.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Iterable, Iterator, NamedTuple


def _iter_rgs(size: int) -> Iterator[list[int]]:
    """Yield every restricted growth string of ``size`` in lexicographic order.

    The same list object is yielded each time; callers must not mutate or
    retain it.
    """
    if size == 0:
        yield []
        return
    labels = [0] * size
    bounds = [1] * size
    while True:
        yield labels
        j = size - 1
        while j > 0 and labels[j] == bounds[j]:
            j -= 1
        if j == 0:
            return
        labels[j] += 1
        nb = bounds[j]
        if labels[j] == nb:
            nb += 1
        for k in range(j + 1, size):
            labels[k] = 0
            bounds[k] = nb


class SetPartition(namedtuple("SetPartition", "size rgs")):
    """A set partition of [size], stored as a restricted growth string.

    ``rgs[i]`` is the block label of element i + 1; labels appear in order
    of first use, which makes the representation canonical.
    """

    __slots__ = ()

    def __new__(cls, size: int, rgs: tuple[int, ...]) -> "SetPartition":
        if size < 0 or len(rgs) != size:
            raise ValueError(f"expected {size} labels, got {len(rgs)}")
        highest = 0
        for i, label in enumerate(rgs):
            if not 0 <= label <= highest:
                raise ValueError(
                    f"label {label} at position {i} breaks restricted growth"
                )
            if label == highest:
                highest += 1
        return super().__new__(cls, size, rgs)

    @classmethod
    def _make(cls, iterable):
        """Build through ``__new__``, so ``_replace`` validates too."""
        return cls(*iterable)

    @property
    def block_count(self) -> int:
        return max(self.rgs) + 1 if self.rgs else 0

    def blocks(self) -> tuple[tuple[int, ...], ...]:
        """Blocks as sorted tuples of 1-based elements, in label order."""
        out: list[list[int]] = [[] for _ in range(self.block_count)]
        for i, label in enumerate(self.rgs):
            out[label].append(i + 1)
        return tuple(tuple(block) for block in out)


def enumerate_partitions(size: int) -> Iterator[SetPartition]:
    """Yield all set partitions of [size] in lexicographic RGS order."""
    if size < 0:
        raise ValueError(f"size must be >= 0, got {size}")
    for labels in _iter_rgs(size):
        yield SetPartition(size, tuple(labels))


class TwoCover(NamedTuple):
    """A 2-cover of [n]: a block multiset covering every element twice."""

    n: int
    blocks: tuple[tuple[int, ...], ...]

    @staticmethod
    def from_blocks(n: int, blocks: Iterable[Iterable[int]]) -> "TwoCover":
        """Canonicalize and validate a candidate block multiset."""
        canon = tuple(sorted(tuple(sorted(set(block))) for block in blocks))
        seen = [0] * (n + 1)
        for block in canon:
            if not block:
                raise ValueError("2-cover blocks must be nonempty")
            for element in block:
                if not 1 <= element <= n:
                    raise ValueError(
                        f"element {element} outside the ground set [{n}]"
                    )
                seen[element] += 1
        bad = [e for e in range(1, n + 1) if seen[e] != 2]
        if bad:
            raise ValueError(
                f"elements {bad} are not covered exactly twice"
            )
        return TwoCover(n, canon)


class PartitionClassification(NamedTuple):
    """How one partition of [2n] sits under the folding map."""

    separated: bool
    image_distinct: bool
    merged_twin_count: int
    collision_count: int
    cover: TwoCover | None


def classify_partition(partition: SetPartition, n: int) -> PartitionClassification:
    """Classify a partition of [2n] by its folding behaviour.

    Uses the set-based definitions directly, deliberately avoiding the
    bit-mask shortcuts of the census scan, so the two routes check each
    other.
    """
    if partition.size != 2 * n:
        raise ValueError(
            f"partition of [{partition.size}] cannot fold onto [{n}]"
        )
    blocks = partition.blocks()
    merged = 0
    for block in blocks:
        members = set(block)
        merged += sum(1 for j in block if j <= n and j + n in members)
    images = [frozenset(j if j <= n else j - n for j in block) for block in blocks]
    collisions = len(images) - len(set(images))
    separated = merged == 0
    cover = None
    if separated:
        cover = TwoCover.from_blocks(n, [sorted(image) for image in images])
    return PartitionClassification(
        separated=separated,
        image_distinct=collisions == 0,
        merged_twin_count=merged,
        collision_count=collisions,
        cover=cover,
    )
