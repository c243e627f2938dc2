"""Brute-force verification engine built on set partitions of [2n].

Give each element j of [n] a twin j + n and fold any subset of [2n] back
onto [n] by reducing twins mod n.  A set partition of [2n] is *separated*
when no block contains both members of a twin pair; folding the blocks of a
separated partition yields a multiset of subsets covering every element of
[n] exactly twice, that is, a 2-cover.  Counting all partitions of [2n]
therefore counts 2-covers with known multiplicities: a cover whose block
multiset has d repeated blocks arises from exactly 2^(n - d) separated
partitions, because each twin pair may be swapped independently except
across a repeated block.  The scan counts them one twin pair at a time,
merging partial partitions whose folded blocks agree.

Everything here is exhaustive and independent of the generating-function
pipeline, so agreement between the two is strong evidence of correctness.
Sizes are capped by an explicit limit.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import combinations
from math import perm
from operator import eq
from typing import Iterable, Iterator, NamedTuple, Sequence

from .combinatorics import bell, image_distinct_partitions
from .errors import ConsistencyError

DEFAULT_ORACLE_LIMIT = 6


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


def merged_twin_count(rgs: Sequence[int], n: int) -> int:
    """Count twin pairs {j, j + n} sharing a block, from a growth string."""
    if len(rgs) != 2 * n:
        raise ValueError(f"expected a partition of [{2 * n}]")
    return sum(map(eq, rgs[:n], rgs[n:]))


def image_collision_count(rgs: Sequence[int], n: int) -> int:
    """Count blocks beyond the number of distinct folded images."""
    if len(rgs) != 2 * n:
        raise ValueError(f"expected a partition of [{2 * n}]")
    if n == 0:
        return 0
    masks = [0] * (max(rgs) + 1)
    for j in range(n):
        bit = 1 << j
        masks[rgs[j]] |= bit
        masks[rgs[j + n]] |= bit
    return len(masks) - len(set(masks))


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


def _check_oracle_size(n: int, limit: int | None) -> None:
    cap = DEFAULT_ORACLE_LIMIT if limit is None else limit
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n > cap:
        raise ValueError(
            f"oracle at n={n} would scan Bell({2 * n}) partitions, above the"
            f" limit {cap}"
        )


def _add_separated(
    out: dict[tuple[int, ...], int], masks: tuple[int, ...], count: int, bit: int
) -> None:
    """Add to ``out`` the outcomes that split a twin pair with bit ``bit``.

    ``masks`` is a sorted state with ``count`` partial partitions, and
    ``bit`` is above every bit in it.  Both elements open new blocks, or
    one opens a block and the other joins block p, or they join blocks
    p < q.  Swapping the twins gives a second partition with the same
    masks unless both blocks are new, hence the weight 2 * count.  The
    masks without ``bit`` stay sorted when sliced, and the masks with it
    are the largest, so each key is sorted as built.
    """
    twice = 2 * count
    key = masks + (bit, bit)
    out[key] = out.get(key, 0) + count
    for p, mask in enumerate(masks):
        rest = masks[:p] + masks[p + 1 :]
        joined = mask | bit
        key = rest + (bit, joined)
        out[key] = out.get(key, 0) + twice
        for q in range(p, len(rest)):
            key = rest[:q] + rest[q + 1 :] + (joined, rest[q] | bit)
            out[key] = out.get(key, 0) + twice


def _place_pair(
    layer: dict[tuple[int, ...], int], bit: int
) -> dict[tuple[int, ...], int]:
    """Place one element and its twin, both with folded bit ``bit``.

    Merged outcomes put both in a new block or both in block p, each with
    the state's count; ``_add_separated`` adds the rest.
    """
    out: dict[tuple[int, ...], int] = {}
    for masks, count in layer.items():
        key = masks + (bit,)
        out[key] = out.get(key, 0) + count
        for p, mask in enumerate(masks):
            key = masks[:p] + masks[p + 1 :] + (mask | bit,)
            out[key] = out.get(key, 0) + count
        _add_separated(out, masks, count, bit)
    return out


def _full_scan(n: int) -> tuple[tuple[int, ...], int, dict[tuple[int, ...], int]]:
    """Scan all partitions of [2n] once.

    Returns (merged-twin histogram, image-distinct count, fiber map from
    folded cover to preimage count).  The fiber map keys are sorted tuples
    of block bit masks; it holds every separated partition, so its counts
    sum to the histogram's first entry.

    The scan is a forward pass over the n twin pairs, keeping one count
    per multiset of folded block masks.  Step j places element j and its
    twin j + n together; both carry bit j - 1, which is above every bit
    already placed, so what can still happen to a partial partition
    depends on its mask multiset alone, and a partition's merged twins
    are 2j minus its total popcount.  At n = 7 the layers after each pair
    hold 2, 9, 66, 712, 10457 and 198091 states; no layer holds an
    element without its twin.

    The last pair is counted once per state of the layer before it, in
    closed form.  A state of L masks with x merged twins gives L + 1
    partitions with x + 1 (both in a new block or both in one block) and
    L^2 + L + 1 with x (split).  Its folded blocks end pairwise distinct
    in (L + 1)^2 ways if its masks are distinct, 4L - 2 ways if one mask
    repeats once, 8 ways if two masks repeat once each, and never
    otherwise: the masks the pair leaves alone keep their repeats, and
    the blocks it joins can break at most two.  No mask occurs three
    times, since masks are nonzero and every placed bit lies in at most
    two blocks, so two repeats always mean two masks.  The fiber keys are
    the split outcomes of the states with x = 0, built by the same
    ``_add_separated`` as every other step.  ``enumerate_partitions``
    with ``classify_partition`` is the independent, set-based route that
    checks this pass leaf by leaf.
    """
    if n == 0:  # the empty partition, separated, folds to the empty cover
        return (1,), 1, {(): 1}
    twin_histogram = [0] * (n + 1)
    fibers: dict[tuple[int, ...], int] = {}
    image_distinct = 0
    layer = {(): 1}
    for j in range(n - 1):
        layer = _place_pair(layer, 1 << j)
    bit = 1 << (n - 1)
    for masks, count in layer.items():
        size = len(masks)
        merged = 2 * n - 2 - sum(map(int.bit_count, masks))
        twin_histogram[merged + 1] += count * (size + 1)
        twin_histogram[merged] += count * (size * size + size + 1)
        repeats = size - len(set(masks))
        if repeats == 0:
            image_distinct += count * (size + 1) ** 2
        elif repeats == 1:
            image_distinct += count * (4 * size - 2)
        elif repeats == 2:
            image_distinct += 8 * count
        if merged == 0:
            _add_separated(fibers, masks, count, bit)
    return tuple(twin_histogram), image_distinct, fibers


def _mask_block(mask: int, n: int) -> tuple[int, ...]:
    return tuple(j + 1 for j in range(n) if (mask >> j) & 1)


class OracleCensus(NamedTuple):
    """Exhaustive counts at one ground-set size.

    ``s``, ``t``, ``u``, ``v`` are the cover counts (all, proper,
    restricted, restricted proper).  The event counts refer to partitions
    of [2n]: ``separated`` have all twin pairs split, ``image_distinct``
    have pairwise distinct folded blocks, and ``collision_histogram`` bins
    the separated partitions by their folded-image collision count.
    ``line_graphs`` counts the restricted covers' distinct line graphs,
    ``line_classes`` those with no triangle component (one per exchange
    class).  A record exists only once every identity of the scan has held.
    """

    n: int
    s: int
    t: int
    u: int
    v: int
    separated: int
    image_distinct: int
    separated_image_distinct: int
    merged_twin_histogram: tuple[int, ...]
    collision_histogram: tuple[int, ...]
    bell_2n: int
    line_graphs: int
    line_classes: int


@lru_cache(maxsize=None)
def _census(n: int) -> OracleCensus:
    """Scan [2n] once and classify each distinct cover once."""
    twin_histogram, image_distinct, fibers = _full_scan(n)
    total = bell(2 * n)
    # Every factorial moment of the merged-twin count; r = 0 is the Bell sum.  The
    # separated count is their alternating sum, so it needs no check of its own.
    for r in range(n + 1):
        moment = sum(count * perm(x, r) for x, count in enumerate(twin_histogram))
        expected = perm(n, r) * bell(2 * n - r)
        if moment != expected:
            raise ConsistencyError(
                f"merged-twin factorial moment failed at n={n}: the scan gives"
                f" {moment} at r={r} but (n)_r * Bell({2 * n - r}) = {expected}"
            )
    formula = image_distinct_partitions(n)
    if image_distinct != formula:
        raise ConsistencyError(
            f"image-distinct count failed at n={n}: the scan gives"
            f" {image_distinct} but the pair-collision formula gives {formula}"
        )
    # Each block's pairs as an edge bit set, one entry per possible mask.
    edge_sets = [
        sum(1 << (a * n + b) for a, b in combinations(_mask_block(mask, n), 2))
        for mask in range(1 << n)
    ]
    collision_histogram = [0] * (n + 1)
    t = u = v = triangle_free = 0
    graphs = set()
    for key, preimages in fibers.items():
        duplicates = len(key) - len(set(key))
        collision_histogram[duplicates] += preimages
        t += duplicates == 0
        if preimages != 1 << (n - duplicates):
            raise ConsistencyError(
                f"fiber size failed at n={n}: cover {[_mask_block(m, n) for m in key]}"
                f" has {preimages} separated preimages, not 2^(n - {duplicates})"
            )
        # Restricted covers are those whose blocks' edge sets are disjoint;
        # their union is the line graph.  Stop at the first shared edge.
        line_graph = shared = 0
        for mask in key:
            edges = edge_sets[mask]
            shared = line_graph & edges
            if shared:
                break
            line_graph |= edges
        if shared:
            continue
        u += 1
        v += duplicates == 0
        graphs.add(line_graph)
        # Each element lies in exactly two blocks, so three two-element
        # blocks on three elements use every slot of those elements: a
        # triangle is always a whole component.  Distinct two-element
        # masks a and b share one element exactly when a ^ b has two bits,
        # and then the triangle's third block, if present, is a ^ b.
        pairs = [mask for mask in key if mask.bit_count() == 2]
        if not any(a ^ b in pairs for a, b in combinations(pairs, 2)):
            triangle_free += 1
    return OracleCensus(
        n=n,
        s=len(fibers),
        t=t,
        u=u,
        v=v,
        separated=twin_histogram[0],
        image_distinct=image_distinct,
        separated_image_distinct=collision_histogram[0],
        merged_twin_histogram=twin_histogram,
        collision_histogram=tuple(collision_histogram),
        bell_2n=total,
        line_graphs=len(graphs),
        line_classes=triangle_free,
    )


def oracle_counts(n: int, *, limit: int | None = None) -> OracleCensus:
    """Count 2-covers of [n] by exhausting partitions of [2n].

    Raises ConsistencyError at the first identity of the scan that fails:
    each factorial moment of the merged-twin histogram is (n)_r * Bell(2n - r),
    image-distinct equals its Bell-number formula, and each cover with d
    repeated blocks has 2^(n - d) separated preimages.  The last forces the
    identities s * 2^n = sum_d 2^d hist_d and t * 2^n = hist_0 of the
    collision histogram, so they need no check of their own.  The record is
    computed once per n and shared by every later call.
    """
    _check_oracle_size(n, limit)
    return _census(n)


class FiberCheck(NamedTuple):
    """Preimage-count result, kept for callers of ``covers`` and ``ok``."""

    covers: int
    mismatches: tuple[tuple[TwoCover, int, int], ...]

    @property
    def ok(self) -> bool:
        return not self.mismatches


def fiber_check(n: int, *, limit: int | None = None) -> FiberCheck:
    """Count the covers; oracle_counts raises first on a cover without
    2^(n - duplicate pairs) preimages, so ``mismatches`` is always ()."""
    return FiberCheck(covers=oracle_counts(n, limit=limit).s, mismatches=())


def oracle_line_count(n: int, *, limit: int | None = None) -> int:
    """Count distinct labelled line graphs among restricted covers of [n].

    A restricted cover gives the graph on [n] that joins two elements when
    they share a block: the line graph of the simple graph whose vertices
    are the blocks and whose edges are the elements.  This counts the
    distinct such graphs, that is, the graphs on the labelled vertex set
    [n] that are line graphs.
    Beware that it is strictly below oracle_line_class_count from n = 4 on
    (60 versus 66): collapsing a triangle with a pendant edge relabels into
    the same diamond graph two ways, so the triangle/star exchange is not
    the only way two covers can share a line graph.
    """
    return oracle_counts(n, limit=limit).line_graphs


def oracle_line_class_count(n: int, *, limit: int | None = None) -> int:
    """Count restricted covers of [n] with no triangle component.

    A triangle component (three two-element blocks on three elements) and
    the star on the same elements (one triple block plus its three
    singletons) are the classical pair of roots with equal line graphs.
    Replacing every triangle by its star gives each exchange class's one
    triangle-free member, so this counts the classes too.  The factor
    exp(-x^3/6) removes triangle components from the restricted-cover
    series, so this matches the table's line column exactly.
    """
    return oracle_counts(n, limit=limit).line_classes
