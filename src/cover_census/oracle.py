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
Sizes are capped by an explicit limit.  The set-based reference the tests
check the scan against, one partition at a time, is ``tests/partitions.py``.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import perm
from operator import eq
from typing import Iterator, NamedTuple, Sequence

from .combinatorics import bell, image_distinct_partitions
from .errors import ConsistencyError

DEFAULT_ORACLE_LIMIT = 6


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


def _place_pair(
    layer: dict[tuple[int, ...], int], bit: int
) -> dict[tuple[int, ...], int]:
    """Place one element and its twin, both with folded bit ``bit``.

    Merged outcomes put both in a new block or both in block p, each with
    the state's count.  Split outcomes put them in two new blocks, a new
    block and block p, or blocks p < q; swapping the twins gives a second
    partition with the same masks unless both blocks are new, hence the
    weight 2 * count.  The masks without ``bit`` stay sorted when sliced,
    and the masks with it are the largest, so each key is sorted as built.
    """
    out: dict[tuple[int, ...], int] = {}
    for masks, count in layer.items():
        twice = 2 * count
        key = masks + (bit,)
        out[key] = out.get(key, 0) + count
        key = key + (bit,)
        out[key] = out.get(key, 0) + count
        for p, mask in enumerate(masks):
            rest = masks[:p] + masks[p + 1 :]
            joined = mask | bit
            key = rest + (joined,)
            out[key] = out.get(key, 0) + count
            key = rest + (bit, joined)
            out[key] = out.get(key, 0) + twice
            for q in range(p, len(rest)):
                key = rest[:q] + rest[q + 1 :] + (joined, rest[q] | bit)
                out[key] = out.get(key, 0) + twice
    return out


def _full_scan(n: int) -> tuple[tuple[int, ...], int, Iterator[tuple]]:
    """Scan all partitions of [2n] once.

    Returns (merged-twin histogram, image-distinct count, covers).  The
    scan is a forward pass over the n twin pairs, keeping one count
    per multiset of folded block masks.  Step j places element j and its
    twin j + n together; both carry bit j - 1, which is above every bit
    already placed, so what can still happen to a partial partition
    depends on its mask multiset alone, and a partition's merged twins
    are 2j minus its total popcount.  At n = 7 the layers after each pair
    hold 2, 9, 66, 712, 10457 and 198091 states.

    The last pair is counted once per state of the layer before it, in
    closed form.  A state of L masks with m merged twins gives L + 1
    partitions with m + 1 (both in a new block or both in one block) and
    L^2 + L + 1 with m (split).  Its folded blocks end pairwise distinct
    in (L + 1)^2 ways if its masks are distinct, 4L - 2 ways if one mask
    repeats once, 8 ways if two masks repeat once each, and never
    otherwise: the masks the pair leaves alone keep their repeats, and
    the blocks it joins can break at most two.  No mask occurs three
    times, since masks are nonzero and every placed bit lies in at most
    two blocks, so two repeats always mean two masks.

    ``covers`` lazily lists each 2-cover of [n] once, as (state, x, y,
    preimages, duplicates, line_graph, triangle_free): a state with m = 0
    and the mask values x <= y its last twins join, 0 for a new block
    (``_cover_masks`` gives the blocks).  The weights are count for two new
    blocks, 2 * count * mult(y) for a new block and y, 2 * count * mult(x)
    * mult(y) for x < y, and 2 * count for both copies of a repeated x; the
    2 is the twin swap.  Removing the bit from a cover's masks gives back
    its state, so no cover is listed twice.  ``line_graph`` is the union of
    the blocks' edge sets (one bit per pair of elements) if they are
    disjoint, that is if the cover is restricted, else None; the pair adds
    only edges to its bit, which clash exactly when x & y != 0.  A state is
    a 2-cover of [n - 1], so its triangles (three two-element blocks on
    three elements) are disjoint components.  ``triangle_free`` says the
    cover is restricted, x or y is a mask of each state triangle, and x, y
    are not singletons {i}, {j} with {i, j} a block (a triangle through n).
    ``classify_partition`` in ``tests/partitions.py`` checks this pass leaf
    by leaf.
    """
    if n == 0:  # the empty partition, separated, folds to the empty cover
        return (1,), 1, iter([((), 0, 0, 1, 0, 0, True)])
    twin_histogram = [0] * (n + 1)
    states = []
    image_distinct = 0
    layer = {(): 1}
    for j in range(n - 1):
        layer = _place_pair(layer, 1 << j)
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
            states.append((masks, count))
    return tuple(twin_histogram), image_distinct, _last_pair_covers(states, n)


def _last_pair_covers(states: list, n: int) -> Iterator[tuple]:
    """List the covers the last pair makes from ``states``; see ``_full_scan``."""
    bit = 1 << (n - 1)
    edge_sets = [
        sum(1 << (a * n + b) for a, b in combinations(_mask_block(mask, n), 2))
        for mask in range(1 << n)
    ]
    for state, count in states:
        mult: dict[int, int] = {}
        graph = 0
        for mask in state:
            mult[mask] = mult.get(mask, 0) + 1
            if graph is not None:
                graph = None if graph & edge_sets[mask] else graph | edge_sets[mask]
        repeats = len(state) - len(mult)
        pairs = {m for m in mult if m.bit_count() == 2}
        hit: dict[int, int] = {}  # each triangle's masks -> its own bit
        for a, b in combinations(sorted(pairs), 2):
            if b < a ^ b and a ^ b in pairs:
                hit[a] = hit[b] = hit[a ^ b] = 1 << len(hit) // 3
        every = -1 if graph is None else (1 << len(hit) // 3) - 1  # -1 is never hit
        yield state, 0, 0, count, repeats + 1, graph, not every
        values = [(x, mx, hit.get(x, 0)) for x, mx in mult.items()]
        for i, (x, mx, x_hit) in enumerate(values):
            x_graph = None if graph is None else graph | edge_sets[x | bit]
            weight = 2 * count * mx
            dup = repeats - (mx == 2)
            yield state, 0, x, weight, dup, x_graph, x_hit == every
            if mx == 2:
                yield state, x, x, 2 * count, repeats, None, False
            for y, my, y_hit in values[i + 1 :]:
                clash = x_graph is None or x & y
                line_graph = None if clash else x_graph | edge_sets[y | bit]
                free = not clash and x_hit | y_hit == every and x | y not in pairs
                yield state, x, y, weight * my, dup - (my == 2), line_graph, free


def _cover_masks(state: tuple[int, ...], x: int, y: int, n: int) -> list[int]:
    """The sorted block masks of the cover listed as (state, x, y, ...)."""
    masks = list(state)
    for mask in (x, y):
        if mask:
            masks.remove(mask)
    return masks + [x | 1 << (n - 1), y | 1 << (n - 1)] if n else masks


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
    """Scan [2n] once and tally each listed cover once."""
    twin_histogram, image_distinct, covers = _full_scan(n)
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
    collision_histogram = [0] * (n + 1)
    s = t = u = v = triangle_free = 0
    graphs = set()
    for state, x, y, preimages, duplicates, line_graph, free in covers:
        s += 1
        collision_histogram[duplicates] += preimages
        t += duplicates == 0
        if preimages != 1 << (n - duplicates):
            blocks = [_mask_block(m, n) for m in _cover_masks(state, x, y, n)]
            raise ConsistencyError(
                f"fiber size failed at n={n}: cover {blocks}"
                f" has {preimages} separated preimages, not 2^(n - {duplicates})"
            )
        if line_graph is not None:
            u += 1
            v += duplicates == 0
            graphs.add(line_graph)
            triangle_free += free
    return OracleCensus(
        n=n,
        s=s,
        t=t,
        u=u,
        v=v,
        separated=twin_histogram[0],
        image_distinct=image_distinct,
        separated_image_distinct=collision_histogram[0],
        merged_twin_histogram=twin_histogram,
        collision_histogram=tuple(collision_histogram),
        bell_2n=bell(2 * n),
        line_graphs=len(graphs),
        line_classes=triangle_free,
    )


def oracle_counts(n: int, *, limit: int = DEFAULT_ORACLE_LIMIT) -> OracleCensus:
    """Count 2-covers of [n] by exhausting partitions of [2n].

    Raises ConsistencyError at the first identity of the scan that fails:
    each factorial moment of the merged-twin histogram is (n)_r * Bell(2n - r),
    image-distinct equals its Bell-number formula, and each cover with d
    repeated blocks has 2^(n - d) separated preimages.  The last forces the
    identities s * 2^n = sum_d 2^d hist_d and t * 2^n = hist_0 of the
    collision histogram, so they need no check of their own.  The record is
    computed once per n and shared by every later call.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n > limit:
        raise ValueError(
            f"oracle at n={n} would scan Bell({2 * n}) partitions, above the"
            f" limit {limit}"
        )
    return _census(n)


class FiberCheck(NamedTuple):
    """Preimage-count result, kept for callers of ``covers`` and ``ok``."""

    covers: int
    mismatches: tuple[()]

    @property
    def ok(self) -> bool:
        return not self.mismatches


def fiber_check(n: int, *, limit: int = DEFAULT_ORACLE_LIMIT) -> FiberCheck:
    """Count the covers; oracle_counts raises first on a cover without
    2^(n - duplicate pairs) preimages, so ``mismatches`` is always ()."""
    return FiberCheck(covers=oracle_counts(n, limit=limit).s, mismatches=())


def oracle_line_count(n: int, *, limit: int = DEFAULT_ORACLE_LIMIT) -> int:
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


def oracle_line_class_count(n: int, *, limit: int = DEFAULT_ORACLE_LIMIT) -> int:
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
