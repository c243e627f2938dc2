"""Tests for the exhaustive oracle.

Besides unit coverage, this file cross-checks the partition-scanning
census against a second, structurally unrelated enumeration that builds
2-covers directly as block multisets.  Agreement between the two pins
down both.
"""

from collections import Counter
from itertools import combinations

import pytest

from cover_census import combinatorics, oracle
from cover_census.combinatorics import bell, image_distinct_partitions
from cover_census.errors import ConsistencyError
from cover_census.oracle import (
    DEFAULT_ORACLE_LIMIT,
    _cover_masks,
    _full_scan,
    _place_pair,
    fiber_check,
    image_collision_count,
    merged_twin_count,
    oracle_counts,
    oracle_line_class_count,
    oracle_line_count,
)
from cover_census.sequences import collision_histogram_route, full_table
from partitions import (
    SetPartition,
    TwoCover,
    classify_partition,
    enumerate_partitions,
)

# Distinct line-graph images stay strictly below the line-class count, the
# restricted covers with no triangle component, from n = 4 on.  Each
# triangle/star exchange class holds exactly one triangle-free cover, so
# the latter is also the number of exchange classes; both sequences were
# frozen from exhaustive runs.
LINE_CLASSES_KNOWN = [1, 1, 2, 8, 66, 774]
LINE_IMAGES_KNOWN = [1, 1, 2, 8, 60, 729]


def iter_two_covers(n):
    """Yield every 2-cover of [n] as a sorted tuple of block bit masks.

    Direct multiset search: blocks are chosen in nondecreasing mask order
    and each element's coverage is tracked, which is independent of the
    partition-folding route used by the oracle.
    """
    counts = [0] * n

    def rec(min_mask, chosen):
        if all(c == 2 for c in counts):
            yield tuple(chosen)
            return
        for mask in range(min_mask, 1 << n):
            if any(counts[j] == 2 for j in range(n) if (mask >> j) & 1):
                continue
            for j in range(n):
                if (mask >> j) & 1:
                    counts[j] += 1
            chosen.append(mask)
            yield from rec(mask, chosen)
            chosen.pop()
            for j in range(n):
                if (mask >> j) & 1:
                    counts[j] -= 1

    yield from rec(1, [])


def star_form(blocks):
    """Replace every triangle (three two-element blocks on three elements)
    by the star on its elements, as a sorted tuple of sorted blocks."""
    pairs = [block for block in blocks if len(block) == 2]
    triangles = [
        (a, b, c) for a, b, c in combinations(pairs, 3) if len(a | b | c) == 3
    ]
    in_triangles = {block for triangle in triangles for block in triangle}
    kept = [block for block in blocks if block not in in_triangles]
    for a, b, c in triangles:
        union = a | b | c
        kept += [union] + [frozenset([e]) for e in union]
    return tuple(sorted(tuple(sorted(block)) for block in kept))


def census_from_multisets(n):
    """Count covers four ways straight from the multiset enumeration.

    Also returns the restricted covers' line graphs and their number of
    triangle/star exchange classes, found by deduplicating star forms.
    """
    s = t = u = v = 0
    images = set()
    classes = set()
    for cover in iter_two_covers(n):
        proper = len(set(cover)) == len(cover)
        restricted = all(
            (a & b).bit_count() <= 1 for a, b in combinations(cover, 2)
        )
        s += 1
        t += proper
        u += restricted
        v += proper and restricted
        if restricted:
            blocks = [
                frozenset(j + 1 for j in range(n) if (mask >> j) & 1)
                for mask in cover
            ]
            edges = set()
            for block in blocks:
                edges.update(combinations(sorted(block), 2))
            images.add(frozenset(edges))
            classes.add(star_form(blocks))
    return s, t, u, v, images, len(classes)


class TestPartitionEnumeration:
    def test_counts_are_bell_numbers(self):
        for size in range(9):
            assert sum(1 for _ in enumerate_partitions(size)) == bell(size)

    def test_partitions_distinct_and_canonical(self):
        seen = set(p.rgs for p in enumerate_partitions(6))
        assert len(seen) == bell(6)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            list(enumerate_partitions(-1))

    def test_blocks_of_known_partition(self):
        p = SetPartition(5, (0, 1, 0, 2, 1))
        assert p.blocks() == ((1, 3), (2, 5), (4,))
        assert p.block_count == 3

    def test_invalid_rgs_rejected(self):
        with pytest.raises(ValueError):
            SetPartition(3, (0, 2, 0))
        with pytest.raises(ValueError):
            SetPartition(2, (0,))

    def test_replace_and_make_validate(self):
        with pytest.raises(ValueError):
            SetPartition(2, (0, 1))._replace(rgs=(1, 0))
        with pytest.raises(ValueError):
            SetPartition._make((2, (1, 1)))
        assert SetPartition(2, (0, 1))._replace(rgs=(0, 0)) == (2, (0, 0))


class TestTwoCover:
    def test_canonicalization(self):
        cover = TwoCover.from_blocks(3, [[3, 2], (1,), [1, 2, 3]])
        assert cover.blocks == ((1,), (1, 2, 3), (2, 3))

    def test_coverage_validation(self):
        with pytest.raises(ValueError):
            TwoCover.from_blocks(2, [[1, 2], [1]])
        with pytest.raises(ValueError):
            TwoCover.from_blocks(2, [[1], [1], [1], [2], [2]])
        with pytest.raises(ValueError):
            TwoCover.from_blocks(2, [[1, 2], [1, 2], []])
        with pytest.raises(ValueError):
            TwoCover.from_blocks(2, [[1, 3], [1], [2], [2], [3]])

    def test_duplicate_pairs_and_flags(self):
        doubled = TwoCover.from_blocks(2, [[1, 2], [1, 2]])
        assert _duplicate_block_pairs(doubled) == 1
        assert not _proper(doubled)
        assert not _restricted(doubled)

        singles = TwoCover.from_blocks(2, [[1], [1], [2], [2]])
        assert _duplicate_block_pairs(singles) == 2
        assert _restricted(singles)

        mixed = TwoCover.from_blocks(2, [[1, 2], [1], [2]])
        assert _proper(mixed) and _restricted(mixed)


def _duplicate_block_pairs(cover):
    """Number of repeated blocks; each repeat occurs exactly twice."""
    return len(cover.blocks) - len(set(cover.blocks))


def _proper(cover):
    return _duplicate_block_pairs(cover) == 0


def _restricted(cover):
    """True when any two blocks share at most one element."""
    return all(len(set(a) & set(b)) <= 1 for a, b in combinations(cover.blocks, 2))


class TestFolding:
    def test_helpers_require_even_ground(self):
        with pytest.raises(ValueError):
            merged_twin_count((0, 0, 0), 2)
        with pytest.raises(ValueError):
            image_collision_count((0, 0, 0), 2)

    def test_classify_rejects_wrong_size(self):
        with pytest.raises(ValueError):
            classify_partition(SetPartition(3, (0, 0, 1)), 2)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5])
    def test_classification_agrees_with_census(self, n):
        census = oracle_counts(n)
        separated = image_distinct = 0
        twin_hist = [0] * (n + 1)
        collision_hist = [0] * (n + 1)
        fibers = Counter()
        for p in enumerate_partitions(2 * n):
            c = classify_partition(p, n)
            assert c.merged_twin_count == merged_twin_count(p.rgs, n)
            assert c.collision_count == image_collision_count(p.rgs, n)
            twin_hist[c.merged_twin_count] += 1
            separated += c.separated
            image_distinct += c.image_distinct
            if c.separated:
                assert c.cover is not None
                collision_hist[c.collision_count] += 1
                fibers[c.cover] += 1
            else:
                assert c.cover is None
        assert separated == census.separated
        assert image_distinct == census.image_distinct
        assert tuple(twin_hist) == census.merged_twin_histogram
        assert tuple(collision_hist) == census.collision_histogram
        assert collision_hist[0] == census.separated_image_distinct
        assert len(fibers) == census.s
        # The census's cover listing, leaf by leaf: every folded cover with
        # its preimage count, keys turned from bit masks back into blocks.
        scanned = {
            TwoCover.from_blocks(
                n,
                [[j + 1 for j in range(n) if (mask >> j) & 1] for mask in key],
            ): count
            for key, count in listed_covers(n).items()
        }
        assert fibers == scanned


def listed_covers(n):
    """The census's cover listing as {sorted mask key: preimage count}."""
    listing = {}
    for state, x, y, preimages, _, _, _ in _full_scan(n)[2]:
        key = tuple(_cover_masks(state, x, y, n))
        assert list(key) == sorted(key)
        assert key not in listing, f"cover {key} listed twice"
        listing[key] = preimages
    return listing


def has_triangle(masks):
    """Reference: do some three two-element blocks form a triangle?

    Each element lies in exactly two blocks, so three two-element blocks on
    three elements use every slot of those elements: a triangle is always a
    whole component.  Distinct two-element masks a and b share one element
    exactly when a ^ b has two bits, and then the triangle's third block, if
    present, is a ^ b.
    """
    pairs = [m for m in masks if m.bit_count() == 2]
    return any(a ^ b in pairs for a, b in combinations(pairs, 2))


def _place_element(layer, bit):
    """Place one element, with folded bit ``bit``, in every partial partition.

    It joins each block in turn or opens a new one; each outcome is a
    sorted mask tuple, and outcomes with equal tuples add their counts.
    """
    out = Counter()
    for masks, count in layer.items():
        for b, mask in enumerate(masks):
            joined = list(masks)
            joined[b] = mask | bit
            out[tuple(sorted(joined))] += count
        out[tuple(sorted(masks + (bit,)))] += count
    return out


def _per_outcome_scan(n):
    """Reference: place every element, the last too, one at a time.

    It keeps the plain order 1..2n and sorts every key, where ``_full_scan``
    places each element with its twin and lists the last pair's covers
    state by state, so agreement also shows that the counts do not depend
    on the placement order.
    """
    layer = {(): 1}
    for i in range(2 * n):
        layer = _place_element(layer, 1 << (i % n))
    twin_hist = [0] * (n + 1)
    collision_hist = [0] * (n + 1)
    image_distinct = 0
    fibers = Counter()
    for masks, count in layer.items():
        merged = 2 * n - sum(map(int.bit_count, masks))
        collisions = len(masks) - len(set(masks))
        twin_hist[merged] += count
        image_distinct += count * (collisions == 0)
        if merged == 0:
            collision_hist[collisions] += count
            fibers[masks] += count
    return tuple(twin_hist), twin_hist[0], image_distinct, tuple(collision_hist), fibers


class TestScanReferences:
    @pytest.mark.parametrize("j", [1, 2, 3, 4])
    def test_pair_layers_match_brute_force(self, j):
        # Counting from 0, element i of [2j] folds to bit i % j, so i and
        # i + j are twins, as the pairs placed in the first j steps are.
        expected = Counter()
        for partition in enumerate_partitions(2 * j):
            masks = [0] * partition.block_count
            for i, label in enumerate(partition.rgs):
                masks[label] |= 1 << (i % j)
            expected[tuple(sorted(masks))] += 1
        layer = {(): 1}
        for bit in range(j):
            layer = _place_pair(layer, 1 << bit)
            # Each placed bit lies in at most two blocks, so no nonzero
            # mask occurs three times; _full_scan's last pair relies on it.
            assert all(
                max(Counter(masks).values(), default=0) <= 2 for masks in layer
            )
        assert layer == expected

    def test_listed_layers_repeat_no_mask_three_times(self):
        # The layers before the last pair at n = 5, 6 and 7, too large for
        # brute force: the last pair's closed forms and the listing's
        # weights 2 * count * mult(x) * mult(y) assume mult(x) <= 2.
        layer = {(): 1}
        for bit in range(6):
            layer = _place_pair(layer, 1 << bit)
            assert all(max(Counter(masks).values(), default=0) <= 2 for masks in layer)

    @pytest.mark.parametrize("n", range(7))
    def test_last_placement_matches_per_outcome_route(self, n):
        twin_hist, image_distinct, _ = _full_scan(n)
        census = oracle_counts(n)
        separated, collision_hist = census.separated, census.collision_histogram
        expected = _per_outcome_scan(n)
        assert (twin_hist, separated, image_distinct, collision_hist) == expected[:4]
        assert sorted(listed_covers(n).items()) == sorted(expected[4].items())

    @pytest.mark.parametrize("n", range(7))
    def test_edge_set_restrictedness_matches_pairwise_test(self, n):
        u = v = 0
        graphs = set()
        for key in listed_covers(n):
            if any((a & b).bit_count() > 1 for a, b in combinations(key, 2)):
                continue
            u += 1
            v += len(set(key)) == len(key)
            edges = set()
            for mask in key:
                members = [j for j in range(n) if (mask >> j) & 1]
                edges.update(combinations(members, 2))
            graphs.add(frozenset(edges))
        census = oracle_counts(n)
        assert (census.u, census.v, census.line_graphs) == (u, v, len(graphs))

    @pytest.mark.parametrize("n", range(7))
    def test_triangle_verdict_matches_pairwise_search(self, n):
        # The listing decides triangle-freeness once per state; the reference
        # searches each restricted cover's own blocks, pair by pair.
        restricted = 0
        for state, x, y, _, _, line_graph, triangle_free in _full_scan(n)[2]:
            if line_graph is None:
                assert triangle_free is False
                continue
            restricted += 1
            masks = _cover_masks(state, x, y, n)
            assert triangle_free == (not has_triangle(masks)), (state, x, y)
        assert restricted == oracle_counts(n).u


class TestOracleCensus:
    def test_frozen_small_values(self):
        c2 = oracle_counts(2)
        assert (c2.s, c2.t, c2.u, c2.v) == (3, 1, 2, 1)
        assert c2.separated == 7
        assert c2.image_distinct == 10
        assert c2.separated_image_distinct == 4
        assert c2.collision_histogram == (4, 2, 1)
        assert c2.merged_twin_histogram == (7, 6, 2)
        assert c2.bell_2n == 15

        c3 = oracle_counts(3)
        assert (c3.s, c3.t, c3.u, c3.v) == (16, 8, 9, 5)
        assert c3.separated == 87
        assert c3.image_distinct == 153

    def test_degenerate_sizes(self):
        c0 = oracle_counts(0)
        assert (c0.s, c0.t, c0.u, c0.v) == (1, 1, 1, 1)
        c1 = oracle_counts(1)
        assert (c1.s, c1.t, c1.u, c1.v) == (1, 0, 1, 0)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    def test_matches_sequence_table(self, n):
        census = oracle_counts(n)
        row = full_table(n).row(n)
        assert (census.s, census.t, census.u, census.v) == (
            row.s,
            row.t,
            row.u,
            row.v,
        )

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    def test_matches_independent_multiset_enumeration(self, n):
        s, t, u, v, _, classes = census_from_multisets(n)
        census = oracle_counts(n)
        assert (s, t, u, v) == (census.s, census.t, census.u, census.v)
        assert classes == census.line_classes

    def test_size_limit(self):
        with pytest.raises(ValueError):
            oracle_counts(DEFAULT_ORACLE_LIMIT + 1)
        with pytest.raises(ValueError):
            oracle_counts(3, limit=2)
        with pytest.raises(ValueError):
            oracle_counts(-1)

    def test_twin_histogram_route(self):
        assert oracle_counts(2).merged_twin_histogram == (7, 6, 2)
        assert sum(oracle_counts(4).merged_twin_histogram) == bell(8)

    @pytest.mark.parametrize("n", range(DEFAULT_ORACLE_LIMIT + 1))
    def test_image_distinct_formula(self, n):
        assert oracle_counts(n).image_distinct == image_distinct_partitions(n)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_perturbed_pair_term_fails_at_its_index(self, monkeypatch, k):
        # c_k enters the formula from n = k on, so the scan at k - 1 still
        # agrees and the scan at k must name exactly that size.
        terms = combinatorics._pair_collision_terms

        def perturbed(n):
            out = terms(n)
            if n >= k:
                out[k] += 1
            return out

        monkeypatch.setattr(combinatorics, "_pair_collision_terms", perturbed)
        oracle._census.cache_clear()
        oracle_counts(k - 1)
        message = rf"image-distinct count failed at n={k}:"
        with pytest.raises(ConsistencyError, match=message):
            oracle_counts(k)

    def test_frozen_census_n7(self):
        # Frozen from a depth-first walk over all Bell(14) partitions of
        # [14], one at a time, which shares no merging with the scan.
        census = oracle_counts(7, limit=7)
        assert census.merged_twin_histogram == (
            65766991, 73606029, 37565850, 11405415, 2242695, 288624, 22841, 877,
        )
        assert census.separated == 65766991
        assert census.image_distinct == 159183825
        assert census.collision_histogram == (
            54323200, 10276736, 1074752, 84896, 6720, 644, 42, 1,
        )
        assert census.s == 624889  # the number of covers the census lists
        table = full_table(7)
        row = table.row(7)
        assert (census.s, census.t, census.u, census.v) == (row.s, row.t, row.u, row.v)
        assert (row.s, row.t, row.u, row.v) == (624889, 424400, 233238, 163356)
        assert census.line_classes == row.l == 230858
        t = [r.t for r in table.rows]
        assert collision_histogram_route(t) == list(census.collision_histogram)
        assert fiber_check(7, limit=7).ok
        assert oracle_line_class_count(7, limit=7) == 230858
        assert oracle_line_count(7, limit=7) == 228443


class TestFiberStructure:
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    def test_fiber_check_passes(self, n):
        result = fiber_check(n)
        assert result.ok
        assert result.mismatches == ()
        assert result.covers == oracle_counts(n).s


class TestLineGraphs:
    @pytest.mark.parametrize("n", range(5))
    def test_frozen_counts(self, n):
        assert oracle_line_class_count(n) == LINE_CLASSES_KNOWN[n]
        assert oracle_line_count(n) == LINE_IMAGES_KNOWN[n]

    def test_frozen_counts_n5(self):
        assert oracle_line_class_count(5) == LINE_CLASSES_KNOWN[5]
        assert oracle_line_count(5) == LINE_IMAGES_KNOWN[5]

    def test_frozen_counts_n6(self):
        assert oracle_line_class_count(6, limit=7) == 11885
        assert oracle_line_count(6, limit=7) == 11600

    def test_class_count_matches_table_column(self):
        table = full_table(6)
        for n in range(7):
            assert oracle_line_class_count(n, limit=7) == table.row(n).l

    def test_every_graph_on_three_vertices_is_a_line_graph(self):
        _, _, _, _, images, _ = census_from_multisets(3)
        all_graphs = set()
        pairs = list(combinations(range(1, 4), 2))
        for bits in range(8):
            all_graphs.add(
                frozenset(p for i, p in enumerate(pairs) if (bits >> i) & 1)
            )
        assert images == all_graphs

    def test_images_on_four_vertices_are_the_claw_free_graphs(self):
        # On at most four vertices every forbidden induced subgraph except
        # the claw is too large, so line graphs = claw-free graphs; the
        # four labelled claws are the only exclusions among the 64 graphs.
        _, _, _, _, images, _ = census_from_multisets(4)
        pairs = list(combinations(range(1, 5), 2))
        claw_free = set()
        claws = [
            frozenset(
                tuple(sorted((center, w))) for w in range(1, 5) if w != center
            )
            for center in range(1, 5)
        ]
        for bits in range(64):
            edges = frozenset(p for i, p in enumerate(pairs) if (bits >> i) & 1)
            # On exactly four vertices a graph contains an induced claw
            # only by being one: any further edge would join two leaves.
            if edges not in claws:
                claw_free.add(edges)
        assert len(claw_free) == 60
        assert images == claw_free
