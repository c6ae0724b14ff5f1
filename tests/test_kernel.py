"""The shared brute-force helpers: decoders, generators and per-profile sums."""
import itertools
import math

import numpy as np
import pytest

from infogame.formation_game import (
    BenefitFunction,
    LinkProfile,
    component_masks,
    social_welfare,
    topology,
    undirected_adjacency,
)
from infogame.kernel import (
    fh_table,
    orientations,
    profile_from_index,
    set_partitions,
    spanning_trees,
    welfare,
)
from infogame.verification import random_recipient_config

LN = BenefitFunction.log1p(math.e)


@pytest.mark.parametrize("m", range(1, 7))
def test_spanning_tree_count_is_cayley(m):
    trees = [frozenset(edges) for edges in spanning_trees(tuple(range(m)))]
    assert len(trees) == len(set(trees)) == round(m ** (m - 2))
    for tree in trees:
        assert len(tree) == m - 1
        adj = [0] * m
        for i, j in tree:
            assert i < j
            adj[i] |= 1 << j
            adj[j] |= 1 << i
        assert component_masks(adj)[0] == (1 << m) - 1


def test_spanning_trees_keep_member_labels():
    assert list(spanning_trees((2, 5))) == [[(2, 5)]]
    assert all(set(e) <= {1, 3, 4} for tree in spanning_trees((1, 3, 4)) for e in tree)


@pytest.mark.parametrize("n, bell", [(0, 1), (1, 1), (2, 2), (3, 5), (4, 15), (5, 52), (6, 203)])
def test_set_partitions_count_bell_numbers(n, bell):
    parts = [frozenset(frozenset(b) for b in p) for p in set_partitions(tuple(range(n)))]
    assert len(parts) == len(set(parts)) == bell
    for p in parts:
        assert sorted(a for block in p for a in block) == list(range(n))


def test_index_decoding_inverts_profile_index():
    # the compact index skips the diagonal, so it is a profile's rank in index() order
    n = 3
    choices = [[r for r in range(1 << n) if not r >> i & 1] for i in range(n)]
    ranked = sorted((LinkProfile(n, rows) for rows in itertools.product(*choices)),
                    key=LinkProfile.index)
    assert len(ranked) == 1 << (n * (n - 1))
    for idx, p in enumerate(ranked):
        assert profile_from_index(idx, n) == p.rows


@pytest.mark.parametrize("edges", [[], [(0, 1)], [(0, 1), (1, 2)], [(0, 3), (1, 3), (2, 4), (3, 4)]])
def test_orientations_sponsor_each_edge_once(edges):
    n = 5
    profiles = list(orientations(edges, (0,) * n))
    assert len(profiles) == len(set(profiles)) == 2 ** len(edges)
    for rows in profiles:
        p = LinkProfile(n, rows)
        assert topology(p) == tuple(sorted(edges))
        assert sum(r.bit_count() for r in rows) == len(edges)


def test_orientations_add_to_base_rows():
    base = (0, 0, 1 << 3, 0)
    for rows in orientations([(0, 1)], base):
        assert rows[2] == 1 << 3


def test_welfare_matches_social_welfare():
    rng = np.random.default_rng(3)
    cfg = random_recipient_config(rng, 3, LN)
    fh = fh_table(cfg)
    for idx in range(1 << 6):
        rows = profile_from_index(idx, 3)
        p = LinkProfile(3, rows)
        comp = component_masks(undirected_adjacency(p))
        assert welfare(cfg, rows, comp, fh) == pytest.approx(social_welfare(cfg, p), abs=1e-12)
