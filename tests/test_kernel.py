"""The shared brute-force helpers: decoders, generators and per-profile sums."""
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infogame.entropy import family_independent
from infogame.formation_game import (
    BenefitFunction,
    CostModel,
    GameConfig,
    LinkProfile,
    component_masks,
    social_welfare,
    topology,
    undirected_adjacency,
)
from infogame.kernel import (
    best_response_table,
    fh_table,
    merged_table,
    ne_status,
    orientations,
    profile_index,
    row_costs,
    rows_from_indices,
    set_partitions,
    spanning_trees,
    welfare,
)
from infogame.verification import random_homogeneous_config, random_recipient_config
from scalar_kernel import merged_components, profile_from_index, row_utilities
from scalar_kernel import ne_status as scalar_ne_status

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
    # the compact index skips the diagonal, so it is a profile's rank in bitstring order
    n = 3
    choices = [[r for r in range(1 << n) if not r >> i & 1] for i in range(n)]
    ranked = sorted((LinkProfile(n, rows) for rows in itertools.product(*choices)),
                    key=lambda p: int(p.bitstring(), 2))
    assert len(ranked) == 1 << (n * (n - 1))
    for idx, p in enumerate(ranked):
        assert profile_from_index(idx, n) == p.rows


profile_indices = st.integers(2, 6).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, (1 << (n * (n - 1))) - 1),
                        st.integers(0, (1 << (n * (n - 1))) - 1)))


@settings(max_examples=300)
@given(profile_indices)
def test_profile_index_round_trip(case):
    n, k, other = case
    rows = profile_from_index(k, n)
    assert profile_index(rows) == k
    assert rows_from_indices(np.array([k, other]), n).tolist() == [list(rows),
                                                                   list(profile_from_index(other, n))]
    # the bitstring is the same flattened matrix with its zero diagonal kept, so
    # read as an integer it differs from the profile index in value but not in order
    p, q = LinkProfile(n, rows), LinkProfile(n, profile_from_index(other, n))
    assert "".join(c for t, c in enumerate(p.bitstring()) if t % (n + 1)) == format(k, f"0{n * (n - 1)}b")
    assert (int(p.bitstring(), 2) < int(q.bitstring(), 2)) == (k < other)


@pytest.mark.parametrize("n", range(2, 7))
def test_best_response_table_matches_row_utilities(n):
    rng = np.random.default_rng(40 + n)
    make = random_recipient_config if n % 2 else random_homogeneous_config
    cfg = make(rng, n, LN)
    fh, costs = fh_table(cfg), row_costs(cfg)
    idx = rng.integers(0, 1 << (n * (n - 1)), size=200)
    rows = rows_from_indices(idx, n)
    for i in range(n):
        table = best_response_table(n, rows, i, np.asarray(fh), np.asarray(costs[i]))
        for b, k in enumerate(idx):
            utils = row_utilities(n, profile_from_index(int(k), n), i, fh, costs[i])
            assert table[b].tolist() == [u >= max(utils) - 1e-9 for u in utils]


@pytest.mark.parametrize("batch", [1, 2, 7, 4096])
@pytest.mark.parametrize("n", range(1, 7))
def test_merged_table_matches_merged_components(n, batch):
    rng = np.random.default_rng(10 * n + batch)
    idx = rng.integers(0, 1 << (n * (n - 1)), size=batch)
    rows = rows_from_indices(idx, n)
    for i in range(n):
        table = merged_table(n, rows, i).tolist()
        assert table == [merged_components(n, r, i) for r in rows.tolist()]


@pytest.mark.parametrize("ties", [False, True])
@pytest.mark.parametrize("n", range(2, 7))
def test_batch_ne_status_matches_scalar_over_agent_subsets(n, ties):
    # agent subsets in ascending order, as the component checker passes a block's members
    rng = np.random.default_rng(70 + n)
    if ties:
        # a link to a one-bit agent gains exactly its price: equilibria that are not strict
        cfg = GameConfig(family_independent([1.0] * (n - 1) + [2.0]), BenefitFunction.linear(),
                         CostModel.homogeneous(1.0))
    else:
        cfg = (random_recipient_config if n % 2 else random_homogeneous_config)(rng, n, LN)
    fh, costs = fh_table(cfg), row_costs(cfg)
    idx = rng.integers(0, 1 << (n * (n - 1)), size=300)
    rows = rows_from_indices(idx, n)
    for mask in range(1, 1 << n):
        agents = [a for a in range(n) if mask >> a & 1]
        is_ne, strict = ne_status(n, rows, agents, np.asarray(fh), costs)
        expect = [scalar_ne_status(n, r, agents, fh, costs) for r in map(tuple, rows.tolist())]
        assert list(zip(is_ne.tolist(), strict.tolist())) == expect


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
