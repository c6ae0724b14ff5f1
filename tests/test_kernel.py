"""The shared brute-force helpers: decoders, generators and per-profile sums."""
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infogame import equilibrium
from infogame.entropy import family_independent
from infogame.formation_game import (
    BenefitFunction,
    CostModel,
    GameConfig,
    LinkProfile,
    social_welfare,
    topology,
)
from infogame.kernel import (
    CHECK_BUDGET,
    CapExceededError,
    best_response_table,
    components,
    merged_table,
    ne_status,
    profile_indices,
    require_budget,
    rows_from_indices,
    set_partition_count,
    set_partitions,
    spanning_trees,
    sponsored_tree_count,
    sponsored_trees,
    welfare,
)
from infogame.verification import random_homogeneous_config, random_recipient_config
from scalar_kernel import (component_masks, merged_components, orientations, profile_from_index, profile_index,
                           row_utilities, undirected_adjacency)
from scalar_kernel import welfare as scalar_welfare
from scalar_kernel import ne_status as scalar_ne_status
from scalar_kernel import spanning_trees as scalar_spanning_trees

LN = BenefitFunction.log1p(math.e)


@pytest.mark.parametrize("m", range(1, 7))
def test_spanning_tree_count_is_cayley(m):
    trees = [frozenset(map(tuple, edges)) for edges in spanning_trees(tuple(range(m))).tolist()]
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
    assert spanning_trees((2, 5)).tolist() == [[[2, 5]]]
    assert set(spanning_trees((1, 3, 4)).ravel().tolist()) == {1, 3, 4}


@pytest.mark.parametrize("members", [tuple(range(m)) for m in range(1, 8)] + [(0, 2, 3, 6, 7), (1, 4, 5, 9)])
def test_spanning_trees_match_the_scalar_decoder(members):
    trees = spanning_trees(members)
    assert trees.dtype == np.int64 and trees.shape == (len(members) ** (len(members) - 2), len(members) - 1, 2)
    assert trees.tolist() == [[list(e) for e in edges] for edges in scalar_spanning_trees(members)]


def oracle_trees(members, n):
    """Rows of every sponsored spanning tree of ``members``, from the scalar generators."""
    return [list(rows) for edges in scalar_spanning_trees(members) for rows in orientations(edges, (0,) * n)]


@pytest.mark.parametrize("members, n", [(members, n) for n in range(1, 6) for m in range(1, n + 1)
                                        for members in itertools.combinations(range(n), m)]
                         + [(tuple(range(6)), 6)])
def test_sponsored_trees_match_the_scalar_generators(members, n):
    trees = sponsored_trees(members, n)
    assert trees.dtype == np.int64 and not trees.flags.writeable
    assert trees.shape == (sponsored_tree_count(len(members)), n)
    assert trees.tolist() == oracle_trees(members, n)
    mask = sum(1 << a for a in members)
    for rows in trees.tolist():
        assert sum(r.bit_count() for r in rows) == len(members) - 1
        assert all(r & ~mask == 0 for r in rows)
        assert all(rows[a] == 0 for a in range(n) if not mask >> a & 1)
        assert component_masks(undirected_adjacency(LinkProfile(n, tuple(rows))))[members[0]] == mask


@pytest.mark.parametrize("n", range(1, 6))
def test_forest_candidates_are_the_scalar_forests(n):
    want = set()
    for part in set_partitions(tuple(range(n))):
        for trees in itertools.product(*(oracle_trees(tuple(block), n) for block in part)):
            want.add(profile_index(tuple(map(sum, zip(*trees)))))
    assert equilibrium._forest_candidates(n).tolist() == sorted(want)


@pytest.mark.parametrize("n", range(1, 7))
def test_profile_indices_invert_rows_from_indices(n):
    size = 1 << (n * (n - 1))
    idx = (np.arange(size) if n <= 4
           else np.random.default_rng(n).integers(0, size, 5000)).astype(np.int64)
    rows = rows_from_indices(idx, n)
    assert np.array_equal(profile_indices(rows), idx)
    assert profile_indices(rows[:50]).tolist() == [profile_index(r) for r in map(tuple, rows[:50].tolist())]


@pytest.mark.parametrize("n, bell", [(0, 1), (1, 1), (2, 2), (3, 5), (4, 15), (5, 52), (6, 203)])
def test_set_partitions_count_bell_numbers(n, bell):
    parts = [frozenset(frozenset(b) for b in p) for p in set_partitions(tuple(range(n)))]
    assert len(parts) == len(set(parts)) == bell
    for p in parts:
        assert sorted(a for block in p for a in block) == list(range(n))


@pytest.mark.parametrize("n", range(9))
def test_set_partition_count_counts_set_partitions(n):
    assert set_partition_count(n) == len(list(set_partitions(tuple(range(n)))))


@pytest.mark.parametrize("n", range(1, 7))
def test_weighted_partition_count_counts_sponsored_forests(n):
    assert set_partition_count(n, sponsored_tree_count) == len(equilibrium._forest_candidates(n))


def test_closed_form_counts():
    assert [sponsored_tree_count(m) for m in range(1, 8)] == [1, 2, 12, 128, 2000, 41472, 1075648]
    assert [set_partition_count(n, sponsored_tree_count) for n in range(4, 9)] == [
        201, 3081, 62683, 1598955, 49180113]
    assert set_partition_count(11) <= CHECK_BUDGET < set_partition_count(12) == 4213597


def test_require_budget_names_the_count():
    require_budget(CHECK_BUDGET, "a search", "profiles")
    with pytest.raises(CapExceededError, match=r"^a search capped at 1048576 profiles: "
                                               r"it would check 1048577 profiles$"):
        require_budget(CHECK_BUDGET + 1, "a search", "profiles")


def test_index_decoding_inverts_profile_index():
    # the compact index skips the diagonal, so it is a profile's rank in bitstring order
    n = 3
    choices = [[r for r in range(1 << n) if not r >> i & 1] for i in range(n)]
    ranked = sorted((LinkProfile(n, rows) for rows in itertools.product(*choices)),
                    key=lambda p: int(p.bitstring(), 2))
    assert len(ranked) == 1 << (n * (n - 1))
    for idx, p in enumerate(ranked):
        assert profile_from_index(idx, n) == p.rows


index_pairs = st.integers(2, 6).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, (1 << (n * (n - 1))) - 1),
                        st.integers(0, (1 << (n * (n - 1))) - 1)))


@settings(max_examples=300)
@given(index_pairs)
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
    fh, costs = cfg.fh, cfg.row_costs
    idx = rng.integers(0, 1 << (n * (n - 1)), size=200)
    rows = rows_from_indices(idx, n)
    for i in range(n):
        table = best_response_table(n, rows, i, fh, costs[i])
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
    fh, costs = cfg.fh, cfg.row_costs
    idx = rng.integers(0, 1 << (n * (n - 1)), size=300)
    rows = rows_from_indices(idx, n)
    for mask in range(1, 1 << n):
        agents = [a for a in range(n) if mask >> a & 1]
        is_ne, strict = ne_status(n, rows, agents, fh, costs)
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


def every_profile(n):
    """Rows of every profile of n agents, as an int64 array."""
    return rows_from_indices(np.arange(1 << (n * (n - 1)), dtype=np.int64), n)


def scalar_components(rows):
    return [component_masks(undirected_adjacency(LinkProfile(len(r), tuple(r)))) for r in rows.tolist()]


@pytest.mark.parametrize("n", range(1, 5))
def test_components_match_component_masks_on_every_profile(n):
    rows = every_profile(n)
    assert components(rows).T.tolist() == scalar_components(rows)


@pytest.mark.parametrize("n", [5, 6])
def test_components_match_component_masks_on_random_profiles(n):
    rng = np.random.default_rng(50 + n)
    rows = rows_from_indices(rng.integers(0, 1 << (n * (n - 1)), size=2000), n)
    assert components(rows).T.tolist() == scalar_components(rows)


def cost_models(rng, n):
    yield CostModel.homogeneous(float(rng.uniform(0.05, 1.5)))
    yield CostModel.recipient(rng.uniform(0.05, 1.5, size=n))
    yield CostModel.matrix(rng.uniform(0.05, 1.5, size=(n, n)))


@pytest.mark.parametrize("n", range(1, 5))
def test_welfare_bit_identical_to_scalar_on_every_profile(n):
    """The array sum takes the scalar sum's steps in the same order, so ``==`` holds."""
    rng = np.random.default_rng(60 + n)
    rows = every_profile(n)
    comp = components(rows)
    h = rng.integers(1, 25, size=n) / 7.0
    for costs in cost_models(rng, n):
        cfg = GameConfig(family_independent(h), LN, costs)
        got = welfare(rows, comp, cfg.fh, cfg.row_costs).tolist()
        fh = cfg.fh.tolist()
        assert got == [scalar_welfare(cfg, r, c, fh) for r, c in zip(rows.tolist(), comp.T.tolist())]


def test_welfare_matches_social_welfare():
    rng = np.random.default_rng(3)
    cfg = random_recipient_config(rng, 3, LN)
    fh = cfg.fh.tolist()
    for idx in range(1 << 6):
        rows = profile_from_index(idx, 3)
        p = LinkProfile(3, rows)
        comp = component_masks(undirected_adjacency(p))
        assert scalar_welfare(cfg, rows, comp, fh) == pytest.approx(social_welfare(cfg, p), abs=1e-12)
