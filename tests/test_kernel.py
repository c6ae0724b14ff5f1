"""The shared brute-force helpers: decoders, generators and per-profile sums."""
import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infogame import csvtable, kernel
from infogame.entropy import family_independent
from infogame.formation_game import (
    BenefitFunction,
    CostModel,
    GameConfig,
)
from infogame.kernel import (
    CHECK_BUDGET,
    CapExceededError,
    best_response_table,
    components,
    distinct,
    forest_batches,
    link_rows,
    merged_table,
    ne_status,
    profile_indices,
    require_budget,
    rooted_trees,
    rows_from_indices,
    set_partition_count,
    set_partitions,
    spanning_trees,
    sponsored_tree_count,
    sponsored_trees,
    welfare,
)
from scalar_kernel import NO_PURE_NE, random_homogeneous_config, random_recipient_config
from scalar_kernel import (bitstring, component_masks, merged_components, orientations, profile_from_index,
                           profile_index, row_utilities, social_welfare, topology, undirected_adjacency)
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
        # every member but the last is the leaf end of exactly one edge
        assert sorted(i for i, _ in tree) == list(range(m - 1))
        adj = [0] * m
        for i, j in tree:
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
    return [list(rows) for edges in scalar_spanning_trees(members)
            for rows in orientations([tuple(sorted(e)) for e in edges], (0,) * n)]


@pytest.mark.parametrize("n", range(1, 7))
def test_rooted_trees_are_the_rooted_orientations(n):
    trees = sponsored_trees(tuple(range(n)), n)
    sponsors = trees != 0
    for root in range(n):
        rooted = rooted_trees(n, root)
        assert rooted.dtype == np.int64 and rooted.shape == (round(n ** (n - 2)), n)
        # a tree in which the root sponsors nothing and everyone else one link is oriented toward the root
        want = trees[~sponsors[:, root] & (sponsors.sum(axis=1) == n - 1)]
        assert len(set(profile_indices(rooted).tolist())) == len(rooted)
        assert set(profile_indices(rooted).tolist()) == set(profile_indices(want).tolist())


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
        assert component_masks(undirected_adjacency(rows))[members[0]] == mask


@functools.cache
def scalar_forests(n):
    """Profile index of every sponsored forest of n agents, ascending: a scalar tree per block."""
    want = set()
    for part in set_partitions(tuple(range(n))):
        for trees in itertools.product(*(oracle_trees(tuple(block), n) for block in part)):
            want.add(profile_index(tuple(map(sum, zip(*trees)))))
    return sorted(want)


@pytest.mark.parametrize("rows", [1, 7, 4096])
@pytest.mark.parametrize("n", range(1, 7))
def test_forest_batches_are_the_scalar_forests(n, rows):
    # 6 agents: 4,096 rows take 128 of the 1,296 six-agent trees at a time, 1 and 7 take one
    batches = list(forest_batches(n, rows))
    assert all(b.dtype == np.int64 and b.ndim == 1 for b in batches)
    assert sum(map(len, batches)) == set_partition_count(n, sponsored_tree_count)
    assert np.sort(np.concatenate(batches)).tolist() == scalar_forests(n)


def test_forest_batches_come_a_partition_or_a_slice_at_a_time():
    # six agents: 202 partitions of more than one block, then the 41,472 trees of all six, 4,096 at a time
    sizes = [len(b) for b in forest_batches(6, 4096)]
    assert max(sizes) == 4096 and len(sizes) == 202 + 11


@pytest.mark.parametrize("n", range(1, 7))
def test_profile_indices_invert_rows_from_indices(n):
    size = 1 << (n * (n - 1))
    idx = (np.arange(size) if n <= 4
           else np.random.default_rng(n).integers(0, size, 5000)).astype(np.int64)
    rows = rows_from_indices(idx, n)
    assert np.array_equal(profile_indices(rows), idx)
    assert profile_indices(rows[:50]).tolist() == [profile_index(r) for r in map(tuple, rows[:50].tolist())]


@pytest.mark.parametrize("n", range(1, 7))
def test_link_rows_accepts_every_link_row(n):
    rows = rows_from_indices(np.arange(min(1 << (n * (n - 1)), 4096)), n)
    for given in (rows.tolist(), rows.astype(np.float64), rows.astype(np.uint16)):
        got = link_rows(n, given)
        assert got.dtype == np.int64 and np.array_equal(got, rows)
    assert link_rows(n, np.zeros((0, n))).shape == (0, n)


@pytest.mark.parametrize("rows, message", [
    ([[1, 0]], "n-bit masks without self links"),
    ([[0, 2]], "n-bit masks without self links"),
    ([[4, 0]], "n-bit masks without self links"),
    ([[-1, 0]], "n-bit masks without self links"),
    ([[0, 0, 0]], "profile size does not match the game"),
    ([0, 0], "profile size does not match the game"),
    ([[2.7, 0]], "n-bit masks without self links"),
    ([[1 << 70, 0]], "n-bit masks without self links"),
], ids=["self-link-0", "self-link-1", "past-n-bits", "negative", "wrong-width", "not-a-batch", "not-whole",
        "past-int64"])
def test_link_rows_refuses_what_is_not_a_link_row(rows, message):
    with pytest.raises(ValueError, match=message):
        link_rows(2, rows)


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
    assert set_partition_count(n, sponsored_tree_count) == sum(map(len, forest_batches(n, 4096)))


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
    ranked = sorted(itertools.product(*choices), key=lambda rows: int(bitstring(rows), 2))
    assert len(ranked) == 1 << (n * (n - 1))
    for idx, rows in enumerate(ranked):
        assert profile_from_index(idx, n) == rows


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
    p, q = bitstring(rows), bitstring(profile_from_index(other, n))
    assert "".join(c for t, c in enumerate(p) if t % (n + 1)) == format(k, f"0{n * (n - 1)}b")
    assert (int(p, 2) < int(q, 2)) == (k < other)


@pytest.mark.parametrize("n", range(2, 7))
def test_best_response_table_matches_row_utilities(n):
    rng = np.random.default_rng(40 + n)
    make = random_recipient_config if n % 2 else random_homogeneous_config
    cfg = make(rng, n, LN)
    fh, costs = cfg.fh, cfg.row_costs
    idx = rng.integers(0, 1 << (n * (n - 1)), size=200)
    rows = rows_from_indices(idx, n)
    for i in range(n):
        merged, part = merged_table(n, rows, i)
        table = best_response_table(merged, fh, costs[i])[part]
        for b, k in enumerate(idx):
            utils = row_utilities(n, profile_from_index(int(k), n), i, fh, costs[i])
            assert table[b].tolist() == [u >= max(utils) - 1e-9 for u in utils]


def sparse_rows(rng, n, size):
    """Rows of ``size`` random profiles of n agents, from isolated agents to one component.

    Each odd profile is the one before it with one agent's row redrawn, so the
    two give that agent the same partition of the others.
    """
    density = rng.uniform(0.0, 2.0 / n, size=(size, 1, 1))
    links = (rng.random((size, n, n)) < density) & ~np.eye(n, dtype=bool)
    rows = (links.astype(np.int64) << np.arange(n)).sum(axis=2)
    pairs = size // 2
    agent = rng.integers(0, n, size=pairs)
    redrawn = rows[1:2 * pairs:2, :].copy()
    rows[1:2 * pairs:2] = rows[0:2 * pairs:2]
    rows[2 * np.arange(pairs) + 1, agent] = redrawn[np.arange(pairs), agent]
    return rows


I64 = np.iinfo(np.int64)


def check_distinct(bits):
    """``distinct`` gives np.unique's values, first indices and inverse, in their dtypes."""
    bits = np.array(bits, dtype=np.int64)
    values, first, inverse = distinct(bits)
    want, want_first, want_inverse = np.unique(bits, return_index=True, return_inverse=True)
    assert values.dtype == np.int64 and first.dtype == inverse.dtype == np.intp
    assert values.tolist() == want.tolist() and inverse.tolist() == want_inverse.tolist()
    assert first.tolist() == want_first.tolist()  # each value's first entry, as the stable sort keeps it
    assert bits[first].tolist() == values.tolist() and values[inverse].tolist() == bits.tolist()


@pytest.mark.parametrize("bits", [
    [], [7], [3, 3, 3, 3], [-1, -5, 0, -5, 7, -1, -(1 << 40)],
    [I64.max, I64.min, 0, I64.max, -1, I64.min, 1], [I64.min] * 3,
], ids=["empty", "one", "all-equal", "negatives", "extremes", "min-repeated"])
def test_distinct_matches_np_unique(bits):
    check_distinct(bits)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-3, 3) | st.integers(I64.min, I64.max), max_size=200))
def test_distinct_matches_np_unique_on_arrays_with_repeats(bits):
    check_distinct(bits)


def test_distinct_keeps_the_float_bit_patterns_of_zero_apart():
    x = np.array([0.0, -0.0, 1.5, 0.0, -0.0, -2.0, 1.5])
    bits, first, inverse = distinct(x.view(np.int64))
    values = bits.view(np.float64)
    assert len(values) == 4  # 0.0, -0.0, 1.5, -2.0
    assert values[inverse].tolist() == x.tolist() and np.signbit(values[inverse]).tolist() == np.signbit(x).tolist()
    assert x[first].view(np.int64).tolist() == bits.tolist()
    strings, codes = csvtable.floats(x.reshape(7, 1))
    assert codes.shape == (7, 1)
    assert strings[codes].ravel().tolist() == ["0.0", "-0.0", "1.5", "0.0", "-0.0", "-2.0", "1.5"]


# wide masks: the top bit of uint8 (8 agents), the switch to uint16 (9) and MAX_AGENTS (16)
WIDE = (7, 8, 9, 16)


@pytest.mark.parametrize("n, batch", [(n, b) for n in range(1, 7) for b in (1, 2, 7, 4096)]
                         + [(n, b) for n in WIDE[:3] for b in (1, 2, 7, 256)] + [(16, 1), (16, 2), (3, 0), (9, 0)]
                         + [(8, 1024)])  # past 256 partitions: uint16 indices
def test_merged_table_matches_merged_components(n, batch):
    rng = np.random.default_rng(10 * n + batch)
    if n in WIDE:
        rows = sparse_rows(rng, n, batch)
    else:
        rows = rows_from_indices(rng.integers(0, 1 << (n * (n - 1)), size=batch), n)
    for i in range(n):
        merged, part = merged_table(n, rows, i)
        assert merged.dtype == (np.uint8 if n <= 8 else np.uint16)
        assert part.dtype == (np.uint8 if len(merged) <= 1 << 8 else np.uint16)  # the narrowest that indexes merged
        assert len(merged) == len(set(part.tolist())) <= set_partition_count(n)
        assert merged[part].tolist() == [merged_components(n, r, i) for r in rows.tolist()]


@pytest.mark.parametrize("ties", [False, True])
@pytest.mark.parametrize("n", list(range(2, 7)) + list(WIDE))
def test_batch_ne_status_matches_scalar_over_agent_subsets(n, ties):
    # the batch judges every agent: the scalar status over all of them, and the conjunction of
    # the scalar's one-agent subsets, since a profile is an equilibrium (strict) when each agent is
    rng = np.random.default_rng(70 + n)
    if ties:
        # a link to a one-bit agent gains exactly its price: equilibria that are not strict
        cfg = GameConfig(family_independent([1.0] * (n - 1) + [2.0]), BenefitFunction.linear(),
                         CostModel.homogeneous(1.0))
    elif n in WIDE:
        cfg = GameConfig(family_independent(rng.uniform(0.5, 2.0, size=n)), LN,
                         CostModel.recipient(rng.uniform(0.05, 1.0, size=n)))
    else:
        cfg = (random_recipient_config if n % 2 else random_homogeneous_config)(rng, n, LN)
    fh, costs = cfg.fh, cfg.row_costs
    if n in WIDE:
        rows = sparse_rows(rng, n, 4 if n == 16 else 100)
    else:
        rows = rows_from_indices(rng.integers(0, 1 << (n * (n - 1)), size=300), n)
    is_ne, strict = ne_status(rows, fh, costs)
    got = list(zip(is_ne.tolist(), strict.tolist()))
    profiles = list(map(tuple, rows.tolist()))
    assert got == [scalar_ne_status(n, r, range(n), fh, costs) for r in profiles]
    each = [[scalar_ne_status(n, r, [a], fh, costs) for a in range(n)] for r in profiles]
    assert got == [(all(ne for ne, _ in e), all(st for _, st in e)) for e in each]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_stacked_ne_status_is_each_games_own(n):
    # G games on a leading axis judge as G single-game calls: a random homogeneous and recipient
    # game, one whose best responses tie within TOL and, at 3 agents, one that refutes every profile;
    # a profile leaves once every game has refuted it, so a refuted one reads False in every game
    rng = np.random.default_rng(90 + n)
    cfgs = [random_homogeneous_config(rng, n, LN), random_recipient_config(rng, n, LN),
            GameConfig(family_independent([1.0] * (n - 1) + [2.0]), BenefitFunction.linear(),
                       CostModel.homogeneous(1.0))]
    cfgs += [NO_PURE_NE] * (n == 3)
    rows = rows_from_indices(rng.integers(0, 1 << (n * (n - 1)), size=3000), n)
    rows = np.concatenate([rows, np.zeros((1, n), dtype=np.int64)])  # the empty network too
    fh, costs = np.stack([cfg.fh for cfg in cfgs]), np.stack([cfg.row_costs for cfg in cfgs])
    each = [ne_status(rows, cfg.fh, cfg.row_costs) for cfg in cfgs]
    stacked = ne_status(rows, fh, costs)
    assert [a.shape for a in stacked] == [(len(cfgs), len(rows))] * 2
    assert [a.tolist() for a in stacked] == [np.stack(flags).tolist() for flags in zip(*each)]
    assert each[2][0].any() and not each[2][1][each[2][0]].all()  # ties: equilibria that are not strict
    assert not (stacked[1] & ~stacked[0]).any()  # strict only where an equilibrium
    if n == 3:
        assert not stacked[0][3].any()
        assert not ne_status(rows, fh[3:][[0, 0]], costs[3:][[0, 0]])[0].any()  # every game refutes every profile
    empty = ne_status(rows[:0], fh, costs)
    assert [a.shape for a in empty] == [(len(cfgs), 0)] * 2


@pytest.mark.parametrize("edges", [[], [(0, 1)], [(0, 1), (1, 2)], [(0, 3), (1, 3), (2, 4), (3, 4)]])
def test_orientations_sponsor_each_edge_once(edges):
    n = 5
    profiles = list(orientations(edges, (0,) * n))
    assert len(profiles) == len(set(profiles)) == 2 ** len(edges)
    for rows in profiles:
        assert topology(rows) == tuple(sorted(edges))
        assert sum(r.bit_count() for r in rows) == len(edges)


def test_orientations_add_to_base_rows():
    base = (0, 0, 1 << 3, 0)
    for rows in orientations([(0, 1)], base):
        assert rows[2] == 1 << 3


def every_profile(n):
    """Rows of every profile of n agents, as an int64 array."""
    return rows_from_indices(np.arange(1 << (n * (n - 1)), dtype=np.int64), n)


def scalar_components(rows):
    return [component_masks(undirected_adjacency(r)) for r in rows.tolist()]


@pytest.mark.parametrize("n", range(1, 5))
def test_components_match_component_masks_on_every_profile(n):
    rows = every_profile(n)
    assert components(rows).T.tolist() == scalar_components(rows)


@pytest.mark.parametrize("n", [5, 6, *WIDE])
def test_components_match_component_masks_on_random_profiles(n):
    rng = np.random.default_rng(50 + n)
    if n in WIDE:
        rows = sparse_rows(rng, n, 2000)
    else:
        rows = rows_from_indices(rng.integers(0, 1 << (n * (n - 1)), size=2000), n)
    comp = components(rows)
    assert comp.dtype == (np.uint8 if n <= 8 else np.uint16) and comp.T.tolist() == scalar_components(rows)


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
        comp = component_masks(undirected_adjacency(rows))
        assert scalar_welfare(cfg, rows, comp, fh) == pytest.approx(social_welfare(cfg, rows), abs=1e-12)
