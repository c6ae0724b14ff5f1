"""Best responses, equilibrium enumeration, optimum, PoA, and MIL."""
import math
import tracemalloc

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from infogame import cli, equilibrium, kernel
from infogame.analytic import thresholds_homogeneous
from infogame.entropy import (
    TOL,
    family_independent,
    family_max_correlated,
    family_pair_redundancy,
    from_joint_pmfs,
    subset_agents,
)
from infogame.equilibrium import CapExceededError, enumerate_nash, social_optimum
from infogame.formation_game import BenefitFunction, CostModel, GameConfig
from infogame.kernel import components as kernel_components
from infogame.kernel import expand_row, merged_table, rows_from_indices, set_partition_count, welfare
from infogame.verification import random_joint_pmf
from scalar_kernel import NO_PURE_NE, random_homogeneous_config, random_recipient_config
from scalar_kernel import (bitstring, component_masks, csv_of, exact_game, is_minimally_connected, links, ne_status,
                           profile_from_index, profile_index, row_utilities, undirected_adjacency)
from scalar_kernel import welfare as scalar_welfare
from test_cli import GOLDEN_N6_MIXED_SPEC, GOLDEN_N6_SPEC

LOG2 = BenefitFunction.log1p(2.0)
LN = BenefitFunction.log1p(math.e)


def homog(ev, c, f=LOG2):
    return GameConfig(ev, f, CostModel.homogeneous(c))


def cheapest_link(cfg):
    """The least cost of a link between two agents; the pruned scan refuses a game where it is at most TOL."""
    n = cfg.n_agents
    return min(cfg.costs.link_cost(i, j) for i in range(n) for j in range(n) if i != j)


def six_agent_game(name):
    """The six-agent games of the pruned-scan tests: every sponsored tree an equilibrium (41,472,
    6 strict), recipient costs in the mixed region (31) and distinct matrix costs (657, all strict)."""
    if name == "matrix":
        c = 0.02 + 0.018 * (np.arange(36).reshape(6, 6) * 7 % 11)
        np.fill_diagonal(c, 0.0)
        return GameConfig(family_independent([1, 1.5, 2, 1.25, 0.75, 0.5]), LN, CostModel.matrix(c.tolist()))
    return cli._game_config(yaml.safe_load({"cheap": GOLDEN_N6_SPEC, "mixed": GOLDEN_N6_MIXED_SPEC}[name]))


def sorted_forest_scan(cfg):
    """The pruned scan as one array, the oracle of the streamed one: ``ne_status`` over every
    sponsored forest in ascending index order, 4,096 at a time."""
    n = cfg.n_agents
    forests = np.sort(np.concatenate(list(kernel.forest_batches(n, 4096))))
    ne, strict = map(np.concatenate, zip(*(kernel.ne_status(rows_from_indices(forests[s:s + 4096], n),
                                                            cfg.fh, cfg.row_costs)
                                           for s in range(0, len(forests), 4096))))
    return forests[ne], strict[ne]


def best_rows(cfg, rows, i):
    """Agent i's within-tolerance best rows against each profile of a batch, from the
    kernel's table, as sets of link masks."""
    merged, part = merged_table(cfg.n_agents, rows, i)
    table = kernel.best_response_table(merged, cfg.fh, cfg.row_costs[i])[part]
    return [{expand_row(c, i) for c in np.flatnonzero(t).tolist()} for t in table]


def status(cfg, *profiles):
    """(is_ne, is_strict) of each profile (a tuple of rows), from one ``kernel.ne_status`` batch."""
    is_ne, strict = kernel.ne_status(np.array(profiles, dtype=np.int64), cfg.fh, cfg.row_costs)
    return list(zip(is_ne.tolist(), strict.tolist()))


class TestBestResponses:
    """Agent 0's best rows against the empty network."""

    def test_cheap_link_worth_taking(self):
        cfg = homog(family_independent([1, 1]), 0.3)
        # log2(3) - 0.3 beats log2(2)
        assert best_rows(cfg, np.zeros((1, 2), dtype=np.int64), 0) == [{0b10}]

    def test_expensive_link_declined(self):
        cfg = homog(family_independent([1, 1]), 2.0)
        assert best_rows(cfg, np.zeros((1, 2), dtype=np.int64), 0) == [{0}]

    def test_redundant_information_never_bought(self):
        cfg = homog(family_max_correlated([1, 1]), 0.1)
        assert best_rows(cfg, np.zeros((1, 2), dtype=np.int64), 0) == [{0}]

    def test_tie_includes_both(self):
        # fully redundant targets: linking to either one is equally good
        cfg = homog(family_pair_redundancy(0, 1, 1, 1), 0.2, LN)
        assert best_rows(cfg, np.zeros((1, 3), dtype=np.int64), 0) == [{0b010, 0b100}]


class TestNashPredicates:
    def test_single_link_profile_is_ne(self):
        cfg = homog(family_independent([1, 1]), 0.3)
        assert status(cfg, links(2, [(0, 1)])) == [(True, True)]

    def test_duplicate_link_never_ne(self):
        cfg = homog(family_independent([1, 1]), 0.3)
        assert status(cfg, links(2, [(0, 1), (1, 0)])) == [(False, False)]

    def test_empty_profile_strict_at_high_cost(self):
        cfg = homog(family_independent([1, 1]), 2.0)
        assert status(cfg, links(2, [])) == [(True, True)]

    def test_strict_fails_on_tie(self):
        # identical sources make link targets interchangeable
        cfg = homog(family_pair_redundancy(0, 1, 1, 0), 0.2, LN)
        (is_ne, strict), = status(cfg, links(3, [(0, 1), (1, 2)]))
        if is_ne:
            assert not strict


class TestEnumerate:
    def test_two_sided_equilibria_cheap_link(self):
        cfg = homog(family_independent([1, 1]), 0.3)
        report = enumerate_nash(cfg)
        assert [bitstring(p) for p in report.rows.tolist()] == ["0010", "0100"]
        assert report.strict.tolist() == [True, True]

    def test_unique_equilibrium_mid_cost(self):
        # H0 > H1: only the low-entropy agent still buys
        cfg = homog(family_independent([2, 1]), 0.7)
        report = enumerate_nash(cfg)
        assert report.rows.tolist() == [[0, 1]]

    def test_unique_empty_at_high_cost(self):
        cfg = homog(family_independent([1, 1]), 2.0)
        report = enumerate_nash(cfg)
        assert report.rows.tolist() == [[0, 0]]
        assert report.strict.all()

    def test_every_random_instance_has_an_equilibrium(self):
        for seed in range(30):
            rng = np.random.default_rng(seed)
            cfg = random_homogeneous_config(rng, 2 + seed % 3, LN)
            assert len(enumerate_nash(cfg).rows)

    def test_equilibria_are_forests_without_duplicates(self):
        for seed in range(20):
            rng = np.random.default_rng(100 + seed)
            cfg = random_homogeneous_config(rng, 2 + seed % 3, LN)
            report = enumerate_nash(cfg)
            for p, comp in zip(report.rows.tolist(), report.components.T.tolist()):
                assert all(is_minimally_connected(p, subset_agents(m)) for m in set(comp))
                n = cfg.n_agents
                assert not any(p[i] >> j & 1 and p[j] >> i & 1
                               for i in range(n) for j in range(i + 1, n))

    def test_pruned_matches_full(self):
        games = [random_homogeneous_config(np.random.default_rng(200 + seed), 3 + seed % 2, LN)
                 for seed in range(10)]
        # five agents, positive costs, from 2000 equilibria (5 strict) down to 5 (all strict)
        games += [random_homogeneous_config(np.random.default_rng(seed), 5, LN) for seed in (0, 1, 18)]
        games += [random_recipient_config(np.random.default_rng(seed), 5, LOG2) for seed in (0, 5)]
        for cfg in games:
            if cheapest_link(cfg) <= TOL:
                continue
            pruned, full = equilibrium._ne_scan_pruned(cfg), equilibrium._ne_scan_full([cfg])
            assert [a.tolist() for a in pruned] == [a.tolist() for a in full]
            assert pruned[2].tolist() == [len(pruned[0])]

    def test_pruned_requires_positive_costs(self, monkeypatch):
        def never(*args):
            raise AssertionError("forests were generated")
        monkeypatch.setattr(equilibrium, "forest_batches", never)

        def matrix(free):  # 6 agents; every cost positive but where free(i, j)
            return CostModel.matrix([[0.0 if free(i, j) else 0.1 + 0.05 * abs(i - j) for j in range(6)]
                                     for i in range(6)])
        # one free link under any cost model is refused before a forest is generated
        for costs in (CostModel.homogeneous(0.0), CostModel.recipient([0.5, 0.4, 0.0, 0.3, 0.6, 0.2]),
                      matrix(lambda i, j: (i, j) == (4, 1))):
            with pytest.raises(CapExceededError, match="positive"):
                enumerate_nash(GameConfig(family_independent([1] * 6), LOG2, costs))
        # self links are not links: a zero diagonal with every link positive reaches the scan
        with pytest.raises(AssertionError, match="forests were generated"):
            enumerate_nash(GameConfig(family_independent([1] * 6), LOG2, matrix(lambda i, j: i == j)))

    @pytest.fixture
    def no_scan(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("a scan started")
        for name in ("_ne_scan_full", "_ne_scan_pruned", "forest_batches", "set_partitions"):
            monkeypatch.setattr(equilibrium, name, never)

    @pytest.mark.parametrize("n, forests", [(7, 1598955), (8, 49180113), (9, 1773405649)])
    def test_pruned_scan_refuses_more_forests_than_the_budget(self, no_scan, n, forests):
        cfg = homog(family_independent([1] * n), 0.5)
        with pytest.raises(CapExceededError, match=f"pruned scan at {n} agents capped at 1048576 "
                                                   f"sponsored forests: it would check {forests} "):
            enumerate_nash(cfg)

    def test_auto_scans_in_full_up_to_the_budget(self, monkeypatch):
        used = []
        monkeypatch.setattr(equilibrium, "_ne_scan_full", lambda cfgs: used.append("_ne_scan_full") or (
            np.zeros(0, dtype=np.int64), np.zeros(0, dtype=bool), np.zeros(len(cfgs), dtype=int)))
        monkeypatch.setattr(equilibrium, "_ne_scan_pruned", lambda cfg: used.append("_ne_scan_pruned") or (
            np.zeros(0, dtype=np.int64), np.zeros(0, dtype=bool), np.zeros(1, dtype=int)))
        for n in (1, 5, 6):
            enumerate_nash(homog(family_independent([1] * n), 0.5))
        assert used == ["_ne_scan_full", "_ne_scan_full", "_ne_scan_pruned"]

    def test_social_optimum_refuses_more_partitions_than_the_budget(self, no_scan):
        cfg = homog(family_independent([1] * 12), 0.5)
        with pytest.raises(CapExceededError, match="social optimum at 12 agents capped at 1048576 "
                                                   "partitions: it would check 4213597 partitions"):
            social_optimum(cfg)

    def test_single_agent_game(self):
        cfg = homog(family_independent([2.0]), 0.5)
        report = enumerate_nash(cfg)
        assert report.rows.tolist() == [[0]]
        assert report.poa == pytest.approx(1.0)
        assert report.mil == 0.0

    def test_matrix_costs_supported_by_brute_force(self):
        # one direction is priced out, the other stays attractive
        cfg = GameConfig(family_independent([1, 1]), LOG2,
                         CostModel.matrix([[0.0, 5.0], [0.3, 0.0]]))
        report = enumerate_nash(cfg)
        assert report.rows.tolist() == [[0, 1]]
        value, profile = social_optimum(cfg)
        assert value == pytest.approx(best_welfare(cfg), abs=1e-9)
        # the optimum sponsors the cheap direction
        assert profile.tolist() == [0, 1]
        assert value == pytest.approx(2 * math.log2(3) - 0.3, abs=1e-12)

    def test_six_agents_pruned_path(self):
        cfg = homog(family_independent([3, 2, 2, 1, 1, 1]), 0.08, LN)
        report = enumerate_nash(cfg)
        assert len(report.rows)
        # cheap links connect everyone
        assert (kernel_components(report.rows) == (1 << 6) - 1).all()
        assert report.poa == pytest.approx(1.0, abs=1e-9)

    def test_pruned_report_matches_per_equilibrium_scalar_walk(self):
        """Each field of a six-agent report against the scalar per-NE computation,
        with the types the CSV prints: Python floats taken from the vector itself."""
        cfg = random_homogeneous_config(np.random.default_rng(3), 6, LN)  # 431 NE, 1 strict
        report = enumerate_nash(cfg)
        idx, strict, _ = equilibrium._ne_scan_pruned(cfg)
        rows = rows_from_indices(idx, 6)
        assert len(report.rows) == len(rows) > 1
        fh = cfg.fh.tolist()
        welfares, infos = [], []
        for r in map(tuple, rows.tolist()):
            comp = component_masks(undirected_adjacency(r))
            welfares.append(scalar_welfare(cfg, r, comp, fh))
            infos.append(tuple(cfg.ev.h(c) for c in comp))
        assert report.rows.tolist() == rows.tolist()
        assert report.ne_profiles == tuple(map(tuple, rows.tolist()))  # hashable, for sets of equilibria
        assert report.strict.tolist() == strict.tolist()
        assert report.welfare.tolist() == welfares
        h = report.info_values
        got_infos = [tuple(h[c] for c in column) for column in report.components.T.tolist()]
        assert got_infos == infos
        assert all(type(v) is float and any(v is e for e in cfg.ev.entries) for v in h[1:])
        assert len(set(got_infos)) > 1  # some equilibria leave agents apart
        assert report.worst_ne_welfare == min(welfares)
        assert report.mil == max(max(col) - min(col) for col in zip(*infos))
        assert all(type(x) is float for x in (report.social_optimum_value, report.worst_ne_welfare,
                                              report.poa, report.mil))

    def test_profiles_are_built_only_when_asked_for(self):
        report = enumerate_nash(homog(family_independent([1, 1.5, 2, 1.25, 0.75]), 0.05, LN))
        assert "ne_profiles" not in vars(report)  # the scan keeps its arrays
        assert report.ne_profiles == tuple(map(tuple, report.rows.tolist()))
        assert len(report.ne_profiles) == 2000 and report.ne_profiles is report.ne_profiles

    def test_five_agent_scan_holds_no_array_over_its_profiles(self):
        """The scan goes a block of agent 0's row field at a time (2**16 of the 2**20 profiles) and the
        report keeps one-byte rows: 1.4 MiB traced here with the kept tables built afresh, 4.4 MiB when
        the scan held three flags per profile."""
        cfg = homog(family_independent([1, 1.5, 2, 1.25, 0.75]), 0.05, LN)
        equilibrium._others_merged.cache_clear()  # the kept tables are built inside the bound too
        tracemalloc.start()
        try:
            assert len(enumerate_nash(cfg).rows) == 2000
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20, peak

    @pytest.mark.parametrize("chunk", [512, None, 10**6])
    @pytest.mark.parametrize("name, count", [("cheap", 41472), ("mixed", 31), ("matrix", 657)])
    def test_pruned_scan_is_the_sorted_forest_scan(self, monkeypatch, name, count, chunk):
        # a buffer of SCAN_CHUNK forests, judged when full: 123 buffers, 16 by default, or one part-filled
        cfg = six_agent_game(name)
        want = sorted_forest_scan(cfg)
        if chunk:
            monkeypatch.setattr(equilibrium, "SCAN_CHUNK", chunk)
        idx, strict, counts = equilibrium._ne_scan_pruned(cfg)
        assert idx.dtype == np.int64 and strict.dtype == bool
        assert idx.tolist() == want[0].tolist() and strict.tolist() == want[1].tolist()
        assert counts.tolist() == [len(idx)] == [count]

    def test_pruned_scan_holds_a_buffer_not_its_candidates(self, monkeypatch):
        """Every batch of forests is judged through one SCAN_CHUNK buffer, never more rows at once, and
        only the equilibria are kept and sorted: 0.83 MiB traced here, 1.45 MiB when the 62,683 sorted
        sponsored forests were built whole and judged from there."""
        cfg = six_agent_game("mixed")
        judged, judge = [], kernel.ne_status
        monkeypatch.setattr(equilibrium, "ne_status", lambda rows, *a: judged.append(len(rows)) or judge(rows, *a))
        tracemalloc.start()
        try:
            assert len(equilibrium._ne_scan_pruned(cfg)[0]) == 31
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 7 << 17, peak
        assert judged == [equilibrium.SCAN_CHUNK] * 15 + [62683 - 15 * equilibrium.SCAN_CHUNK]

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_best_responses_are_scored_once_per_partition(self, monkeypatch, n):
        """An agent's payoffs see the others' links only through the partition of the graph
        without its own links, so no scored table has more rows than the Bell number of n."""
        score, rows_scored = kernel.best_response_table, {"full scan": [], "ne_status": []}
        for module, path in ((equilibrium, "full scan"), (kernel, "ne_status")):
            monkeypatch.setattr(module, "best_response_table", lambda merged, *args, path=path: (
                rows_scored[path].append(len(merged)) or score(merged, *args)))
        cfg = homog(family_independent([1, 1.5, 2, 1.25, 0.75, 0.5][:n]), 0.05, LN)
        enumerate_nash(cfg)  # the full scan up to 5 agents, ne_status on the forests at 6
        rows = rows_from_indices(np.random.default_rng(n).integers(0, 1 << (n * (n - 1)), size=4096), n)
        kernel.ne_status(rows, cfg.fh, cfg.row_costs)
        chunks = max(1, (1 << (n - 1) ** 2) // equilibrium.SCAN_CHUNK)  # per agent, of the others' configurations
        assert len(rows_scored["full scan"]) == (0 if n == 6 else n * chunks)
        assert rows_scored["ne_status"]
        assert max(sum(rows_scored.values(), [])) <= set_partition_count(n)

    def test_strict_set_stable_under_tolerance_halving(self, monkeypatch):
        configs = [random_homogeneous_config(np.random.default_rng(300 + seed), 2 + seed % 3, LN)
                   for seed in range(15)]
        a = [enumerate_nash(cfg) for cfg in configs]
        monkeypatch.setattr(kernel, "TOL", 5e-10)
        b = [enumerate_nash(cfg) for cfg in configs]
        for x, y in zip(a, b):
            assert x.rows[x.strict].tolist() == y.rows[y.strict].tolist()


def best_welfare(cfg):
    """Largest social welfare over every profile, by exhaustive scan (n <= 4)."""
    n = cfg.n_agents
    rows = np.array([profile_from_index(k, n) for k in range(1 << (n * (n - 1)))], dtype=np.int64)
    return float(welfare(rows, kernel_components(rows), cfg.fh, cfg.row_costs).max())


def scalar_status(cfg, indices):
    """{index: (is_ne, is_strict)} from the per-profile scalar test."""
    n = cfg.n_agents
    fh, costs = cfg.fh, cfg.row_costs
    return {k: ne_status(n, profile_from_index(k, n), range(n), fh, costs) for k in indices}


# integer entropies under a linear benefit make every payoff exact; equilibrium counts at
# c_l - 2 TOL, c_l, c_l + 2 TOL, then the same around c_u (a negative cost is skipped)
EXACT_GAMES = {
    "pair-redundancy": (family_pair_redundancy(5, 4, 4, 0), [5, 6, 4, 2, 2, 1]),
    "independent": (family_independent([1, 2]), [1, 2, 1, 1, 2, 1]),
    "max-correlated": (family_max_correlated([1, 2, 2]), [60, 2, 2, 3, 1]),
}


@pytest.mark.parametrize("name", list(EXACT_GAMES))
def test_the_float_scan_is_exact_two_tolerances_from_each_threshold(name):
    # within TOL of a threshold a link that gains c exactly is judged by the tolerance, and the two
    # scans differ there (c_l + TOL/2 of the pair-redundancy game: 6 float equilibria, 4 exact ones)
    ev, counts = EXACT_GAMES[name]
    f, found = BenefitFunction.linear(), []
    assert all(h == int(h) for h in ev.entries)
    for cut in thresholds_homogeneous(ev, f):
        for c in (cut - 2 * TOL, cut, cut + 2 * TOL):
            if c < 0:
                continue
            report = enumerate_nash(GameConfig(ev, f, CostModel.homogeneous(c)))
            exact = exact_game(ev, [c] * ev.n_agents)
            assert [profile_index(r) for r in report.rows.tolist()] == [k for k, (_, ne, *_) in enumerate(exact) if ne]
            assert [profile_index(r) for r in report.rows[report.strict].tolist()] == [
                k for k, (_, _, strict, *_) in enumerate(exact) if strict]
            found.append(len(report.rows))
    assert found == counts


def kernel_sets(cfg):
    """(NE indices, strict indices) from the full scan."""
    report = enumerate_nash(cfg)
    return ({profile_index(r) for r in report.rows.tolist()},
            {profile_index(r) for r in report.rows[report.strict].tolist()})


BENEFITS = [LOG2, LN, BenefitFunction.power(0.5), BenefitFunction.linear()]


@st.composite
def games(draw, n):
    """Random games: pmf-realized or family information, any benefit, any cost model."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    source = draw(st.sampled_from(["pmf", "independent", "correlated"]))
    if source == "pmf":
        ev = from_joint_pmfs([random_joint_pmf(rng, n)])[0]
    else:
        h = [float(x) for x in rng.integers(1, 25, size=n) / 8.0]
        ev = family_independent(h) if source == "independent" else family_max_correlated(h)
    kind = draw(st.sampled_from(["homogeneous", "recipient", "matrix"]))
    if kind == "homogeneous":
        costs = CostModel.homogeneous(float(rng.uniform(0.0, 2.0)))
    elif kind == "recipient":
        costs = CostModel.recipient(rng.uniform(0.0, 2.0, size=n))
    else:
        costs = CostModel.matrix(rng.uniform(0.0, 2.0, size=(n, n)))
    return GameConfig(ev, draw(st.sampled_from(BENEFITS)), costs)


@st.composite
def game_lists(draw):
    """Mixed lists of 2- to 4-agent games, half of them with one 5-agent game among them."""
    cfgs = draw(st.lists(st.integers(2, 4).flatmap(games), min_size=1, max_size=10))
    if draw(st.booleans()):
        cfgs.insert(draw(st.integers(0, len(cfgs))), draw(games(5)))
    return cfgs


def report_text(report):
    """What a report holds and prints, as text, so that a nan compares equal to itself."""
    return repr((csv_of(report), report.strict.tolist(), report.welfare.tolist(), report.components.tolist(),
                 report.info_values, report.social_optimum_value, report.social_optimum_rows.tolist(),
                 report.worst_ne_welfare, report.poa, report.mil))


@settings(max_examples=12, deadline=None)
@given(game_lists(), st.sampled_from([None, 256, 32, 8192]))
def test_a_batch_of_games_reports_what_each_game_alone_does(cfgs, chunk):
    """``enumerate_games`` groups games by size and scans them in chunks of at most ``SCAN_CHUNK``
    others configurations times games; a smaller ``SCAN_CHUNK`` splits both the games and each
    game's others configurations, a larger one puts two values of agent 0's row field in each block
    of a five-agent scan, and no byte of any report moves."""
    alone = [report_text(enumerate_nash(cfg)) for cfg in cfgs]
    default = equilibrium.SCAN_CHUNK
    equilibrium._others_merged.cache_clear()  # its tables are SCAN_CHUNK configurations each
    equilibrium.SCAN_CHUNK = chunk or default
    try:
        batch = [report_text(r) for r in equilibrium.enumerate_games(cfgs)]
    finally:
        equilibrium.SCAN_CHUNK = default
        equilibrium._others_merged.cache_clear()
    assert batch == alone


@st.composite
def tie_games(draw, n):
    """Linear benefit, integer entropies, each link priced at a marginal gain.

    Utilities are small integers, so many rows tie exactly; prices nudged by
    half the tolerance (or twice it) put rows just inside (or outside) the
    within-tolerance test.
    """
    h = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    correlated = draw(st.booleans())
    ev = (family_max_correlated if correlated else family_independent)([float(x) for x in h])
    nudges = st.sampled_from([0.0, TOL / 2, -TOL / 2, 2 * TOL, -2 * TOL])
    if draw(st.booleans()):
        costs = CostModel.recipient([max(0.0, x + draw(nudges)) for x in h])
    else:
        costs = CostModel.homogeneous(max(0.0, draw(st.sampled_from(h)) + draw(nudges)))
    return GameConfig(ev, BenefitFunction.linear(), costs)


class TestArrayKernelMatchesScalar:
    """The full scan's NE and strict sets against the per-profile ``ne_status``."""

    @staticmethod
    def check_all_profiles(cfg):
        n = cfg.n_agents
        status = scalar_status(cfg, range(1 << (n * (n - 1))))
        ne, strict = kernel_sets(cfg)
        assert ne == {k for k, (is_ne, _) in status.items() if is_ne}
        assert strict == {k for k, (_, is_strict) in status.items() if is_strict}

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 4).flatmap(games))
    def test_every_profile_small_games(self, cfg):
        self.check_all_profiles(cfg)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 4).flatmap(tie_games))
    def test_every_profile_tie_heavy_games(self, cfg):
        self.check_all_profiles(cfg)

    @settings(max_examples=6, deadline=None)
    @given(st.one_of(games(5), tie_games(5)), st.data())
    def test_sampled_profiles_five_agents(self, cfg, data):
        ne, strict = kernel_sets(cfg)
        # every NE the kernel reports plus a sample of other profiles
        sample = data.draw(st.lists(st.integers(0, (1 << 20) - 1), min_size=40, max_size=40))
        picked = sorted(ne)[:: max(1, len(ne) // 40)]
        for k, (is_ne, is_strict) in scalar_status(cfg, picked + sample).items():
            assert (k in ne) == is_ne
            assert (k in strict) == is_strict


class TestPredicatesMatchScalar:
    """``kernel.ne_status`` and the best-response table of every profile at once
    against the scalar walk."""

    @staticmethod
    def check_every_profile(cfg):
        n = cfg.n_agents
        fh, costs = cfg.fh, cfg.row_costs
        profiles = [profile_from_index(k, n) for k in range(1 << (n * (n - 1)))]
        assert status(cfg, *profiles) == [ne_status(n, p, range(n), fh, costs) for p in profiles]
        for i in range(n):
            got = best_rows(cfg, np.array(profiles, dtype=np.int64), i)
            for p, best in zip(profiles, got):
                utils = row_utilities(n, p, i, fh, costs[i])
                assert best == {expand_row(c, i) for c, u in enumerate(utils) if u >= max(utils) - TOL}

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 3).flatmap(games))
    def test_every_profile_small_games(self, cfg):
        self.check_every_profile(cfg)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 3).flatmap(tie_games))
    def test_every_profile_tie_heavy_games(self, cfg):
        self.check_every_profile(cfg)


profile_samples = st.integers(1, 5).flatmap(lambda n: st.tuples(
    games(n), st.lists(st.integers(0, (1 << (n * (n - 1))) - 1), min_size=1, max_size=8)))


@settings(max_examples=60, deadline=None)
@given(profile_samples)
def test_kernel_welfare_matches_the_sum_of_utilities(case):
    """Within 1e-12 of the sum of the terms' magnitudes: the two sum in different orders."""
    cfg, indices = case
    n = cfg.n_agents
    rows = np.array([profile_from_index(k, n) for k in indices], dtype=np.int64)
    comp = kernel_components(rows)
    got = welfare(rows, comp, cfg.fh, cfg.row_costs).tolist()
    for w, r, c in zip(got, rows.tolist(), comp.T.tolist()):
        scale = sum(cfg.fh[m] for m in c) + sum(
            cfg.costs.link_cost(i, j) for i in range(n) for j in range(n) if r[i] >> j & 1)
        # each agent's utility: the benefit of its component's information minus its links' costs
        masks = component_masks(undirected_adjacency(r))
        utilities = [cfg.benefit(cfg.ev.h(masks[i])) - sum(cfg.costs.link_cost(i, j) for j in subset_agents(r[i]))
                     for i in range(n)]
        assert abs(w - sum(utilities)) <= 1e-12 * scale


@st.composite
def verify_games(draw):
    """Games of 2 to 4 agents from ``verify``'s random configs: homogeneous or recipient costs."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    make = draw(st.sampled_from([random_homogeneous_config, random_recipient_config]))
    return make(rng, draw(st.integers(2, 4)), draw(st.sampled_from([LN, LOG2])))


@settings(max_examples=150, deadline=None)
@given(verify_games())
def test_optimum_is_a_kernel_welfare_and_never_below_an_equilibrium(cfg):
    """Exactly, without a tolerance: the optimum is ``kernel.welfare`` of its own profile."""
    report = enumerate_nash(cfg)
    value, profile = social_optimum(cfg)
    for v, p in ((report.social_optimum_value, report.social_optimum_rows), (value, profile)):
        assert p.dtype == np.int64 and p.shape == (cfg.n_agents,)
        assert v == welfare(p[None], kernel_components(p[None]), cfg.fh, cfg.row_costs)[0]
    assert report.social_optimum_value >= value
    if len(report.welfare):
        assert report.social_optimum_value >= report.welfare.max()
    assert report.poa is None or report.poa >= 1.0


class TestSocialOptimum:
    def test_connected_region_value(self):
        ev = family_pair_redundancy(5, 4, 4, 0)
        cfg = homog(ev, 0.3, LN)
        value, profile = social_optimum(cfg)
        assert value == pytest.approx(best_welfare(cfg), abs=1e-9)
        assert value == pytest.approx(3 * LN(13) - 2 * 0.3, abs=1e-9)
        assert set(component_masks(undirected_adjacency(profile.tolist()))) == {0b111}

    def test_isolated_region_empty(self):
        cfg = homog(family_independent([1, 1]), 3.0)
        value, profile = social_optimum(cfg)
        assert value == pytest.approx(best_welfare(cfg), abs=1e-9)
        assert profile.tolist() == [0, 0]
        assert value == pytest.approx(2 * math.log2(2), abs=1e-12)

    def test_heterogeneous_periphery_star_on_cheapest_core(self):
        ev = family_pair_redundancy(5, 4, 4, 0)
        cfg = GameConfig(ev, LN, CostModel.recipient([0.1, 0.2, 0.3]))
        value, profile = social_optimum(cfg)
        assert value == pytest.approx(best_welfare(cfg), abs=1e-9)
        assert value == pytest.approx(3 * LN(13) - 2 * 0.1, abs=1e-9)
        # both links point at agent 0, the cheapest recipient
        assert profile.tolist() == [0, 1, 1]

    def test_matches_full_scan_on_random_instances(self):
        for seed in range(10):
            rng = np.random.default_rng(400 + seed)
            cfg = random_homogeneous_config(rng, 2 + seed % 3, LN)
            assert social_optimum(cfg)[0] == pytest.approx(best_welfare(cfg), abs=1e-9)


class TestEfficiencyMetrics:
    def test_poa_one_in_connected_region(self):
        cfg = homog(family_pair_redundancy(5, 4, 4, 0), 0.3, LN)  # c < c_l
        assert enumerate_nash(cfg).poa == pytest.approx(1.0, abs=1e-9)

    def test_heterogeneous_connected_poa_closed_form(self):
        ev = family_pair_redundancy(5, 4, 4, 0)
        cfg = GameConfig(ev, LN, CostModel.recipient([0.1, 0.2, 0.3]))
        expect = (3 * math.log(14) - 2 * 0.1) / (3 * math.log(14) - 0.6 + 0.1)
        assert enumerate_nash(cfg).poa == pytest.approx(expect, abs=1e-9)
        assert expect == pytest.approx(1.0404, abs=5e-5)

    def test_mixed_region_poa_below_bound(self):
        ev = family_pair_redundancy(5, 4, 4, 0)
        cfg = homog(ev, 0.75, LN)  # strictly between the thresholds
        bound = 3 * math.log(14) / (math.log(6) + 2 * math.log(5))
        poa = enumerate_nash(cfg).poa
        assert 1.0 <= poa < bound

    def test_mil_zero_in_connected_region(self):
        cfg = homog(family_pair_redundancy(5, 4, 4, 0), 0.3, LN)
        assert enumerate_nash(cfg).mil == pytest.approx(0.0, abs=1e-12)

    def test_mil_nine_bits_when_both_extremes_are_equilibria(self):
        cfg = homog(family_pair_redundancy(5, 4, 4, 0), 0.75, LN)
        report = enumerate_nash(cfg)
        assert [0, 0, 0] in report.rows.tolist()
        assert (report.components == 0b111).all(axis=0).any()
        assert report.mil == pytest.approx(9.0, abs=1e-12)

    @pytest.mark.parametrize("n", range(3, 7))
    def test_mil_matches_its_scalar_definition(self, n):
        # over agents, the largest spread of an agent's information across the equilibria,
        # each agent's from the scalar walk of every equilibrium's rows
        mils = []
        for seed in range(6):
            rng = np.random.default_rng([n, seed])
            for cfg in (random_homogeneous_config(rng, n, LN), random_recipient_config(rng, n, LN)):
                if n == 6 and cheapest_link(cfg) <= TOL:
                    continue  # the pruned scan refuses free links
                report = enumerate_nash(cfg)
                infos = [[cfg.ev.h(m) for m in component_masks(undirected_adjacency(r))]
                         for r in report.rows.tolist()]
                assert report.mil == max(max(info) - min(info) for info in zip(*infos))
                mils.append(report.mil)
        assert max(mils) > 0.0

    def test_game_without_pure_equilibrium_reports_no_loss(self):
        report = enumerate_nash(NO_PURE_NE)
        assert report.rows.shape == (0, 3) and report.components.shape == (3, 0)
        assert report.mil == 0.0 and report.poa is None and math.isnan(report.worst_ne_welfare)

    def test_mil_zero_for_unique_equilibrium(self):
        for seed in range(10):
            rng = np.random.default_rng(500 + seed)
            cfg = random_homogeneous_config(rng, 2 + seed % 3, LN)
            report = enumerate_nash(cfg)
            if len(report.rows) == 1:
                assert report.mil == 0.0
            assert report.mil >= 0.0
            if report.poa is not None:
                assert report.poa >= 1.0

    def test_report_invariants_and_serialization(self):
        cfg = homog(family_pair_redundancy(5, 4, 4, 0), 0.75, LN)
        report = enumerate_nash(cfg)
        assert report.strict.shape == (len(report.rows),)
        assert report.worst_ne_welfare <= report.social_optimum_value
        csv_text = csv_of(report)
        header = csv_text.splitlines()[0].split(",")
        assert header == ["profile", "welfare", "info_0", "info_1", "info_2", "strict"]
        assert len(csv_text.splitlines()) == 1 + len(report.rows)
