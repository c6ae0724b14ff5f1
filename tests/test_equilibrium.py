"""Best responses, equilibrium enumeration, optimum, PoA, and MIL."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infogame import equilibrium
from infogame.entropy import (
    TOL,
    family_independent,
    family_max_correlated,
    family_pair_redundancy,
    from_joint_pmf,
)
from infogame.equilibrium import (
    CapExceededError,
    best_responses,
    enumerate_nash,
    is_nash,
    is_strict_nash,
    social_optimum,
)
from infogame.formation_game import (
    BenefitFunction,
    CostModel,
    GameConfig,
    LinkProfile,
    components,
    is_minimally_connected,
    utility,
)
from infogame.kernel import components as kernel_components
from infogame.kernel import expand_row, welfare
from infogame.verification import random_homogeneous_config, random_joint_pmf, random_recipient_config
from scalar_kernel import (component_masks, ne_status, profile_from_index, profile_index, row_utilities,
                           undirected_adjacency)
from scalar_kernel import welfare as scalar_welfare

LOG2 = BenefitFunction.log1p(2.0)
LN = BenefitFunction.log1p(math.e)


def homog(ev, c, f=LOG2):
    return GameConfig(ev, f, CostModel.homogeneous(c))


class TestBestResponses:
    def test_cheap_link_worth_taking(self):
        cfg = homog(family_independent([1, 1]), 0.3)
        # log2(3) - 0.3 beats log2(2)
        assert best_responses(cfg, 0, LinkProfile.empty(2)) == frozenset({0b10})

    def test_expensive_link_declined(self):
        cfg = homog(family_independent([1, 1]), 2.0)
        assert best_responses(cfg, 0, LinkProfile.empty(2)) == frozenset({0})

    def test_redundant_information_never_bought(self):
        cfg = homog(family_max_correlated([1, 1]), 0.1)
        assert best_responses(cfg, 0, LinkProfile.empty(2)) == frozenset({0})

    def test_tie_includes_both(self):
        # fully redundant targets: linking to either one is equally good
        cfg = homog(family_pair_redundancy(0, 1, 1, 1), 0.2, LN)
        brs = best_responses(cfg, 0, LinkProfile.empty(3))
        assert brs == frozenset({0b010, 0b100})


class TestNashPredicates:
    def test_single_link_profile_is_ne(self):
        cfg = homog(family_independent([1, 1]), 0.3)
        assert is_nash(cfg, LinkProfile.from_links(2, [(0, 1)]))

    def test_duplicate_link_never_ne(self):
        cfg = homog(family_independent([1, 1]), 0.3)
        assert not is_nash(cfg, LinkProfile.from_links(2, [(0, 1), (1, 0)]))

    def test_empty_profile_strict_at_high_cost(self):
        cfg = homog(family_independent([1, 1]), 2.0)
        assert is_strict_nash(cfg, LinkProfile.empty(2))

    def test_strict_fails_on_tie(self):
        # identical sources make link targets interchangeable
        cfg = homog(family_pair_redundancy(0, 1, 1, 0), 0.2, LN)
        p = LinkProfile.from_links(3, [(0, 1), (1, 2)])
        if is_nash(cfg, p):
            assert not is_strict_nash(cfg, p)


class TestEnumerate:
    def test_two_sided_equilibria_cheap_link(self):
        cfg = homog(family_independent([1, 1]), 0.3)
        report = enumerate_nash(cfg)
        assert [p.bitstring() for p in report.ne_profiles] == ["0010", "0100"]
        assert len(report.strict_ne_profiles) == 2

    def test_unique_equilibrium_mid_cost(self):
        # H0 > H1: only the low-entropy agent still buys
        cfg = homog(family_independent([2, 1]), 0.7)
        report = enumerate_nash(cfg)
        assert [p.rows for p in report.ne_profiles] == [(0, 1)]

    def test_unique_empty_at_high_cost(self):
        cfg = homog(family_independent([1, 1]), 2.0)
        report = enumerate_nash(cfg)
        assert [p.rows for p in report.ne_profiles] == [(0, 0)]
        assert report.strict_ne_profiles == report.ne_profiles

    def test_every_random_instance_has_an_equilibrium(self):
        for seed in range(30):
            rng = np.random.default_rng(seed)
            cfg = random_homogeneous_config(rng, 2 + seed % 3, LN)
            assert enumerate_nash(cfg).ne_profiles

    def test_equilibria_are_forests_without_duplicates(self):
        for seed in range(20):
            rng = np.random.default_rng(100 + seed)
            cfg = random_homogeneous_config(rng, 2 + seed % 3, LN)
            for p in enumerate_nash(cfg).ne_profiles:
                assert all(is_minimally_connected(p, comp) for comp in components(p))
                n = cfg.n_agents
                assert not any(p.rows[i] >> j & 1 and p.rows[j] >> i & 1
                               for i in range(n) for j in range(i + 1, n))

    def test_pruned_matches_full(self):
        games = [random_homogeneous_config(np.random.default_rng(200 + seed), 3 + seed % 2, LN)
                 for seed in range(10)]
        # five agents, positive costs, from 2000 equilibria (5 strict) down to 5 (all strict)
        games += [random_homogeneous_config(np.random.default_rng(seed), 5, LN) for seed in (0, 1, 18)]
        games += [random_recipient_config(np.random.default_rng(seed), 5, LOG2) for seed in (0, 5)]
        for cfg in games:
            if cfg.costs.min_cost(cfg.n_agents) <= 1e-9:
                continue
            pruned, full = equilibrium._ne_scan_pruned(cfg, TOL), equilibrium._ne_scan_full(cfg, TOL)
            assert [a.tolist() for a in pruned] == [a.tolist() for a in full]

    def test_pruned_requires_positive_costs(self, monkeypatch):
        def never(n):
            raise AssertionError("forests were generated")
        monkeypatch.setattr(equilibrium, "_forest_candidates", never)
        cfg = homog(family_independent([1] * 6), 0.0)
        with pytest.raises(CapExceededError, match="positive"):
            enumerate_nash(cfg)

    @pytest.fixture
    def no_scan(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("a scan started")
        for name in ("_ne_scan_full", "_ne_scan_pruned", "_forest_candidates", "set_partitions"):
            monkeypatch.setattr(equilibrium, name, never)

    @pytest.mark.parametrize("n, forests", [(7, 1598955), (8, 49180113), (9, 1773405649)])
    def test_pruned_scan_refuses_more_forests_than_the_budget(self, no_scan, n, forests):
        cfg = homog(family_independent([1] * n), 0.5)
        with pytest.raises(CapExceededError, match=f"pruned scan at {n} agents capped at 1048576 "
                                                   f"sponsored forests: it would check {forests} "):
            enumerate_nash(cfg)

    def test_auto_scans_in_full_up_to_the_budget(self, monkeypatch):
        used = []
        for name in ("_ne_scan_full", "_ne_scan_pruned"):
            monkeypatch.setattr(equilibrium, name, lambda cfg, tol, name=name: used.append(name) or (
                np.zeros((0, cfg.n_agents), dtype=np.int64), np.zeros(0, dtype=bool)))
        monkeypatch.setattr(equilibrium, "social_optimum", lambda cfg: (0.0, None))
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
        assert [p.rows for p in report.ne_profiles] == [(0,)]
        assert report.poa == pytest.approx(1.0)
        assert report.mil == 0.0

    def test_matrix_costs_supported_by_brute_force(self):
        # one direction is priced out, the other stays attractive
        cfg = GameConfig(family_independent([1, 1]), LOG2,
                         CostModel.matrix([[0.0, 5.0], [0.3, 0.0]]))
        report = enumerate_nash(cfg)
        assert [p.rows for p in report.ne_profiles] == [(0, 1)]
        value, profile = social_optimum(cfg)
        assert value == pytest.approx(best_welfare(cfg), abs=1e-9)
        # the optimum sponsors the cheap direction
        assert profile.rows == (0, 1)
        assert value == pytest.approx(2 * math.log2(3) - 0.3, abs=1e-12)

    def test_six_agents_pruned_path(self):
        cfg = homog(family_independent([3, 2, 2, 1, 1, 1]), 0.08, LN)
        report = enumerate_nash(cfg)
        assert report.ne_profiles
        # cheap links connect everyone
        rows = np.array([p.rows for p in report.ne_profiles], dtype=np.int64)
        assert (kernel_components(rows) == (1 << 6) - 1).all()
        assert report.poa == pytest.approx(1.0, abs=1e-9)

    def test_pruned_report_matches_per_equilibrium_scalar_walk(self):
        """Each field of a six-agent report against the scalar per-NE computation,
        with the types the CSV prints: Python floats taken from the vector itself."""
        cfg = random_homogeneous_config(np.random.default_rng(3), 6, LN)  # 431 NE, 1 strict
        report = enumerate_nash(cfg)
        rows, strict = equilibrium._ne_scan_pruned(cfg, TOL)
        assert len(report.ne_profiles) == len(rows) > 1
        fh = cfg.fh.tolist()
        welfares, infos = [], []
        for r in map(tuple, rows.tolist()):
            comp = component_masks(undirected_adjacency(LinkProfile(6, r)))
            welfares.append(scalar_welfare(cfg, r, comp, fh))
            infos.append(tuple(cfg.ev.h(c) for c in comp))
        assert [p.rows for p in report.ne_profiles] == list(map(tuple, rows.tolist()))
        assert report.strict_ne_profiles == tuple(p for p, st in zip(report.ne_profiles, strict) if st)
        assert report.ne_welfares == tuple(welfares)
        assert report.ne_agent_info == tuple(infos)
        assert all(type(w) is float for w in report.ne_welfares)
        assert all(type(v) is float and any(v is e for e in cfg.ev.entries)
                   for info in report.ne_agent_info for v in info)
        assert len(set(report.ne_agent_info)) > 1  # some equilibria leave agents apart
        assert report.worst_ne_welfare == min(welfares)
        assert report.mil == max(max(col) - min(col) for col in zip(*infos))
        assert all(type(x) is float for x in (report.social_optimum_value, report.worst_ne_welfare,
                                              report.poa, report.mil))

    def test_strict_set_stable_under_tolerance_halving(self):
        for seed in range(15):
            rng = np.random.default_rng(300 + seed)
            cfg = random_homogeneous_config(rng, 2 + seed % 3, LN)
            a = enumerate_nash(cfg, tol=1e-9)
            b = enumerate_nash(cfg, tol=5e-10)
            assert ([p.rows for p in a.strict_ne_profiles]
                    == [p.rows for p in b.strict_ne_profiles])


def best_welfare(cfg):
    """Largest social welfare over every profile, by exhaustive scan (n <= 4)."""
    n = cfg.n_agents
    rows = np.array([profile_from_index(k, n) for k in range(1 << (n * (n - 1)))], dtype=np.int64)
    return float(welfare(rows, kernel_components(rows), cfg.fh, cfg.row_costs).max())


def scalar_status(cfg, indices, tol=TOL):
    """{index: (is_ne, is_strict)} from the per-profile scalar test."""
    n = cfg.n_agents
    fh, costs = cfg.fh, cfg.row_costs
    return {k: ne_status(n, profile_from_index(k, n), range(n), fh, costs, tol) for k in indices}


def kernel_sets(cfg, tol=TOL):
    """(NE indices, strict indices) from the full scan."""
    report = enumerate_nash(cfg, tol=tol)
    return ({profile_index(p.rows) for p in report.ne_profiles},
            {profile_index(p.rows) for p in report.strict_ne_profiles})


BENEFITS = [LOG2, LN, BenefitFunction.power(0.5), BenefitFunction.linear()]


@st.composite
def games(draw, n):
    """Random games: pmf-realized or family information, any benefit, any cost model."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    source = draw(st.sampled_from(["pmf", "independent", "correlated"]))
    if source == "pmf":
        ev = from_joint_pmf(random_joint_pmf(rng, n))
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
    """``is_nash``, ``is_strict_nash`` and ``best_responses`` against the scalar walk."""

    @staticmethod
    def check_every_profile(cfg):
        n = cfg.n_agents
        fh, costs = cfg.fh, cfg.row_costs
        for k in range(1 << (n * (n - 1))):
            rows = profile_from_index(k, n)
            p = LinkProfile(n, rows)
            assert (is_nash(cfg, p), is_strict_nash(cfg, p)) == ne_status(n, rows, range(n), fh, costs)
            for i in range(n):
                utils = row_utilities(n, rows, i, fh, costs[i])
                best = frozenset(expand_row(c, i) for c, u in enumerate(utils) if u >= max(utils) - TOL)
                got = best_responses(cfg, i, p)
                assert got == best
                assert all(type(r) is int for r in got)

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
        p = LinkProfile(n, tuple(r))
        scale = sum(cfg.fh[m] for m in c) + sum(
            cfg.link_cost(i, j) for i in range(n) for j in range(n) if r[i] >> j & 1)
        assert abs(w - sum(utility(cfg, p, i) for i in range(n))) <= 1e-12 * scale


class TestSocialOptimum:
    def test_connected_region_value(self):
        ev = family_pair_redundancy(5, 4, 4, 0)
        cfg = homog(ev, 0.3, LN)
        value, profile = social_optimum(cfg)
        assert value == pytest.approx(best_welfare(cfg), abs=1e-9)
        assert value == pytest.approx(3 * LN(13) - 2 * 0.3, abs=1e-9)
        assert len(components(profile)) == 1

    def test_isolated_region_empty(self):
        cfg = homog(family_independent([1, 1]), 3.0)
        value, profile = social_optimum(cfg)
        assert value == pytest.approx(best_welfare(cfg), abs=1e-9)
        assert profile.rows == (0, 0)
        assert value == pytest.approx(2 * math.log2(2), abs=1e-12)

    def test_heterogeneous_periphery_star_on_cheapest_core(self):
        ev = family_pair_redundancy(5, 4, 4, 0)
        cfg = GameConfig(ev, LN, CostModel.recipient([0.1, 0.2, 0.3]))
        value, profile = social_optimum(cfg)
        assert value == pytest.approx(best_welfare(cfg), abs=1e-9)
        assert value == pytest.approx(3 * LN(13) - 2 * 0.1, abs=1e-9)
        # both links point at agent 0, the cheapest recipient
        assert profile.rows == (0, 1, 1)

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
        assert 1.0 - 1e-9 <= poa < bound

    def test_mil_zero_in_connected_region(self):
        cfg = homog(family_pair_redundancy(5, 4, 4, 0), 0.3, LN)
        assert enumerate_nash(cfg).mil == pytest.approx(0.0, abs=1e-12)

    def test_mil_nine_bits_when_both_extremes_are_equilibria(self):
        cfg = homog(family_pair_redundancy(5, 4, 4, 0), 0.75, LN)
        report = enumerate_nash(cfg)
        rows = {p.rows for p in report.ne_profiles}
        assert (0, 0, 0) in rows
        assert any(len(components(p)) == 1 for p in report.ne_profiles)
        assert report.mil == pytest.approx(9.0, abs=1e-12)

    def test_mil_zero_for_unique_equilibrium(self):
        for seed in range(10):
            rng = np.random.default_rng(500 + seed)
            cfg = random_homogeneous_config(rng, 2 + seed % 3, LN)
            report = enumerate_nash(cfg)
            if len(report.ne_profiles) == 1:
                assert report.mil == 0.0
            assert report.mil >= 0.0
            if report.poa is not None:
                assert report.poa >= 1.0 - 1e-9

    def test_report_invariants_and_serialization(self):
        cfg = homog(family_pair_redundancy(5, 4, 4, 0), 0.75, LN)
        report = enumerate_nash(cfg)
        strict_rows = {p.rows for p in report.strict_ne_profiles}
        assert strict_rows <= {p.rows for p in report.ne_profiles}
        assert report.worst_ne_welfare <= report.social_optimum_value + 1e-9
        csv_text = report.to_csv()
        header = csv_text.splitlines()[0].split(",")
        assert header == ["profile", "welfare", "info_0", "info_1", "info_2", "strict"]
        assert len(csv_text.splitlines()) == 1 + len(report.ne_profiles)
