"""Closed-form predictors against their formulas and the brute-force oracle."""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from infogame import analytic, kernel
from infogame.analytic import (
    K_C,
    K_I,
    K_M,
    classify_homogeneous,
    component_structures,
    mil_predict,
    poa_monotonicity_sweep,
    poa_predict,
    region_heterogeneous,
    strict_structure_mask,
    thresholds_homogeneous,
)
from infogame.entropy import (TOL, EntropicVector, family_independent, family_max_correlated, family_pair_redundancy,
                              from_joint_pmfs, subset_agents)
from infogame.equilibrium import CapExceededError, enumerate_nash
from infogame.formation_game import BenefitFunction, CostModel, GameConfig
from infogame.kernel import profile_indices, rows_from_indices, set_partition_count
from infogame.verification import random_joint_pmf
from scalar_kernel import random_homogeneous_config, random_recipient_config
from scalar_kernel import exact_game, links, profile_from_index
from scalar_kernel import strict_ne_structure as scalar_strict_ne_structure

LN = BenefitFunction.log1p(math.e)


class TestThresholds:
    def test_pair_redundancy_family(self):
        cl, cu = thresholds_homogeneous(family_pair_redundancy(5, 4, 4, 0), LN)
        assert cl == pytest.approx(math.log(14 / 9), abs=1e-9)
        assert cu == pytest.approx(math.log(14 / 5), abs=1e-9)

    def test_fully_redundant_pair_collapses(self):
        cl, cu = thresholds_homogeneous(family_pair_redundancy(5, 4, 4, 4), LN)
        assert cl == pytest.approx(cu, abs=1e-12)
        assert cl == pytest.approx(math.log(10 / 5), abs=1e-9)

    def test_identical_bits_zero_thresholds(self):
        ev = family_max_correlated([1, 1])
        cl, cu = thresholds_homogeneous(ev, LN)
        assert cl == 0.0 and cu == 0.0
        # a free link ties with no link: both the pair and the empty network are equilibria
        assert classify_homogeneous(ev, LN, 0.0).label == K_M

    def test_boundary_conventions(self):
        # entropy.band's tie: within TOL of either threshold a game is K_M
        ev = family_pair_redundancy(5, 4, 4, 0)
        cl, cu = thresholds_homogeneous(ev, LN)
        costs = [cl - 2 * TOL, cl - TOL / 2, cl, cl + TOL / 2, (cl + cu) / 2, cu - TOL / 2, cu, cu + TOL / 2,
                 cu + 2 * TOL]
        assert [classify_homogeneous(ev, LN, c).label for c in costs] == [K_C] + [K_M] * 7 + [K_I]


class TestHeterogeneousRegion:
    def test_connected(self):
        ev = family_pair_redundancy(5, 4, 4, 0)
        region = region_heterogeneous(ev, LN, CostModel.recipient([0.1, 0.2, 0.3]))
        assert region.label == K_C
        assert all(m > 0 for m in region.kc_margins)

    def test_isolated(self):
        ev = family_pair_redundancy(5, 4, 4, 0)
        region = region_heterogeneous(ev, LN, CostModel.recipient([2, 2, 2]))
        assert region.label == K_I

    def test_mixed(self):
        ev = family_pair_redundancy(5, 4, 4, 0)
        region = region_heterogeneous(ev, LN, CostModel.recipient([0.1, 0.2, 0.9]))
        assert region.label == K_M

    def test_requires_recipient_costs(self):
        ev = family_pair_redundancy(5, 4, 4, 0)
        with pytest.raises(ValueError):
            region_heterogeneous(ev, LN, CostModel.homogeneous(0.3))


def realized_partitions(cfg):
    """Component structures of every equilibrium of a game, from ``enumerate_nash``."""
    return {frozenset(frozenset(subset_agents(m)) for m in column)
            for column in enumerate_nash(cfg).components.T.tolist()}


class TestComponentStructure:
    def test_pair_supported_at_low_cost(self):
        cfg = GameConfig(family_independent([1, 1]), LN, CostModel.homogeneous(0.3))
        assert frozenset({frozenset({0, 1})}) in component_structures(cfg)

    def test_split_rejected_when_cross_link_profitable(self):
        cfg = GameConfig(family_independent([1, 1]), LN, CostModel.homogeneous(0.3))
        assert frozenset({frozenset({0}), frozenset({1})}) not in component_structures(cfg)

    def test_split_supported_at_high_cost(self):
        cfg = GameConfig(family_independent([1, 1]), LN, CostModel.homogeneous(2.0))
        assert frozenset({frozenset({0}), frozenset({1})}) in component_structures(cfg)

    def test_matrix_costs_rejected(self):
        cfg = GameConfig(family_independent([1, 1]), LN,
                         CostModel.matrix([[0, 1], [1, 0]]))
        with pytest.raises(ValueError):
            component_structures(cfg)

    def test_matches_enumeration_partitions(self):
        for seed in range(25):
            rng = np.random.default_rng(seed)
            cfg = random_homogeneous_config(rng, 2 + seed % 3, LN)
            assert component_structures(cfg) == realized_partitions(cfg)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_a_second_game_builds_no_table(self, monkeypatch, n):
        analytic._partition_batch.cache_clear()
        calls = []

        def counted(*args):
            calls.append(args[2])
            return kernel.merged_table(*args)
        monkeypatch.setattr(analytic, "merged_table", counted)
        component_structures(random_homogeneous_config(np.random.default_rng(n), n, LN))
        assert calls == list(range(n))  # one table per agent for the first game

        def fail(*args):
            raise AssertionError("a table was built for a second game")
        monkeypatch.setattr(analytic, "merged_table", fail)
        cfg = random_recipient_config(np.random.default_rng(10 + n), n, LN)
        assert component_structures(cfg) == realized_partitions(cfg)


class TestComponentCheckerBudget:
    """Games with more than 2**20 sponsored trees over all blocks of all partitions are
    refused before any tree is built."""

    def test_seven_agents_refused(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("a sponsored tree was built or checked")
        monkeypatch.setattr(analytic, "sponsored_trees", fail)
        monkeypatch.setattr(analytic, "best_response_table", fail)
        cfg = GameConfig(family_independent([1.0] * 7), LN, CostModel.homogeneous(0.1))
        # sum over block sizes m of C(7, m) * m**(m-2) * 2**(m-1) * Bell(7 - m)
        with pytest.raises(CapExceededError, match="it would check 1482257 sponsored trees"):
            component_structures(cfg)

    @pytest.mark.parametrize("n, count", [(4, 220), (5, 3055), (6, 59274)])
    def test_count_is_taken_before_any_tree_is_built(self, monkeypatch, n, count):
        assert count == sum(math.comb(n, m) * m ** max(m - 2, 0) * 2 ** (m - 1) * set_partition_count(n - m)
                            for m in range(1, n + 1))
        monkeypatch.setattr(kernel, "CHECK_BUDGET", count - 1)
        monkeypatch.setattr(analytic, "sponsored_trees", None)
        cfg = GameConfig(family_independent([1.0] * n), LN, CostModel.homogeneous(0.1))
        with pytest.raises(CapExceededError, match=f"it would check {count} sponsored trees"):
            component_structures(cfg)

    def test_six_agents_checked(self):
        # cheap links: every sponsored spanning tree is an equilibrium
        cfg = GameConfig(family_independent([1.0] * 6), LN, CostModel.homogeneous(0.1))
        accepted = component_structures(cfg)
        assert frozenset({frozenset(range(6))}) in accepted
        assert frozenset(frozenset({a}) for a in range(6)) not in accepted


class TestStrictStructure:
    def test_core_sponsored_star_accepted(self):
        cfg = GameConfig(family_independent([5, 4, 4]), LN, CostModel.homogeneous(0.1))
        star = links(3, [(0, 1), (0, 2)])
        assert strict_structure_mask(cfg, [star]).tolist() == [True]

    def test_line_rejected(self):
        cfg = GameConfig(family_independent([5, 4, 4]), LN, CostModel.homogeneous(0.1))
        line = links(3, [(0, 1), (1, 2)])
        assert strict_structure_mask(cfg, [line]).tolist() == [False]

    def test_periphery_sponsored_star_rejected(self):
        # periphery agents could swap link targets at equal utility
        cfg = GameConfig(family_independent([5, 4, 4]), LN, CostModel.homogeneous(0.1))
        star = links(3, [(1, 0), (2, 0)])
        assert strict_structure_mask(cfg, [star]).tolist() == [False]

    def test_seven_agent_star_judged_past_the_component_checker_budget(self):
        # each periphery link gains ln(8/7) > c; the block has 1075648 sponsored trees
        cfg = GameConfig(family_independent([1.0] * 7), LN, CostModel.homogeneous(0.1))
        star = links(7, [(0, j) for j in range(1, 7)])
        assert strict_structure_mask(cfg, [star]).tolist() == [True]
        assert kernel.ne_status(np.array([star]), cfg.fh, cfg.row_costs)[1].tolist() == [True]

    def test_non_equilibrium_rejected(self):
        cfg = GameConfig(family_independent([1, 1]), LN, CostModel.homogeneous(0.3))
        assert strict_structure_mask(cfg, [links(2, [])]).tolist() == [False]

    def test_matches_enumeration(self):
        for seed in range(12):
            rng = np.random.default_rng(50 + seed)
            cfg = random_homogeneous_config(rng, 2 + seed % 3, LN)
            n = cfg.n_agents
            report = enumerate_nash(cfg)
            strict = set(map(tuple, report.rows[report.strict].tolist()))
            rows = [profile_from_index(idx, n) for idx in range(1 << (n * (n - 1)))]
            assert strict_structure_mask(cfg, rows).tolist() == [r in strict for r in rows]

    def test_a_link_gaining_exactly_its_cost_plus_tol_is_not_strict(self):
        # the core's link gains f(2) - f(1) = 1, and at this cost 1 == c + TOL in float64
        c = 1.0 - TOL
        assert 1.0 == c + TOL
        cfg = GameConfig(family_independent([1, 1]), BenefitFunction.linear(), CostModel.homogeneous(c))
        star = links(2, [(0, 1)])
        assert strict_structure_mask(cfg, [star]).tolist() == [False]
        assert not scalar_strict_ne_structure(cfg, star)
        assert not enumerate_nash(cfg).strict.any()

    def test_mask_refuses_what_the_checker_refuses(self):
        cfg = GameConfig(family_independent([1, 1]), LN, CostModel.recipient([0.3, 0.3]))
        with pytest.raises(ValueError, match="homogeneous costs only"):
            strict_structure_mask(cfg, [(0, 0)])
        cfg = GameConfig(family_independent([1, 1]), LN, CostModel.homogeneous(0.3))
        with pytest.raises(ValueError, match="profile size"):
            strict_structure_mask(cfg, [(0, 0, 0)])

    @pytest.mark.parametrize("row", [(3, 0), (4, 0), (-1, 0)], ids=["self-link", "past-n-bits", "negative"])
    def test_mask_refuses_rows_that_are_not_link_rows(self, row):
        cfg = GameConfig(family_independent([1, 1]), LN, CostModel.homogeneous(0.3))
        with pytest.raises(ValueError, match="n-bit masks without self links"):
            strict_structure_mask(cfg, [row])


@st.composite
def strict_games(draw, n):
    """Homogeneous games: pmf-realized information at a random or zero link cost, or
    tie-heavy ones with linear benefit, integer entropies and the cost at a marginal
    gain nudged by half or twice the tolerance."""
    kind = draw(st.sampled_from(["random", "zero", "tie"]))
    if kind == "tie":
        h = [float(x) for x in draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))]
        ev = draw(st.sampled_from([family_independent, family_max_correlated]))(h)
        c = max(0.0, draw(st.sampled_from(h)) + draw(st.sampled_from([0.0, TOL / 2, -TOL / 2, 2 * TOL, -2 * TOL])))
        return GameConfig(ev, BenefitFunction.linear(), CostModel.homogeneous(c))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    c = 0.0 if kind == "zero" else float(rng.uniform(0.0, 1.0))
    return GameConfig(from_joint_pmfs([random_joint_pmf(rng, n)])[0], LN, CostModel.homogeneous(c))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4).flatmap(strict_games))
def test_strict_mask_matches_the_scalar_checker_on_every_profile(cfg):
    n = cfg.n_agents
    rows = rows_from_indices(np.arange(1 << (n * (n - 1))), n)
    want = [scalar_strict_ne_structure(cfg, r) for r in rows.tolist()]
    assert strict_structure_mask(cfg, rows).tolist() == want


def brute_strict(cfg):
    """Strict flag of every profile of a game, in index order, from ``enumerate_nash``."""
    n = cfg.n_agents
    report = enumerate_nash(cfg)
    strict = np.zeros(1 << (n * (n - 1)), dtype=bool)
    strict[profile_indices(report.rows[report.strict])] = True
    return strict


def knife_edge_costs(ev, f):
    """Every marginal gain f(H(C)) - f(H(C minus j)) of a game, and the gain +- TOL, each +- 1 ulp."""
    fh = GameConfig(ev, f, CostModel.homogeneous(0.0)).fh
    n = ev.n_agents
    gains = {float(fh[m] - fh[m & ~(1 << j)]) for m in range(1 << n) for j in range(n) if m >> j & 1}
    return sorted({c for g in gains for edge in (g - TOL, g, g + TOL)
                   for c in (math.nextafter(edge, -math.inf), edge, math.nextafter(edge, math.inf)) if c >= 0.0})


def assert_mask_is_brute_force(cfg):
    n = cfg.n_agents
    rows = rows_from_indices(np.arange(1 << (n * (n - 1))), n)
    mask = strict_structure_mask(cfg, rows)
    wrong = np.flatnonzero(mask != brute_strict(cfg))
    assert not len(wrong), f"c={cfg.costs.values[0]!r}: rows {rows[wrong[0]].tolist()} mask {mask[wrong[0]]}"


class TestStrictKnifeEdge:
    """The mask judges a cost on the knife edge of a marginal gain as brute force does."""

    LINEAR_PAIR = family_independent([1, 1])

    def test_star_one_ulp_inside_the_tolerance_is_not_strict(self):
        # the core's link gains 1, which is c + TOL to within one ulp: brute force sees a tie
        c = math.nextafter(1 - 1e-9, 0)
        cfg = GameConfig(self.LINEAR_PAIR, BenefitFunction.linear(), CostModel.homogeneous(c))
        assert not enumerate_nash(cfg).strict.any()
        assert strict_structure_mask(cfg, [(2, 0)]).tolist() == [False]
        assert_mask_is_brute_force(cfg)

    @pytest.mark.parametrize("c", knife_edge_costs(LINEAR_PAIR, BenefitFunction.linear()))
    def test_costs_around_the_marginal_gain(self, c):
        assert_mask_is_brute_force(GameConfig(self.LINEAR_PAIR, BenefitFunction.linear(), CostModel.homogeneous(c)))

    FOUR_MAX_CORRELATED = family_max_correlated([0, 1, 3, 3])

    # a star's core can swap its link between the two equally informed agents
    @pytest.mark.parametrize("c", knife_edge_costs(FOUR_MAX_CORRELATED, BenefitFunction.linear()))
    def test_four_agents_around_every_marginal_gain(self, c):
        assert_mask_is_brute_force(GameConfig(self.FOUR_MAX_CORRELATED, BenefitFunction.linear(),
                                              CostModel.homogeneous(c)))

    # a star's core that would rather swap its link for one to the agent left apart
    def test_swap_to_an_equally_informed_agent_is_a_tie(self):
        cfg = GameConfig(family_max_correlated([1, 3, 3]), BenefitFunction.linear(), CostModel.homogeneous(1.0))
        assert_mask_is_brute_force(cfg)

    def test_swap_that_pays_is_not_an_equilibrium(self):
        ev = EntropicVector(3, (0.997507021886628, 1.5352109312624336, 1.9457784378865872, 0.9999806433818881,
                                1.9701640009564494, 2.3243096282181517, 2.6307805699734454))
        cfg = GameConfig(ev, LN, CostModel.homogeneous(0.38))
        assert_mask_is_brute_force(cfg)


@st.composite
def knife_edge_games(draw, n):
    """Games of n agents at a cost on the knife edge of one of their marginal gains: linear
    benefit with integer independent or max-correlated entropies, or pmf-realized information."""
    kind = draw(st.sampled_from(["independent", "max_correlated", "pmf"]))
    if kind == "pmf":
        ev, f = from_joint_pmfs([random_joint_pmf(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n)])[0], LN
    else:
        h = [float(x) for x in draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))]
        family = family_independent if kind == "independent" else family_max_correlated
        ev, f = family(h), BenefitFunction.linear()
    return GameConfig(ev, f, CostModel.homogeneous(draw(st.sampled_from(knife_edge_costs(ev, f)))))


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 4).flatmap(knife_edge_games))
def test_strict_mask_matches_brute_force_on_knife_edges(cfg):
    assert_mask_is_brute_force(cfg)


@st.composite
def knife_edge_structure_games(draw, n):
    """Games of n agents under a log1p, linear or power benefit, with homogeneous or
    recipient costs each on the knife edge of a marginal gain, at 0 or at 5e-10: integer
    independent or max-correlated entropies, or pmf-realized information."""
    kind = draw(st.sampled_from(["independent", "max_correlated", "pmf"]))
    f = draw(st.sampled_from([LN, BenefitFunction.linear(), BenefitFunction.power(0.5)]))
    if kind == "pmf":
        ev = from_joint_pmfs([random_joint_pmf(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n)])[0]
    else:
        h = [float(x) for x in draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))]
        ev = (family_independent if kind == "independent" else family_max_correlated)(h)
    costs = st.sampled_from(knife_edge_costs(ev, f) + [0.0, 5e-10])
    if draw(st.booleans()):
        return GameConfig(ev, f, CostModel.homogeneous(draw(costs)))
    return GameConfig(ev, f, CostModel.recipient(draw(st.lists(costs, min_size=n, max_size=n))))


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 4).flatmap(knife_edge_structure_games))
def test_component_structures_match_brute_force_on_knife_edges(cfg):
    assert component_structures(cfg) == realized_partitions(cfg)


@pytest.mark.parametrize("f", [LN, BenefitFunction.linear(), BenefitFunction.power(0.5)], ids=lambda f: f.name)
def test_component_structures_of_a_pair_at_every_knife_edge(f):
    ev = family_independent([1, 1])
    costs = knife_edge_costs(ev, f) + [0.0, 5e-10]
    for c, d in zip(costs, reversed(costs)):
        for costs in (CostModel.homogeneous(c), CostModel.recipient([c, d])):
            cfg = GameConfig(ev, f, costs)
            assert component_structures(cfg) == realized_partitions(cfg), (c, costs.kind)


class TestPredictions:
    def test_homogeneous_connected_poa_exact_one(self):
        cfg = GameConfig(family_pair_redundancy(5, 4, 4, 0), LN, CostModel.homogeneous(0.3))
        pred = poa_predict(cfg)
        assert (pred.value, pred.is_bound, pred.region) == (1.0, False, K_C)

    def test_heterogeneous_connected_closed_form(self):
        cfg = GameConfig(family_pair_redundancy(5, 4, 4, 0), LN,
                         CostModel.recipient([0.1, 0.2, 0.3]))
        pred = poa_predict(cfg)
        expect = (3 * math.log(14) - 2 * 0.1) / (3 * math.log(14) - 0.6 + 0.1)
        assert not pred.is_bound
        assert pred.value == pytest.approx(expect, abs=1e-12)
        assert pred.value == pytest.approx(enumerate_nash(cfg).poa, abs=1e-9)

    def test_mixed_region_bound_value(self):
        cfg = GameConfig(family_pair_redundancy(5, 4, 4, 0), LN, CostModel.homogeneous(0.75))
        pred = poa_predict(cfg)
        assert pred.is_bound and pred.region == K_M
        assert pred.value == pytest.approx(
            3 * math.log(14) / (math.log(6) + 2 * math.log(5)), abs=1e-12)

    def test_isolated_region_value_is_optimum_ratio(self):
        # far above the threshold the planner gives up too and the ratio is 1
        cfg = GameConfig(family_pair_redundancy(5, 4, 4, 0), LN, CostModel.homogeneous(3.0))
        pred = poa_predict(cfg)
        assert (pred.value, pred.is_bound, pred.region) == (1.0, False, K_I)
        assert enumerate_nash(cfg).poa == pytest.approx(1.0, abs=1e-9)

    def test_isolated_region_just_above_threshold_can_exceed_one(self):
        # the unique equilibrium is empty but the planner still links agents
        ev = family_pair_redundancy(5, 4, 4, 0)
        _, cu = thresholds_homogeneous(ev, LN)
        cfg = GameConfig(ev, LN, CostModel.homogeneous(cu * 1.05))
        pred = poa_predict(cfg)
        report = enumerate_nash(cfg)
        assert report.rows.tolist() == [[0, 0, 0]]
        assert pred.value == pytest.approx(report.poa, abs=1e-9)
        assert pred.value > 1.0

    @pytest.mark.parametrize("costs", [CostModel.homogeneous(0.5), CostModel.recipient([0.5, 0.5, 0.5]),
                                       CostModel.homogeneous(0.0)])
    def test_zero_information_is_undefined_in_every_region(self, costs):
        # every link is worthless, so every network has welfare 0: at c = 0 the game
        # ties both thresholds (K_M), at a positive cost it sits in K_I
        cfg = GameConfig(family_independent([0, 0, 0]), LN, costs)
        assert enumerate_nash(cfg).poa is None
        with pytest.raises(ValueError, match="undefined"):
            poa_predict(cfg)

    def test_matrix_costs_rejected(self):
        cfg = GameConfig(family_independent([1, 1]), LN,
                         CostModel.matrix([[0, 1], [1, 0]]))
        with pytest.raises(ValueError):
            poa_predict(cfg)

    def test_mil_predictions(self):
        ev = family_pair_redundancy(5, 4, 4, 0)
        assert mil_predict(GameConfig(ev, LN, CostModel.homogeneous(0.3))).value == 0.0
        pred = mil_predict(GameConfig(ev, LN, CostModel.homogeneous(0.75)))
        assert pred.is_bound and pred.value == pytest.approx(9.0)
        pred = mil_predict(GameConfig(family_pair_redundancy(5, 4, 4, 2), LN,
                                      CostModel.homogeneous(0.6)))
        assert pred.region == K_M and pred.value == pytest.approx(7.0)


def refuted_claims(cfg, exact=True):
    """The claims of the region label and of :func:`poa_predict` and :func:`mil_predict` that the
    equilibria of ``cfg`` refute: exact ones (:func:`exact_game`, for a linear benefit on integer
    entropies) or the float scan's. K_C says every equilibrium is connected, K_I that the empty
    network is the only one, an exact PoA or MIL is the value, and a bound holds, the PoA's as the
    verifier judges it (below the bound plus TOL). The float scan's PoA is not held to its bound: an
    agent of a float equilibrium may lose up to TOL, which can lift the PoA past it (three agents
    of one shared bit at c = TOL/2: PoA 1 + 1.44e-9 against the bound 1)."""
    n, ev = cfg.n_agents, cfg.ev
    if exact:
        game = exact_game(ev, cfg.costs.values * n if cfg.costs.kind == "homogeneous" else cfg.costs.values)
        ne = [(rows, comp, w) for rows, is_ne, _, comp, w in game if is_ne]
        best, h = max(w for *_, w in game), [Fraction(0)] + [Fraction(x) for x in ev.entries]
    else:
        report = enumerate_nash(cfg)
        ne = list(zip(map(tuple, report.rows.tolist()), report.components.T.tolist(), report.welfare.tolist()))
        best, h = report.social_optimum_value, (0.0,) + ev.entries
    poa, mil = poa_predict(cfg), mil_predict(cfg)
    if not ne:  # a bound holds vacuously, an exact value needs an equilibrium
        return [] if poa.is_bound else [f"{poa.region} without an equilibrium"]
    true_poa = best / min(w for *_, w in ne)
    held = [[h[comp[a]] for _, comp, _ in ne] for a in range(n)]  # each agent's information in each equilibrium
    true_mil = max(max(x) - min(x) for x in held)
    wrong = []
    if poa.region == K_C and any(m != (1 << n) - 1 for _, comp, _ in ne for m in comp):
        wrong.append("a disconnected equilibrium in K_C")
    if poa.region == K_I and [rows for rows, _, _ in ne] != [(0,) * n]:
        wrong.append(f"{len(ne)} equilibria in K_I")
    if not (true_poa < poa.value + TOL or not exact if poa.is_bound
            else math.isclose(true_poa, poa.value, rel_tol=1e-9)):
        wrong.append(f"PoA {float(true_poa)} against {poa.value} in {poa.region}")
    if not (true_mil <= mil.value if mil.is_bound else true_mil == mil.value):
        wrong.append(f"MIL {float(true_mil)} against {mil.value} in {mil.region}")
    return wrong


@st.composite
def threshold_games(draw, f):
    """A game of benefit ``f`` on integer entropies, 2-4 agents, its link costs at a threshold or TOL/2
    or 2 TOL to either side: homogeneous at c_l or c_u, or recipient with every cost at c_u or each
    agent's at its own K_C cut f(H(all)) - f(H(all - i)), the largest of which is c_l."""
    family = draw(st.sampled_from(["independent", "max_correlated", "pair_redundancy"]))
    if family == "pair_redundancy":
        h = draw(st.lists(st.integers(1, 4), min_size=3, max_size=3))
        ev = family_pair_redundancy(*h, draw(st.integers(0, min(h[1:]))))
    else:
        h = draw(st.lists(st.integers(1, 4), min_size=2, max_size=4))
        ev = (family_independent if family == "independent" else family_max_correlated)(h)
    n, top = ev.n_agents, (1 << ev.n_agents) - 1
    offset = draw(st.sampled_from([-2, Fraction(-1, 2), 0, Fraction(1, 2), 2])) * Fraction(TOL)
    kind, cut = draw(st.sampled_from(["homogeneous", "recipient"])), draw(st.sampled_from([0, 1]))
    if kind == "recipient" and cut == 0:
        costs = [Fraction(f(ev.joint_entropy) - f(ev.h(top ^ 1 << i))) + offset for i in range(n)]
    else:
        costs = [Fraction(thresholds_homogeneous(ev, f)[cut]) + offset] * n
    assume(min(costs) >= 0)
    floats = [float(c) for c in costs]
    return GameConfig(ev, f, CostModel.homogeneous(floats[0]) if kind == "homogeneous" else CostModel.recipient(floats))


@settings(max_examples=80, deadline=None)
@given(threshold_games(BenefitFunction.linear()))
def test_closed_forms_hold_against_the_exact_equilibria_at_the_thresholds(cfg):
    # entropy.band's tie: a cost within TOL of a threshold is K_M, whose bounds hold on both sides
    assert refuted_claims(cfg) == []


@settings(max_examples=80, deadline=None)
@given(threshold_games(LN))
def test_closed_forms_hold_against_the_float_scan_at_the_thresholds(cfg):
    # the float scan ties a link that gains its cost within TOL, as entropy.band does
    assert refuted_claims(cfg, exact=False) == []


class TestMonotonicitySweep:
    def test_strictly_increasing_for_nonuniform_costs(self):
        series = poa_monotonicity_sweep(
            LN, CostModel.recipient([0.01, 0.02, 0.03]),
            lambda kl: family_pair_redundancy(5, 4, 4, kl), [0.0, 1.0, 2.0, 3.0])
        values = [v for _, v in series]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_uniform_costs_give_constant_one(self):
        series = poa_monotonicity_sweep(
            LN, CostModel.recipient([0.02, 0.02, 0.02]),
            lambda kl: family_pair_redundancy(5, 4, 4, kl), [0.0, 1.0, 2.0])
        assert all(v == pytest.approx(1.0, abs=1e-12) for _, v in series)

    def test_constant_redundancy_gives_constant_series(self):
        series = poa_monotonicity_sweep(
            LN, CostModel.recipient([0.01, 0.02, 0.03]),
            lambda kl: family_pair_redundancy(5, 4, 4, 1.0), [0.0, 1.0, 2.0])
        values = [v for _, v in series]
        assert values[0] == values[1] == values[2]

    def test_leaving_connected_region_raises(self):
        with pytest.raises(ValueError, match="connected region"):
            poa_monotonicity_sweep(
                LN, CostModel.recipient([0.1, 0.2, 0.3]),
                lambda kl: family_pair_redundancy(5, 4, 4, kl), [0.0, 1.0, 2.0])

    def test_drifting_entropies_rejected(self):
        with pytest.raises(ValueError, match="fixed"):
            poa_monotonicity_sweep(
                LN, CostModel.recipient([0.01, 0.02, 0.03]),
                lambda kl: family_pair_redundancy(5 + kl, 4, 4, 0), [0.0, 1.0])

    def test_requires_recipient_costs(self):
        with pytest.raises(ValueError):
            poa_monotonicity_sweep(
                LN, CostModel.homogeneous(0.1),
                lambda kl: family_pair_redundancy(5, 4, 4, kl), [0.0])
