"""Closed-form predictors against their formulas and the brute-force oracle."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infogame import analytic
from infogame.analytic import (
    K_C,
    K_I,
    K_M,
    check_component_structure_ne,
    check_strict_ne_structure,
    classify_homogeneous,
    mil_predict,
    poa_monotonicity_sweep,
    poa_predict,
    region_heterogeneous,
    strict_structure_mask,
    thresholds_homogeneous,
)
from infogame.entropy import TOL, family_independent, family_max_correlated, family_pair_redundancy, from_joint_pmf
from infogame.equilibrium import CapExceededError, enumerate_nash
from infogame.formation_game import BenefitFunction, CostModel, GameConfig, LinkProfile, components
from infogame.kernel import rows_from_indices, set_partitions
from infogame.verification import random_homogeneous_config, random_joint_pmf
from scalar_kernel import profile_from_index
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
        cl, cu = thresholds_homogeneous(family_max_correlated([1, 1]), LN)
        assert cl == 0.0 and cu == 0.0

    def test_boundary_conventions(self):
        ev = family_pair_redundancy(5, 4, 4, 0)
        cl, cu = thresholds_homogeneous(ev, LN)
        assert classify_homogeneous(ev, LN, cl).label == K_C
        assert classify_homogeneous(ev, LN, cu).label == K_I
        assert classify_homogeneous(ev, LN, (cl + cu) / 2).label == K_M


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


class TestComponentStructure:
    def test_pair_supported_at_low_cost(self):
        cfg = GameConfig(family_independent([1, 1]), LN, CostModel.homogeneous(0.3))
        assert check_component_structure_ne(cfg, [{0, 1}])

    def test_split_rejected_when_cross_link_profitable(self):
        cfg = GameConfig(family_independent([1, 1]), LN, CostModel.homogeneous(0.3))
        assert not check_component_structure_ne(cfg, [{0}, {1}])

    def test_split_supported_at_high_cost(self):
        cfg = GameConfig(family_independent([1, 1]), LN, CostModel.homogeneous(2.0))
        assert check_component_structure_ne(cfg, [{0}, {1}])

    def test_bad_partition_rejected(self):
        cfg = GameConfig(family_independent([1, 1]), LN, CostModel.homogeneous(0.3))
        with pytest.raises(ValueError):
            check_component_structure_ne(cfg, [{0}])
        with pytest.raises(ValueError):
            check_component_structure_ne(cfg, [{0, 1}, {1}])

    def test_matrix_costs_rejected(self):
        cfg = GameConfig(family_independent([1, 1]), LN,
                         CostModel.matrix([[0, 1], [1, 0]]))
        with pytest.raises(ValueError):
            check_component_structure_ne(cfg, [{0, 1}])

    def test_matches_enumeration_partitions(self):
        for seed in range(25):
            rng = np.random.default_rng(seed)
            cfg = random_homogeneous_config(rng, 2 + seed % 3, LN)
            realized = {frozenset(components(p))
                        for p in enumerate_nash(cfg).ne_profiles}
            accepted = {frozenset(frozenset(b) for b in part)
                        for part in set_partitions(tuple(range(cfg.n_agents)))
                        if check_component_structure_ne(cfg, part)}
            assert realized == accepted

    @pytest.mark.parametrize("chunk", [1, 5])
    def test_tree_batch_size_does_not_change_the_answer(self, monkeypatch, chunk):
        # four agents: a block's viable tree can sit in any batch, not only the first
        monkeypatch.setattr(analytic, "SCAN_CHUNK", chunk)
        for seed in (1, 4, 7, 10):
            cfg = random_homogeneous_config(np.random.default_rng(seed), 4, LN)
            realized = {frozenset(components(p))
                        for p in enumerate_nash(cfg).ne_profiles}
            accepted = {frozenset(frozenset(b) for b in part)
                        for part in set_partitions(tuple(range(4)))
                        if check_component_structure_ne(cfg, part)}
            assert realized == accepted


class TestComponentCheckerBudget:
    """Partitions with more than 2**20 sponsored trees are refused before any is checked."""

    @pytest.fixture
    def no_checks(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("a sponsored tree was checked")
        monkeypatch.setattr(analytic, "ne_status", fail)

    def test_seven_agent_block_refused(self, no_checks):
        cfg = GameConfig(family_independent([1.0] * 7), LN, CostModel.homogeneous(0.1))
        # 7**5 trees, 2**6 orientations each
        with pytest.raises(CapExceededError, match="it would check 1075648 sponsored trees"):
            check_component_structure_ne(cfg, [range(7)])

    def test_budget_sums_over_blocks(self, no_checks):
        cfg = GameConfig(family_independent([1.0] * 8), LN, CostModel.homogeneous(0.1))
        with pytest.raises(CapExceededError, match="it would check 1075649 sponsored trees"):
            check_component_structure_ne(cfg, [range(7), [7]])

    def test_strict_checker_refused_on_a_seven_agent_star(self, no_checks):
        # each periphery link gains ln(8/7) > c, so the star passes the shape test
        cfg = GameConfig(family_independent([1.0] * 7), LN, CostModel.homogeneous(0.1))
        star = LinkProfile.from_links(7, [(0, j) for j in range(1, 7)])
        with pytest.raises(CapExceededError, match="1075648"):
            check_strict_ne_structure(cfg, star)

    def test_six_agent_block_checked(self):
        # cheap links: every sponsored spanning tree is an equilibrium
        cfg = GameConfig(family_independent([1.0] * 6), LN, CostModel.homogeneous(0.1))
        assert check_component_structure_ne(cfg, [range(6)])
        assert not check_component_structure_ne(cfg, [[a] for a in range(6)])


class TestStrictStructure:
    def test_core_sponsored_star_accepted(self):
        cfg = GameConfig(family_independent([5, 4, 4]), LN, CostModel.homogeneous(0.1))
        star = LinkProfile.from_links(3, [(0, 1), (0, 2)])
        assert check_strict_ne_structure(cfg, star)

    def test_line_rejected(self):
        cfg = GameConfig(family_independent([5, 4, 4]), LN, CostModel.homogeneous(0.1))
        line = LinkProfile.from_links(3, [(0, 1), (1, 2)])
        assert not check_strict_ne_structure(cfg, line)

    def test_periphery_sponsored_star_rejected(self):
        # periphery agents could swap link targets at equal utility
        cfg = GameConfig(family_independent([5, 4, 4]), LN, CostModel.homogeneous(0.1))
        star = LinkProfile.from_links(3, [(1, 0), (2, 0)])
        assert not check_strict_ne_structure(cfg, star)

    def test_non_equilibrium_rejected(self):
        cfg = GameConfig(family_independent([1, 1]), LN, CostModel.homogeneous(0.3))
        assert not check_strict_ne_structure(cfg, LinkProfile.empty(2))

    def test_matches_enumeration(self):
        for seed in range(12):
            rng = np.random.default_rng(50 + seed)
            cfg = random_homogeneous_config(rng, 2 + seed % 3, LN)
            n = cfg.n_agents
            strict = {p.rows for p in enumerate_nash(cfg).strict_ne_profiles}
            rows = [profile_from_index(idx, n) for idx in range(1 << (n * (n - 1)))]
            assert strict_structure_mask(cfg, rows).tolist() == [r in strict for r in rows]

    def test_a_link_gaining_exactly_its_cost_plus_tol_is_not_strict(self):
        # the core's link gains f(2) - f(1) = 1, and at this cost 1 == c + TOL in float64
        c = 1.0 - TOL
        assert 1.0 == c + TOL
        cfg = GameConfig(family_independent([1, 1]), BenefitFunction.linear(), CostModel.homogeneous(c))
        star = LinkProfile.from_links(2, [(0, 1)])
        assert strict_structure_mask(cfg, [star.rows]).tolist() == [False]
        assert not scalar_strict_ne_structure(cfg, star)
        assert enumerate_nash(cfg).strict_ne_profiles == ()

    def test_mask_refuses_what_the_checker_refuses(self):
        cfg = GameConfig(family_independent([1, 1]), LN, CostModel.recipient([0.3, 0.3]))
        with pytest.raises(ValueError, match="homogeneous costs only"):
            strict_structure_mask(cfg, [(0, 0)])
        cfg = GameConfig(family_independent([1, 1]), LN, CostModel.homogeneous(0.3))
        with pytest.raises(ValueError, match="profile size"):
            strict_structure_mask(cfg, [(0, 0, 0)])
        with pytest.raises(ValueError, match="profile size"):
            check_strict_ne_structure(cfg, LinkProfile.empty(3))

    def test_each_partition_is_checked_once(self, monkeypatch):
        # the three 3-agent stars, each core-sponsored, share one partition
        cfg = GameConfig(family_independent([5, 4, 4]), LN, CostModel.homogeneous(0.1))
        calls = []

        def count(cfg, partition):
            calls.append(partition)
            return True
        monkeypatch.setattr(analytic, "check_component_structure_ne", count)
        stars = [(0b110, 0, 0), (0, 0b101, 0), (0, 0, 0b011)]
        assert strict_structure_mask(cfg, stars + [(0, 0, 0)]).tolist() == [True] * 4
        assert calls == [[(0, 1, 2)], [(0,), (1,), (2,)]]


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
    return GameConfig(from_joint_pmf(random_joint_pmf(rng, n)), LN, CostModel.homogeneous(c))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4).flatmap(strict_games))
def test_strict_mask_matches_the_scalar_checker_on_every_profile(cfg):
    n = cfg.n_agents
    rows = rows_from_indices(np.arange(1 << (n * (n - 1))), n)
    want = [scalar_strict_ne_structure(cfg, LinkProfile(n, tuple(r))) for r in rows.tolist()]
    assert strict_structure_mask(cfg, rows).tolist() == want


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
        assert [p.rows for p in report.ne_profiles] == [(0, 0, 0)]
        assert pred.value == pytest.approx(report.poa, abs=1e-9)
        assert pred.value > 1.0

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
