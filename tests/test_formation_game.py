"""Benefit and cost models, topology, utilities, and welfare."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infogame.entropy import EntropicVector, JointPmf, family_independent, from_joint_pmfs
from infogame.formation_game import BenefitFunction, CostModel, GameConfig
from infogame.kernel import components, compress_row
from scalar_kernel import is_minimally_connected, links, row_utilities, social_welfare, topology

LOG2 = BenefitFunction.log1p(2.0)
LN = BenefitFunction.log1p(math.e)


class TestBenefitFunction:
    def test_log1p_base2(self):
        assert LOG2(0) == 0.0
        assert LOG2(1) == pytest.approx(1.0)
        assert LOG2(3) == pytest.approx(2.0)
        assert LOG2.deriv(0) == pytest.approx(1 / math.log(2))

    def test_log1p_natural(self):
        assert LN(math.e - 1) == pytest.approx(1.0)
        assert LN.deriv(0) == pytest.approx(1.0)

    def test_power(self):
        f = BenefitFunction.power(0.5)
        assert f(4) == pytest.approx(2.0)
        assert f.deriv(4) == pytest.approx(0.25)
        assert f.deriv(0) == math.inf

    def test_linear(self):
        f = BenefitFunction.linear()
        assert f(2.5) == 2.5
        assert f.deriv(100) == 1.0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            BenefitFunction.power(1.0)
        with pytest.raises(ValueError):
            BenefitFunction.power(0.0)
        with pytest.raises(ValueError):
            BenefitFunction.log1p(1.0)

    def test_negative_argument_rejected(self):
        with pytest.raises(ValueError):
            LOG2(-0.1)


class TestCostModel:
    def test_homogeneous(self):
        cm = CostModel.homogeneous(0.3)
        assert cm.link_cost(0, 5) == 0.3
        assert cm.n_agents is None

    def test_recipient(self):
        cm = CostModel.recipient([0.1, 0.2, 0.3])
        assert cm.link_cost(2, 0) == 0.1
        assert cm.link_cost(0, 2) == 0.3
        assert cm.n_agents == 3

    def test_matrix(self):
        cm = CostModel.matrix([[0, 1.0], [2.0, 0]])
        assert cm.link_cost(0, 1) == 1.0
        assert cm.link_cost(1, 0) == 2.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            CostModel.homogeneous(-1)
        with pytest.raises(ValueError):
            CostModel.recipient([0.1, -0.2])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("build", [
        CostModel.homogeneous,
        lambda c: CostModel.recipient([0.1, c]),
        lambda c: CostModel.matrix([[0, c], [0.1, 0]]),
    ], ids=["homogeneous", "recipient", "matrix"])
    def test_non_finite_rejected(self, build, bad):
        with pytest.raises(ValueError, match="finite"):
            build(bad)

    def test_self_link_undefined(self):
        with pytest.raises(ValueError):
            CostModel.homogeneous(1.0).link_cost(1, 1)


class TestTopologyOps:
    def test_single_direction_gives_edge(self):
        p = links(2, [(0, 1)])
        assert topology(p) == ((0, 1),)

    def test_symmetrization(self):
        p = links(2, [(0, 1), (1, 0)])
        assert topology(p) == ((0, 1),)

    def test_empty(self):
        assert topology(links(3, [])) == ()

    def test_components_chain(self):
        p = links(3, [(0, 1), (1, 2)])
        assert components(np.array([p])).T.tolist() == [[0b111, 0b111, 0b111]]

    def test_components_split(self):
        p = links(3, [(0, 1)])
        assert components(np.array([p])).T.tolist() == [[0b011, 0b011, 0b100]]

    def test_components_empty(self):
        assert components(np.array([links(3, [])])).T.tolist() == [[0b001, 0b010, 0b100]]

    def test_minimally_connected_star(self):
        p = links(4, [(0, 1), (0, 2), (0, 3)])
        assert is_minimally_connected(p, {0, 1, 2, 3})

    def test_minimally_connected_triangle(self):
        p = links(3, [(0, 1), (1, 2), (2, 0)])
        assert not is_minimally_connected(p, {0, 1, 2})

    def test_minimally_connected_singleton(self):
        assert is_minimally_connected(links(2, []), {1})

    def test_not_a_component_rejected(self):
        p = links(3, [(0, 1), (1, 2)])
        with pytest.raises(ValueError, match="component"):
            is_minimally_connected(p, {0, 1})


def own_row_utility(cfg, p, i):
    """Agent i's utility in profile p: the scalar oracle's utility of its own row."""
    return row_utilities(len(p), p, i, cfg.fh, cfg.row_costs[i])[compress_row(p[i], i)]


class TestPayoffs:
    def test_sponsor_pays(self):
        cfg = GameConfig(family_independent([1, 1]), LOG2, CostModel.homogeneous(0.3))
        p = links(2, [(0, 1)])
        assert own_row_utility(cfg, p, 0) == pytest.approx(math.log2(3) - 0.3, abs=1e-12)
        assert own_row_utility(cfg, p, 1) == pytest.approx(math.log2(3), abs=1e-12)

    def test_isolated_agent_keeps_own_information(self):
        cfg = GameConfig(family_independent([5, 4, 4]), LOG2, CostModel.homogeneous(0.3))
        p = links(3, [])
        for i, h in enumerate((5, 4, 4)):
            assert own_row_utility(cfg, p, i) == pytest.approx(math.log2(1 + h), abs=1e-12)

    def test_welfare_single_link(self):
        cfg = GameConfig(family_independent([1, 1]), LOG2, CostModel.homogeneous(0.3))
        p = links(2, [(0, 1)])
        assert social_welfare(cfg, p) == pytest.approx(2 * math.log2(3) - 0.3, abs=1e-12)

    def test_welfare_empty_network(self):
        cfg = GameConfig(family_independent([5, 4, 4]), LOG2, CostModel.homogeneous(0.3))
        expect = math.log2(6) + 2 * math.log2(5)
        assert social_welfare(cfg, links(3, [])) == pytest.approx(expect, abs=1e-12)

    def test_duplicate_link_costs_exactly_c(self):
        cfg = GameConfig(family_independent([1, 1]), LOG2, CostModel.homogeneous(0.3))
        single = links(2, [(0, 1)])
        double = links(2, [(0, 1), (1, 0)])
        assert social_welfare(cfg, single) - social_welfare(cfg, double) == pytest.approx(0.3)

    def test_connected_profile_benefit_is_joint(self):
        rng = np.random.default_rng(7)
        raw = rng.random((2, 3, 2)) + 0.05
        ev = from_joint_pmfs([JointPmf(raw / raw.sum())])[0]
        cfg = GameConfig(ev, LN, CostModel.homogeneous(0.1))
        p = links(3, [(1, 0), (1, 2)])
        for i in range(3):
            benefit = own_row_utility(cfg, p, i) + 0.1 * bin(p[i]).count("1")
            assert benefit == pytest.approx(LN(ev.joint_entropy), abs=1e-12)

    @given(st.integers(0, 5000))
    @settings(max_examples=30, deadline=None)
    def test_adding_link_never_hurts_benefit(self, seed):
        rng = np.random.default_rng(seed)
        raw = rng.random((2, 2, 2)) + 0.02
        ev = from_joint_pmfs([JointPmf(raw / raw.sum())])[0]
        cfg = GameConfig(ev, LN, CostModel.homogeneous(0.0))
        base = links(3, [(0, 1)])
        more = links(3, [(0, 1), (1, 2)])
        for i in range(3):
            assert own_row_utility(cfg, more, i) >= own_row_utility(cfg, base, i) - 1e-12

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(11)
        raw = rng.random((2, 2, 3)) + 0.05
        ev = from_joint_pmfs([JointPmf(raw / raw.sum())])[0]
        costs = [0.1, 0.25, 0.4]
        perm = [2, 0, 1]  # new index -> old index

        def permute_vector(ev, perm):
            n = ev.n_agents
            entries = [0.0] * ((1 << n) - 1)
            for mask in range(1, 1 << n):
                old = 0
                for new_i in range(n):
                    if mask >> new_i & 1:
                        old |= 1 << perm[new_i]
                entries[mask - 1] = ev.h(old)
            return EntropicVector(n, tuple(entries))

        cfg = GameConfig(ev, LN, CostModel.recipient(costs))
        pcfg = GameConfig(permute_vector(ev, perm), LN,
                          CostModel.recipient([costs[perm[i]] for i in range(3)]))
        inv = {perm[i]: i for i in range(3)}
        p = links(3, [(0, 2), (1, 2)])
        pp = links(3, [(inv[0], inv[2]), (inv[1], inv[2])])
        for i in range(3):
            assert own_row_utility(cfg, p, i) == pytest.approx(own_row_utility(pcfg, pp, inv[i]), abs=1e-12)

    def test_cycle_welfare_below_spanning_tree(self):
        cfg = GameConfig(family_independent([2, 1, 1]), LN, CostModel.homogeneous(0.2))
        cycle = links(3, [(0, 1), (1, 2), (2, 0)])
        tree = links(3, [(0, 1), (1, 2)])
        comp = components(np.array([cycle, tree]))
        assert (comp[:, 0] == comp[:, 1]).all()
        assert social_welfare(cfg, cycle) < social_welfare(cfg, tree)


class TestPayoffTables:
    def game(self):
        costs = [[0.0, 0.3, 0.7, 0.1], [0.2, 0.0, 0.5, 0.9], [0.4, 0.6, 0.0, 0.8], [1.1, 0.05, 0.25, 0.0]]
        return GameConfig(family_independent([1.0, 2.5, 0.5, 1.5]), LN, CostModel.matrix(costs))

    def test_tables_hold_each_payoff(self):
        cfg = self.game()
        assert cfg.fh.dtype == cfg.row_costs.dtype == np.float64
        assert cfg.fh.tolist() == [0.0] + [LN(cfg.ev.h(mask)) for mask in range(1, 16)]
        assert cfg.row_costs.shape == (4, 8)
        for i in range(4):
            targets = [j for j in range(4) if j != i]
            for compact in range(8):
                paid = sum(cfg.costs.link_cost(i, targets[k]) for k in range(3) if compact >> k & 1)
                assert cfg.row_costs[i, compact] == pytest.approx(paid, abs=1e-12)

    def test_tables_are_built_once_and_read_only(self):
        cfg = self.game()
        assert cfg.fh is cfg.fh
        assert cfg.row_costs is cfg.row_costs
        for table in (cfg.fh, cfg.row_costs):
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 1.0


class TestConfigDocuments:
    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            GameConfig(family_independent([1, 1]), LOG2, CostModel.recipient([1, 2, 3]))
