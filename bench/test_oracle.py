"""Tests of the benchmark's reference on games small enough to work by hand.

Run with ``python3 -m pytest bench/test_oracle.py``.
"""
import math

import numpy as np
import pytest

import oracle

LOG2 = oracle.log1p(2.0)
LN = oracle.log1p(math.e)
F1, F2, F3 = 1.0, math.log2(3.0), 2.0      # log2(1 + x) at 1, 2 and 3 bits


def homogeneous(n, c):
    cost = np.full((n, n), c)
    np.fill_diagonal(cost, 0.0)
    return cost


def profiles(*rows):
    return np.array(rows, dtype=np.int64)


class TestEntropies:
    def test_independent_and_correlated_bits_from_a_pmf(self):
        independent = np.full((2, 2), 0.25)
        correlated = np.array([[0.5, 0.0], [0.0, 0.5]])
        assert np.allclose(oracle.entropy_table_from_pmf(independent), [0, 1, 1, 2])
        assert np.allclose(oracle.entropy_table_from_pmf(correlated), [0, 1, 1, 1])

    def test_families(self):
        assert list(oracle.entropy_table("independent", [1, 2])) == [0, 1, 2, 3]
        assert list(oracle.entropy_table("max_correlated", [1, 2])) == [0, 1, 2, 2]
        # agents 1 and 2 share kl = 1 bit; agent 0 is independent
        H = oracle.entropy_table("pair_redundancy", [5, 4, 4], 1.0)
        assert H[0b110] == 7.0 and H[0b111] == 12.0 and H[0b011] == 9.0

    def test_thresholds_of_the_canonical_pair_family(self):
        H = oracle.entropy_table("pair_redundancy", [5, 4, 4], 0.0)
        c_l, c_u = oracle.thresholds(H, LN)
        # H(all) = 13; the smallest H(all minus one) is H({1,2}) = 8; the smallest H(i) is 4
        assert c_l == pytest.approx(math.log(14 / 9))
        assert c_u == pytest.approx(math.log(14 / 5))


class TestLinkGame:
    def test_two_agents_cheap_link_one_sponsor_is_the_equilibrium(self):
        fH = LOG2(oracle.entropy_table("independent", [1, 1]))
        ne, strict, welfare, comps = oracle.link_game(
            2, fH, homogeneous(2, 0.3), profiles([0, 0], [2, 0], [0, 1], [2, 1]))
        assert list(ne) == [False, True, True, False]
        assert list(strict) == [False, True, True, False]
        assert welfare[1] == pytest.approx(2 * F2 - 0.3)
        assert welfare[3] == pytest.approx(2 * F2 - 0.6)
        assert list(comps[1]) == [3, 3]
        assert oracle.sponsored_tree_count(2) == 2

    def test_two_agents_dear_link_leaves_the_empty_network(self):
        fH = LOG2(oracle.entropy_table("independent", [1, 1]))
        ne, strict, welfare, _ = oracle.link_game(
            2, fH, homogeneous(2, 0.7), profiles([0, 0], [2, 0], [0, 1], [2, 1]))
        assert list(ne) == [True, False, False, False] and strict[0]
        # the planner still links: 2 f(2) - 0.7 beats 2 f(1)
        opt = oracle.social_optimum(2, fH, homogeneous(2, 0.7))
        assert opt == pytest.approx(2 * F2 - 0.7)
        assert opt / welfare[0] == pytest.approx((2 * F2 - 0.7) / 2.0)

    def test_three_agents_cheap_links_sponsored_trees_and_star_strictness(self):
        fH = LOG2(oracle.entropy_table("independent", [1, 1, 1]))
        every = oracle.all_link_profiles(3)
        ne, strict, _, _ = oracle.link_game(3, fH, homogeneous(3, 0.2), every)
        assert len(every) == 64
        assert ne.sum() == oracle.sponsored_tree_count(3) == 12
        assert strict.sum() == 3
        # agent 0 sponsors both links: a strict star; a sponsored chain ties on rewiring
        ne, strict, welfare, _ = oracle.link_game(
            3, fH, homogeneous(3, 0.2), profiles([0b110, 0, 0], [0b010, 0b100, 0]))
        assert list(ne) == [True, True] and list(strict) == [True, False]
        assert welfare[0] == pytest.approx(3 * F3 - 0.4)

    def test_sponsored_spanning_trees(self):
        assert len(oracle.sponsored_spanning_trees(3)) == oracle.sponsored_tree_count(3) == 12
        assert len(oracle.sponsored_spanning_trees(4)) == 16 * 8
        assert {tuple(r) for r in oracle.sponsored_spanning_trees(2)} == {(2, 0), (0, 1)}

    def test_duplicate_link_is_never_an_equilibrium_with_positive_cost(self):
        fH = LOG2(oracle.entropy_table("independent", [1, 1, 1]))
        ne, _, _, _ = oracle.link_game(3, fH, homogeneous(3, 0.2), profiles([0b110, 0b001, 0]))
        assert not ne[0]


class TestSocialOptimum:
    def test_partition_count(self):
        assert len(list(oracle.set_partitions([0, 1, 2]))) == 5
        assert len(list(oracle.set_partitions([0, 1, 2, 3]))) == 15

    def test_matrix_costs_use_the_cheaper_direction_of_each_edge(self):
        fH = LOG2(oracle.entropy_table("independent", [1, 1, 1]))
        cost = np.array([[0.0, 0.1, 0.3], [0.5, 0.0, 0.9], [0.2, 0.8, 0.0]])
        # everyone connected over edges {0,1} (0.1) and {0,2} (0.2)
        assert oracle.social_optimum(3, fH, cost) == pytest.approx(3 * F3 - 0.3)

    def test_isolated_region_price_of_anarchy_of_the_pair_family(self):
        # h = [5, 4, 4], kl = 0, c = 1.04 > c_u: the only equilibrium is empty,
        # the planner connects everyone: 3 ln 14 - 2.08 over ln 6 + 2 ln 5
        fH = LN(oracle.entropy_table("pair_redundancy", [5, 4, 4], 0.0))
        opt = oracle.social_optimum(3, fH, homogeneous(3, 1.04))
        assert opt == pytest.approx(3 * math.log(14) - 2.08)
        assert round(opt / (math.log(6) + 2 * math.log(5)), 4) == 1.1650


class TestProductionGame:
    def test_h_bar_closed_form(self):
        assert oracle.h_bar(math.e, 0.25) == pytest.approx(3.0)
        assert oracle.h_bar(2.0, 0.5) == pytest.approx(2 / math.log(2) - 1)
        assert oracle.h_bar(math.e, 2.0) == 0.0

    def test_two_agents_sum_cheap_link_replaces_production(self):
        # k = 0.25, h_bar = 3, c = 0.2: agent 1 links to the producer and stops producing
        ok = oracle.production_game(2, "sum", LN, 0.25, 0.2, 3.0,
                                    profiles([0, 1], [0, 0]), np.array([[3.0, 0.0], [3.0, 3.0]]))
        assert list(ok) == [True, False]

    def test_two_agents_sum_dear_link_everyone_produces(self):
        ok = oracle.production_game(2, "sum", LN, 0.25, 1.0, 3.0,
                                    profiles([0, 1], [0, 0]), np.array([[3.0, 0.0], [3.0, 3.0]]))
        assert list(ok) == [False, True]

    def test_grid_equilibria_of_two_agents(self):
        # MAX, cheap: one producer at h_bar, the other links to it (n^(n-1) = 2)
        assert oracle.production_grid_equilibria(2, "max", LN, 0.25, 0.2, 3.0) == {
            ((2, 0), (0, 6)), ((0, 1), (6, 0))}
        # SUM, cheap: productions split h_bar; the sponsor keeps its link only
        # while c <= k * (target's production), i.e. target >= 0.8 = 2 grid steps
        sum_cheap = oracle.production_grid_equilibria(2, "sum", LN, 0.25, 0.2, 3.0)
        assert sum_cheap == ({((2, 0), (6 - m, m)) for m in range(2, 7)}
                             | {((0, 1), (m, 6 - m)) for m in range(2, 7)})
        # high cost: the empty network at h_bar only
        assert oracle.production_grid_equilibria(2, "sum", LN, 0.25, 1.0, 3.0) == {((0, 0), (6, 6))}

    def test_max_cheap_count_is_n_to_the_n_minus_1(self):
        assert len(oracle.production_grid_equilibria(3, "max", LN, 0.25, 0.2, 3.0)) == 9

    def test_few_laws(self):
        assert oracle.few_law("sum", True, 5) == 1.0
        assert oracle.few_law("max", False, 4) == 0.25
        assert oracle.few_law("sum", False, 4) == 1.0
