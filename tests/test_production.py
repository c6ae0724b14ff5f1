"""The joint production and link-formation game."""
import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infogame import production
from infogame.kernel import CapExceededError
from infogame.formation_game import BenefitFunction, LinkProfile
from infogame.production import (
    Aggregation,
    ProductionGameConfig,
    ProductionProfile,
    aggregate,
    check_sum_equilibrium,
    check_max_equilibrium,
    enumerate_production_ne,
    few_metrics,
    few_sweep,
    grid_levels,
    h_bar,
    is_production_ne,
)
from scalar_kernel import production_utility

LN = BenefitFunction.log1p(math.e)


def make_cfg(n=2, c=0.2, k=0.25, agg=Aggregation.SUM, step=None):
    return ProductionGameConfig(n, LN, k, c, agg, step)


class TestHBar:
    def test_natural_log_closed_form(self):
        # f'(h) = 1/(1+h) = k has root 1/k - 1
        assert h_bar(LN, 0.25) == pytest.approx(3.0, abs=1e-9)
        assert h_bar(LN, 0.1) == pytest.approx(9.0, abs=1e-9)

    def test_steep_cost_produces_nothing(self):
        assert h_bar(LN, 1.0) == 0.0
        assert h_bar(LN, 1.5) == 0.0

    def test_power_benefit_closed_form(self):
        f = BenefitFunction.power(0.5)
        # 0.5 h^(-1/2) = k  =>  h = (2k)^(-2)
        assert h_bar(f, 0.25) == pytest.approx(4.0, abs=1e-8)

    def test_invalid_cost(self):
        with pytest.raises(ValueError):
            h_bar(LN, 0.0)
        with pytest.raises(ValueError):
            h_bar(LN, -1.0)

    def test_linear_benefit_has_no_finite_optimum(self):
        with pytest.raises(ValueError, match="finite"):
            h_bar(BenefitFunction.linear(), 0.5)


class TestConfig:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["c", "k", "grid_step"])
    def test_non_finite_rejected(self, field, bad):
        fields = dict(n_agents=2, benefit=LN, k=0.25, c=0.2, agg=Aggregation.SUM)
        fields[field] = bad
        with pytest.raises(ValueError, match="finite"):
            ProductionGameConfig(**fields)

    @pytest.mark.parametrize("n", [17, 18, 40])
    def test_more_agents_than_a_link_profile_holds_rejected(self, n):
        with pytest.raises(ValueError, match="n_agents must be in 1..16"):
            ProductionGameConfig(n, LN, 0.25, 5.0, Aggregation.SUM)
        assert ProductionGameConfig(16, LN, 0.25, 5.0, Aggregation.SUM).n_agents == 16

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_production_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            ProductionProfile((bad, 0.0), LinkProfile.empty(2))

    def test_h_bar_solved_once_per_config(self, monkeypatch):
        calls = []

        def counting(f, k):
            calls.append(k)
            return h_bar(f, k)

        monkeypatch.setattr(production, "h_bar", counting)
        cfg = make_cfg(n=3, c=0.2)
        assert calls == []
        found = enumerate_production_ne(cfg)
        assert found and cfg.step() == pytest.approx(0.5) and not cfg.high_cost()
        assert calls == [0.25]

    def test_missing_optimum_raises_on_first_use(self):
        cfg = ProductionGameConfig(2, BenefitFunction.linear(), 0.5, 0.2, Aggregation.SUM)
        with pytest.raises(ValueError, match="finite"):
            cfg.h_bar()


class TestAggregate:
    def test_sum_and_max(self):
        prods = (3.0, 1.0, 2.0)
        assert aggregate(Aggregation.SUM, prods, 0b111) == 6.0
        assert aggregate(Aggregation.MAX, prods, 0b111) == 3.0
        assert aggregate(Aggregation.SUM, prods, 0b110) == 3.0
        assert aggregate(Aggregation.MAX, prods, 0b000) == 0.0


class TestUtility:
    def test_linked_pair(self):
        cfg = make_cfg()
        s = ProductionProfile((3.0, 0.0), LinkProfile.from_links(2, [(1, 0)]))
        assert production_utility(cfg, s, 1) == pytest.approx(math.log(4) - 0.2, abs=1e-12)
        assert production_utility(cfg, s, 0) == pytest.approx(math.log(4) - 0.75, abs=1e-12)

    def test_isolated_producer(self):
        cfg = make_cfg()
        s = ProductionProfile((3.0, 0.0), LinkProfile.empty(2))
        assert production_utility(cfg, s, 0) == pytest.approx(math.log(4) - 0.75, abs=1e-12)


class TestEquilibriumCheck:
    def test_high_cost_empty_full_production(self):
        cfg = make_cfg(c=1.0)
        s = ProductionProfile((3.0, 3.0), LinkProfile.empty(2))
        assert is_production_ne(cfg, s)
        found = enumerate_production_ne(cfg)
        assert len(found) == 1
        assert found[0].links.rows == (0, 0)
        assert found[0].productions == pytest.approx((3.0, 3.0), abs=1e-9)

    def test_low_cost_single_producer_sum(self):
        cfg = make_cfg(c=0.2)
        s = ProductionProfile((3.0, 0.0), LinkProfile.from_links(2, [(1, 0)]))
        assert is_production_ne(cfg, s)

    def test_low_cost_shared_production_max_rejected(self):
        cfg = make_cfg(c=0.2, agg=Aggregation.MAX)
        for links in (LinkProfile.from_links(2, [(1, 0)]), LinkProfile.empty(2)):
            assert not is_production_ne(cfg, ProductionProfile((1.5, 1.5), links))

    def test_producer_sponsoring_useless_link_rejected(self):
        cfg = make_cfg(c=0.2)
        s = ProductionProfile((3.0, 0.0), LinkProfile.from_links(2, [(0, 1)]))
        assert not is_production_ne(cfg, s)

    def test_twelve_agents_checked(self):
        # no agent cap of its own: any profile LinkProfile accepts is judged
        cfg = make_cfg(n=12, c=1.0)
        assert is_production_ne(cfg, ProductionProfile((3.0,) * 12, LinkProfile.empty(12)))
        assert not is_production_ne(cfg, ProductionProfile((0.0,) * 12, LinkProfile.empty(12)))


class TestCharacterizations:
    def test_star_with_producing_core(self):
        cfg = make_cfg(n=3, c=0.2)
        s = ProductionProfile((3.0, 0.0, 0.0),
                              LinkProfile.from_links(3, [(1, 0), (2, 0)]))
        assert check_sum_equilibrium(cfg, s)
        assert is_production_ne(cfg, s)

    def test_overproduction_rejected(self):
        cfg = make_cfg(n=2, c=0.2)
        s = ProductionProfile((3.0, 0.5), LinkProfile.from_links(2, [(1, 0)]))
        assert not check_sum_equilibrium(cfg, s)
        assert not is_production_ne(cfg, s)

    def test_two_producers_under_max_rejected(self):
        cfg = make_cfg(n=2, c=0.2, agg=Aggregation.MAX)
        s = ProductionProfile((3.0, 3.0), LinkProfile.from_links(2, [(1, 0)]))
        assert not check_max_equilibrium(cfg, s)

    def test_chain_needs_per_link_cut_condition(self):
        # c exceeds k times the production behind the middle agent's link, so
        # dropping that one link and producing the difference is profitable
        cfg = make_cfg(n=3, c=0.3)
        links = LinkProfile.from_links(3, [(0, 1), (1, 2)])
        s = ProductionProfile((1.0, 1.0, 1.0), links)
        assert not is_production_ne(cfg, s)
        assert not check_sum_equilibrium(cfg, s)
        # a cheaper link keeps the chain in equilibrium
        cheap = make_cfg(n=3, c=0.2)
        assert is_production_ne(cheap, s)
        assert check_sum_equilibrium(cheap, s)

    def test_wrong_aggregation_rejected(self):
        cfg = make_cfg(agg=Aggregation.MAX)
        s = ProductionProfile((3.0, 0.0), LinkProfile.from_links(2, [(1, 0)]))
        with pytest.raises(ValueError):
            check_sum_equilibrium(cfg, s)
        with pytest.raises(ValueError):
            check_max_equilibrium(make_cfg(), s)

    @pytest.mark.parametrize("agg", [Aggregation.SUM, Aggregation.MAX])
    @pytest.mark.parametrize("c", [0.2, 1.0])
    def test_grid_scan_equivalence_two_agents(self, agg, c):
        cfg = make_cfg(n=2, c=c, agg=agg)
        checker = check_sum_equilibrium if agg is Aggregation.SUM else check_max_equilibrium
        grid = grid_levels(cfg)
        for rows in itertools.product((0, 2), (0, 1)):
            links = LinkProfile(2, rows)
            for prods in itertools.product(grid, repeat=2):
                s = ProductionProfile(prods, links)
                assert is_production_ne(cfg, s) == checker(cfg, s)


class TestEnumeration:
    def test_sum_low_cost_splits(self):
        cfg = make_cfg(c=0.2)
        found = enumerate_production_ne(cfg)
        got = {(s.links.rows, tuple(round(p, 9) for p in s.productions))
               for s in found}
        # exactly the grid splits of h_bar with one link whose sponsor could
        # not produce the acquired information more cheaply: p_sponsor <= 2.2
        expect = set()
        for sixths in range(7):
            p0 = round(sixths * 0.5, 9)
            p1 = round(3.0 - p0, 9)
            if p0 <= 3.0 - cfg.c / cfg.k + 1e-9:
                expect.add(((0b10, 0), (p0, p1)))  # 0 -> 1
            if p1 <= 3.0 - cfg.c / cfg.k + 1e-9:
                expect.add(((0, 0b01), (p0, p1)))  # 1 -> 0
        assert got == expect
        assert len(found) == 10

    def test_max_low_cost_single_producers(self):
        cfg = make_cfg(c=0.2, agg=Aggregation.MAX)
        found = enumerate_production_ne(cfg)
        assert found
        for s in found:
            producers = [i for i, p in enumerate(s.productions) if p > 1e-12]
            assert len(producers) == 1
            assert s.productions[producers[0]] == pytest.approx(3.0, abs=1e-9)
            other = 1 - producers[0]
            assert s.links.rows[other].bit_count() == 1

    def test_candidate_generator_matches_full_scan(self):
        cfg = make_cfg(n=3, c=0.2, agg=Aggregation.MAX)
        full = production._equilibria(cfg, production.grid_batches(cfg))
        cand = production._equilibria(cfg, production._candidate_batches(cfg))
        assert [(s.links.rows, s.productions) for s in full] == \
               [(s.links.rows, s.productions) for s in cand]

    def test_cap(self):
        with pytest.raises(CapExceededError):
            enumerate_production_ne(make_cfg(n=6))


class TestFewMetrics:
    def test_high_cost_everyone_produces(self):
        cfg = make_cfg(n=4, c=1.0)
        s = ProductionProfile((3.0,) * 4, LinkProfile.empty(4))
        fraction, total = few_metrics(cfg, s)
        assert fraction == 1.0
        assert total == pytest.approx(12.0, abs=1e-9)

    def test_max_single_producer(self):
        cfg = make_cfg(n=4, c=0.2, agg=Aggregation.MAX)
        s = ProductionProfile((3.0, 0, 0, 0), LinkProfile.from_links(4, [(1, 0), (2, 0), (3, 0)]))
        fraction, total = few_metrics(cfg, s)
        assert fraction == 0.25
        assert total == pytest.approx(3.0, abs=1e-9)

    def test_sum_shared_star(self):
        cfg = make_cfg(n=3, c=0.2)
        s = ProductionProfile((1.0, 1.0, 1.0), LinkProfile.from_links(3, [(1, 0), (2, 0)]))
        fraction, total = few_metrics(cfg, s)
        assert fraction == 1.0
        assert total == pytest.approx(3.0, abs=1e-9)


class TestFewSweep:
    N_LIST = [2, 3, 4, 5, 6, 7, 8]

    def test_max_low_cost_law_of_the_few(self):
        points = few_sweep(make_cfg(c=0.2, agg=Aggregation.MAX), self.N_LIST)
        assert [pt.producer_fraction for pt in points] == [1 / n for n in self.N_LIST]
        assert all(pt.total_information_bits == pytest.approx(3.0, abs=1e-9) for pt in points)

    def test_sum_high_cost_everyone_produces(self):
        points = few_sweep(make_cfg(c=1.0), self.N_LIST)
        assert all(pt.producer_fraction == 1.0 for pt in points)
        assert [pt.total_information_bits for pt in points] == \
               pytest.approx([3.0 * n for n in self.N_LIST], abs=1e-8)

    def test_sum_low_cost_defeats_the_law(self):
        points = few_sweep(make_cfg(c=0.2), self.N_LIST)
        assert all(pt.producer_fraction == 1.0 for pt in points)
        assert all(pt.total_information_bits == pytest.approx(3.0, abs=1e-9) for pt in points)

    def test_sum_witness_survives_costs_near_the_threshold(self):
        # equal splits stop being equilibria at small n; the witness adapts
        points = few_sweep(make_cfg(c=0.7), [2, 3, 4])
        assert all(pt.producer_fraction == 1.0 for pt in points)

    def test_degenerate_game_nobody_produces(self):
        # k at or above f'(0): producing anything is a loss, h_bar is 0
        cfg = make_cfg(n=2, c=0.1, k=1.5)
        assert cfg.h_bar() == 0.0
        s = ProductionProfile((0.0, 0.0), LinkProfile.empty(2))
        assert is_production_ne(cfg, s)
        found = enumerate_production_ne(cfg)
        assert [(x.links.rows, x.productions) for x in found] == [((0, 0), (0.0, 0.0))]
        points = few_sweep(cfg, [2, 3])
        assert all(pt.producer_fraction == 0.0 for pt in points)
        assert all(pt.total_information_bits == 0.0 for pt in points)


class TestSerialization:
    def test_round_trip(self):
        s = ProductionProfile((3.0, 0.25), LinkProfile.from_links(2, [(1, 0)]))
        text = s.to_text()
        assert text == "0010 3,0.25\n"
        back = ProductionProfile.from_text(text)
        assert back == s

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda n: st.tuples(
        st.tuples(*[st.integers(0, (1 << n) - 1).map(lambda r, i=i: r & ~(1 << i)) for i in range(n)]),
        st.tuples(*[st.floats(0.0, 1e300) for _ in range(n)]))))
    def test_round_trip_property(self, drawn):
        rows, prods = drawn
        s = ProductionProfile(prods, LinkProfile(len(rows), rows))
        back = ProductionProfile.from_text(s.to_text())
        assert back == s
        assert [math.copysign(1.0, p) for p in back.productions] == \
               [math.copysign(1.0, p) for p in s.productions]

    def test_negative_production_rejected(self):
        with pytest.raises(ValueError):
            ProductionProfile((-1.0, 0.0), LinkProfile.empty(2))
