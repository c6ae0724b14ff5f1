"""The joint production and link-formation game."""
import itertools
import math

import numpy as np
import pytest

from infogame import production
from infogame.entropy import TOL, band
from infogame.kernel import CapExceededError
from infogame.formation_game import BenefitFunction
from infogame.production import (
    Aggregation,
    ProductionGameConfig,
    few_sweep,
    grid_levels,
    h_bar,
    production_equilibria,
    production_ne_mask,
    shape_mask,
)
from scalar_kernel import aggregate, links, production_utility

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

    @pytest.mark.parametrize("field, bad", [("agg", "sum"), ("agg", None), ("n_agents", 2.5),
                                            ("n_agents", 4.0), ("n_agents", "4"), ("n_agents", True)])
    def test_wrong_typed_field_rejected(self, field, bad):
        # "sum" is not Aggregation.SUM: the candidate count took it for SUM and the checks for MAX
        fields = dict(n_agents=4, benefit=LN, k=0.25, c=0.2, agg=Aggregation.SUM)
        fields[field] = bad
        with pytest.raises(ValueError, match=f"{'aggregation' if field == 'agg' else 'n_agents'} must be an"):
            ProductionGameConfig(**fields)

    @pytest.mark.parametrize("n", [np.int64(3), np.uint8(3)])
    def test_numpy_integer_agent_count_accepted(self, n):
        cfg = ProductionGameConfig(n, LN, 0.25, 0.2, Aggregation.SUM)
        assert type(cfg.n_agents) is int and cfg == make_cfg(n=3)
        assert [pt.n for pt in few_sweep(make_cfg(), [n])] == [3]

    # text was parsed by the float cast, and an int past the float range raised OverflowError
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0, pytest.param("3", id="text"),
                                     pytest.param("3.0", id="text-float"), pytest.param(10 ** 400, id="past-float")])
    def test_production_outside_the_model_rejected(self, bad):
        with pytest.raises(ValueError, match="production levels must be finite and nonnegative"):
            production_ne_mask(make_cfg(), [(0, 0)], [(bad, 0.0)])

    @pytest.mark.parametrize("rows, prods", [((0, 0), (3.0,)), ((0, 0), (3.0, 3.0, 3.0)), ((0,), (3.0, 3.0))])
    def test_profile_of_another_size_rejected(self, rows, prods):
        with pytest.raises(ValueError, match="profile size does not match the game"):
            production_ne_mask(make_cfg(), [rows], [prods])

    @pytest.mark.parametrize("rows", [(1, 0), (4, 0), (-1, 0)], ids=["self-link", "past-n-bits", "negative"])
    def test_rows_that_are_not_link_rows_rejected(self, rows):
        with pytest.raises(ValueError, match="n-bit masks without self links"):
            production_ne_mask(make_cfg(), [rows], [(3.0, 3.0)])

    def test_h_bar_solved_once_per_config(self, monkeypatch):
        calls = []

        def counting(f, k):
            calls.append(k)
            return h_bar(f, k)

        monkeypatch.setattr(production, "h_bar", counting)
        cfg = make_cfg(n=3, c=0.2)
        assert calls == []
        rows, _ = production_equilibria(cfg)
        assert len(rows) and cfg.step() == pytest.approx(0.5) and band(cfg.c, cfg.k * cfg.h_bar) < 0
        assert calls == [0.25]

    def test_missing_optimum_raises_on_first_use(self):
        cfg = ProductionGameConfig(2, BenefitFunction.linear(), 0.5, 0.2, Aggregation.SUM)
        with pytest.raises(ValueError, match="finite"):
            cfg.h_bar


class TestAggregate:
    def test_sum_and_max(self):
        prods = (3.0, 1.0, 2.0)
        assert aggregate(Aggregation.SUM, prods, 0b111) == 6.0
        assert aggregate(Aggregation.MAX, prods, 0b111) == 3.0
        assert aggregate(Aggregation.SUM, prods, 0b110) == 3.0
        assert aggregate(Aggregation.MAX, prods, 0b000) == 0.0

    @pytest.mark.parametrize("agg", list(Aggregation))
    def test_batched_form_matches_the_scalar_one(self, agg):
        rng = np.random.default_rng(4)
        prods = rng.uniform(0.0, 3.0, (20, 4))
        masks = rng.integers(0, 16, (20, 3))
        want = [[aggregate(agg, p, m) for m in row] for p, row in zip(prods.tolist(), masks.tolist())]
        assert production._aggregate_masks(agg, prods[:, None, :], masks).tolist() == want


class TestUtility:
    def test_linked_pair(self):
        cfg = make_cfg()
        rows = links(2, [(1, 0)])
        assert production_utility(cfg, rows, (3.0, 0.0), 1) == pytest.approx(math.log(4) - 0.2, abs=1e-12)
        assert production_utility(cfg, rows, (3.0, 0.0), 0) == pytest.approx(math.log(4) - 0.75, abs=1e-12)

    def test_isolated_producer(self):
        cfg = make_cfg()
        assert production_utility(cfg, (0, 0), (3.0, 0.0), 0) == pytest.approx(math.log(4) - 0.75, abs=1e-12)


class TestEquilibriumCheck:
    def test_high_cost_empty_full_production(self):
        cfg = make_cfg(c=1.0)
        assert production_ne_mask(cfg, [(0, 0)], [(3.0, 3.0)])[0, 0]
        rows, prods = production_equilibria(cfg)
        assert rows.tolist() == [[0, 0]]
        assert prods.tolist() == [pytest.approx([3.0, 3.0], abs=1e-9)]

    def test_low_cost_single_producer_sum(self):
        cfg = make_cfg(c=0.2)
        assert production_ne_mask(cfg, [links(2, [(1, 0)])], [(3.0, 0.0)])[0, 0]

    def test_low_cost_shared_production_max_rejected(self):
        cfg = make_cfg(c=0.2, agg=Aggregation.MAX)
        for rows in (links(2, [(1, 0)]), links(2, [])):
            assert not production_ne_mask(cfg, [rows], [(1.5, 1.5)])[0, 0]

    def test_producer_sponsoring_useless_link_rejected(self):
        cfg = make_cfg(c=0.2)
        assert not production_ne_mask(cfg, [links(2, [(0, 1)])], [(3.0, 0.0)])[0, 0]

    def test_twelve_agents_checked(self):
        # no agent cap of its own: any profile of the game is judged
        cfg = make_cfg(n=12, c=1.0)
        assert production_ne_mask(cfg, [(0,) * 12], [(3.0,) * 12])[0, 0]
        assert not production_ne_mask(cfg, [(0,) * 12], [(0.0,) * 12])[0, 0]


class TestCharacterizations:
    def test_star_with_producing_core(self):
        cfg = make_cfg(n=3, c=0.2)
        rows, prods = links(3, [(1, 0), (2, 0)]), (3.0, 0.0, 0.0)
        assert shape_mask(cfg, [rows], [prods]).tolist() == [[True]]
        assert production_ne_mask(cfg, [rows], [prods])[0, 0]

    def test_overproduction_rejected(self):
        cfg = make_cfg(n=2, c=0.2)
        rows, prods = links(2, [(1, 0)]), (3.0, 0.5)
        assert shape_mask(cfg, [rows], [prods]).tolist() == [[False]]
        assert not production_ne_mask(cfg, [rows], [prods])[0, 0]

    def test_two_producers_under_max_rejected(self):
        cfg = make_cfg(n=2, c=0.2, agg=Aggregation.MAX)
        rows = links(2, [(1, 0)])
        assert shape_mask(cfg, [rows], [(3.0, 3.0)]).tolist() == [[False]]

    def test_chain_needs_per_link_cut_condition(self):
        # c exceeds k times the production behind the middle agent's link, so
        # dropping that one link and producing the difference is profitable
        cfg = make_cfg(n=3, c=0.3)
        rows, prods = links(3, [(0, 1), (1, 2)]), (1.0, 1.0, 1.0)
        assert not production_ne_mask(cfg, [rows], [prods])[0, 0]
        assert shape_mask(cfg, [rows], [prods]).tolist() == [[False]]
        # a cheaper link keeps the chain in equilibrium
        cheap = make_cfg(n=3, c=0.2)
        assert production_ne_mask(cheap, [rows], [prods])[0, 0]
        assert shape_mask(cheap, [rows], [prods]).tolist() == [[True]]

    @pytest.mark.parametrize("agg", [Aggregation.SUM, Aggregation.MAX])
    @pytest.mark.parametrize("c", [0.2, 1.0])
    def test_grid_scan_equivalence_two_agents(self, agg, c):
        cfg = make_cfg(n=2, c=c, agg=agg)
        rows = list(itertools.product((0, 2), (0, 1)))
        prods = list(itertools.product(grid_levels(cfg), repeat=2))
        shapes = shape_mask(cfg, rows, prods).tolist()
        assert shapes == [[production_ne_mask(cfg, [r], [p])[0, 0] for p in prods] for r in rows]
        assert shapes == production_ne_mask(cfg, rows, prods).tolist()


class TestEnumeration:
    def test_sum_low_cost_splits(self):
        cfg = make_cfg(c=0.2)
        rows, prods = production_equilibria(cfg)
        got = {(tuple(r), tuple(round(p, 9) for p in ps)) for r, ps in zip(rows.tolist(), prods.tolist())}
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
        assert len(rows) == 10

    def test_max_low_cost_single_producers(self):
        cfg = make_cfg(c=0.2, agg=Aggregation.MAX)
        rows, prods = production_equilibria(cfg)
        assert len(rows)
        for r, ps in zip(rows.tolist(), prods.tolist()):
            producers = [i for i, p in enumerate(ps) if p > 1e-12]
            assert len(producers) == 1
            assert ps[producers[0]] == pytest.approx(3.0, abs=1e-9)
            other = 1 - producers[0]
            assert r[other].bit_count() == 1

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("agg", list(Aggregation), ids=lambda a: a.value)
    @pytest.mark.parametrize("where", ["c=0.2", "half-cut", "cut-2tol", "cut+2tol", "1.5cut"])
    def test_candidate_generator_matches_full_scan(self, n, agg, where):
        # the CLI prints the candidate path from 4 agents on, while verify checks the grid path (the
        # full grid's product scan up to 3 agents); within TOL of the cut c = k h_bar the two may
        # differ, so these costs stay 2 TOL or more off it
        cut = 0.25 * h_bar(LN, 0.25)
        c = {"c=0.2": 0.2, "half-cut": 0.5 * cut, "cut-2tol": cut - 2 * TOL, "cut+2tol": cut + 2 * TOL,
             "1.5cut": 1.5 * cut}[where]
        cfg = make_cfg(n=n, c=c, agg=agg)
        full = production_equilibria(cfg)
        cand = production._equilibria(cfg, production._candidates(cfg))
        assert len(full[0]) and all(np.array_equal(a, b) for a, b in zip(full, cand))

    def test_cap(self):
        with pytest.raises(CapExceededError):
            production_equilibria(make_cfg(n=6))


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

    @pytest.mark.parametrize("n", [2.5, 3.0])
    def test_non_integral_size_rejected(self, n):
        with pytest.raises(ValueError, match="n_agents must be an integer"):
            few_sweep(make_cfg(), [2, n])

    def test_degenerate_game_nobody_produces(self):
        # k at or above f'(0): producing anything is a loss, h_bar is 0
        cfg = make_cfg(n=2, c=0.1, k=1.5)
        assert cfg.h_bar == 0.0
        assert production_ne_mask(cfg, [(0, 0)], [(0.0, 0.0)])[0, 0]
        rows, prods = production_equilibria(cfg)
        assert (rows.tolist(), prods.tolist()) == ([[0, 0]], [[0.0, 0.0]])
        points = few_sweep(cfg, [2, 3])
        assert all(pt.producer_fraction == 0.0 for pt in points)
        assert all(pt.total_information_bits == 0.0 for pt in points)

