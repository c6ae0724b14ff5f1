"""The batched production equilibrium check against the per-profile scalar loop.

``scalar_is_production_ne`` is the check as a plain loop over agents, compact
rows and production candidates; it is the oracle for
:func:`production_ne_mask` and for everything built on it. The batched
shape test :func:`shape_mask` is compared with its per-profile form under
``tests/`` on the production grid and, with the batched check, off it.
"""
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infogame import production
from infogame.entropy import TOL
from infogame.formation_game import BenefitFunction, LinkProfile
from infogame.kernel import CapExceededError, rows_from_indices, sponsored_trees
from infogame.production import (
    Aggregation,
    ProductionGameConfig,
    ProductionProfile,
    aggregate,
    check_max_equilibrium,
    check_sum_equilibrium,
    enumerate_production_ne,
    few_sweep,
    grid_levels,
    is_production_ne,
    production_ne_mask,
    shape_mask,
)
from scalar_kernel import merged_components, production_utility
from scalar_kernel import production_shape as scalar_shape

BENEFITS = [BenefitFunction.log1p(2.0), BenefitFunction.log1p(math.e),
            BenefitFunction.power(0.5), BenefitFunction.power(0.3)]


def scalar_is_production_ne(cfg, s):
    """Every agent, every compact row, every production candidate, one at a time."""
    n = cfg.n_agents
    hb = cfg.h_bar()
    grid = grid_levels(cfg)
    is_sum = cfg.agg is Aggregation.SUM
    for i in range(n):
        current = production_utility(cfg, s, i)
        for compact, mask in enumerate(merged_components(n, s.links.rows, i)):
            link_cost = cfg.c * compact.bit_count()
            acquired = aggregate(cfg.agg, s.productions, mask & ~(1 << i))
            for h in grid + [hb] + ([max(0.0, hb - acquired)] if is_sum else []):
                info = acquired + h if is_sum else max(acquired, h)
                if cfg.benefit(info) - cfg.k * h - link_cost > current + TOL:
                    return False
    return True


def assert_mask_matches_scalar(cfg, profiles):
    rows = [s.links.rows for s in profiles]
    prods = [s.productions for s in profiles]
    got = production_ne_mask(cfg, rows, prods).tolist()
    assert got == [scalar_is_production_ne(cfg, s) for s in profiles]
    return got


@st.composite
def games(draw, sizes=(1, 2, 3, 4)):
    n = draw(st.sampled_from(sizes))
    f = draw(st.sampled_from(BENEFITS))
    # k below f'(0) so that h_bar is finite and positive
    slope = math.inf if f.name == "power" else f.deriv(0.0)
    k = draw(st.floats(0.08, 0.6)) if slope == math.inf else slope / draw(st.floats(1.5, 5.0))
    agg = draw(st.sampled_from(list(Aggregation)))
    hb = production.h_bar(f, k)
    c = draw(st.one_of(st.floats(0.0, 2.0 * k * hb), st.just(k * hb)))
    return ProductionGameConfig(n, f, k, c, agg)


@st.composite
def profiles(draw, cfg, count):
    n = cfg.n_agents
    grid = grid_levels(cfg)
    out = []
    for _ in range(count):
        rows = tuple(draw(st.integers(0, (1 << n) - 1)) & ~(1 << i) for i in range(n))
        if draw(st.booleans()):
            prods = tuple(draw(st.sampled_from(grid)) for _ in range(n))
        else:
            prods = tuple(draw(st.floats(0.0, 1.5 * cfg.h_bar())) for _ in range(n))
        out.append(ProductionProfile(prods, LinkProfile(n, rows)))
    return out


class TestMaskMatchesScalar:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_random_rows_and_productions(self, data):
        cfg = data.draw(games())
        assert_mask_matches_scalar(cfg, data.draw(profiles(cfg, 30)))

    @settings(max_examples=20, deadline=None)
    @given(games(sizes=(1, 2)))
    def test_every_grid_profile(self, cfg):
        self.check_grid(cfg)

    @settings(max_examples=3, deadline=None)
    @given(games(sizes=(3,)))
    def test_every_three_agent_grid_profile(self, cfg):
        self.check_grid(cfg)

    @staticmethod
    def check_grid(cfg):
        batches = list(production.grid_batches(cfg))
        rows = np.concatenate([r for r, _ in batches])
        prods = np.concatenate([p for _, p in batches])
        n = cfg.n_agents
        profiles_ = [ProductionProfile(tuple(p), LinkProfile(n, tuple(r)))
                     for r, p in zip(rows.tolist(), prods.tolist())]
        assert_mask_matches_scalar(cfg, profiles_)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_knife_edge_cut_link_costs(self, data):
        # a periphery-sponsored star with the link price exactly at k times the
        # production the link reaches, the threshold of the SUM characterization
        cfg = data.draw(games(sizes=(2, 3, 4)))
        n = cfg.n_agents
        grid = grid_levels(cfg)
        prods = tuple(data.draw(st.sampled_from(grid)) for _ in range(n))
        j = data.draw(st.integers(1, n - 1))
        c = cfg.k * aggregate(cfg.agg, prods, ((1 << n) - 1) & ~(1 << j))
        cfg = ProductionGameConfig(n, cfg.benefit, cfg.k, c, cfg.agg)
        star = ProductionProfile(prods, LinkProfile(n, tuple(0 if i == 0 else 1 for i in range(n))))
        assert_mask_matches_scalar(cfg, [star] + data.draw(profiles(cfg, 10)))

    @pytest.mark.parametrize("agg", list(Aggregation))
    @pytest.mark.parametrize("f", BENEFITS, ids=lambda f: f.describe())
    def test_high_cost_knife_edge(self, agg, f):
        # c = k * h_bar is classified high cost: the empty network at h_bar
        k = 0.25 if f.name == "power" else f.deriv(0.0) / 4.0
        hb = production.h_bar(f, k)
        for n in (1, 2, 3):
            cfg = ProductionGameConfig(n, f, k, k * hb, agg)
            assert cfg.high_cost()
            rows = rows_from_indices(np.arange(1 << (n * (n - 1))), n).tolist()
            cands = [ProductionProfile(p, LinkProfile(n, tuple(r)))
                     for r in rows for p in ((hb,) * n, (0.0,) * n, (hb,) + (0.0,) * (n - 1))]
            got = assert_mask_matches_scalar(cfg, cands)
            assert got[0]  # the empty network at h_bar

    @pytest.mark.parametrize("agg, c", [(Aggregation.MAX, 0.2), (Aggregation.SUM, 0.2),
                                        (Aggregation.SUM, 0.7), (Aggregation.SUM, 1.0)])
    @pytest.mark.parametrize("f", BENEFITS[:2], ids=lambda f: f.describe())
    def test_few_sweep_witnesses(self, agg, c, f):
        cfg = ProductionGameConfig(2, f, 0.25 / math.log(f.params[0]), c, agg)
        for pt in few_sweep(cfg, range(2, 11)):
            n = pt.n
            point = ProductionGameConfig(n, cfg.benefit, cfg.k, cfg.c, cfg.agg)
            hb = point.h_bar()
            star = LinkProfile(n, tuple(0 if i == 0 else 1 for i in range(n)))
            if point.high_cost():
                witness = ProductionProfile((hb,) * n, LinkProfile.empty(n))
            elif agg is Aggregation.MAX:
                witness = ProductionProfile((hb,) + (0.0,) * (n - 1), star)
            else:
                share = min(hb / n, hb - point.c / point.k)
                witness = ProductionProfile((hb - (n - 1) * share,) + (share,) * (n - 1), star)
            assert scalar_is_production_ne(point, witness)
            assert is_production_ne(point, witness)

    def test_sum_closed_form_is_a_candidate(self):
        # total 3.1 beats the grid totals 2.75 and 3.25 and the h_bar total 3.25;
        # only producing exactly h_bar - acquired (total 3.0) gains, for both agents
        cfg = ProductionGameConfig(2, BENEFITS[1], 0.25, 0.01, Aggregation.SUM)
        s = ProductionProfile((2.85, 0.25), LinkProfile.from_links(2, [(0, 1)]))
        assert assert_mask_matches_scalar(cfg, [s]) == [False]

    def test_h_bar_is_a_candidate(self):
        # on the grid 0, 0.7, ..., 3.5 only producing h_bar = 3 itself beats 2.9
        cfg = ProductionGameConfig(1, BENEFITS[1], 0.25, 0.0, Aggregation.MAX, 0.7)
        profiles_ = [ProductionProfile((p,), LinkProfile.empty(1)) for p in (2.9, cfg.h_bar())]
        assert assert_mask_matches_scalar(cfg, profiles_) == [False, True]

    @pytest.mark.parametrize("mask", [production_ne_mask, shape_mask])
    def test_shape_mismatch_rejected(self, mask):
        cfg = ProductionGameConfig(2, BENEFITS[1], 0.25, 0.2, Aggregation.SUM)
        with pytest.raises(ValueError):
            mask(cfg, [[0, 0, 0]], [[0.0, 0.0, 0.0]])
        with pytest.raises(ValueError):
            mask(cfg, [[0, 0]], [[0.0, 0.0], [1.0, 1.0]])

    @pytest.mark.parametrize("rows, prods", [
        ([[1, 0]], [[0.0, 0.0]]),          # agent 0 links to itself
        ([[4, 0]], [[0.0, 0.0]]),          # a target beyond n
        ([[-2, 0]], [[0.0, 0.0]]),
        ([[2, 0]], [[math.nan, 0.0]]),
        ([[2, 0]], [[math.inf, 0.0]]),
        ([[2, 0]], [[-1.0, 0.0]])])
    @pytest.mark.parametrize("mask", [production_ne_mask, shape_mask])
    def test_profiles_outside_the_model_rejected(self, mask, rows, prods):
        cfg = ProductionGameConfig(2, BENEFITS[1], 0.25, 0.2, Aggregation.SUM)
        with pytest.raises(ValueError):
            mask(cfg, rows, prods)

    def test_empty_batch(self):
        cfg = ProductionGameConfig(2, BENEFITS[1], 0.25, 0.2, Aggregation.SUM)
        assert production_ne_mask(cfg, np.zeros((0, 2)), np.zeros((0, 2))).shape == (0,)

    @pytest.mark.parametrize("agg", list(Aggregation))
    def test_a_deviation_gaining_exactly_tol_does_not_count(self, agg):
        # both produce h_bar alone; linking to the other saves k * h_bar - c, and at
        # this c that saving is TOL exactly in float64: the knife edge of the strict test
        c = 0.7499999989927241
        cfg = ProductionGameConfig(2, BENEFITS[1], 0.25, c, agg)
        hb = cfg.h_bar()
        assert cfg.benefit(hb) - c == (cfg.benefit(hb) - 0.25 * hb) + TOL
        empty = ProductionProfile((hb, hb), LinkProfile.empty(2))
        assert is_production_ne(cfg, empty) and scalar_is_production_ne(cfg, empty)
        # one ulp cheaper and the link gains more than TOL
        cheaper = ProductionGameConfig(2, BENEFITS[1], 0.25, math.nextafter(c, 0.0), agg)
        assert not is_production_ne(cheaper, empty) and not scalar_is_production_ne(cheaper, empty)


class TestShapeCheckers:
    # k * h_bar = 0.75 with h_bar = 3: the first three costs are low, 1.0 is high
    @pytest.mark.parametrize("c", [0.05, 0.2, 0.4, 1.0])
    @pytest.mark.parametrize("agg", list(Aggregation))
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_match_the_mask_off_the_grid(self, n, agg, c):
        cfg = ProductionGameConfig(n, BENEFITS[1], 0.25, c, agg)
        checker = check_sum_equilibrium if agg is Aggregation.SUM else check_max_equilibrium
        hb = cfg.h_bar()
        rng = np.random.default_rng([n, round(100 * c), agg is Aggregation.SUM])
        single = [tuple(hb if a == p else 0.0 for a in range(n)) for p in range(n)]
        cases = [((0,) * n, (hb,) * n)]  # the high-cost equilibrium
        for rows in map(tuple, sponsored_trees(tuple(range(n)), n).tolist()):
            cases += [(rows, tuple(hb * rng.dirichlet(np.ones(n))))] + [(rows, p) for p in single]
        for _ in range(100):
            rows = tuple(int(r) & ~(1 << i) for i, r in enumerate(rng.integers(0, 1 << n, n)))
            for p in (tuple(hb * rng.dirichlet(np.ones(n))), single[int(rng.integers(n))],
                      tuple(rng.uniform(0.0, 1.5 * hb, n))):
                cases.append((rows, p))
        rows, prods = [r for r, _ in cases], [p for _, p in cases]
        got = shape_mask(cfg, rows, prods).tolist()
        assert got == production_ne_mask(cfg, rows, prods).tolist()
        assert got == [scalar_shape(cfg, ProductionProfile(p, LinkProfile(n, r))) for r, p in cases]
        assert any(got)
        # the public checkers are batches of one
        assert [checker(cfg, ProductionProfile(p, LinkProfile(n, r))) for r, p in cases[::10]] == got[::10]

    @pytest.mark.parametrize("c", [0.05, 0.2, 0.4, 0.75, 1.0])
    @pytest.mark.parametrize("agg", list(Aggregation))
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_mask_matches_the_scalar_shape_on_every_grid_profile(self, n, agg, c):
        cfg = ProductionGameConfig(n, BENEFITS[1], 0.25, c, agg)
        for rows, prods in production.grid_batches(cfg):
            want = [scalar_shape(cfg, ProductionProfile(tuple(p), LinkProfile(n, tuple(r))))
                    for r, p in zip(rows.tolist(), prods.tolist())]
            assert shape_mask(cfg, rows, prods).tolist() == want

    def test_a_link_cutting_off_exactly_its_cost_minus_tol_is_kept(self):
        # agent 1's link to agent 0 cuts off 2 units: worth k * 2 = 0.5, its cost less TOL
        hb = ProductionGameConfig(2, BENEFITS[1], 0.25, 0.2, Aggregation.SUM).h_bar()
        rows, prods = [(0, 1)], [(2.0, hb - 2.0)]
        for c, want in ((0.25 * 2.0 + TOL, True), (math.nextafter(0.25 * 2.0 + TOL, 1.0), False)):
            cfg = ProductionGameConfig(2, BENEFITS[1], 0.25, c, Aggregation.SUM)
            s = ProductionProfile(prods[0], LinkProfile(2, rows[0]))
            assert shape_mask(cfg, rows, prods).tolist() == [want] == [scalar_shape(cfg, s)]
            assert production_ne_mask(cfg, rows, prods).tolist() == [want]

    def test_a_lone_agent_at_a_vanishing_h_bar(self):
        # h_bar is below TOL here, so producing nothing is within TOL of it: an equilibrium
        # although no agent produces more than PRODUCER_EPS
        cfg = ProductionGameConfig(1, BENEFITS[1], 1.0 - 1e-10, 0.0, Aggregation.MAX)
        assert 0.0 < cfg.h_bar() < TOL and not cfg.high_cost()
        s = ProductionProfile((0.0,), LinkProfile.empty(1))
        assert shape_mask(cfg, [(0,)], [(0.0,)]).tolist() == [True] == [scalar_shape(cfg, s)]
        assert production_ne_mask(cfg, [(0,)], [(0.0,)]).tolist() == [True]

    @pytest.mark.parametrize("agg, c, fraction", [
        (Aggregation.SUM, 1.0, 1.0), (Aggregation.MAX, 0.2, 1 / 16), (Aggregation.SUM, 0.2, 1.0)])
    def test_few_sweep_runs_to_sixteen_agents(self, agg, c, fraction):
        cfg = ProductionGameConfig(2, BENEFITS[1], 0.25, c, agg)
        assert [pt.producer_fraction for pt in few_sweep(cfg, [16])] == [fraction]
        with pytest.raises(ValueError, match="n_agents must be in 1..16"):
            few_sweep(cfg, [17])


def scan(cfg, batches):
    """The equilibria that one of the two production scans, named by its batch
    generator, finds at any agent count."""
    return production._equilibria(cfg, getattr(production, batches)(cfg))


class TestEnumeration:
    # 1 and 7 cells leave one profile per chunk, 250 a few with ragged ends
    @pytest.mark.parametrize("chunk", [1, 7, 250])
    @pytest.mark.parametrize("n, agg, c, batches", [
        (2, Aggregation.SUM, 0.2, "grid_batches"), (2, Aggregation.MAX, 1.0, "grid_batches"),
        (3, Aggregation.SUM, 0.2, "_candidate_batches"), (4, Aggregation.MAX, 0.2, "_candidate_batches")])
    def test_chunk_size_does_not_change_the_list(self, monkeypatch, chunk, n, agg, c, batches):
        cfg = ProductionGameConfig(n, BENEFITS[1], 0.25, c, agg)
        want = scan(cfg, batches)
        monkeypatch.setattr(production, "CHECK_CHUNK", chunk)
        assert scan(cfg, batches) == want

    @pytest.mark.parametrize("chunk", [250, 1000])
    @pytest.mark.parametrize("agg, c", [(Aggregation.SUM, 0.2), (Aggregation.MAX, 1.0)])
    def test_chunk_size_does_not_change_the_three_agent_grid(self, monkeypatch, chunk, agg, c):
        cfg = ProductionGameConfig(3, BENEFITS[1], 0.25, c, agg)
        want = enumerate_production_ne(cfg)
        monkeypatch.setattr(production, "CHECK_CHUNK", chunk)
        assert enumerate_production_ne(cfg) == want

    @pytest.mark.parametrize("n, agg, c, batches", [
        (2, Aggregation.SUM, 0.2, "grid_batches"), (2, Aggregation.MAX, 1.0, "grid_batches"),
        (3, Aggregation.SUM, 0.2, "_candidate_batches"), (3, Aggregation.MAX, 0.2, "_candidate_batches")])
    def test_matches_scalar_oracle(self, n, agg, c, batches):
        cfg = ProductionGameConfig(n, BENEFITS[0], 0.25 / math.log(2.0), c, agg)
        found = scan(cfg, batches)
        assert found and all(scalar_is_production_ne(cfg, s) for s in found)
        if batches == "grid_batches":
            n_grid = 0
            for rows, prods in production.grid_batches(cfg):
                for r, p in zip(rows.tolist(), prods.tolist()):
                    s = ProductionProfile(tuple(p), LinkProfile(n, tuple(r)))
                    n_grid += scalar_is_production_ne(cfg, s)
            assert n_grid == len(found)

    @pytest.mark.parametrize("agg", list(Aggregation))
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_candidates_are_distinct(self, n, agg):
        cfg = ProductionGameConfig(n, BENEFITS[1], 0.25, 0.2, agg)
        batches = list(production._candidate_batches(cfg))
        stacked = np.concatenate([np.hstack([r, p]) for r, p in batches])
        assert len(np.unique(stacked, axis=0)) == len(stacked)
        assert len(stacked) == production._candidate_count(cfg)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_splits_are_the_filtered_grid(self, n):
        for step in (None, 0.5, 0.7, 0.3):
            cfg = ProductionGameConfig(n, BENEFITS[1], 0.25, 0.2, Aggregation.SUM, step)
            hb = cfg.h_bar()
            want = [p for p in itertools.product(grid_levels(cfg), repeat=n)
                    if abs(sum(p) - hb) <= TOL]
            assert sorted(map(tuple, production._splits(cfg).tolist())) == want


class TestWorkBudget:
    @pytest.fixture
    def never_scan(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the scan started")
        for name in ("production_ne_mask", "grid_batches", "_candidate_batches"):
            monkeypatch.setattr(production, name, refuse)

    def test_auto_scans_the_full_grid_up_to_three_agents(self, monkeypatch):
        used = []
        for name in ("grid_batches", "_candidate_batches"):
            monkeypatch.setattr(production, name, lambda cfg, name=name: used.append(name) or [])
        for n in (3, 4):
            enumerate_production_ne(ProductionGameConfig(n, BENEFITS[1], 0.25, 0.2, Aggregation.SUM))
        assert used == ["grid_batches", "_candidate_batches"]

    def test_fine_grid_candidates_fail_fast(self, never_scan):
        # 2000 sponsored trees times every split of h_bar into 0.01 steps
        cfg = ProductionGameConfig(5, BENEFITS[1], 0.25, 0.2, Aggregation.SUM, 0.01)
        with pytest.raises(CapExceededError, match="candidates production scan at 5 agents capped at "
                                                   "1048576 profiles: it would check 697763752001 "):
            enumerate_production_ne(cfg)

    def test_six_agent_sum_candidates_fail_fast(self, never_scan):
        cfg = ProductionGameConfig(6, BENEFITS[1], 0.25, 0.2, Aggregation.SUM)
        with pytest.raises(CapExceededError, match="it would check 19160065 profiles"):
            enumerate_production_ne(cfg)

    def test_six_agent_max_candidates_run(self):
        cfg = ProductionGameConfig(6, BENEFITS[1], 0.25, 0.2, Aggregation.MAX)
        assert production._candidate_count(cfg) == 1 + 6 * 6 ** 4 == 7777
        found = enumerate_production_ne(cfg)
        # every tree rooted at each of the six producers
        assert len(found) == 6 * 6 ** 4
        assert shape_mask(cfg, [s.links.rows for s in found], [s.productions for s in found]).all()

    def test_fine_grid_full_scan_fails_fast(self, never_scan):
        cfg = ProductionGameConfig(3, BENEFITS[1], 0.25, 0.2, Aggregation.MAX, 1e-6)
        levels = production._grid_top(cfg) + 1
        assert levels == 3000001
        with pytest.raises(CapExceededError, match="full production scan at 3 agents capped at 1048576 "
                                                   f"profiles: it would check {64 * levels ** 3} profiles"):
            enumerate_production_ne(cfg)

    def test_budget_covers_the_largest_default_scans(self):
        sum4 = ProductionGameConfig(4, BENEFITS[1], 0.25, 0.2, Aggregation.SUM)
        assert production._candidate_count(sum4) == 1 + 16 * 8 * 84
        sum5 = ProductionGameConfig(5, BENEFITS[1], 0.25, 0.2, Aggregation.SUM)
        assert production._candidate_count(sum5) == 1 + 125 * 16 * 210 <= production.CHECK_BUDGET
        assert 64 * 7 ** 3 <= production.CHECK_BUDGET
