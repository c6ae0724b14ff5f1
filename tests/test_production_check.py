"""The product-form production equilibrium check against the per-profile scalar loop.

``scalar_is_production_ne`` is the check as a plain loop over agents, compact
rows and production candidates; it is the oracle for every cell of
:func:`production_ne_mask`, which judges link rows x production vectors, and
for everything built on it. The shape test :func:`shape_mask` judges the
same products; it is compared with its per-profile form under ``tests/`` on
the production grid and, cell by cell with the check, off it.
"""
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infogame import kernel, production
from infogame.entropy import TOL, band
from infogame.formation_game import BenefitFunction
from infogame.kernel import CapExceededError, merged_table, rooted_trees, rows_from_indices, sponsored_trees
from infogame.production import (
    Aggregation,
    ProductionGameConfig,
    few_sweep,
    grid_levels,
    production_equilibria,
    production_ne_mask,
    shape_mask,
)
from scalar_kernel import aggregate, links, merged_components, production_utility
from scalar_kernel import production_shape as scalar_shape

BENEFITS = [BenefitFunction.log1p(2.0), BenefitFunction.log1p(math.e),
            BenefitFunction.power(0.5), BenefitFunction.power(0.3)]


def label(f):
    """A benefit function's pytest id: log1p[base=e], log1p[base=2], power[alpha=0.5]."""
    (p,) = f.params
    if f.name == "log1p":
        return "log1p[base=e]" if p == math.e else f"log1p[base={p:g}]"
    return f"{f.name}[alpha={p:g}]"


def scalar_is_production_ne(cfg, rows, prods):
    """Every agent, every compact row, every production candidate, one at a time."""
    n = cfg.n_agents
    hb = cfg.h_bar
    grid = grid_levels(cfg)
    is_sum = cfg.agg is Aggregation.SUM
    for i in range(n):
        current = production_utility(cfg, rows, prods, i)
        for compact, mask in enumerate(merged_components(n, rows, i)):
            link_cost = cfg.c * compact.bit_count()
            acquired = aggregate(cfg.agg, prods, mask & ~(1 << i))
            for h in grid + [hb] + ([max(0.0, hb - acquired)] if is_sum else []):
                info = acquired + h if is_sum else max(acquired, h)
                if cfg.benefit(info) - cfg.k * h - link_cost > current + TOL:
                    return False
    return True


def stand_alone(cfg):
    """f(h_bar) - k h_bar, what producing h_bar alone pays."""
    return cfg.benefit(cfg.h_bar) - cfg.k * cfg.h_bar


# the two scans' (link rows, production vectors) products
PRODUCTS = {"grid": lambda cfg: [production.grid_profiles(cfg)],
            "candidates": lambda cfg: production._candidates(cfg)}


def counted_candidates(monkeypatch, cfg):
    """The candidate products of ``cfg``, with the count that ``_candidates`` gave ``require_budget``."""
    counts = []

    def record(count, what, unit):
        if what.startswith("candidates"):
            counts.append(count)
        kernel.require_budget(count, what, unit)
    monkeypatch.setattr(production, "require_budget", record)
    products = list(production._candidates(cfg))
    (count,) = counts
    return products, count


def assert_mask_matches_scalar(cfg, rows, prods):
    """Every cell of the product of link rows ``rows`` and production vectors ``prods``
    (sequences of tuples or arrays) against the scalar check; returns the mask as lists."""
    rows, prods = [tuple(r) for r in np.asarray(rows).tolist()], [tuple(p) for p in np.asarray(prods).tolist()]
    got = production_ne_mask(cfg, rows, prods).tolist()
    assert got == [[scalar_is_production_ne(cfg, r, p) for p in prods] for r in rows]
    return got


@st.composite
def games(draw, sizes=(1, 2, 3, 4)):
    """A production game; for a log1p benefit, half the time one whose stand-alone payoff is
    in (TOL, 100 TOL], so that production levels a step from h_bar can tie with it."""
    n = draw(st.sampled_from(sizes))
    f = draw(st.sampled_from(BENEFITS))
    # k below f'(0) so that h_bar is finite and positive
    slope = math.inf if f.name == "power" else f.deriv(0.0)
    if slope < math.inf and draw(st.booleans()):
        # k just below f'(0): f(h_bar) - k h_bar is about slope d**2 / 2, in (TOL, 100 TOL]
        d = draw(st.floats(1.01 * math.sqrt(2.0 * TOL / slope), 0.99 * math.sqrt(200.0 * TOL / slope)))
        k = slope * (1.0 - d)
    else:
        k = draw(st.floats(0.08, 0.6)) if slope == math.inf else slope / draw(st.floats(1.5, 5.0))
    agg = draw(st.sampled_from(list(Aggregation)))
    hb = production.h_bar(f, k)
    c = draw(st.one_of(st.floats(0.0, 2.0 * k * hb), st.just(k * hb)))
    return ProductionGameConfig(n, f, k, c, agg)


@st.composite
def products(draw, cfg, rows, vectors):
    """``rows`` random link rows and ``vectors`` production vectors, on the grid or off it."""
    n = cfg.n_agents
    grid = grid_levels(cfg)
    links_ = [tuple(draw(st.integers(0, (1 << n) - 1)) & ~(1 << i) for i in range(n)) for _ in range(rows)]
    prods = []
    for _ in range(vectors):
        if draw(st.booleans()):
            prods.append(tuple(draw(st.sampled_from(grid)) for _ in range(n)))
        else:
            prods.append(tuple(draw(st.floats(0.0, 1.5 * cfg.h_bar)) for _ in range(n)))
    return links_, prods


def random_product(cfg, rng, rows, vectors):
    """``rows`` random link rows and ``vectors`` production vectors, half on the grid, from ``rng``."""
    n = cfg.n_agents
    links_ = rng.integers(0, 1 << n, (rows, n)) & ~(1 << np.arange(n))
    on = np.array(grid_levels(cfg))[rng.integers(0, len(grid_levels(cfg)), (vectors - vectors // 2, n))]
    off = rng.uniform(0.0, 1.5 * cfg.h_bar, (vectors // 2, n))
    return links_, np.concatenate([on, off])


class TestMaskMatchesScalar:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_random_rows_and_productions(self, data):
        cfg = data.draw(games())
        rows, prods = data.draw(products(cfg, 6, 5))
        got = assert_mask_matches_scalar(cfg, rows, prods)
        # and each profile as the 1 x 1 product, which at 1 agent is also a 1-agent game
        assert [[production_ne_mask(cfg, [r], [p])[0, 0] for p in prods] for r in rows] == got

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
        assert_mask_matches_scalar(cfg, *production.grid_profiles(cfg))

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
        rows, vectors = data.draw(products(cfg, 4, 4))
        assert_mask_matches_scalar(cfg, [(0,) + (1,) * (n - 1)] + rows, [prods] + vectors)

    @pytest.mark.parametrize("agg", list(Aggregation))
    @pytest.mark.parametrize("f", BENEFITS, ids=label)
    def test_high_cost_knife_edge(self, agg, f):
        # c = k * h_bar is a tie (band 0): the empty network at h_bar is an equilibrium
        k = 0.25 if f.name == "power" else f.deriv(0.0) / 4.0
        hb = production.h_bar(f, k)
        for n in (1, 2, 3):
            cfg = ProductionGameConfig(n, f, k, k * hb, agg)
            assert band(cfg.c, cfg.k * cfg.h_bar) == 0
            rows = rows_from_indices(np.arange(1 << (n * (n - 1))), n)
            got = assert_mask_matches_scalar(cfg, rows, [(hb,) * n, (0.0,) * n, (hb,) + (0.0,) * (n - 1)])
            assert got[0][0]  # the empty network at h_bar

    @pytest.mark.parametrize("agg, c", [(Aggregation.MAX, 0.2), (Aggregation.SUM, 0.2),
                                        (Aggregation.SUM, 0.7), (Aggregation.SUM, 1.0)])
    @pytest.mark.parametrize("f", BENEFITS[:2], ids=label)
    def test_few_sweep_witnesses(self, agg, c, f):
        cfg = ProductionGameConfig(2, f, 0.25 / math.log(f.params[0]), c, agg)
        for pt in few_sweep(cfg, range(2, 11)):
            n = pt.n
            point = ProductionGameConfig(n, cfg.benefit, cfg.k, cfg.c, cfg.agg)
            hb = point.h_bar
            star = (0,) + (1,) * (n - 1)
            if band(point.c, point.k * point.h_bar) >= 0:
                rows, prods = (0,) * n, (hb,) * n
            elif agg is Aggregation.MAX:
                rows, prods = star, (hb,) + (0.0,) * (n - 1)
            else:
                share = min(hb / n, hb - point.c / point.k)
                rows, prods = star, (hb - (n - 1) * share,) + (share,) * (n - 1)
            assert scalar_is_production_ne(point, rows, prods)
            assert production_ne_mask(point, [rows], [prods])[0, 0]

    def test_sum_closed_form_is_a_candidate(self):
        # total 3.1 beats the grid totals 2.75 and 3.25 and the h_bar total 3.25;
        # only producing exactly h_bar - acquired (total 3.0) gains, for both agents
        cfg = ProductionGameConfig(2, BENEFITS[1], 0.25, 0.01, Aggregation.SUM)
        assert assert_mask_matches_scalar(cfg, [links(2, [(0, 1)])], [(2.85, 0.25)]) == [[False]]

    def test_h_bar_is_a_candidate(self):
        # on the grid 0, 0.7, ..., 3.5 only producing h_bar = 3 itself beats 2.9
        cfg = ProductionGameConfig(1, BENEFITS[1], 0.25, 0.0, Aggregation.MAX, 0.7)
        assert assert_mask_matches_scalar(cfg, [(0,)], [(2.9,), (cfg.h_bar,)]) == [[False, True]]

    @pytest.mark.parametrize("mask", [production_ne_mask, shape_mask])
    def test_shape_mismatch_rejected(self, mask):
        cfg = ProductionGameConfig(2, BENEFITS[1], 0.25, 0.2, Aggregation.SUM)
        with pytest.raises(ValueError):
            mask(cfg, [[0, 0, 0]], [[0.0, 0.0, 0.0]])
        with pytest.raises(ValueError, match="profile size does not match the game"):
            mask(cfg, [[0, 0]], [[0.0, 0.0, 0.0]])
        with pytest.raises(ValueError, match="profile size does not match the game"):
            mask(cfg, [[0, 0]], [0.0, 0.0])  # a vector, not a batch of vectors

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

    @pytest.mark.parametrize("mask", [production_ne_mask, shape_mask])
    def test_empty_factors(self, mask):
        cfg = ProductionGameConfig(2, BENEFITS[1], 0.25, 0.2, Aggregation.SUM)
        for rows, vectors in ((0, 0), (0, 3), (2, 0)):
            got = mask(cfg, np.zeros((rows, 2)), np.zeros((vectors, 2)))
            assert got.shape == (rows, vectors) and got.dtype == bool

    @pytest.mark.parametrize("agg", list(Aggregation))
    def test_a_deviation_gaining_exactly_tol_does_not_count(self, agg):
        # both produce h_bar alone; linking to the other saves k * h_bar - c, and at
        # this c that saving is TOL exactly in float64: the knife edge of the strict test
        c = 0.7499999989927241
        cfg = ProductionGameConfig(2, BENEFITS[1], 0.25, c, agg)
        hb = cfg.h_bar
        assert cfg.benefit(hb) - c == (cfg.benefit(hb) - 0.25 * hb) + TOL
        rows, prods = (0, 0), (hb, hb)  # the empty network
        assert production_ne_mask(cfg, [rows], [prods])[0, 0] and scalar_is_production_ne(cfg, rows, prods)
        # one ulp cheaper and the link gains more than TOL
        cheaper = ProductionGameConfig(2, BENEFITS[1], 0.25, math.nextafter(c, 0.0), agg)
        assert not production_ne_mask(cheaper, [rows], [prods])[0, 0]
        assert not scalar_is_production_ne(cheaper, rows, prods)


class TestDeviationTable:
    """Agent i's best deviations are one (vector, compact row) table, read through i's merged
    table: scored once per compact row whatever the number of partitions."""

    @pytest.mark.parametrize("agg", list(Aggregation))
    @pytest.mark.parametrize("n", [6, 7])
    def test_many_partitions_match_the_scalar_check(self, n, agg):
        # sparse random rows give each agent 20-40 partitions of the others; trees rooted at
        # agent 0 and a star onto it give equilibria for the vectors where agent 0 or all produce
        cfg = ProductionGameConfig(n, BENEFITS[1], 0.25, 0.2, agg)
        hb, grid = cfg.h_bar, np.array(grid_levels(cfg))
        rng = np.random.default_rng([n, agg is Aggregation.SUM])
        sparse = sum((rng.random((40, n)) < 0.1).astype(np.int64) << b for b in range(n)) & ~(1 << np.arange(n))
        rows = np.concatenate([sparse, rooted_trees(n, 0)[:4], [(0,) + (1,) * (n - 1)]])
        assert min(len(merged_table(n, sparse, i)[0]) for i in range(n)) >= 20
        share = np.full(n, hb / n) if agg is Aggregation.SUM else np.where(np.arange(n) == 0, hb, 0.0)
        prods = np.concatenate([grid[rng.integers(0, len(grid), (2, n))], rng.uniform(0.0, 1.5 * hb, (2, n)),
                                np.zeros((1, n)), [share]])
        assert np.any(assert_mask_matches_scalar(cfg, rows, prods))

    def test_one_score_per_compact_row(self, monkeypatch):
        # the 5-agent SUM candidates: 2,000 sponsored trees leave each agent up to 52 partitions of
        # the others, but a deviation table scores the 16 compact rows once for all of them
        cfg = ProductionGameConfig(5, BENEFITS[1], 0.25, 0.2, Aggregation.SUM)
        scored, aggregate_masks = [], production._aggregate_masks

        def record(agg, prods, masks):
            scored.append(np.size(masks))
            return aggregate_masks(agg, prods, masks)
        monkeypatch.setattr(production, "_aggregate_masks", record)
        rows, prods = production._equilibria(cfg, production._candidates(cfg))
        assert len(rows) == 103500 and max(scored) == 1 << 4


class TestProductScan:
    @pytest.mark.parametrize("agg", list(Aggregation))
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_the_per_profile_check_at_every_cut_edge(self, n, agg):
        # c at exactly k times each cut production +- TOL, where a link's worth ties with its cost:
        # the whole grid up to 2 agents, a random product of rows and vectors from 3 on
        base = ProductionGameConfig(n, BENEFITS[2], 0.3, 0.0, agg)
        levels = grid_levels(base)
        cuts = sorted({0.0, base.h_bar} | set(levels) | {a + b for a in levels for b in levels})
        rng = np.random.default_rng([n, agg is Aggregation.SUM])
        for cut in cuts:
            for c in (0.3 * cut - TOL, 0.3 * cut + TOL):
                if c >= 0.0:
                    cfg = ProductionGameConfig(n, base.benefit, base.k, c, agg)
                    product = production.grid_profiles(cfg) if n <= 2 else random_product(cfg, rng, 6, 6)
                    assert_mask_matches_scalar(cfg, *product)

    def test_grid_profiles_are_the_product_in_index_order(self):
        cfg = ProductionGameConfig(3, BENEFITS[1], 0.25, 0.2, Aggregation.MAX)
        rows, prods = production.grid_profiles(cfg)
        assert rows.tolist() == rows_from_indices(np.arange(64), 3).tolist()
        assert prods.tolist() == [list(p) for p in itertools.product(grid_levels(cfg), repeat=3)]
        assert production_ne_mask(cfg, rows, prods).shape == shape_mask(cfg, rows, prods).shape == (64, 343)


class TestDeduplicatedCheck:
    """The check scores each (partition, vector) and each (own component, vector) of a pass
    on its own, and f once per distinct value of the pass, so a profile's verdict is the
    same whatever the order, repetition or split of the product's rows and vectors."""

    @pytest.mark.parametrize("cost", ["low", "high"])
    @pytest.mark.parametrize("agg", list(Aggregation))
    @pytest.mark.parametrize("f, k, step", [
        (BENEFITS[1], 0.25, None), (BENEFITS[2], 0.3, None), (BenefitFunction.linear(), 1.25, 0.5)])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_every_grid_profile_matches_the_scalar_oracle(self, n, f, k, step, agg, cost):
        hb = production.h_bar(f, k)
        c = 0.4 * k * hb if cost == "low" else 1.5 * k * hb + 0.1
        TestMaskMatchesScalar.check_grid(ProductionGameConfig(n, f, k, c, agg, step))

    @pytest.mark.parametrize("n, agg, products", [
        (2, Aggregation.SUM, "grid"), (3, Aggregation.MAX, "grid"),
        (3, Aggregation.SUM, "grid"), (4, Aggregation.SUM, "candidates")])
    def test_repeats_shuffles_and_splits_keep_the_mask(self, n, agg, products):
        cfg = ProductionGameConfig(n, BENEFITS[1], 0.25, 0.2, agg)
        rows, prods = list(PRODUCTS[products](cfg))[-1]  # the grid, or the trees x splits
        want = production_ne_mask(cfg, rows, prods)
        assert want.any() and not want.all()
        rng = np.random.default_rng(n)
        # rows and vectors shuffled, with repeats, and each split in three
        pick_rows, pick_prods = (rng.integers(0, size, size=2 * size) for size in want.shape)
        row_parts, prod_parts = (np.split(pick, np.sort(rng.choice(np.arange(1, len(pick)), 2, replace=False)))
                                 for pick in (pick_rows, pick_prods))
        got = np.block([[production_ne_mask(cfg, rows[r], prods[p]) for p in prod_parts] for r in row_parts])
        assert got.tolist() == want[np.ix_(pick_rows, pick_prods)].tolist()


class TestShapeCheckers:
    # k * h_bar = 0.75 with h_bar = 3: the first three costs are low, 1.0 is high
    @pytest.mark.parametrize("c", [0.05, 0.2, 0.4, 1.0])
    @pytest.mark.parametrize("agg", list(Aggregation))
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_match_the_mask_off_the_grid(self, n, agg, c):
        cfg = ProductionGameConfig(n, BENEFITS[1], 0.25, c, agg)
        hb = cfg.h_bar
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
        # every case's rows with every case's vector: the two masks on the whole product, the
        # scalar shape on the cases themselves, its diagonal
        rows, prods = [r for r, _ in cases], [p for _, p in cases]
        got = shape_mask(cfg, rows, prods)
        assert got.tolist() == production_ne_mask(cfg, rows, prods).tolist()
        assert np.diagonal(got).tolist() == [scalar_shape(cfg, r, p) for r, p in cases]
        assert np.diagonal(got).any()

    @pytest.mark.parametrize("c", [0.05, 0.2, 0.4, 0.75, 1.0])
    @pytest.mark.parametrize("agg", list(Aggregation))
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_mask_matches_the_scalar_shape_on_every_grid_profile(self, n, agg, c):
        cfg = ProductionGameConfig(n, BENEFITS[1], 0.25, c, agg)
        rows, prods = production.grid_profiles(cfg)
        want = [[scalar_shape(cfg, r, p) for p in prods.tolist()] for r in rows.tolist()]
        assert shape_mask(cfg, rows, prods).tolist() == want

    def test_a_link_cutting_off_exactly_its_cost_minus_tol_is_kept(self):
        # agent 1's link to agent 0 cuts off 2 units: worth k * 2 = 0.5, its cost less TOL
        hb = ProductionGameConfig(2, BENEFITS[1], 0.25, 0.2, Aggregation.SUM).h_bar
        rows, prods = [(0, 1)], [(2.0, hb - 2.0)]
        for c, want in ((0.25 * 2.0 + TOL, True), (math.nextafter(0.25 * 2.0 + TOL, 1.0), False)):
            cfg = ProductionGameConfig(2, BENEFITS[1], 0.25, c, Aggregation.SUM)
            assert shape_mask(cfg, rows, prods).tolist() == [[want]] == [[scalar_shape(cfg, rows[0], prods[0])]]
            assert production_ne_mask(cfg, rows, prods).tolist() == [[want]]

    @pytest.mark.parametrize("agg", list(Aggregation))
    def test_a_game_whose_whole_payoff_is_below_tol_is_refused(self, agg):
        # h_bar ~ 8.7e-11 and f(h_bar) - k h_bar ~ 5e-21: every production ties within TOL, so all
        # 196 grid profiles of the 2-agent game are equilibria of the check, a forest or not, with
        # any number of producers; no characterization holds, and h_bar refuses the game on first use
        assert 0.0 < production.h_bar(BENEFITS[1], 1.0 - 1e-10) < TOL
        for n, c in ((2, 1e-11), (1, 0.0)):
            cfg = ProductionGameConfig(n, BENEFITS[1], 1.0 - 1e-10, c, agg)
            for use in (lambda: cfg.h_bar, lambda: production_equilibria(cfg), lambda: few_sweep(cfg, [2]),
                        lambda: shape_mask(cfg, [(0,) * n], [(0.0,) * n]),
                        lambda: production_ne_mask(cfg, [(0,) * n], [(0.0,) * n])):
                with pytest.raises(ValueError, match="within the tolerance 1e-9: every production level ties"):
                    use()

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_shapes_match_the_check_on_every_knife_edge(self, data):
        # c at k times a cut production that the grid can make (nothing, h_bar, a level, two levels),
        # +- 1 ulp, where the link ties, and 1e-12 inside and outside TOL of it, where the tie ends
        # (exactly at +- TOL the check's own rounding of f and k h, some 1e-16, decides); a game whose
        # stand-alone payoff is within 100 TOL only at 1 agent, where no link tie adds to a production
        # tie (see test_a_link_tie_and_a_production_tie_add_up)
        game = data.draw(games(sizes=(1, 2, 3)).filter(lambda g: g.n_agents == 1 or stand_alone(g) > 100 * TOL))
        levels = grid_levels(game)
        x = game.k * data.draw(st.sampled_from([0.0, game.h_bar] + levels + [a + b for a in levels for b in levels]))
        edges = [math.nextafter(x, -1.0), math.nextafter(x, 1.0 + 2.0 * x)]
        edges += [x + side * TOL * scale for side in (-1, 1) for scale in (0.999, 1.001)]
        cfg = ProductionGameConfig(game.n_agents, game.benefit, game.k,
                                   data.draw(st.sampled_from([c for c in edges if c >= 0.0])), game.agg)
        rows, prods = production.grid_profiles(cfg)
        assert shape_mask(cfg, rows, prods).tolist() == production_ne_mask(cfg, rows, prods).tolist()

    @pytest.mark.parametrize("agg", list(Aggregation))
    def test_production_within_tol_of_the_stand_alone_payoff_is_a_shape(self, agg):
        # h_bar ~ 1.4e-4 and the stand-alone payoff ~ 9.8e-9: producing 5/6 h_bar alone loses
        # about 2.7e-10 of it, a tie that the check keeps, though 5/6 h_bar is h_bar / 6 away
        cfg = ProductionGameConfig(1, BENEFITS[1], 1.0 - 1.4e-4, 1e-6, agg)
        assert TOL < stand_alone(cfg) < 10 * TOL
        rows, prods = production.grid_profiles(cfg)
        got = shape_mask(cfg, rows, prods)
        assert got.tolist() == production_ne_mask(cfg, rows, prods).tolist()
        assert got.tolist() == [[scalar_shape(cfg, r, p) for p in prods.tolist()] for r in rows.tolist()]
        assert got[0, 5] and prods[5, 0] == 5 * cfg.step()

    def test_a_component_past_h_bar_holds_when_no_member_can_drop_enough(self):
        # total 2 h_bar pays more than TOL less than h_bar, but no member can get back to h_bar: producing
        # nothing leaves 4/3 h_bar, which pays less than TOL more than 2 h_bar
        cfg = ProductionGameConfig(3, BENEFITS[0], 1.4426407879035854, 0.0, Aggregation.SUM)
        rows, prods = [(0, 0, 3)], [(4 * cfg.step(),) * 3]
        assert stand_alone(cfg) < 2 * TOL
        want = production_ne_mask(cfg, rows, prods).tolist()
        assert want == [[True]] == shape_mask(cfg, rows, prods).tolist() == [[scalar_shape(cfg, rows[0], prods[0])]]

    @pytest.mark.xfail(strict=True, reason="the shapes take each tie alone: dropping a link that saves c < TOL "
                                           "and producing h_bar, which gains less than TOL, gain more together")
    @pytest.mark.parametrize("agg", list(Aggregation))
    def test_a_link_tie_and_a_production_tie_add_up(self, agg):
        cfg = ProductionGameConfig(2, BENEFITS[0], 1.4425084770589136, 0.999 * TOL, agg)
        hb = cfg.h_bar
        rows, prods = [(0, 1)], [(0.0, hb * 5 / 6)]  # agent 1 links to agent 0, who produces nothing
        assert 10 * TOL < stand_alone(cfg) < 20 * TOL
        assert production_ne_mask(cfg, rows, prods).tolist() == [[False]]
        assert shape_mask(cfg, rows, prods).tolist() == [[False]]

    @pytest.mark.parametrize("agg, c, fraction", [
        (Aggregation.SUM, 1.0, 1.0), (Aggregation.MAX, 0.2, 1 / 16), (Aggregation.SUM, 0.2, 1.0)])
    def test_few_sweep_runs_to_sixteen_agents(self, agg, c, fraction):
        cfg = ProductionGameConfig(2, BENEFITS[1], 0.25, c, agg)
        assert [pt.producer_fraction for pt in few_sweep(cfg, [16])] == [fraction]
        with pytest.raises(ValueError, match="n_agents must be in 1..16"):
            few_sweep(cfg, [17])


def scan(cfg, products):
    """The equilibria that one of the two production scans, named by its products,
    finds at any agent count, as (link rows, productions) tuple pairs."""
    rows, prods = production._equilibria(cfg, PRODUCTS[products](cfg))
    return list(zip(map(tuple, rows.tolist()), map(tuple, prods.tolist())))


class TestEnumeration:
    # passes of 10 * chunk bytes: 10 and 70 leave one vector per pass, 2,500 a few with ragged
    # ends (a vector takes 8 bytes per aggregate term, per gathered deviation and per link row)
    @pytest.mark.parametrize("chunk", [1, 7, 250])
    @pytest.mark.parametrize("n, agg, c, products", [
        (2, Aggregation.SUM, 0.2, "grid"), (2, Aggregation.MAX, 1.0, "grid"), (3, Aggregation.SUM, 0.2, "grid"),
        (3, Aggregation.MAX, 1.0, "grid"), (3, Aggregation.SUM, 0.2, "candidates"),
        (4, Aggregation.MAX, 0.2, "candidates")])
    def test_pass_size_does_not_change_the_list(self, monkeypatch, chunk, n, agg, c, products):
        cfg = ProductionGameConfig(n, BENEFITS[1], 0.25, c, agg)
        want = scan(cfg, products)
        assert want
        monkeypatch.setattr(production, "CHECK_BYTES", 10 * chunk)
        assert scan(cfg, products) == want

    @pytest.mark.parametrize("n, agg, c, products", [
        (2, Aggregation.SUM, 0.2, "grid"), (2, Aggregation.MAX, 1.0, "grid"),
        (3, Aggregation.SUM, 0.2, "candidates"), (3, Aggregation.MAX, 0.2, "candidates")])
    def test_matches_scalar_oracle(self, n, agg, c, products):
        cfg = ProductionGameConfig(n, BENEFITS[0], 0.25 / math.log(2.0), c, agg)
        found = scan(cfg, products)
        assert found and all(scalar_is_production_ne(cfg, r, p) for r, p in found)
        if products == "grid":
            rows, prods = production.grid_profiles(cfg)
            assert sum(scalar_is_production_ne(cfg, r, p) for r in rows.tolist() for p in prods.tolist()) == len(found)

    @pytest.mark.parametrize("c", [0.2, 1.0])  # below and above k h_bar = 0.75
    @pytest.mark.parametrize("agg", list(Aggregation))
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_candidates_are_distinct(self, monkeypatch, n, agg, c):
        cfg = ProductionGameConfig(n, BENEFITS[1], 0.25, c, agg)
        products, count = counted_candidates(monkeypatch, cfg)
        stacked = np.concatenate([np.hstack([np.repeat(r, len(p), axis=0), np.tile(p, (len(r), 1))])
                                  for r, p in products])
        assert len(np.unique(stacked, axis=0)) == len(stacked) == count

    # the cut c = k h_bar, the points TOL/2 from it inside its band, and points outside it
    @pytest.mark.parametrize("scale, tols", [(0.5, 0), (1, -2), (1, -0.5), (1, 0), (1, 0.5), (1, 2), (1.5, 0)])
    @pytest.mark.parametrize("agg", list(Aggregation))
    @pytest.mark.parametrize("n", [2, 3])
    def test_candidates_and_few_sweep_in_the_band(self, n, agg, scale, tols):
        cut = 0.25 * production.h_bar(BENEFITS[1], 0.25)
        cfg = ProductionGameConfig(n, BENEFITS[1], 0.25, scale * cut + tols * TOL, agg)
        side = band(cfg.c, cut)
        grid, candidates = scan(cfg, "grid"), scan(cfg, "candidates")
        assert set(candidates) <= set(grid)
        if side:  # off the band the candidates are every equilibrium
            assert candidates == grid
        # below the band the SUM witness may produce off the grid: 2 TOL / k each at cut - 2 TOL
        if agg is Aggregation.MAX or side >= 0:
            largest = max(sum(p > production.PRODUCER_EPS for p in prods) for _, prods in grid) / n
            assert few_sweep(cfg, [n])[0].producer_fraction == largest

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_splits_are_the_filtered_grid(self, n):
        for step in (None, 0.5, 0.7, 0.3):
            cfg = ProductionGameConfig(n, BENEFITS[1], 0.25, 0.2, Aggregation.SUM, step)
            hb = cfg.h_bar
            want = [p for p in itertools.product(grid_levels(cfg), repeat=n)
                    if abs(sum(p) - hb) <= TOL]
            assert sorted(map(tuple, production._splits(cfg).tolist())) == want


class TestWorkBudget:
    @pytest.fixture
    def never_scan(self, monkeypatch):
        # the builders of every scanned product, and the check
        def refuse(*args, **kwargs):
            raise AssertionError("the scan started")
        for name in ("sponsored_trees", "rooted_trees", "_splits", "rows_from_indices", "production_ne_mask"):
            monkeypatch.setattr(production, name, refuse)

    def test_auto_scans_the_full_grid_up_to_three_agents(self, monkeypatch):
        used = []
        empty = np.zeros((0, 3), dtype=np.int64), np.zeros((0, 3))
        for name, found in (("grid_profiles", empty), ("_candidates", [])):
            monkeypatch.setattr(production, name, lambda cfg, name=name, found=found: used.append(name) or found)
        for n in (3, 4):
            production_equilibria(ProductionGameConfig(n, BENEFITS[1], 0.25, 0.2, Aggregation.SUM))
        assert used == ["grid_profiles", "_candidates"]

    def test_fine_grid_candidates_fail_fast(self, never_scan):
        # 2000 sponsored trees times every split of h_bar into 0.01 steps
        cfg = ProductionGameConfig(5, BENEFITS[1], 0.25, 0.2, Aggregation.SUM, 0.01)
        with pytest.raises(CapExceededError, match="candidates production scan at 5 agents capped at "
                                                   "1048576 profiles: it would check 697763752001 "):
            production_equilibria(cfg)

    def test_six_agent_sum_candidates_fail_fast(self, never_scan):
        cfg = ProductionGameConfig(6, BENEFITS[1], 0.25, 0.2, Aggregation.SUM)
        with pytest.raises(CapExceededError, match="it would check 19160065 profiles"):
            production_equilibria(cfg)

    def test_six_agent_max_candidates_run(self, monkeypatch):
        cfg = ProductionGameConfig(6, BENEFITS[1], 0.25, 0.2, Aggregation.MAX)
        assert counted_candidates(monkeypatch, cfg)[1] == 1 + 6 * 6 ** 4 == 7777
        rows, prods = production_equilibria(cfg)
        # every tree rooted at each of the six producers
        assert len(rows) == 6 * 6 ** 4
        vectors, at = np.unique(prods, axis=0, return_inverse=True)
        assert len(vectors) == 6 and shape_mask(cfg, rows, vectors)[np.arange(len(rows)), at].all()

    def test_fine_grid_full_scan_fails_fast(self, never_scan):
        cfg = ProductionGameConfig(3, BENEFITS[1], 0.25, 0.2, Aggregation.MAX, 1e-6)
        levels = production._grid_top(cfg) + 1
        assert levels == 3000001
        with pytest.raises(CapExceededError, match="full production scan at 3 agents capped at 1048576 "
                                                   f"profiles: it would check {64 * levels ** 3} profiles"):
            production_equilibria(cfg)

    def test_grid_profiles_refuses_a_fine_grid_before_it_builds_anything(self, monkeypatch):
        # verify takes the full grid from grid_profiles itself, not through production_equilibria
        def refuse(*args, **kwargs):
            raise AssertionError("the grid was built")
        for name in ("rows_from_indices", "grid_levels"):
            monkeypatch.setattr(production, name, refuse)
        cfg = ProductionGameConfig(3, BENEFITS[1], 0.25, 0.2, Aggregation.SUM, 1e-3)
        with pytest.raises(CapExceededError, match="full production scan at 3 agents capped at 1048576 "
                                                   f"profiles: it would check {64 * 3001 ** 3} profiles"):
            production.grid_profiles(cfg)

    def test_budget_covers_the_largest_default_scans(self, monkeypatch):
        sum4 = ProductionGameConfig(4, BENEFITS[1], 0.25, 0.2, Aggregation.SUM)
        assert counted_candidates(monkeypatch, sum4)[1] == 1 + 16 * 8 * 84
        sum5 = ProductionGameConfig(5, BENEFITS[1], 0.25, 0.2, Aggregation.SUM)
        assert counted_candidates(monkeypatch, sum5)[1] == 1 + 125 * 16 * 210 <= production.CHECK_BUDGET
        assert 64 * 7 ** 3 <= production.CHECK_BUDGET


class TestWorkingSet:
    """The check holds about ``CHECK_BYTES`` of deviation terms per pass and a bool per
    profile of the product, never a float array over the product; tracemalloc counts what
    numpy allocates."""

    @pytest.mark.parametrize("n, agg, steps, mib", [
        (3, Aggregation.SUM, 24, 4),      # 64 link profiles x 25**3 vectors, about 10**6 profiles
        (7, Aggregation.MAX, None, 40)])  # 117,649 equilibria: the result arrays alone take 12.6 MiB
    def test_enumeration_peak(self, n, agg, steps, mib):
        hb = production.h_bar(BENEFITS[1], 0.25)
        cfg = ProductionGameConfig(n, BENEFITS[1], 0.25, 0.2, agg, steps and hb / steps)
        tracemalloc.start()
        try:
            rows, _ = production_equilibria(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(rows) and peak < mib << 20

    def test_a_fine_grid_deviation_table_holds_a_slice_of_levels(self):
        # 500,001 levels: the whole (amounts, levels) table took about 61 MiB
        cfg = ProductionGameConfig(2, BENEFITS[1], 0.25, 0.2, Aggregation.SUM, 6.0e-6)
        cfg.h_bar  # solved before tracing
        tracemalloc.start()
        try:
            table = production._deviation_table(cfg, np.array([[3.0, 0.0]]), 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table.shape == (1, 2) and peak < 2 << 20

    @pytest.mark.parametrize("agg", list(Aggregation))
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_level_slices_do_not_change_the_table(self, monkeypatch, n, agg):
        rng = np.random.default_rng([n, agg is Aggregation.SUM])
        for step in (None, 0.5, 0.07, 0.013):
            cfg = ProductionGameConfig(n, BENEFITS[1], 0.25, 0.2, agg, step)
            prods = rng.choice(grid_levels(cfg) + [cfg.h_bar, 0.3], size=(9, n))
            monkeypatch.setattr(production, "CHECK_BYTES", 1 << 40)  # every level in one slice
            whole = [production._deviation_table(cfg, prods, i) for i in range(n)]
            for check_bytes in (8, 8 * 7, 8 * 150):  # one level per slice, and ragged last slices
                monkeypatch.setattr(production, "CHECK_BYTES", check_bytes)
                for i in range(n):
                    assert np.array_equal(production._deviation_table(cfg, prods, i), whole[i])
