"""Joint information-production and link-formation game.

Agents choose a nonnegative production level and a set of links. How
individual production levels combine into joint information is fixed by an
aggregation function: SUM treats productions as independent (joint entropy
adds), MAX as fully redundant (any producer's information subsumes the
rest). Agent i pays k per produced bit and c per sponsored link, and enjoys
f(aggregate over its component).

Production levels are continuous. Equilibrium checks therefore scan all link
deviations crossed with a production grid plus the closed-form best
production for each link choice, which covers the continuous axis: for SUM
the inner optimum is max(0, h_bar - acquired), for MAX it is 0 or h_bar.
h_bar, the stand-alone optimal production, solves f'(h) = k.

A profile is a pair of arrays, int64 link rows and float64 production
levels, one entry per agent. One check, :func:`production_ne_mask`, judges a
batch of them, in chunks of about ``CHECK_BYTES``, and drops a profile at
its first agent with a profitable deviation. Agent i's best deviation is
scored for each profile of a chunk: ``kernel.merged_table`` gives i's
component under every compact row, and each production candidate is scored
once per distinct amount a row acquires.
Aggregates are accumulated one agent at a time in ascending order, and f is
evaluated by the scalar :class:`BenefitFunction` on distinct values only, so
every utility is the float of the per-profile oracle under ``tests/``.
Enumerations estimate their checks first and refuse more than ``CHECK_BUDGET``.

The equilibrium shapes of the characterizations are judged a batch at a time
by :func:`shape_mask` on ``kernel.components``: a spanning tree, and for SUM
each link's cut, the component its target keeps without the sponsor's
links. The characterizations assume a strictly positive link cost; with
free links a duplicate-sponsored edge can sit in an equilibrium that they
reject. The knife edge c = k * h_bar is classified with the high-cost
branch.
"""
from __future__ import annotations

import enum
import itertools
import math
import numbers
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .entropy import MAX_AGENTS, TOL
from .formation_game import BenefitFunction
from .kernel import (CHECK_BUDGET, components, compress_row, link_rows, merged_table, profile_indices,
                     require_budget, rows_from_indices, sponsored_tree_count, sponsored_trees)

# working memory of one chunk of production_ne_mask, in bytes
CHECK_BYTES = 1 << 18
PRODUCER_EPS = 1e-12


class Aggregation(enum.Enum):
    SUM = "sum"
    MAX = "max"


@dataclass(frozen=True)
class ProductionGameConfig:
    """Game parameters: benefit f, production cost k > 0, homogeneous link cost c >= 0,
    aggregation mode, and the production grid step used by enumeration."""

    n_agents: int
    benefit: BenefitFunction
    k: float
    c: float
    agg: Aggregation
    grid_step: float | None = None

    def __post_init__(self):
        if isinstance(self.n_agents, bool) or not isinstance(self.n_agents, numbers.Integral):
            raise ValueError(f"n_agents must be an integer, got {self.n_agents!r}")
        object.__setattr__(self, "n_agents", int(self.n_agents))  # so counts like sponsored_tree_count(n) cannot wrap
        if not isinstance(self.agg, Aggregation):
            raise ValueError(f"aggregation must be an Aggregation, got {self.agg!r}")
        if not 1 <= self.n_agents <= MAX_AGENTS:
            raise ValueError(f"n_agents must be in 1..{MAX_AGENTS}")
        if not (math.isfinite(self.k) and self.k > 0):
            raise ValueError("production cost k must be finite and positive")
        if not (math.isfinite(self.c) and self.c >= 0):
            raise ValueError("link cost must be finite and nonnegative")
        if self.grid_step is not None and not (math.isfinite(self.grid_step) and self.grid_step > 0):
            raise ValueError("grid step must be finite and positive")

    def h_bar(self) -> float:
        return self._h_bar

    @cached_property
    def _h_bar(self) -> float:
        # solved on first use, so a game without a finite optimum still constructs
        return h_bar(self.benefit, self.k)

    def step(self) -> float:
        if self.grid_step is not None:
            return self.grid_step
        hb = self.h_bar()
        if hb <= 0:
            raise ValueError("degenerate game: stand-alone optimum is zero, set grid_step explicitly")
        return hb / 6.0

    def high_cost(self) -> bool:
        """True when the link cost is at or above k * h_bar (empty-network regime)."""
        return self.c >= self.k * self.h_bar()


def h_bar(f: BenefitFunction, k: float) -> float:
    """Stand-alone optimal production: the root of f'(h) = k, to 1e-10.

    Returns 0 when k >= f'(0). Raises when k <= 0 or when f' never falls
    below k (a linear benefit with k < 1 has no finite optimum).
    """
    if not k > 0:
        raise ValueError("production cost k must be positive")
    if f.deriv(0.0) <= k:
        return 0.0
    hi = 1.0
    for _ in range(200):
        if f.deriv(hi) < k:
            break
        hi *= 2.0
    else:
        raise ValueError("benefit derivative never falls below k; no finite optimum")
    lo = 0.0
    while hi - lo > 1e-10:
        mid = (lo + hi) / 2.0
        if f.deriv(mid) > k:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def _grid_top(cfg: ProductionGameConfig) -> int:
    """Index of the last grid level, the first multiple of the step at or above h_bar."""
    hb = cfg.h_bar()
    if hb <= 0 and cfg.grid_step is None:
        return 0  # producing anything already costs more than it earns
    return math.ceil(hb / cfg.step() - 1e-12)


def grid_levels(cfg: ProductionGameConfig) -> list[float]:
    """Production levels 0, step, 2 step, ... up to the first one at or above h_bar."""
    top = _grid_top(cfg)
    if not top:
        return [0.0]
    step = cfg.step()
    return [m * step for m in range(top + 1)]


def _aggregate_masks(agg: Aggregation, prods: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """Joint information of every entry of ``masks``, row b over the productions ``prods[b]``: the
    members' sum (SUM), added one agent at a time in ascending order, or maximum (MAX)."""
    n = prods.shape[1]
    member = masks[..., None] >> np.arange(n) & 1
    terms = np.where(member, prods.reshape((len(prods),) + (1,) * (masks.ndim - 1) + (n,)), 0.0)
    if agg is Aggregation.SUM:
        return np.add.accumulate(terms, axis=-1)[..., -1]
    return terms.max(axis=-1)


def _chunk_profiles(cfg: ProductionGameConfig) -> int:
    """Profiles per ``CHECK_BYTES``: a profile takes about three float64 (compact rows, agents) arrays."""
    return max(1, CHECK_BYTES // (24 * cfg.n_agents << (cfg.n_agents - 1)))


def _profile_arrays(cfg: ProductionGameConfig, rows, prods) -> tuple[np.ndarray, np.ndarray]:
    """A batch of (links, productions) profiles as int64 and float64 arrays of shape
    (batch, n), refused unless every row is a profile of the game."""
    rows = link_rows(cfg.n_agents, rows)
    prods = np.asarray(prods)
    if prods.shape != rows.shape:
        raise ValueError("profile size does not match the game")
    # the dtype is judged before the cast, which would parse strings; ints past int64 make an object array
    if prods.dtype.kind not in "biuf" or not (np.isfinite(prods) & (prods >= 0)).all():
        raise ValueError("production levels must be finite and nonnegative")
    return rows, prods.astype(np.float64, copy=False)


def production_ne_mask(cfg: ProductionGameConfig, rows, prods) -> np.ndarray:
    """Which profiles of a batch are equilibria: no unilateral (links, production)
    deviation gains more than 1e-9.

    ``rows`` holds link rows and ``prods`` production levels, both of shape
    (batch, n). Deviations range over every link vector crossed with the
    production grid, h_bar, and for SUM the closed-form best production
    max(0, h_bar - acquired) for the deviated links. Returns a bool array of
    length batch.
    """
    n = cfg.n_agents
    rows, prods = _profile_arrays(cfg, rows, prods)
    f, k, c, hb = cfg.benefit, cfg.k, cfg.c, cfg.h_bar()
    is_sum = cfg.agg is Aggregation.SUM
    levels = np.array(grid_levels(cfg) + [hb])
    n_links = sum(np.arange(1 << n) >> b & 1 for b in range(n))  # per row mask
    link_cost = c * n_links[:1 << (n - 1)]

    def deviates(rows, prods, i):
        """Per profile: can agent i gain more than TOL by a (links, production) deviation?"""
        table, part = merged_table(n, rows, i)
        own = table[part, compress_row(rows[:, i], i)]
        merged = table[part]  # i's component under every compact row, per profile (unsigned)
        # each production candidate is scored once per distinct amount that a row acquires
        acquired = _aggregate_masks(cfg.agg, prods, merged & (((1 << n) - 1) ^ (1 << i)))
        acquired, at = np.unique(acquired, return_inverse=True)
        acquired = acquired[:, None]
        h = np.empty((len(acquired), len(levels) + is_sum))
        h[:, :len(levels)] = levels
        if is_sum:
            h[:, -1:] = np.maximum(0.0, hb - acquired)
        gained = acquired + h if is_sum else np.maximum(acquired, h)
        # f by the scalar BenefitFunction, once per distinct value: numpy's log1p and
        # power differ from math's in the last bit on some inputs
        info = _aggregate_masks(cfg.agg, prods, own)
        values, inverse = np.unique(np.concatenate([info, gained.ravel()]), return_inverse=True)
        fv = np.array([f(v) for v in values.tolist()])[inverse]
        current = fv[:len(rows)] - k * prods[:, i] - c * n_links[rows[:, i]]
        # a row's link cost is subtracted after the max over its candidates: rounding
        # is monotone, so the best utility is the same float
        best = (fv[len(rows):].reshape(h.shape) - k * h).max(axis=1)[at.reshape(merged.shape)] - link_cost
        return best.max(axis=1) > current + TOL

    per = _chunk_profiles(cfg)
    ne = np.zeros(len(rows), dtype=bool)
    for start in range(0, len(rows), per):
        alive = np.arange(start, min(start + per, len(rows)))
        for i in range(n):
            # a profile leaves at its first agent with a profitable deviation
            alive = alive[~deviates(rows[alive], prods[alive], i)]
            if not len(alive):
                break
        ne[alive] = True
    return ne


def is_production_ne(cfg: ProductionGameConfig, rows, prods) -> bool:
    """True when no unilateral (links, production) deviation from one profile's link
    rows and productions gains more than 1e-9: :func:`production_ne_mask` of the batch of one."""
    return bool(production_ne_mask(cfg, [rows], [prods])[0])


# -- equilibrium-shape characterizations --------------------------------------

def shape_mask(cfg: ProductionGameConfig, rows, prods) -> np.ndarray:
    """Which profiles of a batch have an equilibrium shape of the characterizations.

    High cost (c >= k h_bar): the unique equilibrium is the empty network
    with every agent producing h_bar. Low cost: the network is one spanning
    tree with single-sponsored edges, and
    - under SUM, total production equals h_bar and every sponsored link is
      worth keeping: c <= k * (production of its cut);
    - under MAX, exactly one agent produces h_bar, the rest zero, and every
      non-producer sponsors exactly one link.

    ``rows`` and ``prods`` are as in :func:`production_ne_mask`. A cut of
    link i -> j is j's component with i's links removed, and its production
    is added in ascending agent order. Returns a bool array of length batch.
    """
    rows, prods = _profile_arrays(cfg, rows, prods)
    n, hb = cfg.n_agents, cfg.h_bar()
    at_hb = np.abs(prods - hb) <= TOL
    if cfg.high_cost():
        return (rows == 0).all(axis=1) & at_hb.all(axis=1)
    if n == 1:  # at h_bar, even one below PRODUCER_EPS
        return at_hb[:, 0]
    # n - 1 links that connect everyone: a spanning tree, each edge sponsored once
    links = (rows[:, :, None] >> np.arange(n) & 1).sum(axis=(1, 2))
    ok = (links == n - 1) & (components(rows)[0] == (1 << n) - 1)
    if cfg.agg is Aggregation.SUM:
        ok &= np.abs(_aggregate_masks(cfg.agg, prods, np.full(len(rows), (1 << n) - 1)) - hb) <= TOL
        for i in range(n):
            # without i's links each target j keeps the subtree that the link i -> j reaches
            others = rows.copy()
            others[:, i] = 0
            cut = _aggregate_masks(cfg.agg, prods, components(others).T)
            linked = (rows[:, i, None] >> np.arange(n) & 1).astype(bool)
            ok &= ~(linked & (cfg.c > cfg.k * cut + TOL)).any(axis=1)
        return ok
    producer = prods > PRODUCER_EPS
    one_link = (rows != 0) & (rows & (rows - 1) == 0)
    return ok & (producer.sum(axis=1) == 1) & (producer & at_hb).any(axis=1) & (producer | one_link).all(axis=1)


# -- enumeration ---------------------------------------------------------------

def _compositions(total: int, parts: int, top: int):
    """Vectors of ``parts`` integers in [0, top] adding up to ``total``, lexicographic."""
    if parts == 1:
        if total <= top:
            yield (total,)
        return
    for first in range(max(0, total - top * (parts - 1)), min(top, total) + 1):
        for rest in _compositions(total - first, parts - 1, top):
            yield (first,) + rest


def _composition_count(total: int, parts: int, top: int) -> int:
    """Number of :func:`_compositions`, by inclusion-exclusion over parts above ``top``."""
    return sum((-1) ** j * math.comb(parts, j) * math.comb(total - j * (top + 1) + parts - 1, parts - 1)
               for j in range(parts + 1) if total - j * (top + 1) >= 0)


def _split_totals(cfg: ProductionGameConfig):
    """Step counts t with t * step near h_bar: every grid vector whose production adds
    up to h_bar within TOL has one of them as its sum of step counts."""
    hb, step = cfg.h_bar(), cfg.step()
    slack = TOL + 1e-12 * (1.0 + hb)  # covers the rounding of the grid values and their sum
    for t in range(max(0, math.floor((hb - slack) / step)), math.ceil((hb + slack) / step) + 1):
        if abs(t * step - hb) <= slack:
            yield t


def _splits(cfg: ProductionGameConfig) -> np.ndarray:
    """Grid production vectors adding up to h_bar within TOL, shape (splits, n)."""
    n, hb = cfg.n_agents, cfg.h_bar()
    grid = grid_levels(cfg)
    out = []
    for t in _split_totals(cfg):
        for m in _compositions(t, n, len(grid) - 1):
            p = tuple(grid[x] for x in m)
            if abs(sum(p) - hb) <= TOL:
                out.append(p)
    return np.array(out, dtype=np.float64).reshape(-1, n)


def _candidate_count(cfg: ProductionGameConfig) -> int:
    """Profiles the candidate scan checks, at most: the empty network plus
    trees x orientations x splits (SUM) or producers x trees (MAX)."""
    n = cfg.n_agents
    if cfg.high_cost() or n < 2:
        return 1
    if cfg.agg is Aggregation.MAX:
        return 1 + n ** (n - 1)  # labelled trees, each rooted at one of its n agents
    checks, top = 1, _grid_top(cfg)
    for t in _split_totals(cfg):
        checks += sponsored_tree_count(n) * _composition_count(t, n, top)
        if checks > CHECK_BUDGET:
            break  # over budget already, the rest of the count changes nothing
    return checks


def _cross_batches(cfg: ProductionGameConfig, rows: np.ndarray, prods: np.ndarray):
    """Every link row of ``rows`` crossed with every production vector of ``prods``,
    link rows major, as (rows, prods) batches of about one check chunk."""
    if not len(prods):
        return
    per = max(1, _chunk_profiles(cfg) // len(prods))
    for start in range(0, len(rows), per):
        block = rows[start:start + per]
        yield np.repeat(block, len(prods), axis=0), np.tile(prods, (len(block), 1))


def grid_batches(cfg: ProductionGameConfig):
    """Every link profile crossed with every grid production vector, as (rows, prods)
    array batches in link-index order."""
    n = cfg.n_agents
    rows = rows_from_indices(np.arange(1 << (n * (n - 1)), dtype=np.int64), n)
    prods = np.array(list(itertools.product(grid_levels(cfg), repeat=n)))
    return _cross_batches(cfg, rows, prods)


def _candidate_batches(cfg: ProductionGameConfig):
    """The characterizations' shapes: the empty network at h_bar; every sponsored
    spanning tree with every split of h_bar (SUM); every tree rooted at a single
    producer of h_bar (MAX). Each profile is generated once."""
    n, hb = cfg.n_agents, cfg.h_bar()
    yield np.zeros((1, n), dtype=np.int64), np.full((1, n), hb)
    if cfg.high_cost() or n < 2:
        return
    trees = sponsored_trees(tuple(range(n)), n)
    if cfg.agg is Aggregation.SUM:
        yield from _cross_batches(cfg, trees, _splits(cfg))
        return
    sponsors = trees != 0
    for producer in range(n):
        # in a tree, the producer sponsoring nothing and everyone else a link is
        # exactly the orientation toward the producer
        rooted = ~sponsors[:, producer] & (sponsors.sum(axis=1) == n - 1)
        prods = np.where(np.arange(n) == producer, hb, 0.0)[None, :]
        yield from _cross_batches(cfg, trees[rooted], prods)


def production_equilibria(cfg: ProductionGameConfig) -> tuple[np.ndarray, np.ndarray]:
    """Grid equilibria of the production game as int64 link rows and float64
    productions, both (found, n), ordered by link profile index, then production vector.

    Up to 3 agents every link profile is crossed with every grid production
    vector. Past that only the characterizations' equilibrium shapes are
    generated (empty network at full production; production splits on
    spanning trees for SUM; single producers on rooted trees for MAX), and
    the ones that verify are kept. Either way the number of profiles to
    check is counted first, and a scan of more than ``CHECK_BUDGET`` raises
    :class:`~infogame.kernel.CapExceededError`.
    """
    n = cfg.n_agents
    if n <= 3:
        require_budget((1 << (n * (n - 1))) * (_grid_top(cfg) + 1) ** n,
                       f"full production scan at {n} agents", "profiles")
        return _equilibria(cfg, grid_batches(cfg))
    require_budget(_candidate_count(cfg), f"candidates production scan at {n} agents", "profiles")
    return _equilibria(cfg, _candidate_batches(cfg))


def _equilibria(cfg: ProductionGameConfig, batches) -> tuple[np.ndarray, np.ndarray]:
    """The (rows, prods) of the ``batches`` that are equilibria, ordered by link
    profile index, then production vector."""
    n = cfg.n_agents
    rows, prods = [np.empty((0, n), dtype=np.int64)], [np.empty((0, n))]
    for r, p in batches:
        keep = production_ne_mask(cfg, r, p)
        rows.append(r[keep])
        prods.append(p[keep])
    rows, prods = np.concatenate(rows), np.concatenate(prods)
    # lexsort's last key is the primary one
    order = np.lexsort((*prods.T[::-1], profile_indices(rows)))
    return rows[order], prods[order]


# -- law-of-the-few metrics ------------------------------------------------------

@dataclass(frozen=True)
class FewSweepPoint:
    n: int
    agg: Aggregation
    c: float
    k: float
    h_bar: float
    producer_fraction: float
    total_information_bits: float


def few_sweep(cfg: ProductionGameConfig, n_list) -> list[FewSweepPoint]:
    """Producer fraction and total information across network sizes.

    High cost: the unique equilibrium has everyone producing h_bar. Low cost
    under MAX: every equilibrium has exactly one producer, so the supremum
    fraction is 1/n; the star witness onto the producer is verified. Low
    cost under SUM: a periphery-sponsored star in which everyone produces a
    positive share of h_bar is verified, certifying a supremum fraction of 1.
    A witness that fails verification raises, since the witnesses are the
    characterizations' own constructions.
    """
    out = []
    for n in n_list:
        point_cfg = replace(cfg, n_agents=n)  # refuses a non-integral n
        n, hb = point_cfg.n_agents, point_cfg.h_bar()
        star = (0,) + (1,) * (n - 1)  # everyone else sponsors a link to agent 0
        if point_cfg.high_cost() or n == 1:
            rows, prods = (0,) * n, (hb,) * n
        elif point_cfg.agg is Aggregation.MAX:
            rows, prods = star, (hb,) + (0.0,) * (n - 1)
        else:
            share = min(hb / n, hb - point_cfg.c / point_cfg.k)
            rows, prods = star, (hb - (n - 1) * share,) + (share,) * (n - 1)
        if not is_production_ne(point_cfg, rows, prods):
            raise RuntimeError(
                f"witness profile failed equilibrium verification at n={n}; "
                "the characterization shapes and the game disagree")
        total = _aggregate_masks(point_cfg.agg, np.array([prods]), np.array([(1 << n) - 1]))
        # the witness's own fraction is the supremum: the high-cost
        # equilibrium is unique, every MAX equilibrium has exactly one
        # producer, and no fraction can exceed the SUM witness's 1
        out.append(FewSweepPoint(
            n=n,
            agg=point_cfg.agg,
            c=point_cfg.c,
            k=point_cfg.k,
            h_bar=hb,
            producer_fraction=sum(p > PRODUCER_EPS for p in prods) / n,
            total_information_bits=float(total[0]),
        ))
    return out
