"""Joint information-production and link-formation game.

Agents choose a nonnegative production level and a set of links. How
individual production levels combine into joint information is fixed by an
aggregation function: SUM treats productions as independent (joint entropy
adds), MAX as fully redundant (any producer's information subsumes the
rest). Agent i pays k per produced bit and c per sponsored link, and enjoys
f(aggregate over its component).

Production levels are continuous and f is concave, so once a deviation's
links are fixed its best production has a closed form: for SUM the inner
optimum is max(0, h_bar - acquired), for MAX it is 0 or h_bar. Equilibrium
checks score every link deviation at those levels alone and read no grid.
h_bar, the stand-alone optimal production, solves f'(h) = k. A game whose
stand-alone payoff f(h_bar) - k h_bar is positive but at most TOL is outside
the model (every production ties), and h_bar refuses it.

A profile is an int64 link row with a float64 production vector, and every
set of profiles judged is a product: :func:`production_ne_mask` takes link
rows (R, n) and production vectors (V, n) and judges all R x V profiles.
The full grid is :func:`grid_profiles`; the candidates are sponsored trees
with the splits of h_bar (SUM) or trees rooted at a producer with its one
vector (MAX); a single profile is the 1 x 1 product. Agent i's best
production deviations are a table per vector over its compact rows, read
through ``kernel.merged_table`` (a row per partition of the others) as the
link game reads ``fh``, in blocks of vectors whose arrays fit in
``CHECK_BYTES``; i's current utility is scored once per (own component,
vector). Each production candidate is scored once per distinct amount a row
acquires, aggregates are added one agent at a time in ascending order, and f
is the scalar :class:`BenefitFunction` on distinct values, so every utility
is the float of the per-profile oracle under ``tests/``. Only the profile
builders read the production grid, and each counts its work first and
refuses more than ``CHECK_BUDGET``: :func:`grid_profiles`, ``_candidates``,
and ``_level_count`` the grid's levels.

:func:`shape_mask` judges the characterizations' shapes on the same
products with ``kernel.components``, in payoff terms, taking each tie that
TOL makes as the check does.
"""
from __future__ import annotations

import enum
import itertools
import math
import numbers
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .entropy import MAX_AGENTS, TOL, band
from .formation_game import BenefitFunction
from .kernel import (CHECK_BUDGET, components, compress_row, distinct, expand_row, link_rows, merged_table,
                     profile_indices, require_budget, rooted_trees, rows_from_indices, sponsored_tree_count,
                     sponsored_trees)

# bytes that each array of one production_ne_mask pass may take
CHECK_BYTES = 1 << 16
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

    @cached_property
    def h_bar(self) -> float:
        # the module's h_bar, solved on first use, so a game without a finite optimum still constructs
        hb = h_bar(self.benefit, self.k)
        if hb > 0 and self.benefit(hb) - self.k * hb <= TOL:
            raise ValueError("the stand-alone payoff is within the tolerance 1e-9: every production level ties")
        return hb

    def step(self) -> float:
        if self.grid_step is not None:
            return self.grid_step
        hb = self.h_bar
        if hb <= 0:
            raise ValueError("degenerate game: stand-alone optimum is zero, set grid_step explicitly")
        return hb / 6.0


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
    hb = cfg.h_bar
    if hb <= 0 and cfg.grid_step is None:
        return 0  # producing anything already costs more than it earns
    return math.ceil(min(hb / cfg.step(), 2.0 ** 62) - 1e-12)  # capped: an overflow reads as over budget


def grid_levels(cfg: ProductionGameConfig) -> list[float]:
    """Production levels 0, step, 2 step, ... up to the first one at or above h_bar."""
    return [m * cfg.step() if m else 0.0 for m in range(_level_count(cfg))]


def _level_count(cfg: ProductionGameConfig) -> int:
    """Levels of :func:`grid_levels`, the production grid of the profile builders, refused past ``CHECK_BUDGET``."""
    top = _grid_top(cfg)
    require_budget(top + 1, f"production grid at {cfg.n_agents} agents", "levels")
    return top + 1


def _aggregate_masks(agg: Aggregation, prods: np.ndarray, masks) -> np.ndarray:
    """Joint information of the members of every mask over the productions ``prods`` (..., n), the
    two broadcast as ``masks[..., None]`` against ``prods``: the members' sum (SUM), added one agent
    at a time in ascending order, or maximum (MAX)."""
    terms = np.where(np.asarray(masks)[..., None] >> np.arange(prods.shape[-1]) & 1, prods, 0.0)
    if agg is Aggregation.SUM:
        return np.add.accumulate(terms, axis=-1)[..., -1]
    return terms.max(axis=-1)


def _benefits(cfg: ProductionGameConfig, x: np.ndarray) -> np.ndarray:
    """f of every entry of ``x``, once per distinct value, by the scalar BenefitFunction: numpy's
    log1p and power differ from math's in the last bit on some inputs."""
    bits, inverse = distinct(x.reshape(-1).view(np.int64))[::2]
    return np.array([cfg.benefit(v) for v in bits.view(np.float64).tolist()])[inverse].reshape(x.shape)


def _link_counts(n: int) -> np.ndarray:
    """Links of every n-bit row mask, int64."""
    return sum(np.arange(1 << n) >> b & 1 for b in range(n))


def _deviation_table(cfg: ProductionGameConfig, prods: np.ndarray, i: int) -> np.ndarray:
    """Agent i's best utility over all production deviations, before link costs, when it joins the others
    of each compact row: a (V, 2**(n-1)) table over the vectors ``prods`` (V, n), read as ``fh`` is."""
    n, hb, is_sum = cfg.n_agents, cfg.h_bar, cfg.agg is Aggregation.SUM
    others = expand_row(np.arange(1 << (n - 1), dtype=np.min_scalar_type((1 << n) - 1)), i)
    # each production candidate is scored once per distinct amount that a row acquires
    bits, _, at = distinct(_aggregate_masks(cfg.agg, prods[:, None, :], others).reshape(-1).view(np.int64))
    amounts = bits.view(np.float64)
    # productions 0, h_bar and, under SUM, max(0, h_bar - a): f is concave, so one is the best given amount a
    h = np.zeros((len(amounts), 2 + is_sum))
    h[:, 1] = hb
    if is_sum:
        h[:, 2] = np.maximum(0.0, hb - amounts)
    gained = amounts[:, None] + h if is_sum else np.maximum(amounts[:, None], h)
    return (_benefits(cfg, gained) - cfg.k * h).max(axis=1)[at.reshape(len(prods), -1)]


def _profile_arrays(cfg: ProductionGameConfig, rows, prods) -> tuple[np.ndarray, np.ndarray]:
    """Link rows (R, n) and production vectors (V, n) as int64 and float64 arrays,
    refused unless every row and every vector is one of the game."""
    rows = link_rows(cfg.n_agents, rows)
    prods = np.asarray(prods)
    if prods.ndim != 2 or prods.shape[1] != cfg.n_agents:
        raise ValueError("profile size does not match the game")
    # the dtype is judged before the cast, which would parse strings; ints past int64 make an object array
    if prods.dtype.kind not in "biuf" or not (np.isfinite(prods) & (prods >= 0)).all():
        raise ValueError("production levels must be finite and nonnegative")
    return rows, prods.astype(np.float64, copy=False)


def production_ne_mask(cfg: ProductionGameConfig, rows, prods) -> np.ndarray:
    """Which profiles of a product are equilibria: no unilateral (links, production)
    deviation gains more than ``TOL``.

    ``rows`` holds link rows (R, n) and ``prods`` production vectors (V, n);
    entry [r, v] of the bool (R, V) result judges link row r played with
    production vector v. Deviations range over every link vector, each
    with its best production in closed form: 0 or h_bar (MAX), and for SUM
    also max(0, h_bar - acquired) for the deviated links. No grid is read.
    """
    n, k = cfg.n_agents, cfg.k
    rows, prods = _profile_arrays(cfg, rows, prods)
    ne = np.ones((len(rows), len(prods)), dtype=bool)
    if not ne.size:
        return ne
    costs = cfg.c * _link_counts(n)[:1 << (n - 1)]  # of every compact row
    for i in range(n):
        table, part = merged_table(n, rows, i)
        compact, joined = compress_row(rows[:, i], i), compress_row(table, i)
        own, _, at = distinct(table[part, compact].astype(np.int64))
        # vectors of one pass: their aggregate terms, gathered deviations and current utilities
        per = max(1, CHECK_BYTES // (8 * max(n << (n - 1), joined.size, len(rows))))
        for s in range(0, len(prods), per):
            p = prods[s:s + per]
            best = _deviation_table(cfg, p, i)[:, joined]
            # a row's link cost is subtracted after the max over its candidates: rounding
            # is monotone, so the best utility is the same float
            best -= costs
            best = best.max(axis=-1).T  # drops the gathered table before the next pass
            # ((f - k p_i) - c links) + TOL, the float order of the per-profile oracle
            current = (_benefits(cfg, _aggregate_masks(cfg.agg, p[:, None, :], own)) - k * p[:, i, None]).T[at]
            current -= costs[compact, None]
            current += TOL
            ne[:, s:s + per] &= ~(best[part] > current)
    return ne


def grid_profiles(cfg: ProductionGameConfig) -> tuple[np.ndarray, np.ndarray]:
    """The full grid's factors: every link profile in index order and every grid production
    vector in lexicographic order, refused when their product has more than ``CHECK_BUDGET`` profiles."""
    n = cfg.n_agents
    require_budget((1 << (n * (n - 1))) * (_grid_top(cfg) + 1) ** n, f"full production scan at {n} agents", "profiles")
    return (rows_from_indices(np.arange(1 << (n * (n - 1)), dtype=np.int64), n),
            np.array(list(itertools.product(grid_levels(cfg), repeat=n))))


# -- equilibrium-shape characterizations --------------------------------------

def shape_mask(cfg: ProductionGameConfig, rows, prods) -> np.ndarray:
    """Which profiles of a batch have an equilibrium shape of the characterizations.

    Every component holds h_bar: no member gains more than TOL by moving its
    total (SUM) or its one producer's level (MAX) to h_bar, or as near as its
    own production lets. There is one component when c < k h_bar - TOL, every
    agent is alone when c > k h_bar + TOL, and any number in between. No agent
    gains more than TOL by dropping links: each saves c and loses the parts of
    the rest of the network that only they reach, to be re-produced (SUM: their
    production; MAX: h_bar, if they hold the producer and the agent is not it).
    ``rows`` and ``prods`` are as in :func:`production_ne_mask`, and so is the
    bool (R, V) result.
    """
    rows, prods = _profile_arrays(cfg, rows, prods)
    # 16 link rows at a time keeps the drop gains, a float per profile, small
    return np.concatenate([np.zeros((0, len(prods)), dtype=bool)]
                          + [_shapes(cfg, rows[s:s + 16, None], prods[None]) for s in range(0, len(rows), 16)])


def _shapes(cfg: ProductionGameConfig, rows: np.ndarray, prods: np.ndarray) -> np.ndarray:
    """The shape test of rows (..., n) against productions (..., n), leading axes broadcast."""
    n, hb, c, k = cfg.n_agents, cfg.h_bar, cfg.c, cfg.k
    lead, flat, producer = rows.shape[:-1], rows.reshape(-1, rows.shape[-1]), prods > PRODUCER_EPS
    comp = components(flat)
    parts = ((comp & -comp) == 1 << np.arange(n)[:, None].astype(comp.dtype)).sum(axis=0).reshape(lead)
    # one component below the band of c = k h_bar, any number inside it (a link to a producer of
    # h_bar ties with producing it), every agent alone above it
    ok = (parts == 1, parts > 0, parts == n)[band(c, k * hb) + 1]
    def payoff(x):  # of holding x, net of producing it
        return _benefits(cfg, x) - k * x
    for mask in sorted(set(comp.ravel().tolist())):  # each component holds h_bar: SUM in all, MAX in one producer
        member = mask >> np.arange(n) & 1 == 1
        if cfg.agg is Aggregation.SUM:  # to h_bar, or as near as dropping a member's share gets
            total = _aggregate_masks(cfg.agg, prods, mask)
            nearest = np.maximum(hb, total - _aggregate_masks(Aggregation.MAX, prods, mask))
            holds = payoff(nearest) - payoff(total) <= TOL
        else:
            inside = producer & member
            holds = (inside.sum(axis=-1) == 1) & ~(inside & ((cfg.benefit(hb) - k * hb) - payoff(prods) > TOL)).any(-1)
        ok = ok & ~((comp == mask).any(axis=0).reshape(lead) & ~holds)
    n_links = _link_counts(n)
    for i in range(n):
        others = flat.copy()
        others[:, i] = 0
        reach = np.where(flat[:, i, None] >> np.arange(n) & 1, components(others).T, 0)
        reach[reach >> i & 1 == 1] = 0  # a link into the part that reaches i anyway loses nothing
        gain = c * n_links[flat[:, i]].reshape(lead)
        for part in sorted(set(reach[reach != 0].tolist())):
            if cfg.agg is Aggregation.SUM:
                lost = k * _aggregate_masks(cfg.agg, prods, part)
            else:
                lost = k * hb * ((producer & (part >> np.arange(n) & 1 == 1)).any(axis=-1) & ~producer[..., i])
            gain = gain - (reach == part).any(axis=1).reshape(lead) * np.minimum(c, lost)
        ok = ok & (gain <= TOL)
    return ok


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
    hb, step = cfg.h_bar, cfg.step()
    slack = TOL + 1e-12 * (1.0 + hb)  # covers the rounding of the grid values and their sum
    low, high = (min(x / step, 2.0 ** 62) for x in (hb - slack, hb + slack))  # capped as _grid_top caps
    for t in range(max(0, math.floor(low)), math.ceil(high) + 1):
        if abs(t * step - hb) <= slack:
            yield t


def _splits(cfg: ProductionGameConfig) -> np.ndarray:
    """Grid production vectors adding up to h_bar within TOL, shape (splits, n)."""
    n, hb = cfg.n_agents, cfg.h_bar
    grid = grid_levels(cfg)
    out = []
    for t in _split_totals(cfg):
        for m in _compositions(t, n, len(grid) - 1):
            p = tuple(grid[x] for x in m)
            if abs(sum(p) - hb) <= TOL:
                out.append(p)
    return np.array(out, dtype=np.float64).reshape(-1, n)


def _candidates(cfg: ProductionGameConfig):
    """The characterizations' shapes as (link rows, production vectors) products: the empty
    network at h_bar; every sponsored spanning tree with every split of h_bar (SUM); for each
    producer of h_bar, every tree rooted at it (MAX). Each profile is generated once, and the
    profiles are counted before the first: more than ``CHECK_BUDGET`` raises."""
    n, hb = cfg.n_agents, cfg.h_bar
    shapes, count = band(cfg.c, cfg.k * hb) <= 0 and n > 1, 1  # else the empty network alone
    if shapes and cfg.agg is Aggregation.MAX:
        count += n ** (n - 1)  # labelled trees, each rooted at one of its n agents
    elif shapes:
        top = _level_count(cfg) - 1  # refuses a grid too fine to build before the first candidate
        for t in _split_totals(cfg):  # trees x orientations x splits
            count += sponsored_tree_count(n) * _composition_count(t, n, top)
            if count > CHECK_BUDGET:
                break  # over budget already, the rest of the count changes nothing
    require_budget(count, f"candidates production scan at {n} agents", "profiles")
    yield np.zeros((1, n), dtype=np.int64), np.full((1, n), hb)
    if not shapes:
        return
    if cfg.agg is Aggregation.SUM:
        yield sponsored_trees(tuple(range(n)), n), _splits(cfg)
        return
    for producer in range(n):
        yield rooted_trees(n, producer), np.where(np.arange(n) == producer, hb, 0.0)[None, :]


def production_equilibria(cfg: ProductionGameConfig) -> tuple[np.ndarray, np.ndarray]:
    """Grid equilibria of the production game as int64 link rows and float64
    productions, both (found, n), ordered by link profile index, then production vector.

    Up to 3 agents every link profile is crossed with every grid production
    vector. Past that only the characterizations' equilibrium shapes are
    generated (empty network at full production; production splits on
    spanning trees for SUM; single producers on rooted trees for MAX), and
    the ones that verify are kept. Either way the function that builds the
    profiles counts them first, and a scan of more than ``CHECK_BUDGET``
    raises :class:`~infogame.kernel.CapExceededError`.
    """
    return _equilibria(cfg, [grid_profiles(cfg)] if cfg.n_agents <= 3 else _candidates(cfg))


def _equilibria(cfg: ProductionGameConfig, products) -> tuple[np.ndarray, np.ndarray]:
    """The equilibria of the (link rows, production vectors) ``products`` as (rows, prods),
    ordered by link profile index, then production vector."""
    n = cfg.n_agents
    rows, prods = [np.empty((0, n), dtype=np.int64)], [np.empty((0, n))]
    for r, p in products:
        at, level = np.nonzero(production_ne_mask(cfg, r, p))
        rows.append(r[at])
        prods.append(p[level])
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

    Unless c is below k h_bar by more than TOL (``entropy.band``), the empty
    network with everyone producing h_bar is verified: fraction 1, unique
    above the band. Below it under MAX every equilibrium has exactly one
    producer, so the supremum fraction is 1/n; the star witness onto the
    producer is verified. Below it under SUM a periphery-sponsored star in
    which everyone produces a positive share of h_bar is verified, certifying
    a supremum fraction of 1.
    A witness that fails verification raises, since the witnesses are the
    characterizations' own constructions.
    """
    out = []
    for n in n_list:
        point_cfg = replace(cfg, n_agents=n)  # refuses a non-integral n
        n, hb = point_cfg.n_agents, point_cfg.h_bar
        star = (0,) + (1,) * (n - 1)  # everyone else sponsors a link to agent 0
        if band(point_cfg.c, point_cfg.k * hb) >= 0 or n == 1:
            rows, prods = (0,) * n, (hb,) * n
        elif point_cfg.agg is Aggregation.MAX:
            rows, prods = star, (hb,) + (0.0,) * (n - 1)
        else:
            share = min(hb / n, hb - point_cfg.c / point_cfg.k)
            rows, prods = star, (hb - (n - 1) * share,) + (share,) * (n - 1)
        if not production_ne_mask(point_cfg, [rows], [prods])[0, 0]:
            raise RuntimeError(
                f"witness profile failed equilibrium verification at n={n}; "
                "the characterization shapes and the game disagree")
        total = _aggregate_masks(point_cfg.agg, np.array([prods]), np.array([(1 << n) - 1]))
        # the witness's own fraction is the supremum: no fraction exceeds the
        # empty network's or the SUM witness's 1, and below the band every MAX
        # equilibrium has exactly one producer
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
