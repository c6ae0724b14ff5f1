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

One check, :func:`production_ne_mask`, judges a batch of profiles given as
arrays: for each agent, ``kernel.merged_table`` gives its component under
every compact row, and every (row, production) deviation of every profile is
scored at once, in chunks of ``CHECK_CHUNK`` cells. The aggregates are
accumulated one agent at a time in ascending order, and f is evaluated by
the scalar :class:`BenefitFunction` on the distinct values only, so every
utility is the float that the per-profile utility under ``tests/`` (the
oracle the check is compared against) computes. Enumerations estimate their
checks first and refuse more than ``CHECK_BUDGET``.

The equilibrium shapes of the characterizations are judged a batch at a time
by :func:`shape_mask` on ``kernel.components``: a spanning tree, and for SUM
each link's cut, the component its target keeps without the sponsor's
links. :func:`check_sum_equilibrium` and :func:`check_max_equilibrium` are
its batch of one. The characterizations assume a strictly positive link
cost; with free links a duplicate-sponsored edge can sit in an equilibrium
that they reject. The knife edge c = k * h_bar is classified with the
high-cost branch.
"""
from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .entropy import MAX_AGENTS, TOL
from .formation_game import BenefitFunction, LinkProfile
from .kernel import (CHECK_BUDGET, components, compress_row, merged_table, profile_indices, require_budget,
                     rows_from_indices, sponsored_tree_count, sponsored_trees)

# cells (profiles x compact rows x production candidates) per chunk of production_ne_mask
CHECK_CHUNK = 1 << 13
PRODUCER_EPS = 1e-12


class Aggregation(enum.Enum):
    SUM = "sum"
    MAX = "max"


def aggregate(agg: Aggregation, productions, mask: int) -> float:
    """Joint information of the agents in ``mask`` given their production levels."""
    if mask == 0:
        return 0.0
    if agg is Aggregation.SUM:
        total = 0.0
        t = mask
        while t:
            low = t & -t
            total += productions[low.bit_length() - 1]
            t ^= low
        return total
    best = 0.0
    t = mask
    while t:
        low = t & -t
        v = productions[low.bit_length() - 1]
        if v > best:
            best = v
        t ^= low
    return best


@dataclass(frozen=True)
class ProductionProfile:
    """A joint strategy: per-agent production levels plus a link profile."""

    productions: tuple[float, ...]
    links: LinkProfile

    def __post_init__(self):
        if len(self.productions) != self.links.n_agents:
            raise ValueError("production vector length does not match the link profile")
        if not all(math.isfinite(p) and p >= 0 for p in self.productions):
            raise ValueError("production levels must be finite and nonnegative")

    @property
    def n_agents(self) -> int:
        return self.links.n_agents

    def to_text(self) -> str:
        prods = ",".join(f"{p:.17g}" for p in self.productions)
        return f"{self.links.bitstring()} {prods}\n"

    @classmethod
    def from_text(cls, text: str) -> "ProductionProfile":
        parts = text.split()
        if len(parts) != 2:
            raise ValueError("expected '<linkbits> <p0,p1,...>'")
        bits, prods = parts
        n = math.isqrt(len(bits))
        if n * n != len(bits):
            raise ValueError("link bitstring length must be a perfect square")
        links = LinkProfile.from_text("\n".join(bits[i * n:(i + 1) * n] for i in range(n)))
        return cls(tuple(float(x) for x in prods.split(",")), links)


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
        if self.n_agents < 1:
            raise ValueError("need at least one agent")
        if self.n_agents > MAX_AGENTS:
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
    """:func:`aggregate` of every entry of ``masks``, row b over the productions ``prods[b]``.

    SUM adds the members' productions one agent at a time in ascending
    order, as :func:`aggregate` does, so each value is the same float.
    """
    n = prods.shape[1]
    member = (masks[..., None] >> np.arange(n) & 1).astype(bool)
    terms = np.where(member, prods.reshape((len(prods),) + (1,) * (masks.ndim - 1) + (n,)), 0.0)
    if agg is Aggregation.SUM:
        return np.add.accumulate(terms, axis=-1)[..., -1]
    return terms.max(axis=-1)


def _chunk_profiles(cfg: ProductionGameConfig) -> int:
    """Profiles per chunk: ``CHECK_CHUNK`` cells of compact rows x production candidates."""
    width = len(grid_levels(cfg)) + 1 + (cfg.agg is Aggregation.SUM)
    return max(1, CHECK_CHUNK // (width << (cfg.n_agents - 1)))


def _profile_arrays(cfg: ProductionGameConfig, rows, prods) -> tuple[np.ndarray, np.ndarray]:
    """A batch of (links, productions) profiles as int64 and float64 arrays of shape
    (batch, n), refused unless every row is a profile of the game."""
    n = cfg.n_agents
    rows = np.asarray(rows, dtype=np.int64)
    prods = np.asarray(prods, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] != n or prods.shape != rows.shape:
        raise ValueError("profile size does not match the game")
    if ((rows < 0) | (rows >> n != 0) | (rows >> np.arange(n) & 1 != 0)).any():
        raise ValueError("link rows must be n-bit masks without self links")
    if not (np.isfinite(prods) & (prods >= 0)).all():
        raise ValueError("production levels must be finite and nonnegative")
    return rows, prods


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
    n_links = np.array([m.bit_count() for m in range(1 << n)], dtype=np.float64)  # per row mask
    link_cost = c * n_links[:1 << (n - 1), None]

    def deviates(rows, prods, i):
        """Per profile: can agent i gain more than TOL by a (links, production) deviation?"""
        merged = merged_table(n, rows, i)
        own = merged[np.arange(len(rows)), compress_row(rows[:, i], i)]
        # column 0: i's component; then what each compact row acquires from others
        info = _aggregate_masks(cfg.agg, prods, np.hstack([own[:, None], merged & ~(1 << i)]))
        acquired = info[:, 1:, None]
        h = np.empty(acquired.shape[:2] + (len(levels) + is_sum,))
        h[..., :len(levels)] = levels
        if is_sum:
            h[..., -1:] = np.maximum(0.0, hb - acquired)
            gained = acquired + h
        else:
            gained = np.maximum(acquired, h)
        # f by the scalar BenefitFunction, once per distinct value: numpy's log1p and
        # power differ from math's in the last bit on some inputs
        values, inverse = np.unique(np.concatenate([info[:, 0], gained.ravel()]), return_inverse=True)
        fv = np.array([f(v) for v in values.tolist()])[inverse]
        current = fv[:len(rows)] - k * prods[:, i] - c * n_links[rows[:, i]]
        u = fv[len(rows):].reshape(h.shape) - k * h - link_cost
        return (u > (current + TOL)[:, None, None]).any(axis=(1, 2))

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


def is_production_ne(cfg: ProductionGameConfig, s: ProductionProfile) -> bool:
    """True when no unilateral (links, production) deviation gains more than 1e-9.

    :func:`production_ne_mask` of the batch of one.
    """
    if s.n_agents != cfg.n_agents:
        raise ValueError("profile size does not match the game")
    return bool(production_ne_mask(cfg, [s.links.rows], [s.productions])[0])


# -- equilibrium-shape characterizations --------------------------------------

def shape_mask(cfg: ProductionGameConfig, rows, prods) -> np.ndarray:
    """Which profiles of a batch have an equilibrium shape of the characterizations
    (see :func:`check_sum_equilibrium` and :func:`check_max_equilibrium`).

    ``rows`` and ``prods`` are as in :func:`production_ne_mask`. A cut of
    link i -> j is j's component with i's links removed, and its production
    is added in the order :func:`aggregate` uses. Returns a bool array of
    length batch.
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


def check_sum_equilibrium(cfg: ProductionGameConfig, s: ProductionProfile) -> bool:
    """Equilibrium characterization under SUM aggregation.

    High cost (c >= k h_bar): the unique equilibrium is the empty network
    with every agent producing h_bar. Low cost: the network is one spanning
    tree with single-sponsored edges, total production equals h_bar, and
    every sponsored link must be worth keeping: its cost can not exceed the
    production cost of the information reached only through it,
    c <= k * (production cut off by removing the link). :func:`shape_mask`
    of the batch of one.
    """
    if cfg.agg is not Aggregation.SUM:
        raise ValueError("this characterization applies to SUM aggregation")
    return bool(shape_mask(cfg, [s.links.rows], [s.productions])[0])


def check_max_equilibrium(cfg: ProductionGameConfig, s: ProductionProfile) -> bool:
    """Equilibrium characterization under MAX aggregation.

    High cost: as in the SUM case. Low cost: one spanning tree with
    single-sponsored edges, exactly one agent producing h_bar with the rest
    at zero, and every non-producer sponsoring exactly one link.
    :func:`shape_mask` of the batch of one.
    """
    if cfg.agg is not Aggregation.MAX:
        raise ValueError("this characterization applies to MAX aggregation")
    return bool(shape_mask(cfg, [s.links.rows], [s.productions])[0])


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


def enumerate_production_ne(cfg: ProductionGameConfig) -> list[ProductionProfile]:
    """Grid equilibria of the production game, deterministically ordered.

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


def _equilibria(cfg: ProductionGameConfig, batches) -> list[ProductionProfile]:
    """The profiles of the (rows, prods) ``batches`` that are equilibria, ordered by
    link profile index, then production vector."""
    n = cfg.n_agents
    found = []
    links, prod_tuples = {}, {}  # equilibria share their link profiles and production tuples
    for rows, prods in batches:
        keep = production_ne_mask(cfg, rows, prods)
        for idx, r, p in zip(profile_indices(rows[keep]).tolist(), map(tuple, rows[keep].tolist()),
                             map(tuple, prods[keep].tolist())):
            if idx not in links:
                links[idx] = LinkProfile(n, r)
            found.append((idx, prod_tuples.setdefault(p, p)))
    found.sort()
    return [ProductionProfile(p, links[idx]) for idx, p in found]


# -- law-of-the-few metrics ------------------------------------------------------

def few_metrics(cfg: ProductionGameConfig, s: ProductionProfile) -> tuple[float, float]:
    """(fraction of agents producing anything, total information in the network)."""
    if s.n_agents != cfg.n_agents:
        raise ValueError("profile size does not match the game")
    producers = sum(1 for p in s.productions if p > PRODUCER_EPS)
    total = aggregate(cfg.agg, s.productions, (1 << cfg.n_agents) - 1)
    return producers / cfg.n_agents, total


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
        point_cfg = replace(cfg, n_agents=int(n))
        hb = point_cfg.h_bar()
        star = LinkProfile(n, tuple(0 if i == 0 else 1 for i in range(n)))
        if point_cfg.high_cost() or n == 1:
            witness = ProductionProfile((hb,) * n, LinkProfile.empty(n))
        elif point_cfg.agg is Aggregation.MAX:
            witness = ProductionProfile(tuple(hb if i == 0 else 0.0 for i in range(n)), star)
        else:
            share = min(hb / n, hb - point_cfg.c / point_cfg.k)
            witness = ProductionProfile((hb - (n - 1) * share,) + (share,) * (n - 1), star)
        if not is_production_ne(point_cfg, witness):
            raise RuntimeError(
                f"witness profile failed equilibrium verification at n={n}; "
                "the characterization shapes and the game disagree")
        # the witness's own fraction is the supremum: the high-cost
        # equilibrium is unique, every MAX equilibrium has exactly one
        # producer, and no fraction can exceed the SUM witness's 1
        fraction, total = few_metrics(point_cfg, witness)
        out.append(FewSweepPoint(
            n=int(n),
            agg=point_cfg.agg,
            c=point_cfg.c,
            k=point_cfg.k,
            h_bar=hb,
            producer_fraction=fraction,
            total_information_bits=total,
        ))
    return out
