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

The characterization checkers assume a strictly positive link cost; with
free links a duplicate-sponsored edge can sit in an equilibrium that the
checkers reject. The knife edge c = k * h_bar is classified with the
high-cost branch.
"""
from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, replace
from functools import cached_property

from .entropy import TOL, subset_agents
from .equilibrium import CapExceededError
from .formation_game import BenefitFunction, LinkProfile, component_masks, undirected_adjacency
from .kernel import merged_components, orientations, profile_from_index, spanning_trees

NE_CHECK_CAP = 10
FULL_SCAN_CAP = 3
CANDIDATE_CAP = 5
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


def production_utility(cfg: ProductionGameConfig, s: ProductionProfile, i: int) -> float:
    """f(aggregate over i's component) - k * own production - c * sponsored links."""
    if s.n_agents != cfg.n_agents:
        raise ValueError("profile size does not match the game")
    comp = component_masks(undirected_adjacency(s.links))[i]
    info = aggregate(cfg.agg, s.productions, comp)
    return cfg.benefit(info) - cfg.k * s.productions[i] - cfg.c * s.links.rows[i].bit_count()


def grid_levels(cfg: ProductionGameConfig) -> list[float]:
    """Production levels 0, step, 2 step, ... up to the first one at or above h_bar."""
    hb = cfg.h_bar()
    if hb <= 0 and cfg.grid_step is None:
        return [0.0]  # producing anything already costs more than it earns
    step = cfg.step()
    top = math.ceil(hb / step - 1e-12)
    return [m * step for m in range(top + 1)]


def _deviation_candidates(cfg: ProductionGameConfig, grid, hb, acquired) -> list[float]:
    cands = list(grid)
    cands.append(hb)
    if cfg.agg is Aggregation.SUM:
        cands.append(max(0.0, hb - acquired))
    return cands


def is_production_ne(cfg: ProductionGameConfig, s: ProductionProfile,
                     max_n: int | None = None) -> bool:
    """True when no unilateral (links, production) deviation gains more than 1e-9.

    Deviations range over every link vector crossed with the production grid,
    h_bar, and the closed-form best production for the deviated links.
    """
    n = cfg.n_agents
    cap = max_n if max_n is not None else NE_CHECK_CAP
    if n > cap:
        raise CapExceededError(f"equilibrium check capped at {cap} agents, got {n}")
    if s.n_agents != n:
        raise ValueError("profile size does not match the game")
    f = cfg.benefit
    k, c = cfg.k, cfg.c
    hb = cfg.h_bar()
    grid = grid_levels(cfg)
    prods = s.productions
    is_sum = cfg.agg is Aggregation.SUM
    for i in range(n):
        current = production_utility(cfg, s, i)
        merged = merged_components(n, s.links.rows, i)
        for compact, mask in enumerate(merged):
            linkcost = c * compact.bit_count()
            acquired = aggregate(cfg.agg, prods, mask & ~(1 << i))
            for h in _deviation_candidates(cfg, grid, hb, acquired):
                info = acquired + h if is_sum else max(acquired, h)
                u = f(info) - k * h - linkcost
                if u > current + TOL:
                    return False
    return True


# -- equilibrium-shape characterizations --------------------------------------

def _tree_structure(s: ProductionProfile):
    """(is spanning tree with single-sponsored edges, undirected edge list)."""
    links = s.links
    n = links.n_agents
    edges = []
    for i in range(n):
        for j in subset_agents(links.rows[i]):
            if links.rows[j] >> i & 1 and j < i:
                return False, []  # duplicate sponsorship
            edges.append((min(i, j), max(i, j)))
    if len(set(edges)) != len(edges):
        return False, []
    if len(edges) != n - 1:
        return False, edges
    comp = component_masks(undirected_adjacency(links))
    if comp[0] != (1 << n) - 1:
        return False, edges
    return True, edges


def _cut_mask(n: int, edges, drop, side: int) -> int:
    """Component mask containing ``side`` after removing edge ``drop`` from a tree."""
    adj = [0] * n
    for (a, b) in edges:
        if (a, b) == drop:
            continue
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    return component_masks(adj)[side]


def check_sum_equilibrium(cfg: ProductionGameConfig, s: ProductionProfile) -> bool:
    """Equilibrium characterization under SUM aggregation.

    High cost (c >= k h_bar): the unique equilibrium is the empty network
    with every agent producing h_bar. Low cost: the network is one spanning
    tree with single-sponsored edges, total production equals h_bar, and
    every sponsored link must be worth keeping: its cost can not exceed the
    production cost of the information reached only through it,
    c <= k * (production cut off by removing the link).
    """
    if cfg.agg is not Aggregation.SUM:
        raise ValueError("this characterization applies to SUM aggregation")
    return _check_production_shape(cfg, s)


def check_max_equilibrium(cfg: ProductionGameConfig, s: ProductionProfile) -> bool:
    """Equilibrium characterization under MAX aggregation.

    High cost: as in the SUM case. Low cost: one spanning tree with
    single-sponsored edges, exactly one agent producing h_bar with the rest
    at zero, and every non-producer sponsoring exactly one link.
    """
    if cfg.agg is not Aggregation.MAX:
        raise ValueError("this characterization applies to MAX aggregation")
    return _check_production_shape(cfg, s)


def _check_production_shape(cfg: ProductionGameConfig, s: ProductionProfile) -> bool:
    if s.n_agents != cfg.n_agents:
        raise ValueError("profile size does not match the game")
    n = cfg.n_agents
    hb = cfg.h_bar()
    prods = s.productions
    if cfg.high_cost():
        if any(s.links.rows):
            return False
        return all(abs(p - hb) <= TOL for p in prods)
    if n == 1:
        return abs(prods[0] - hb) <= TOL
    is_tree, edges = _tree_structure(s)
    if not is_tree:
        return False
    if cfg.agg is Aggregation.SUM:
        if abs(sum(prods) - hb) > TOL:
            return False
        for i in range(n):
            for j in subset_agents(s.links.rows[i]):
                edge = (min(i, j), max(i, j))
                cut = _cut_mask(n, edges, edge, j)
                if cfg.c > cfg.k * aggregate(cfg.agg, prods, cut) + TOL:
                    return False
        return True
    producers = [i for i in range(n) if prods[i] > PRODUCER_EPS]
    if len(producers) != 1:
        return False
    if abs(prods[producers[0]] - hb) > TOL:
        return False
    for i in range(n):
        if i == producers[0]:
            continue
        if s.links.rows[i].bit_count() != 1:
            return False
    return True


# -- enumeration ---------------------------------------------------------------

def _rooted_rows(n: int, edges, root: int) -> tuple[int, ...]:
    """Each non-root sponsors the edge toward the root; the root sponsors nothing."""
    adjacency = [[] for _ in range(n)]
    for a, b in edges:
        adjacency[a].append(b)
        adjacency[b].append(a)
    rows = [0] * n
    stack = [root]
    seen = {root}
    while stack:
        v = stack.pop()
        for w in adjacency[v]:
            if w not in seen:
                seen.add(w)
                rows[w] |= 1 << v
                stack.append(w)
    return tuple(rows)


def _profile_sort_key(s: ProductionProfile):
    return (s.links.index(), s.productions)


def enumerate_production_ne(cfg: ProductionGameConfig, max_n: int | None = None,
                            method: str = "auto") -> list[ProductionProfile]:
    """Grid equilibria of the production game, deterministically ordered.

    ``full`` scans every link profile crossed with every grid production
    vector (n <= 3). ``candidates`` generates the equilibrium shapes of the
    characterizations' shapes (empty network at full production; production
    splits on spanning trees for SUM; single producers on rooted trees for
    MAX) and keeps the ones that verify, which covers n <= 5.
    """
    n = cfg.n_agents
    cap = max_n if max_n is not None else CANDIDATE_CAP
    if n > cap:
        raise CapExceededError(f"production enumeration capped at {cap} agents, got {n}")
    if method == "auto":
        method = "full" if n <= FULL_SCAN_CAP else "candidates"
    if method == "full":
        if n > FULL_SCAN_CAP and (max_n is None or n > max_n):
            raise CapExceededError(f"full production scan capped at {FULL_SCAN_CAP} agents")
        return _enumerate_full(cfg)
    if method == "candidates":
        return _enumerate_candidates(cfg)
    raise ValueError(f"unknown enumeration method {method!r}")


def grid_profiles(cfg: ProductionGameConfig):
    """Every link profile crossed with every grid production vector, in link-index order."""
    n = cfg.n_agents
    grid = grid_levels(cfg)
    for idx in range(1 << (n * (n - 1))):
        links = LinkProfile(n, profile_from_index(idx, n))
        for prods in itertools.product(grid, repeat=n):
            yield ProductionProfile(prods, links)


def _enumerate_full(cfg: ProductionGameConfig) -> list[ProductionProfile]:
    out = [s for s in grid_profiles(cfg) if is_production_ne(cfg, s)]
    out.sort(key=_profile_sort_key)
    return out


def _enumerate_candidates(cfg: ProductionGameConfig) -> list[ProductionProfile]:
    n = cfg.n_agents
    hb = cfg.h_bar()
    grid = grid_levels(cfg)
    seen = set()
    out = []

    def consider(prods, links):
        s = ProductionProfile(prods, links)
        key = (links.rows, prods)
        if key in seen:
            return
        seen.add(key)
        if is_production_ne(cfg, s):
            out.append(s)

    consider((hb,) * n, LinkProfile.empty(n))
    if not cfg.high_cost() and n >= 2:
        if cfg.agg is Aggregation.SUM:
            splits = [p for p in itertools.product(grid, repeat=n) if abs(sum(p) - hb) <= TOL]
            for edges in spanning_trees(tuple(range(n))):
                for rows in orientations(edges, (0,) * n):
                    links = LinkProfile(n, rows)
                    for prods in splits:
                        consider(prods, links)
        else:
            for producer in range(n):
                prods = tuple(hb if i == producer else 0.0 for i in range(n))
                for edges in spanning_trees(tuple(range(n))):
                    consider(prods, LinkProfile(n, _rooted_rows(n, edges, producer)))
    out.sort(key=_profile_sort_key)
    return out


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
