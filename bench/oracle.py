"""Reference answers for the benchmark, computed without the infogame package.

Everything here is re-derived from the model's definitions: joint entropies
from a pmf or a family formula, payoffs from the induced components, best
responses by trying every row, and the closed forms of the law-of-the-few
game. Nothing imports ``infogame``, so a fault in the program cannot hide
in the reference.

Profiles are integer arrays of shape (P, n): entry [p, i] is the bitmask of
agents that agent i links to in profile p. Set masks use bit i for agent i.
Comparisons use the model's 1e-9 tolerance: a deviation refutes an
equilibrium only when it gains more than that.
"""
from __future__ import annotations

import itertools
import math

import numpy as np

TOL = 1e-9


# -- benefit and entropies -------------------------------------------

def log1p(base: float):
    """Vectorised f(x) = log(1 + x) in the given base, as the program's log1p benefit."""
    scale = 1.0 if base == math.e else math.log(base)
    return lambda x: np.log1p(x) / scale


def entropy_table_from_pmf(pmf: np.ndarray) -> np.ndarray:
    """H(S) in bits for every mask S of a joint pmf with one axis per agent."""
    n = pmf.ndim
    table = np.zeros(1 << n)
    for mask in range(1, 1 << n):
        drop = tuple(a for a in range(n) if not mask >> a & 1)
        p = pmf.sum(axis=drop).ravel() if drop else pmf.ravel()
        p = p[p > 0.0]
        table[mask] = float(-np.sum(p * np.log2(p)))
    return table


def entropy_table(family: str, h, kl: float = 0.0) -> np.ndarray:
    """H(S) for every mask S of the independent, max_correlated or pair_redundancy family."""
    h = [float(v) for v in h]
    n = len(h)
    table = np.zeros(1 << n)
    for mask in range(1, 1 << n):
        members = [h[a] for a in range(n) if mask >> a & 1]
        if family == "independent":
            table[mask] = sum(members)
        elif family == "max_correlated":
            table[mask] = max(members)
        elif family == "pair_redundancy":
            # agents 1 and 2 share kl bits; agent 0 is independent of both
            table[mask] = sum(members) - (kl if mask & 0b110 == 0b110 else 0.0)
        else:
            raise ValueError(f"unknown family {family!r}")
    return table


def thresholds(H: np.ndarray, f) -> tuple[float, float]:
    """(c_l, c_u) of a homogeneous game from its entropies.

    c_l = f(H(N)) - f(min_i H(N minus i)); c_u = f(H(N)) - f(min_i H({i})).
    """
    n = int(len(H)).bit_length() - 1
    top = (1 << n) - 1
    fj = float(f(H[top]))
    c_l = fj - float(f(min(H[top ^ (1 << i)] for i in range(n))))
    c_u = fj - float(f(min(H[1 << i] for i in range(n))))
    return c_l, c_u


# -- the link game ---------------------------------------------------------------

def _reach(n: int, adj: list[np.ndarray], source: int) -> np.ndarray:
    """Mask of the agents reachable from ``source`` over neighbour masks ``adj``."""
    reach = np.full(adj[0].shape, 1 << source, dtype=np.int64)
    for _ in range(n - 1):
        grown = reach.copy()
        for k in range(n):
            grown |= np.where(reach >> k & 1, adj[k], 0)
        reach = grown
    return reach


def _neighbours(n: int, rows: np.ndarray, skip: int | None = None) -> list[np.ndarray]:
    """Undirected neighbour mask of every agent; agent ``skip``'s own links are left out."""
    adj = [np.zeros(rows.shape[0], dtype=np.int64) for _ in range(n)]
    for i in range(n):
        if i == skip:
            continue
        adj[i] |= rows[:, i]
        for j in range(n):
            adj[j] |= np.where(rows[:, i] >> j & 1, 1 << i, 0)
    return adj


def _deviation_adjacency(n, base, i, row):
    """``base`` (without i's links) plus the links of row ``row`` for agent i."""
    adj = list(base)
    adj[i] = base[i] | row
    for j in range(n):
        if row >> j & 1:
            adj[j] = base[j] | (1 << i)
    return adj


def link_game(n: int, fH: np.ndarray, cost: np.ndarray, rows: np.ndarray):
    """Brute-force best-response test of every profile in ``rows``.

    ``fH[mask]`` is f(H(mask)); ``cost[i, j]`` is what i pays for a link to j.
    Every alternative row of every agent is played out on the full graph.
    Returns (is_ne, is_strict, welfare, component masks of shape (P, n)).
    """
    rows = np.asarray(rows, dtype=np.int64).reshape(-1, n)
    P = rows.shape[0]
    full_adj = _neighbours(n, rows)
    comps = np.stack([_reach(n, full_adj, i) for i in range(n)], axis=1)
    welfare = fH[comps].sum(axis=1)
    for i in range(n):
        for j in range(n):
            if j != i:
                welfare = welfare - np.where(rows[:, i] >> j & 1, cost[i, j], 0.0)
    is_ne = np.ones(P, dtype=bool)
    is_strict = np.ones(P, dtype=bool)
    for i in range(n):
        base = _neighbours(n, rows, skip=i)
        others = [j for j in range(n) if j != i]
        current = np.full(P, -np.inf)
        utils = {}
        for bits in range(1 << (n - 1)):
            row = sum(1 << others[b] for b in range(n - 1) if bits >> b & 1)
            reach = _reach(n, _deviation_adjacency(n, base, i, row), i)
            u = fH[reach] - sum(cost[i, j] for j in others if row >> j & 1)
            utils[row] = u
            current = np.where(rows[:, i] == row, u, current)
        for row, u in utils.items():
            is_ne &= ~(u > current + TOL)
            is_strict &= (rows[:, i] == row) | (u < current - TOL)
    return is_ne, is_strict & is_ne, welfare, comps


def social_optimum(n: int, fH: np.ndarray, cost: np.ndarray) -> float:
    """Best welfare over partitions, each block wired as a minimum spanning tree.

    A component's members all hear H(component); the cheapest way to connect
    a block is a spanning tree whose edges each cost min(c_ij, c_ji).
    """
    best = -math.inf
    for part in set_partitions(list(range(n))):
        value = 0.0
        for block in part:
            mask = sum(1 << a for a in block)
            value += len(block) * float(fH[mask]) - mst_cost(block, cost)
        best = max(best, value)
    return best


def set_partitions(items: list[int]):
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for k in range(len(part)):
            yield part[:k] + [[head] + part[k]] + part[k + 1:]
        yield [[head]] + part


def mst_cost(block, cost: np.ndarray) -> float:
    """Prim's algorithm over the block with edge weight min(c_ij, c_ji)."""
    block = list(block)
    if len(block) < 2:
        return 0.0
    inside = {block[0]}
    total = 0.0
    while len(inside) < len(block):
        w, v = min((min(cost[a, b], cost[b, a]), b)
                   for a in inside for b in block if b not in inside)
        inside.add(v)
        total += float(w)
    return total


def profile_rows(bits: list[str], n: int) -> np.ndarray:
    """Rows, shape (P, n), of row-major link-matrix bitstrings."""
    cells = np.frombuffer("".join(bits).encode(), dtype=np.uint8).reshape(-1, n, n) - ord("0")
    return (cells.astype(np.int64) << np.arange(n)).sum(axis=2)


def profile_bits(rows, n: int) -> str:
    """Row-major link-matrix bitstring of ``rows``, diagonal included."""
    return "".join("1" if rows[i] >> j & 1 else "0" for i in range(n) for j in range(n))


def random_profiles(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    """Uniform profiles: each off-diagonal link present with probability 1/2."""
    rows = rng.integers(0, 1 << n, size=(count, n), dtype=np.int64)
    for i in range(n):
        rows[:, i] &= ~(1 << i)
    return rows


def random_sponsored_forests(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    """Random forests with each edge sponsored by one random endpoint."""
    out = np.zeros((count, n), dtype=np.int64)
    for p in range(count):
        order = rng.permutation(n)
        for t in range(1, n):
            if rng.random() < 0.85:
                a, b = int(order[t]), int(order[rng.integers(0, t)])
                if rng.random() < 0.5:
                    a, b = b, a
                out[p, a] |= 1 << b
    return out


def sponsored_spanning_trees(n: int) -> np.ndarray:
    """Every spanning tree of n agents, with every choice of sponsor for each edge."""
    pairs = list(itertools.combinations(range(n), 2))
    out = []
    for edges in itertools.combinations(pairs, n - 1):
        adj = [np.array([0], dtype=np.int64) for _ in range(n)]
        for a, b in edges:
            adj[a] |= 1 << b
            adj[b] |= 1 << a
        if int(_reach(n, adj, 0)[0]) != (1 << n) - 1:
            continue
        for sponsors in itertools.product((0, 1), repeat=n - 1):
            rows = [0] * n
            for (a, b), flip in zip(edges, sponsors):
                if flip:
                    a, b = b, a
                rows[a] |= 1 << b
            out.append(rows)
    return np.array(out, dtype=np.int64).reshape(-1, n)


def sponsored_tree_count(n: int) -> int:
    """n^(n-2) labelled spanning trees times 2^(n-1) choices of sponsor."""
    return n ** (n - 2) * 2 ** (n - 1) if n >= 2 else 1


# -- the production game -----------------------------------------------------------

def h_bar(base: float, k: float) -> float:
    """Stand-alone optimum of f(h) - k h for f = log1p in base b: 1/(k ln b) - 1, or 0."""
    return max(0.0, 1.0 / (k * math.log(base)) - 1.0)


def _aggregate(agg: str, prods: np.ndarray, mask: np.ndarray, n: int) -> np.ndarray:
    parts = [np.where(mask >> a & 1, prods[:, a], 0.0) for a in range(n)]
    return np.sum(parts, axis=0) if agg == "sum" else np.max(parts, axis=0)


def production_game(n: int, agg: str, f, k: float, c: float, hb: float,
                    rows: np.ndarray, prods: np.ndarray) -> np.ndarray:
    """Equilibrium test of every (links, productions) profile.

    For each agent and each alternative link row the best production is the
    closed-form inner optimum: SUM max(0, h_bar - acquired), MAX 0 or h_bar.
    """
    rows = np.asarray(rows, dtype=np.int64).reshape(-1, n)
    prods = np.asarray(prods, dtype=float).reshape(-1, n)
    full_adj = _neighbours(n, rows)
    is_ne = np.ones(rows.shape[0], dtype=bool)
    for i in range(n):
        comp = _reach(n, full_adj, i)
        current = (f(_aggregate(agg, prods, comp, n)) - k * prods[:, i]
                   - c * np.bitwise_count(rows[:, i]))
        base = _neighbours(n, rows, skip=i)
        others = [j for j in range(n) if j != i]
        for bits in range(1 << (n - 1)):
            row = sum(1 << others[b] for b in range(n - 1) if bits >> b & 1)
            reach = _reach(n, _deviation_adjacency(n, base, i, row), i)
            acquired = _aggregate(agg, prods, reach & ~(1 << i), n)
            if agg == "sum":
                h = np.maximum(0.0, hb - acquired)
                best = f(acquired + h) - k * h
            else:
                best = np.maximum(f(acquired), f(np.maximum(acquired, hb)) - k * hb)
            is_ne &= ~(best - c * bin(row).count("1") > current + TOL)
    return is_ne


def all_link_profiles(n: int) -> np.ndarray:
    """Every profile of n agents: each agent links to any subset of the others."""
    choices = [[r for r in range(1 << n) if not r >> i & 1] for i in range(n)]
    return np.array(list(itertools.product(*choices)), dtype=np.int64)


def production_grid_equilibria(n: int, agg: str, f, k: float, c: float, hb: float,
                               levels: int = 7) -> set[tuple]:
    """(link rows, grid indices) of every grid equilibrium; grid = m * h_bar / 6."""
    links = all_link_profiles(n)
    grids = np.array(list(itertools.product(range(levels), repeat=n)), dtype=np.int64)
    step = hb / 6.0
    rows = np.repeat(links, len(grids), axis=0)
    idx = np.tile(grids, (len(links), 1))
    ok = production_game(n, agg, f, k, c, hb, rows, idx * step)
    return {(tuple(int(v) for v in r), tuple(int(v) for v in g))
            for r, g in zip(rows[ok], idx[ok])}


def few_law(agg: str, high_cost: bool, n: int) -> float:
    """Supremum producer fraction: 1 at high cost, 1/n for MAX and 1 for SUM with cheap links."""
    if high_cost or agg == "sum":
        return 1.0
    return 1.0 / n
