"""Bitmask and combinatorics helpers shared by the brute-force layers.

Here a link profile is a tuple of row bitmasks: row i holds the agents that
i links to. Agent i's alternatives are indexed by *compact* rows, its row
with bit i removed, so its 2**(n-1) candidate rows are 0 .. 2**(n-1) - 1.

The *profile index* ranks the 2**(n(n-1)) profiles by their flattened link
matrix with the diagonal left out: row i is the (n-1)-bit field starting at
bit (n-1)(n-1-i), and inside a field the most significant bit is the lowest
target, the reverse of the compact-row order.

One path evaluates best responses: :func:`best_response_table` takes a
batch of profiles as an int64 array, and :func:`ne_status` judges a batch
with it, so a single profile is a batch of one. Its component walk,
:func:`merged_table`, is shared with the production game's equilibrium
check. A scalar, per-profile form of the same walk lives under ``tests/``
as the oracle the array form is compared against. Every brute-force search
counts its work in closed form first and passes it to :func:`require_budget`.
"""
from __future__ import annotations

import heapq
import itertools
import math

import numpy as np

from . import formation_game
from .entropy import TOL

# profiles, sponsored trees, partitions or grid points one brute-force search may visit
CHECK_BUDGET = 1 << 20


class CapExceededError(RuntimeError):
    """Raised when a brute-force search would exceed the work budget."""


def require_budget(count: int, what: str, unit: str) -> None:
    """Refuse a search of ``count`` units of work when that exceeds ``CHECK_BUDGET``."""
    if count > CHECK_BUDGET:
        raise CapExceededError(f"{what} capped at {CHECK_BUDGET} {unit}: it would check {count} {unit}")


# -- profile encoding -----------------------------------------------------------

def expand_row(compact: int, i: int) -> int:
    """Insert a zero bit at position i, mapping a compact row to a real row.

    Works elementwise on int arrays too.
    """
    low = compact & ((1 << i) - 1)
    return low | ((compact >> i) << (i + 1))


def compress_row(row: int, i: int) -> int:
    """Drop bit i (which must be zero) from a row mask.

    Works elementwise on int arrays too.
    """
    low = row & ((1 << i) - 1)
    return low | ((row >> (i + 1)) << i)


def profile_index(rows) -> int:
    """Profile index of a tuple of rows; the inverse of :func:`rows_from_indices`."""
    n = len(rows)
    idx = 0
    for i, row in enumerate(rows):
        for j in range(n):
            if j != i:
                idx = idx << 1 | (row >> j & 1)
    return idx


def field_compacts(n: int) -> np.ndarray:
    """Compact row of every value of an (n-1)-bit row field of the profile index.

    The field reverses the compact bit order, so this is a bit reversal.
    """
    width = n - 1
    fields = np.arange(1 << width)
    compacts = np.zeros(1 << width, dtype=np.int64)
    for p in range(width):
        compacts |= (fields >> (width - 1 - p) & 1) << p
    return compacts


def rows_from_indices(idx: np.ndarray, n: int) -> np.ndarray:
    """Rows of every profile index in ``idx``, as an int64 array of shape (len, n)."""
    width = n - 1
    compacts = field_compacts(n)
    out = np.empty((len(idx), n), dtype=np.int64)
    for i in range(n):
        field = (idx >> (width * (n - 1 - i))) & ((1 << width) - 1)
        out[:, i] = expand_row(compacts, i)[field]
    return out


# -- combinatorics ----------------------------------------------------------------

def set_partitions(items: tuple[int, ...]):
    """Partitions of ``items`` into blocks, in a deterministic order."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        yield [[first]] + part
        for k in range(len(part)):
            yield part[:k] + [[first] + part[k]] + part[k + 1:]


def set_partition_count(n: int, weight=lambda size: 1) -> int:
    """Partitions of n items, each weighted by the product of ``weight(block size)``.

    a(n) = sum over k of C(n-1, k-1) weight(k) a(n-k), k being the size of
    the first item's block; with unit weights these are the Bell numbers.
    """
    a = [1]
    for m in range(1, n + 1):
        a.append(sum(math.comb(m - 1, k - 1) * weight(k) * a[m - k] for k in range(1, m + 1)))
    return a[n]


def sponsored_tree_count(m: int) -> int:
    """Sponsored spanning trees of m agents: m**(m-2) trees, 2**(m-1) orientations each."""
    return m ** max(m - 2, 0) << (m - 1)


def spanning_trees(members: tuple[int, ...]):
    """Spanning trees of a labelled vertex set, as edge lists (Pruefer decode).

    Each edge is (smaller member, larger member); a single member yields the
    empty tree.
    """
    m = len(members)
    if m == 1:
        yield []
        return
    for seq in itertools.product(range(m), repeat=m - 2):
        degree = [1] * m
        for v in seq:
            degree[v] += 1
        heap = [v for v in range(m) if degree[v] == 1]
        heapq.heapify(heap)
        edges = []
        for v in seq:
            leaf = heapq.heappop(heap)
            edges.append((members[min(leaf, v)], members[max(leaf, v)]))
            degree[v] -= 1
            if degree[v] == 1:
                heapq.heappush(heap, v)
        u = heapq.heappop(heap)
        v = heapq.heappop(heap)
        edges.append((members[min(u, v)], members[max(u, v)]))
        yield edges


def orientations(edges, base: tuple[int, ...]):
    """Every way to sponsor each edge once, added on top of the rows ``base``.

    Yields 2**len(edges) row tuples. Bit b of the orientation number decides
    who sponsors edge b = (i, j): set means j links to i, clear means i
    links to j.
    """
    for orient in range(1 << len(edges)):
        rows = list(base)
        for b, (i, j) in enumerate(edges):
            if orient >> b & 1:
                rows[j] |= 1 << i
            else:
                rows[i] |= 1 << j
        yield tuple(rows)


# -- payoffs ------------------------------------------------------------------------

def fh_table(cfg: formation_game.GameConfig) -> list[float]:
    """Benefit of the joint entropy of every subset mask; index 0 is f(0) = 0."""
    n = cfg.n_agents
    table = [0.0] * (1 << n)
    for mask in range(1, 1 << n):
        table[mask] = cfg.benefit(cfg.ev.h(mask))
    return table


def row_costs(cfg: formation_game.GameConfig) -> np.ndarray:
    """Link cost of every compact row, per agent, as a float64 array of shape
    (n, 2**(n-1)): ``[i, compact]`` is what agent i pays for the links of its
    compact row ``compact``."""
    n = cfg.n_agents
    tables = []
    for i in range(n):
        targets = [j for j in range(n) if j != i]
        table = [0.0] * (1 << (n - 1))
        for compact in range(1, len(table)):
            j = targets[(compact & -compact).bit_length() - 1]
            table[compact] = table[compact & (compact - 1)] + cfg.link_cost(i, j)
        tables.append(table)
    return np.array(tables)


def merged_table(n: int, rows: np.ndarray, i: int) -> np.ndarray:
    """Agent i's component mask for every compact row, for a batch of profiles.

    ``rows`` is an int64 array of shape (batch, n); column i is ignored.
    Returns an int64 array of shape (batch, 2**(n-1)) whose entry [b, c] is
    the component agent i joins in profile b by playing compact row c:
    linking to agent j merges in j's whole component of the graph without
    i's sponsored links.
    """
    agent = np.arange(n, dtype=np.int64)[:, None]
    out = rows.T.copy()
    out[i] = 0
    # reach[a]: agent a's neighbours (then its component) without i's links
    reach = out | 1 << agent
    for a in range(n):
        reach |= (out[a] >> agent & 1) << a
    # Warshall closure: whoever reaches k reaches all that k reaches
    for k in range(n):
        reach |= reach[k] & -(reach >> k & 1)
    # the OR over compact rows, one target bit at a time
    merged = np.empty((len(rows), 1 << (n - 1)), dtype=np.int64)
    merged[:, 0] = reach[i]
    for k, j in enumerate(t for t in range(n) if t != i):
        half = 1 << k
        np.bitwise_or(merged[:, :half], reach[j][:, None], out=merged[:, half:2 * half])
    return merged


def best_response_table(n: int, rows: np.ndarray, i: int, fh: np.ndarray,
                        row_cost: np.ndarray, tol: float = TOL) -> np.ndarray:
    """Agent i's within-tolerance best responses for a batch of profiles.

    ``rows`` is an int64 array of shape (batch, n); column i is ignored.
    Returns a bool array of shape (batch, 2**(n-1)) whose entry [b, c] is set
    when compact row c is within ``tol`` of agent i's best utility against
    the other rows of profile b. ``fh`` is :func:`fh_table` as a float64
    array and ``row_cost`` is agent i's row of :func:`row_costs`.
    """
    u = fh[merged_table(n, rows, i)] - row_cost
    return u >= u.max(axis=1, keepdims=True) - tol


def ne_status(n: int, rows: np.ndarray, agents, fh: np.ndarray, costs: np.ndarray,
              tol: float = TOL) -> tuple[np.ndarray, np.ndarray]:
    """(is_ne, is_strict) of every profile of a batch, judged over the given agents only.

    ``rows`` is an int64 array of shape (batch, n); ``fh`` and ``costs`` are
    as in :func:`best_response_table`, with ``costs`` holding every agent's
    table. An agent fails when some row beats its current one by more than
    ``tol``; it is strict when its current row is its only within-tolerance
    best response. A profile is dropped at its first failing agent. Returns
    two bool arrays of length batch.
    """
    is_ne = np.zeros(len(rows), dtype=bool)
    is_strict = np.zeros(len(rows), dtype=bool)
    alive = np.arange(len(rows))
    strict = np.ones(len(rows), dtype=bool)
    for i in agents:
        table = best_response_table(n, rows, i, fh, costs[i], tol)
        keep = table[np.arange(len(rows)), compress_row(rows[:, i], i)]
        strict = strict[keep] & (table[keep].sum(axis=1) == 1)
        alive, rows = alive[keep], rows[keep]
    is_ne[alive] = True
    is_strict[alive] = strict
    return is_ne, is_strict


def welfare(cfg: formation_game.GameConfig, rows, comp: list[int], fh: list[float]) -> float:
    """Sum of utilities given each agent's component mask ``comp``.

    Adds every agent's benefit first and then subtracts each agent's link
    costs in agent order; reports print this float, so the order is fixed.
    """
    w = sum(fh[c] for c in comp)
    for i, row in enumerate(rows):
        t = row
        while t:
            low = t & -t
            w -= cfg.link_cost(i, low.bit_length() - 1)
            t ^= low
    return w
