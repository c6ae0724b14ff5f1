"""Bitmask and combinatorics helpers shared by the brute-force layers.

Here a link profile is n row bitmasks: row i holds the agents that i links
to, bit i clear. A batch of profiles is an int64 array of shape (batch, n),
and :func:`link_rows` is the package's one check that an input is one.
Agent i's alternatives are indexed by *compact* rows, its row with bit i
removed, so its 2**(n-1) candidate rows are 0 .. 2**(n-1) - 1.

The *profile index* ranks the 2**(n(n-1)) profiles by their flattened link
matrix with the diagonal left out: row i is the (n-1)-bit field starting at
bit (n-1)(n-1-i), and inside a field the most significant bit is the lowest
target, the reverse of the compact-row order. :func:`rows_from_indices` and
:func:`profile_indices` convert whole batches between the two forms; the
rows are int64, or the masks' narrower dtype, which the component walk and
the best responses take too and equilibrium reports keep.

Every search over sponsored trees (each edge of a tree linked by exactly one
of its ends) takes its rows from the one Pruefer decoder,
:func:`spanning_trees`: :func:`sponsored_trees` orients each tree every way,
for the blocks of every partition that the component structures judge and
for the production game's SUM shapes; :func:`rooted_trees` orients each
tree toward one agent, as the decoder hangs it from its last member, for
the production game's MAX shapes; and :func:`forest_batches`, a tree per
block of every partition, streams the pruned NE scan a partition at a time.

One path evaluates best responses. Agent i's payoffs see the others' rows
only through the partition of the agents into components of the graph
without i's links, so :func:`merged_table` gives i's merged components once
per distinct partition of a batch (at most Bell(n) rows) and each profile's
partition, one byte each up to 256 partitions: the game-independent half,
which the full scan and the partition judgement keep per agent count.
:func:`best_response_table` scores those rows with the payoff tables each
``GameConfig`` owns (``fh``, ``row_costs``), one game's or several games'
stacked on a leading game axis, so that the full scan scores a chunk of games at once; :func:`ne_status` judges a batch
with it, and gives the strict-equilibrium characterization its strict flag
on the stars it keeps.
:func:`components` is the package's one component walk; its masks are in the
narrowest unsigned dtype of an n-bit mask, and every caller reads them in
that dtype. Through :func:`merged_table` it serves the best responses and
the production game's equilibrium check; it also gives equilibrium reports
and the social optimum their components, and the characterization masks
(strict-equilibrium stars, production components and the parts links reach) their shapes.
:func:`welfare` is the package's one welfare routine, for the equilibria and
the social optimum alike, of one game or, through a per-profile game index,
of many, and sums the tables in a fixed order. Scalar forms of the walk, of
the welfare sum, of the profile index, of the Pruefer decoder and of the tree
orientations live under ``tests/`` as the oracles the array forms are
compared against. Every brute-force search counts its work in closed form,
in the function that builds it, and passes it to :func:`require_budget`.
:func:`distinct` is the package's one de-duplication, on its one sort kind.
"""
from __future__ import annotations

import math

import numpy as np

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

    Works elementwise on int arrays too, keeping their dtype.
    """
    low = compact & ((1 << i) - 1)
    return low | ((compact >> i) << (i + 1))


def compress_row(row: int, i: int) -> int:
    """Drop bit i (which must be zero) from a row mask.

    Works elementwise on int arrays too, keeping their dtype.
    """
    low = row & ((1 << i) - 1)
    return low | ((row >> (i + 1)) << i)


def link_rows(n: int, rows) -> np.ndarray:
    """``rows`` as an int64 array of shape (batch, n), refused with ``ValueError``
    unless every entry is a whole n-bit mask without its own agent's bit."""
    rows = np.asarray(rows)
    if rows.ndim != 2 or rows.shape[1] != n:
        raise ValueError("profile size does not match the game")
    # floats are judged before the cast, which would truncate them; ints past int64 make an object array
    if rows.dtype.kind in "biu" or rows.dtype.kind == "f" and ((rows >= 0) & (rows < 1 << n) & (rows % 1 == 0)).all():
        rows = rows.astype(np.int64, copy=False)
    if rows.dtype != np.int64 or ((rows < 0) | (rows >> n != 0) | (rows >> np.arange(n) & 1 != 0)).any():
        raise ValueError("link rows must be n-bit masks without self links")
    return rows


def field_compacts(n: int) -> np.ndarray:
    """Compact row of every value of an (n-1)-bit row field of the profile index, as int64.

    The field reverses the compact bit order, so this is a bit reversal.
    """
    width = n - 1
    fields = np.arange(1 << width)
    compacts = np.zeros(1 << width, dtype=np.int64)
    for p in range(width):
        compacts |= (fields >> (width - 1 - p) & 1) << p
    return compacts


def rows_from_indices(idx: np.ndarray, n: int, dtype=np.int64) -> np.ndarray:
    """Rows of every profile index in ``idx``, as an array of shape (len, n), int64 unless ``dtype`` is given."""
    width = n - 1
    compacts = field_compacts(n)
    out = np.empty((len(idx), n), dtype=dtype)
    for i in range(n):
        field = (idx >> (width * (n - 1 - i))) & ((1 << width) - 1)
        out[:, i] = expand_row(compacts, i)[field]
    return out


def profile_indices(rows: np.ndarray) -> np.ndarray:
    """Profile index (int64) of every row of an int64 array of shape (batch, n); the
    inverse of :func:`rows_from_indices`."""
    n = rows.shape[1]
    compacts = field_compacts(n)  # a bit reversal, so its own inverse
    idx = np.zeros(len(rows), dtype=np.int64)
    for i in range(n):
        idx = idx << (n - 1) | compacts[compress_row(rows[:, i], i)]
    return idx


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


def spanning_trees(members: tuple[int, ...]) -> np.ndarray:
    """Spanning trees of a labelled vertex set, by Pruefer decoding.

    Returns an int64 array of shape (m**(m-2), m-1, 2), one tree per Pruefer
    sequence in lexicographic order; each edge is (leaf, the member it joins)
    in decoding order. The last member is never a removed leaf, so every edge
    points from a member to its neighbour on the path to the last member. A
    single member has one tree, with no edges.
    """
    m = len(members)
    if m == 1:
        return np.zeros((1, 0, 2), dtype=np.int64)
    count = m ** (m - 2)
    seqs = np.indices((m,) * (m - 2)).reshape(m - 2, count).T
    tree = np.arange(count)
    degree = np.ones((count, m), dtype=np.int64)
    for s in range(m - 2):
        degree[tree, seqs[:, s]] += 1
    ends = np.empty((count, m - 1, 2), dtype=np.int64)
    for s in range(m - 2):
        # the smallest leaf joins the next vertex of the sequence and leaves
        v = seqs[:, s]
        leaf = np.argmax(degree == 1, axis=1)
        ends[:, s, 0], ends[:, s, 1] = leaf, v
        degree[tree, leaf] = 0
        degree[tree, v] -= 1
    ends[:, m - 2] = np.nonzero(degree == 1)[1].reshape(count, 2)
    return np.array(members, dtype=np.int64)[ends]


def sponsored_trees(members: tuple[int, ...], n: int) -> np.ndarray:
    """Rows of every sponsored spanning tree of ``members`` among n agents.

    Returns a read-only int64 array of shape (sponsored_tree_count(len(members)), n):
    the trees in :func:`spanning_trees` order, each in every orientation, by
    ascending orientation number. Bit b of that number decides who sponsors
    edge b, between i < j: set means j links to i, clear means i links to j.
    """
    out = _oriented(spanning_trees(members), n)
    out.flags.writeable = False
    return out


def _oriented(ends: np.ndarray, n: int) -> np.ndarray:
    """Rows (int64) of every orientation of each tree of a :func:`spanning_trees` array, as :func:`sponsored_trees`."""
    trees, m = len(ends), ends.shape[1] + 1
    tree = np.arange(trees)
    out = np.zeros((trees, 1 << (m - 1), n), dtype=np.int64)
    for b in range(m - 1):
        i, j = np.minimum(ends[:, b, 0], ends[:, b, 1]), np.maximum(ends[:, b, 0], ends[:, b, 1])
        # orientation number = (high, bit b, low) with 2**b low values
        split = out.reshape(trees, -1, 2, 1 << b, n)
        split[tree, :, 0, :, i] |= (1 << j)[:, None, None]
        split[tree, :, 1, :, j] |= (1 << i)[:, None, None]
    return out.reshape(-1, n)


def rooted_trees(n: int, root: int) -> np.ndarray:
    """Rows (int64) of every spanning tree of n agents sponsored toward ``root``, shape (n**(n-2), n):
    each other agent links to its neighbour on the path to ``root``, which links to no one. These
    are the :func:`spanning_trees` of the agents with ``root`` last, each edge sponsored by its leaf."""
    ends = spanning_trees(tuple(a for a in range(n) if a != root) + (root,))
    rows = np.zeros((len(ends), n), dtype=np.int64)
    rows[np.arange(len(ends))[:, None], ends[..., 0]] = 1 << ends[..., 1]
    return rows


def forest_batches(n: int, rows: int):
    """Profile indices (int64) of every sponsored forest of n agents, in unsorted batches.

    Each set partition is wired by a sponsored spanning tree per block, so
    there are ``set_partition_count(n, sponsored_tree_count)`` of them. Blocks
    own disjoint links, so a forest's index is the sum of its trees' indices.
    A batch is one partition's forests, in ``set_partitions`` order, with each
    smaller block's tree indices built once a call; the one n-member block
    comes about ``rows`` rows (whole trees, every orientation) at a time.
    """
    kept = {}
    for part in set_partitions(tuple(range(n))):
        if len(part) == 1:
            ends, step = spanning_trees(tuple(range(n))), max(1, rows >> (n - 1))
            yield from (profile_indices(_oriented(ends[s:s + step], n)) for s in range(0, len(ends), step))
        else:
            idx = np.zeros(1, dtype=np.int64)
            for block in map(tuple, part):
                if block not in kept:
                    kept[block] = profile_indices(_oriented(spanning_trees(block), n))
                idx = (idx[:, None] + kept[block]).ravel()
            yield idx


# -- components and payoffs ----------------------------------------------------------

def distinct(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(values, first, inverse) of a 1-d int64 array, as ``np.unique`` gives them, from numpy's stable int64 argsort:
    the package's one sort, since a process maps each numpy sort kernel's code the first time it runs it (0.2 MB
    or more apiece). Floats pass their ``view(np.int64)`` and view the values back, so 0.0 and -0.0 stay apart."""
    inverse = np.empty(len(bits), dtype=np.intp)  # before the transients, so that freeing them frees the heap top
    order = np.argsort(bits, kind="stable")
    ordered = bits[order]
    new = np.ones(len(bits), dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    values, first = ordered[new], order[new]
    inverse[order] = np.subtract(np.cumsum(new, out=ordered), 1, out=ordered)  # ranks, in the sorted copy's buffer
    return values, first, inverse


def components(rows: np.ndarray) -> np.ndarray:
    """Agent a's component in profile b at [a, b] of an (n, batch) array, for ``rows`` (batch, n),
    in the narrowest unsigned dtype of an n-bit mask: uint8 up to 8 agents, else uint16."""
    n = rows.shape[1]
    dtype = np.uint8 if n <= 8 else np.uint16
    agent = np.arange(n, dtype=dtype)[:, None]
    links = np.ascontiguousarray(rows.T, dtype=dtype)
    # reach[a]: agent a's neighbours, then its component
    reach = links | 1 << agent
    for a in range(n):
        reach |= (links[a] >> agent & 1) << a
    # Warshall closure: whoever reaches k reaches all that k reaches
    for k in range(n):
        reach |= reach[k] * (reach >> k & 1)
    return reach


def merged_table(n: int, rows: np.ndarray, i: int) -> tuple[np.ndarray, np.ndarray]:
    """Agent i's component mask for every compact row, once per partition of the others.

    ``rows`` is an int64 or mask-dtype array of shape (batch, n); column i is ignored.
    Linking to agent j merges in j's whole component of the graph without
    i's sponsored links, so only the partition of that graph matters.
    Returns (merged, part): ``merged`` (:func:`components`' dtype, a row per
    partition) holds at [p, c] the component agent i joins by playing
    compact row c against partition p; ``part`` gives each profile's row, in
    the narrowest unsigned dtype that holds the batch's partition count
    (uint8 up to 256 partitions, so up to 6 agents), and ``merged[part]`` is
    the per-profile table.
    """
    others = rows.copy()
    others[:, i] = 0  # the graph without i's sponsored links
    reach = components(others)
    # key: sum of (l_a + 1) a!, unique as a's lowest member l_a <= a; l_a + 1 is its lowest bit's exponent
    exponent = np.frexp((reach & -reach).astype(np.float32))[1]
    key = (exponent * np.array([math.factorial(a) for a in range(n)])[:, None]).sum(axis=0)
    _, first, part = distinct(key)
    reach = reach[:, first]
    # the OR over compact rows, one target bit at a time
    merged = np.empty((len(first), 1 << (n - 1)), dtype=reach.dtype)
    merged[:, 0] = reach[i]
    for k, j in enumerate(t for t in range(n) if t != i):
        half = 1 << k
        np.bitwise_or(merged[:, :half], reach[j][:, None], out=merged[:, half:2 * half])
    return merged, part.astype(np.min_scalar_type(max(len(first) - 1, 0)))


def best_response_table(merged: np.ndarray, fh: np.ndarray, row_cost: np.ndarray) -> np.ndarray:
    """Agent i's within-tolerance best responses against each row of its merged table.

    ``merged`` is agent i's :func:`merged_table` rows, in any integer dtype:
    the game-independent half, which callers may keep across games. Returns
    a bool array of the same shape whose entry [p, c] is set when compact
    row c is within ``TOL`` of agent i's best utility against row p. ``fh``
    and ``row_cost`` are ``GameConfig.fh`` and agent i's row of
    ``GameConfig.row_costs``, or G games' of them stacked on a leading game
    axis, (G, 2**n) and (G, 2**(n-1)); the result is then (G, *merged.shape).
    """
    u = fh[..., merged]
    u -= row_cost[..., None, :]  # in place: the caller's merged table may still be alive
    return u >= u.max(axis=-1, keepdims=True) - TOL


def ne_status(rows: np.ndarray, fh: np.ndarray, costs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(is_ne, is_strict) of every profile of a batch.

    ``rows`` is as in :func:`merged_table`; ``fh`` and ``costs`` are
    as in :func:`best_response_table`, with ``costs`` holding every agent's
    table. An agent fails when some row beats its current one by more than
    ``TOL``; it is strict when its current row is its only within-tolerance
    best response. A profile is dropped at its first failing agent. Returns
    two bool arrays of length batch.
    """
    n = rows.shape[1]
    is_ne = np.zeros(len(rows), dtype=bool)
    is_strict = np.zeros(len(rows), dtype=bool)
    alive = np.arange(len(rows))
    strict = np.ones(len(rows), dtype=bool)
    for i in range(n):
        merged, part = merged_table(n, rows, i)
        table = best_response_table(merged, fh, costs[i])
        keep = table[part, compress_row(rows[:, i], i)]
        strict = strict[keep] & (table.sum(axis=1) == 1)[part[keep]]
        alive, rows = alive[keep], rows[keep]
    is_ne[alive] = True
    is_strict[alive] = strict
    return is_ne, is_strict


def welfare(rows: np.ndarray, comp: np.ndarray, fh: np.ndarray, row_costs: np.ndarray,
            game=...) -> np.ndarray:
    """Sum of utilities (float64) of every profile of a batch, given its :func:`components`.

    ``fh`` and ``row_costs`` are one game's tables, or G games' stacked on a
    leading game axis, (G, 2**n) and (G, n, 2**(n-1)), with ``game`` giving
    each profile's game. Adds every agent's benefit first and then subtracts
    each agent's link costs in agent-then-target order; reports print these
    floats, so the order of each profile's sum is fixed, batched or not.
    """
    n = rows.shape[1]
    w = np.zeros(len(rows))
    for c in comp:
        w = w + fh[game, c]
    for i in range(n):
        compact = compress_row(rows[:, i].astype(comp.dtype), i)
        for k in range(n - 1):
            w = w - np.where(compact >> k & 1, row_costs[game, i, 1 << k], 0.0)
    return w
