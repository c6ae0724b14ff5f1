"""Brute-force equilibrium machinery: best responses, NE sets, optimum, PoA, MIL.

Every equilibrium test here goes through
:func:`~infogame.kernel.best_response_table`, which gives agent i's
within-tolerance best-response rows for a batch of profiles at once: the two
scans evaluate it in fixed-size chunks so that memory stays bounded whatever
the game, and :func:`is_nash`, :func:`is_strict_nash` and
:func:`best_responses` are batches of one. The price of anarchy and the
maximum information loss are fields of :class:`EquilibriumReport`.

The full scan covers every profile. Agent i's best responses depend on the
others' rows only, so its table is built once per others configuration
(2**((n-1)**2) of them) and then reshaped to (2**(w*i), 2**w, rest), w = n-1,
putting agent i's own row field in the middle axis: in the profile index
that field is contiguous, so one gather tests agent i's row in every profile
at once. A profile is an NE when every agent's own row is set in its table,
and strict when that row is the only one set.

Past five agents the profile space outgrows ``CHECK_BUDGET`` (six agents
have 2**30 profiles) and the scan switches to candidate pruning: every NE
with strictly positive link costs is a forest in which each edge has exactly
one sponsor (a duplicate or cycle link could be dropped for a strict gain),
so only sponsored forests are generated, as profile indices, and verified by
:func:`~infogame.kernel.ne_status`, which drops a profile at its first
failing agent. The pruned path refuses cost models with a link cost at or
below tolerance.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .entropy import TOL, subset_mask
from .formation_game import (
    GameConfig,
    LinkProfile,
    component_masks,
    undirected_adjacency,
)
from .kernel import (
    CHECK_BUDGET,
    CapExceededError,
    best_response_table,
    expand_row,
    fh_table,
    field_compacts,
    ne_status,
    profile_index,
    require_budget,
    row_costs,
    rows_from_indices,
    set_partition_count,
    set_partitions,
    spanning_trees,
    sponsored_tree_count,
    welfare,
)

# profiles (or others configurations) per best-response table evaluation
SCAN_CHUNK = 4096


@dataclass(frozen=True)
class EquilibriumReport:
    """Everything the enumeration learned about a game's equilibria.

    ``poa`` is None when the worst equilibrium welfare is not positive, in
    which case the optimum/worst ratio has no meaningful sign.
    """

    ne_profiles: tuple[LinkProfile, ...]
    strict_ne_profiles: tuple[LinkProfile, ...]
    ne_welfares: tuple[float, ...]
    ne_agent_info: tuple[tuple[float, ...], ...]
    social_optimum_value: float
    social_optimum_profile: LinkProfile
    worst_ne_welfare: float
    poa: float | None
    mil: float

    def to_csv(self) -> str:
        n = self.social_optimum_profile.n_agents
        strict = {p.rows for p in self.strict_ne_profiles}
        header = ["profile", "welfare"] + [f"info_{i}" for i in range(n)] + ["strict"]
        lines = [",".join(header)]
        for p, w, info in zip(self.ne_profiles, self.ne_welfares, self.ne_agent_info):
            cells = [p.bitstring(), repr(w)]
            cells += [repr(v) for v in info]
            cells.append("1" if p.rows in strict else "0")
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"


def best_responses(cfg: GameConfig, i: int, others: LinkProfile, tol: float = TOL) -> frozenset[int]:
    """Agent i's best-response rows (as link bitmasks) against ``others``.

    Row i of ``others`` is ignored. Ties within ``tol`` of the maximum are
    all included.
    """
    n = cfg.n_agents
    if not 0 <= i < n:
        raise ValueError(f"agent {i} out of range")
    if others.n_agents != n:
        raise ValueError("profile size does not match the game")
    rows = np.array([others.rows], dtype=np.int64)
    table = best_response_table(n, rows, i, np.asarray(fh_table(cfg)), row_costs(cfg)[i], tol)
    return frozenset(expand_row(c, i) for c in np.flatnonzero(table[0]).tolist())


def _profile_status(cfg: GameConfig, profile: LinkProfile, tol: float) -> tuple[bool, bool]:
    n = cfg.n_agents
    if profile.n_agents != n:
        raise ValueError("profile size does not match the game")
    is_ne, strict = ne_status(n, np.array([profile.rows], dtype=np.int64), range(n),
                              np.asarray(fh_table(cfg)), row_costs(cfg), tol)
    return bool(is_ne[0]), bool(strict[0])


def is_nash(cfg: GameConfig, profile: LinkProfile, tol: float = TOL) -> bool:
    """True when no agent can gain more than ``tol`` by changing its row."""
    return _profile_status(cfg, profile, tol)[0]


def is_strict_nash(cfg: GameConfig, profile: LinkProfile, tol: float = TOL) -> bool:
    """True when each agent's row beats every alternative by more than ``tol``."""
    return _profile_status(cfg, profile, tol)[1]


# -- enumeration --------------------------------------------------------------

def _found(idx: np.ndarray, strict: np.ndarray, n: int):
    """(rows, strict) pairs of the profiles with the given indices."""
    return [(tuple(rows), bool(st))
            for rows, st in zip(rows_from_indices(idx, n).tolist(), strict)]


def _ne_scan_full(cfg: GameConfig, tol: float):
    """Exhaustive scan; (rows, strict) for every NE in profile-index order."""
    n = cfg.n_agents
    w = n - 1
    fh = np.asarray(fh_table(cfg))
    costs = row_costs(cfg)
    ne = np.ones(1 << (n * w), dtype=bool)
    strict = np.ones(1 << (n * w), dtype=bool)
    n_others = 1 << (w * w)
    for i in range(n):
        low = w * (n - 1 - i)
        table = np.empty((n_others, 1 << w), dtype=bool)
        for start in range(0, n_others, SCAN_CHUNK):
            others = np.arange(start, min(start + SCAN_CHUNK, n_others), dtype=np.int64)
            # the others' fields around an empty own field
            idx = (others >> low << (low + w)) | (others & ((1 << low) - 1))
            table[start:start + len(others)] = best_response_table(
                n, rows_from_indices(idx, n), i, fh, costs[i], tol)
        unique = (table.sum(axis=1) == 1).reshape(1 << (w * i), 1, 1 << low)
        own = table[:, field_compacts(n)].reshape(1 << (w * i), 1 << low, 1 << w)
        own = own.transpose(0, 2, 1)
        ne &= own.reshape(-1)
        strict &= (own & unique).reshape(-1)
    idx = np.flatnonzero(ne)
    return _found(idx, strict[idx], n)


def _forest_candidates(n: int) -> np.ndarray:
    """Profile indices of every sponsored forest, ascending.

    Each set partition is wired by a spanning tree per block, each edge
    sponsored by one of its two ends in all ways, so there are
    ``set_partition_count(n, sponsored_tree_count)`` of them.
    """
    bit = np.array([[profile_index(tuple(1 << j if a == i else 0 for a in range(n)))
                     if i != j else 0 for j in range(n)] for i in range(n)], dtype=np.int64)
    shapes, trees = {}, {}  # tree edges per block size; sponsored-tree indices per block
    parts = []
    for part in set_partitions(tuple(range(n))):
        idx = np.zeros(1, dtype=np.int64)
        for block in map(tuple, part):
            if block not in trees:
                k = len(block) - 1
                if k not in shapes:
                    edges = list(spanning_trees(tuple(range(k + 1))))
                    shapes[k] = np.array(edges, dtype=np.intp).reshape(len(edges), k, 2)
                ends = np.array(block)[shapes[k]]
                flip = (np.arange(1 << k)[:, None] >> np.arange(k) & 1).astype(bool)
                trees[block] = np.where(flip, bit[ends[..., 1], ends[..., 0]][:, None, :],
                                        bit[ends[..., 0], ends[..., 1]][:, None, :]).sum(axis=2).ravel()
            idx = (idx[:, None] + trees[block]).ravel()
        parts.append(idx)
    return np.sort(np.concatenate(parts))


def _ne_scan_pruned(cfg: GameConfig, tol: float):
    """Forest-candidate scan for n >= 6. Needs every link cost above tolerance."""
    n = cfg.n_agents
    if cfg.costs.min_cost(n) <= tol:
        raise CapExceededError(
            "pruned enumeration needs strictly positive link costs; "
            "use the full scan (n <= 5) for free links")
    fh = np.asarray(fh_table(cfg))
    costs = row_costs(cfg)
    candidates = _forest_candidates(n)
    found = []
    for start in range(0, len(candidates), SCAN_CHUNK):
        idx = candidates[start:start + SCAN_CHUNK]
        ne, strict = ne_status(n, rows_from_indices(idx, n), range(n), fh, costs, tol)
        found += _found(idx[ne], strict[ne], n)
    return found


def _mst(block: tuple[int, ...], weight):
    """Kruskal on a block; returns (cost, edges) deterministically."""
    if len(block) < 2:
        return 0.0, []
    pairs = sorted((weight(i, j), i, j) for ai, i in enumerate(block) for j in block[ai + 1:])
    parent = {a: a for a in block}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    cost = 0.0
    edges = []
    for w, i, j in pairs:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
            cost += w
            edges.append((i, j))
            if len(edges) == len(block) - 1:
                break
    return cost, edges


def social_optimum(cfg: GameConfig) -> tuple[float, LinkProfile]:
    """Welfare-maximal profile and its value.

    Adding a link never raises welfare of other components and a cycle edge
    only adds cost, so the search ranges over partitions of the agents, each
    block wired as a minimum-cost spanning tree with every edge sponsored in
    its cheaper direction. More than ``CHECK_BUDGET`` partitions (the Bell
    number of n, past 11 agents) raises :class:`CapExceededError`.
    """
    n = cfg.n_agents
    require_budget(set_partition_count(n), f"social optimum at {n} agents", "partitions")
    fh = fh_table(cfg)

    def edge_weight(i, j):
        return min(cfg.link_cost(i, j), cfg.link_cost(j, i))

    best_value = None
    best_links = None
    for part in set_partitions(tuple(range(n))):
        value = 0.0
        links = []
        for block in part:
            mask = subset_mask(block)
            value += len(block) * fh[mask]
            cost, edges = _mst(tuple(block), edge_weight)
            value -= cost
            for i, j in edges:
                if cfg.link_cost(i, j) <= cfg.link_cost(j, i):
                    links.append((i, j))
                else:
                    links.append((j, i))
        if best_value is None or value > best_value + 1e-15:
            best_value = value
            best_links = links
    return best_value, LinkProfile.from_links(n, best_links)


def enumerate_nash(cfg: GameConfig, method: str = "auto", tol: float = TOL) -> EquilibriumReport:
    """Enumerate all Nash equilibria and summarize efficiency.

    ``method`` is ``"full"`` (every profile), ``"pruned"`` (sponsored
    forests, positive costs) or ``"auto"``: full while its 2**(n(n-1))
    profiles fit ``CHECK_BUDGET`` (n <= 5), else pruned (refused past 6
    agents). Results are ordered by the profile index regardless of method.
    """
    n = cfg.n_agents
    profiles = 1 << (n * (n - 1))
    if method == "auto":
        method = "full" if profiles <= CHECK_BUDGET else "pruned"
    if method == "full":
        require_budget(profiles, f"full scan at {n} agents", "profiles")
        found = _ne_scan_full(cfg, tol)
    elif method == "pruned":
        require_budget(set_partition_count(n, sponsored_tree_count),
                       f"pruned scan at {n} agents", "sponsored forests")
        found = _ne_scan_pruned(cfg, tol)
    else:
        raise ValueError(f"unknown enumeration method {method!r}")

    fh = fh_table(cfg)
    ne_profiles = []
    strict_profiles = []
    welfares = []
    infos = []
    for rows, strict in found:
        p = LinkProfile(n, rows)
        comp = component_masks(undirected_adjacency(p))
        w = welfare(cfg, rows, comp, fh)
        ne_profiles.append(p)
        welfares.append(w)
        infos.append(tuple(cfg.ev.h(comp[i]) for i in range(n)))
        if strict:
            strict_profiles.append(p)

    opt_value, opt_profile = social_optimum(cfg)
    worst = min(welfares) if welfares else float("nan")
    poa = (opt_value / worst) if welfares and worst > 0.0 else None
    mil = 0.0
    if infos:
        for i in range(n):
            vals = [info[i] for info in infos]
            mil = max(mil, max(vals) - min(vals))
    return EquilibriumReport(
        ne_profiles=tuple(ne_profiles),
        strict_ne_profiles=tuple(strict_profiles),
        ne_welfares=tuple(welfares),
        ne_agent_info=tuple(infos),
        social_optimum_value=opt_value,
        social_optimum_profile=opt_profile,
        worst_ne_welfare=worst,
        poa=poa,
        mil=mil,
    )
