"""Brute-force equilibrium machinery: best responses, NE sets, optimum, PoA, MIL.

The full scan walks every profile in lexicographic order of the flattened
link matrix. Agent i's best-response set depends on the others' rows only,
so the scan memoizes one bitmask per (agent, others) pair: bit r is set when
own-row r is within tolerance of the best achievable utility. A profile is
an NE when every agent's current row has its bit set, and strict when that
bit is the only one.

For six agents the profile space is 2**30 and the scan switches to candidate
pruning: every NE with strictly positive link costs is a forest in which each
edge has exactly one sponsor (a duplicate or cycle link could be dropped for
a strict gain), so only sponsored forests are generated and verified. The
pruned path refuses cost models with a link cost at or below tolerance.
"""
from __future__ import annotations

from dataclasses import dataclass

from .entropy import TOL, subset_mask
from .formation_game import (
    GameConfig,
    LinkProfile,
    component_masks,
    undirected_adjacency,
)
from .kernel import (
    compress_row,
    expand_row,
    fh_table,
    ne_status,
    orientations,
    profile_from_index,
    row_costs,
    row_utilities,
    set_partitions,
    welfare,
)

FULL_SCAN_CAP = 5
DEFAULT_ENUM_CAP = 6
SOCIAL_OPT_CAP = 8


class CapExceededError(RuntimeError):
    """Raised when an enumeration would exceed its configured agent cap."""


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

    def to_text(self) -> str:
        lines = [
            f"equilibria: {len(self.ne_profiles)} ({len(self.strict_ne_profiles)} strict)",
            f"social optimum: {self.social_optimum_value!r} at {self.social_optimum_profile.bitstring()}",
            f"worst equilibrium welfare: {self.worst_ne_welfare!r}",
            f"price of anarchy: {'undefined' if self.poa is None else repr(self.poa)}",
            f"max information loss (bits): {self.mil!r}",
        ]
        for p, w in zip(self.ne_profiles, self.ne_welfares):
            strict = p.rows in {q.rows for q in self.strict_ne_profiles}
            lines.append(f"  NE {p.bitstring()} welfare={w!r}{' strict' if strict else ''}")
        return "\n".join(lines) + "\n"


def _br_mask(n, rows, i, fh, cost_row, tol):
    """Bitmask over compact rows within ``tol`` of agent i's best utility."""
    utils = row_utilities(n, rows, i, fh, cost_row)
    best = max(utils)
    mask = 0
    for compact, u in enumerate(utils):
        if u >= best - tol:
            mask |= 1 << compact
    return mask


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
    brm = _br_mask(n, others.rows, i, fh_table(cfg), row_costs(cfg)[i], tol)
    return frozenset(expand_row(c, i) for c in range(1 << (n - 1)) if brm >> c & 1)


def _profile_status(cfg: GameConfig, profile: LinkProfile, tol: float) -> tuple[bool, bool]:
    n = cfg.n_agents
    if profile.n_agents != n:
        raise ValueError("profile size does not match the game")
    return ne_status(n, profile.rows, range(n), fh_table(cfg), row_costs(cfg), tol)


def is_nash(cfg: GameConfig, profile: LinkProfile, tol: float = TOL) -> bool:
    """True when no agent can gain more than ``tol`` by changing its row."""
    return _profile_status(cfg, profile, tol)[0]


def is_strict_nash(cfg: GameConfig, profile: LinkProfile, tol: float = TOL) -> bool:
    """True when each agent's row beats every alternative by more than ``tol``."""
    return _profile_status(cfg, profile, tol)[1]


# -- enumeration --------------------------------------------------------------

def _ne_scan_full(cfg: GameConfig, tol: float):
    """Exhaustive scan; yields (rows, strict) for every NE in lexicographic order."""
    n = cfg.n_agents
    fh = fh_table(cfg)
    costs = row_costs(cfg)
    memo: dict[int, int] = {}
    found = []
    for idx in range(1 << (n * (n - 1))):
        rows = profile_from_index(idx, n)
        is_ne = True
        strict = True
        for i in range(n):
            packed = 0
            for j in range(n):
                if j != i:
                    packed |= rows[j] << (j * n)
            key = (packed << 4) | i
            brm = memo.get(key)
            if brm is None:
                brm = _br_mask(n, rows, i, fh, costs[i], tol)
                memo[key] = brm
            cbit = 1 << compress_row(rows[i], i)
            if not brm & cbit:
                is_ne = False
                break
            if brm != cbit:
                strict = False
        if is_ne:
            found.append((rows, strict))
    return found


def _forest_edge_subsets(n: int):
    """All acyclic subsets of the complete graph's edges, as edge lists."""
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]

    def grow(start, chosen, comp):
        yield list(chosen)
        for k in range(start, len(edges)):
            i, j = edges[k]
            ci, cj = comp[i], comp[j]
            if ci == cj:
                continue
            new_comp = [ci if c == cj else c for c in comp]
            chosen.append(edges[k])
            yield from grow(k + 1, chosen, new_comp)
            chosen.pop()

    yield from grow(0, [], list(range(n)))


def _ne_scan_pruned(cfg: GameConfig, tol: float):
    """Forest-candidate scan for n >= 6. Needs every link cost above tolerance."""
    n = cfg.n_agents
    if cfg.costs.min_cost(n) <= tol:
        raise CapExceededError(
            "pruned enumeration needs strictly positive link costs; "
            "use the full scan (n <= 5) for free links")
    fh = fh_table(cfg)
    costs = row_costs(cfg)
    empty = (0,) * n
    found = []
    for edge_list in _forest_edge_subsets(n):
        for rows in orientations(edge_list, empty):
            is_ne, strict = ne_status(n, rows, range(n), fh, costs, tol)
            if is_ne:
                found.append((rows, strict))
    found.sort(key=lambda item: LinkProfile(n, item[0]).index())
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


def social_optimum(cfg: GameConfig, max_n: int | None = None,
                   verify_by_full_scan: bool = False) -> tuple[float, LinkProfile]:
    """Welfare-maximal profile and its value.

    Adding a link never raises welfare of other components and a cycle edge
    only adds cost, so the search ranges over partitions of the agents, each
    block wired as a minimum-cost spanning tree with every edge sponsored in
    its cheaper direction. ``verify_by_full_scan`` cross-checks the value
    against an exhaustive profile scan (n <= 4 only).
    """
    n = cfg.n_agents
    cap = max_n if max_n is not None else SOCIAL_OPT_CAP
    if n > cap:
        raise CapExceededError(f"social optimum capped at {cap} agents, got {n}")
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
    profile = LinkProfile.from_links(n, best_links)
    if verify_by_full_scan:
        if n > 4:
            raise CapExceededError("full-scan verification is limited to 4 agents")
        top = 0.0
        for idx in range(1 << (n * (n - 1))):
            rows = profile_from_index(idx, n)
            comp = component_masks(undirected_adjacency(LinkProfile(n, rows)))
            top = max(top, welfare(cfg, rows, comp, fh))
        if abs(top - best_value) > 1e-9:
            raise RuntimeError(f"partition search gave {best_value!r}, full scan {top!r}")
    return best_value, profile


def enumerate_nash(cfg: GameConfig, max_n: int | None = None,
                   method: str = "auto", tol: float = TOL) -> EquilibriumReport:
    """Enumerate all Nash equilibria and summarize efficiency.

    ``method`` is ``"full"`` (exhaustive, n <= 5), ``"pruned"`` (sponsored
    forests, positive costs) or ``"auto"``. Results are ordered by the
    lexicographic profile index regardless of method.
    """
    n = cfg.n_agents
    cap = max_n if max_n is not None else DEFAULT_ENUM_CAP
    if n > cap:
        raise CapExceededError(f"equilibrium enumeration capped at {cap} agents, got {n}")
    if method == "auto":
        method = "full" if n <= FULL_SCAN_CAP else "pruned"
    if method == "full":
        if n > FULL_SCAN_CAP and (max_n is None or n > max_n):
            raise CapExceededError(f"full scan capped at {FULL_SCAN_CAP} agents, got {n}")
        found = _ne_scan_full(cfg, tol)
    elif method == "pruned":
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


def price_of_anarchy(cfg: GameConfig, max_n: int | None = None) -> float | None:
    """Optimum welfare over worst equilibrium welfare; None when the ratio is undefined."""
    return enumerate_nash(cfg, max_n=max_n).poa


def max_information_loss(cfg: GameConfig, max_n: int | None = None) -> float:
    """Largest spread, over agents, of gathered information across equilibria (bits)."""
    return enumerate_nash(cfg, max_n=max_n).mil
