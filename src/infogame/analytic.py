"""Closed-form predictors for equilibrium structure and efficiency.

Every function here has a brute-force counterpart in :mod:`infogame.equilibrium`
against which it can be cross-validated. :func:`component_structures` judges
every partition of a game's agents in one batch. The strict-equilibrium
structure is judged a batch at a time by :func:`strict_structure_mask`: a
star test on the kernel's components, then the kernel's own strict test on
the stars.
Cost-model coverage follows the available theory: homogeneous and
recipient-dependent costs are supported, general cost matrices are rejected.

Boundary conventions. Every threshold is judged by ``entropy.band``, the tie
rule of brute force: K_C needs c below c_l, and K_I c above c_u, by more than
TOL; within TOL of either (where a link that gains its cost ties) a game is
K_M. Recipient-dependent membership in the connected region quantifies its
per-agent inequality over every agent, which is what actually guarantees
that all equilibria are connected (the argmin-only variant does not). The
cross-component condition of :func:`component_structures` is oriented as
"a strictly profitable cross link refutes equilibrium" for both cost models.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import Callable, Sequence

import numpy as np

from .entropy import TOL, EntropicVector, band, full_mask, subset_mask
from .formation_game import BenefitFunction, CostModel, GameConfig
from .equilibrium import social_optimum
from .kernel import (best_response_table, components, compress_row, link_rows, merged_table, ne_status,
                     require_budget, set_partition_count, set_partitions, sponsored_tree_count, sponsored_trees)

K_C = "K_C"
K_I = "K_I"
K_M = "K_M"


@dataclass(frozen=True)
class ConnectivityRegion:
    """Region label plus the numbers that decided it.

    Homogeneous games carry the two thresholds. Recipient-dependent games
    carry per-agent connectivity margins (above TOL for all agents puts the
    game in K_C) and the isolation margin (above TOL puts it in K_I).
    """

    label: str
    c_l: float | None = None
    c_u: float | None = None
    kc_margins: tuple[float, ...] | None = None
    ki_margin: float | None = None


def _require_min_agents(ev: EntropicVector) -> None:
    if ev.n_agents < 2:
        raise ValueError("connectivity analysis needs at least two agents")


def thresholds_homogeneous(ev: EntropicVector, f: BenefitFunction) -> tuple[float, float]:
    """Cost thresholds (c_l, c_u) separating the connectivity regions.

    Below c_l every equilibrium is connected; above c_u the unique
    equilibrium is the empty network. c_l = f(H(all)) - f(min_i H(all\\{i}))
    and c_u = f(H(all)) - f(min_i H({i})).
    """
    _require_min_agents(ev)
    n = ev.n_agents
    top = full_mask(n)
    fj = f(ev.h(top))
    c_l = fj - f(min(ev.h(top ^ (1 << i)) for i in range(n)))
    c_u = fj - f(min(ev.singletons))
    return c_l, c_u


def classify_homogeneous(ev: EntropicVector, f: BenefitFunction, c: float) -> ConnectivityRegion:
    """Label a homogeneous link cost as K_C (c < c_l - TOL), K_I (c > c_u + TOL) or K_M."""
    c_l, c_u = thresholds_homogeneous(ev, f)
    return ConnectivityRegion(_label(c, c_l, c_u), c_l=c_l, c_u=c_u)


def _label(c: float, c_l: float, c_u: float) -> str:
    return K_C if band(c, c_l) < 0 else K_I if band(c, c_u) > 0 else K_M


def homogeneous_sweep(ev: EntropicVector, f: BenefitFunction, c_values) -> list[tuple]:
    """:func:`classify_homogeneous`'s (label, c_l, c_u) and the values of :func:`poa_predict`
    and :func:`mil_predict` at every cost of ``c_values``, predicting once per region but K_I."""
    c_l, c_u = thresholds_homogeneous(ev, f)
    known, rows = {}, []
    for c in c_values:
        cfg, label = GameConfig(ev, f, CostModel.homogeneous(c)), _label(c, c_l, c_u)
        if label == K_I or label not in known:
            known[label] = (poa_predict(cfg).value, mil_predict(cfg).value)
        rows.append((label, c_l, c_u) + known[label])
    return rows


def region_heterogeneous(ev: EntropicVector, f: BenefitFunction, costs: CostModel) -> ConnectivityRegion:
    """Classify a recipient-dependent cost vector.

    K_C requires c_i < f(H(all)) - f(H(all\\{i})) - TOL for every agent i; that
    is the universal-quantifier form, which is what actually forces every
    equilibrium to be connected (the argmin-only form does not). K_I
    requires f(H(all)) - f(H({i})) + TOL < min_{k != i} c_k for every agent i:
    no agent can cover even the cheapest link with even the maximal
    information gain, so every sponsored link anywhere is strictly
    droppable and the empty network is the unique equilibrium. A margin
    within TOL of 0 is a tie (``entropy.band``), and the game is K_M. An
    argmin-based variant of this test is unsound: it can compare one
    agent's gain against a cost that agent never pays while a cheaper
    recipient sustains a link.
    """
    _require_min_agents(ev)
    if costs.kind != "recipient":
        raise ValueError("heterogeneous regions need a recipient-dependent cost model")
    n = ev.n_agents
    if len(costs.values) != n:
        raise ValueError("cost vector length does not match the game")
    top = full_mask(n)
    fj = f(ev.h(top))
    margins = tuple(fj - f(ev.h(top ^ (1 << i))) - costs.values[i] for i in range(n))
    ki_margin = min(
        min(costs.values[k] for k in range(n) if k != i) - (fj - f(ev.h(1 << i)))
        for i in range(n))
    if all(band(m, 0.0) > 0 for m in margins):
        label = K_C
    elif band(ki_margin, 0.0) > 0:
        label = K_I
    else:
        label = K_M
    return ConnectivityRegion(label, kc_margins=margins, ki_margin=ki_margin)


def component_structures(cfg: GameConfig) -> set[frozenset[frozenset[int]]]:
    """Every partition of the agents that is the component structure of some equilibrium.

    A partition is accepted when each block supports a sponsored spanning
    tree in which no member gains more than ``TOL`` from any rewiring, given
    the other blocks. Those enter a member's payoffs only through their
    joint entropies, so they are wired as index-order paths. The
    certification is exact: viable trees for each block combine into an
    equilibrium realizing the partition, and any equilibrium restricts to
    viable trees blockwise. A singleton block is the cross-component test
    that no outgoing link is strictly profitable. (A per-member test, where
    each member profits from staying connected or makes the rest profit from
    reaching it, is necessary only for stars: a chain routing information
    through a member whose information is jointly redundant escapes it.)

    Every block of every partition is judged in one batch of sponsored
    trees, with one :func:`~infogame.kernel.best_response_table` call per
    agent. The batch holds sum_m C(n, m) sponsored_tree_count(m) Bell(n - m)
    rows; past ``CHECK_BUDGET`` (from 7 agents on) it raises
    :class:`~infogame.kernel.CapExceededError` before any is built.
    Homogeneous and recipient-dependent costs only.
    """
    if cfg.costs.kind not in ("homogeneous", "recipient"):
        raise ValueError("component structures support homogeneous or recipient costs only")
    n = cfg.n_agents
    require_budget(sum(math.comb(n, m) * sponsored_tree_count(m) * set_partition_count(n - m)
                       for m in range(1, n + 1)), f"component structures of {n} agents", "sponsored trees")
    partitions, count, agents, blocks, parts = _partition_batch(n)
    viable = np.ones(count, dtype=bool)
    for i, (own, merged, part, compact) in enumerate(agents):
        viable[own] &= best_response_table(merged, cfg.fh, cfg.row_costs[i])[part, compact]
    accepted = np.logical_and.reduceat(np.logical_or.reduceat(viable, blocks), parts)
    return {part for part, ok in zip(partitions, accepted) if ok}


@cache
def _partition_batch(n: int):
    """The game-independent half of :func:`component_structures`, its arrays read-only: the partitions,
    the batch size, per agent (its blocks' rows as int32, their merged table and partitions, its compact
    rows in the table's dtype), the bounds."""
    partitions = [list(map(tuple, part)) for part in set_partitions(tuple(range(n)))]
    batch, inside = [], []
    for part in partitions:
        paths = np.zeros(n, dtype=np.int64)  # index-order paths inside every block
        for block in part:
            paths[list(block[:-1])] = 1 << np.array(block[1:], dtype=np.int64)
        for block in part:
            mask = subset_mask(block)
            batch.append(np.where(mask >> np.arange(n) & 1, sponsored_trees(block, n), paths))
            inside.append(mask)
    sizes = [len(b) for b in batch]
    rows, inside = np.concatenate(batch), np.repeat(inside, sizes)
    agents = []
    for i in range(n):
        own = np.flatnonzero(inside >> i & 1).astype(np.int32)  # the rows of the blocks holding agent i
        merged, part = merged_table(n, rows[own], i)
        agents.append((own, merged, part, compress_row(rows[own, i].astype(merged.dtype), i)))
    bounds = np.cumsum([0] + sizes[:-1]), np.cumsum([0] + [len(p) for p in partitions[:-1]])
    for a in bounds + sum(agents, ()):
        a.flags.writeable = False
    return (tuple(frozenset(map(frozenset, p)) for p in partitions), len(rows), tuple(agents)) + bounds


def strict_structure_mask(cfg: GameConfig, rows) -> np.ndarray:
    """Which profiles of a batch are strict equilibria of the star shape?

    Requires homogeneous costs. ``rows`` holds link rows, shape (batch, n),
    which :func:`~infogame.kernel.link_rows` checks.
    A profile passes when every non-singleton component is a star whose core
    sponsors all of its links, and :func:`~infogame.kernel.ne_status`, the
    test brute force uses, finds it strict. A component with a single
    sponsor is such a star, since each of its links has the sponsor at one
    end. Only star-shaped profiles reach the strict test, so a strict
    equilibrium of another shape would be a disagreement that the
    verifier's comparison with brute force reports. Returns a bool array of
    length batch.
    """
    if cfg.costs.kind != "homogeneous":
        raise ValueError("strict-structure checker supports homogeneous costs only")
    n = cfg.n_agents
    rows = link_rows(n, rows)
    comp = components(rows)
    sponsors = sum((rows[:, i] != 0).astype(np.int64) << i for i in range(n))
    stars = np.ones(len(rows), dtype=bool)
    for i in range(n):
        own = sponsors & comp[i]  # the sponsors of i's component, one bit each
        # a single sponsor (a linked component has at least one)
        stars &= (comp[i] == 1 << i) | (own & (own - 1) == 0)
    ok = np.zeros(len(rows), dtype=bool)
    ok[stars] = ne_status(rows[stars], cfg.fh, cfg.row_costs)[1]
    return ok


@dataclass(frozen=True)
class Prediction:
    """An efficiency prediction: an exact value or a strict upper bound."""

    value: float
    is_bound: bool
    region: str


def _connected_poa_closed_form(n: int, f_joint: float, costs: Sequence[float]) -> float:
    cmin = min(costs)
    num = n * f_joint - (n - 1) * cmin
    den = n * f_joint - sum(costs) + cmin
    return num / den


def poa_predict(cfg: GameConfig) -> Prediction:
    """Price-of-anarchy prediction from the region classification.

    Homogeneous: exactly 1 in K_C; in K_M a strict upper bound
    N f(H(all)) / sum_i f(H({i})). Recipient-dependent: the closed form
    (N f - (N-1) min c) / (N f - sum c + min c) in K_C, and the same K_M
    bound.

    In K_I (both cost models) the unique equilibrium is the empty network,
    so the exact value is the welfare optimum over sum_i f(H({i})). The
    optimum internalizes both endpoints' benefits and need not itself be
    empty for costs just above the isolation threshold, in which case the
    value exceeds 1; it collapses to 1 once links are socially unaffordable.
    A game where sum_i f(H({i})) is 0 raises ``ValueError`` in every region:
    its PoA is undefined. For a Shannon vector that sum is 0 only when
    H(all) is 0 too, so no network has positive welfare.
    """
    label = _region(cfg, "PoA").label
    f = cfg.benefit
    ev = cfg.ev
    empty_welfare = sum(f(v) for v in ev.singletons)
    if empty_welfare == 0.0:
        raise ValueError("the price of anarchy is undefined: the empty network has zero welfare")
    if label == K_I:
        return Prediction(social_optimum(cfg)[0] / empty_welfare, False, K_I)
    if label == K_M:
        return Prediction(cfg.n_agents * f(ev.joint_entropy) / empty_welfare, True, K_M)
    if cfg.costs.kind == "homogeneous":
        return Prediction(1.0, False, K_C)
    return Prediction(_connected_poa_closed_form(cfg.n_agents, f(ev.joint_entropy), cfg.costs.values),
                      False, K_C)


def mil_predict(cfg: GameConfig) -> Prediction:
    """Maximum-information-loss prediction: 0 in K_C and K_I, else the bound
    H(all) - min_i H({i})."""
    region = _region(cfg, "MIL")
    if region.label in (K_C, K_I):
        return Prediction(0.0, False, region.label)
    return Prediction(cfg.ev.joint_entropy - min(cfg.ev.singletons), True, K_M)


def _region(cfg: GameConfig, what: str) -> ConnectivityRegion:
    if cfg.costs.kind == "homogeneous":
        return classify_homogeneous(cfg.ev, cfg.benefit, cfg.costs.values[0])
    if cfg.costs.kind == "recipient":
        return region_heterogeneous(cfg.ev, cfg.benefit, cfg.costs)
    raise ValueError(f"{what} prediction supports homogeneous or recipient costs only")


def poa_monotonicity_sweep(
    f: BenefitFunction,
    costs: CostModel,
    family: Callable[[float], EntropicVector],
    kl_values: Sequence[float],
) -> list[tuple[float, float]]:
    """Closed-form K_C price of anarchy along a redundancy grid.

    ``family`` maps a redundancy level to an entropic vector; the per-agent
    entropies must stay fixed across the grid and every point must remain in
    K_C, otherwise the sweep raises. With recipient-dependent costs the
    resulting series is nondecreasing in the redundancy, strictly increasing
    when the costs are not all equal.
    """
    if costs.kind != "recipient":
        raise ValueError("the monotonicity sweep needs recipient-dependent costs")
    out = []
    base_singletons = None
    for kl in kl_values:
        ev = family(kl)
        if base_singletons is None:
            base_singletons = ev.singletons
        elif any(abs(a - b) > TOL for a, b in zip(base_singletons, ev.singletons)):
            raise ValueError("per-agent entropies must stay fixed across the sweep")
        region = region_heterogeneous(ev, f, costs)
        if region.label != K_C:
            raise ValueError(f"grid point kl={kl} leaves the connected region ({region.label})")
        out.append((float(kl), _connected_poa_closed_form(ev.n_agents, f(ev.joint_entropy), costs.values)))
    return out
