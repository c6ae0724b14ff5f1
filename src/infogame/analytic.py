"""Closed-form predictors for equilibrium structure and efficiency.

Every function here has a brute-force counterpart in :mod:`infogame.equilibrium`
against which it can be cross-validated. The strict-equilibrium structure is
judged a batch at a time by :func:`strict_structure_mask`, on the kernel's
components; :func:`check_strict_ne_structure` is its batch of one.
Cost-model coverage follows the available theory: homogeneous and
recipient-dependent costs are supported, general cost matrices are rejected.

Boundary conventions. Homogeneous classification puts c = c_l in the
connected region and c = c_u in the isolated region; when c_l = c_u the
connected label wins. Recipient-dependent membership in the connected region
quantifies its per-agent inequality over every agent, which is what actually
guarantees that all equilibria are connected (the argmin-only variant does
not). The cross-component condition of the component checker is oriented as
"a strictly profitable cross link refutes equilibrium" for both cost models.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .entropy import TOL, EntropicVector, full_mask, subset_agents, subset_mask
from .formation_game import BenefitFunction, CostModel, GameConfig, LinkProfile
from .equilibrium import SCAN_CHUNK, social_optimum
from .kernel import components, ne_status, require_budget, sponsored_tree_count, sponsored_trees

K_C = "K_C"
K_I = "K_I"
K_M = "K_M"


@dataclass(frozen=True)
class ConnectivityRegion:
    """Region label plus the numbers that decided it.

    Homogeneous games carry the two thresholds. Recipient-dependent games
    carry per-agent connectivity margins (positive for all agents puts the
    game in K_C) and the isolation margin (positive puts it in K_I).
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
    """Label a homogeneous link cost as K_C (c <= c_l), K_I (c >= c_u) or K_M."""
    c_l, c_u = thresholds_homogeneous(ev, f)
    if c <= c_l:
        label = K_C
    elif c >= c_u:
        label = K_I
    else:
        label = K_M
    return ConnectivityRegion(label, c_l=c_l, c_u=c_u)


def region_heterogeneous(ev: EntropicVector, f: BenefitFunction, costs: CostModel) -> ConnectivityRegion:
    """Classify a recipient-dependent cost vector.

    K_C requires c_i < f(H(all)) - f(H(all\\{i})) for every agent i; that is
    the universal-quantifier form, which is what actually forces every
    equilibrium to be connected (the argmin-only form does not). K_I
    requires f(H(all)) - f(H({i})) < min_{k != i} c_k for every agent i: no
    agent can cover even the cheapest link with even the maximal
    information gain, so every sponsored link anywhere is strictly
    droppable and the empty network is the unique equilibrium. An
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
    if all(m > 0.0 for m in margins):
        label = K_C
    elif ki_margin > 0.0:
        label = K_I
    else:
        label = K_M
    return ConnectivityRegion(label, kc_margins=margins, ki_margin=ki_margin)


def _partition_masks(n: int, partition: Iterable[Iterable[int]]) -> list[int]:
    masks = []
    covered = 0
    for block in partition:
        mask = subset_mask(block)
        if mask == 0:
            raise ValueError("partition blocks must be nonempty")
        if mask & covered:
            raise ValueError("partition blocks overlap")
        covered |= mask
        masks.append(mask)
    if covered != full_mask(n):
        raise ValueError("partition does not cover all agents")
    return masks


def _block_supports_ne(cfg: GameConfig, mask: int, other_masks: list[int]) -> bool:
    """Does some sponsored spanning tree of the block survive its members' best
    responses, with the other blocks abstracted to their information masks?

    An agent's deviation payoffs depend on the other components only through
    their joint entropies, so blocks can be certified independently: wire the
    other blocks as arbitrary trees, try every sponsored spanning tree of this
    block, and demand that every member's current row stays within tolerance
    of its best response. The trees are judged in batches of ``SCAN_CHUNK``,
    and the search stops at the first batch holding a viable tree.
    """
    n = cfg.n_agents
    members = subset_agents(mask)
    # index-order paths inside the other blocks; shape is irrelevant to this block
    filler = [0] * n
    for om in other_masks:
        agents = subset_agents(om)
        for t in range(len(agents) - 1):
            filler[agents[t]] |= 1 << agents[t + 1]
    trees = sponsored_trees(members, n) | np.array(filler, dtype=np.int64)
    return any(ne_status(n, trees[start:start + SCAN_CHUNK], members, cfg.fh, cfg.row_costs)[0].any()
               for start in range(0, len(trees), SCAN_CHUNK))


def check_component_structure_ne(cfg: GameConfig, partition: Iterable[Iterable[int]]) -> bool:
    """Can a network whose components are exactly ``partition`` arise in equilibrium?

    True when every block supports a sponsored spanning tree in which no
    member gains more than 1e-9 from any rewiring, given the information held
    by the other blocks. Singleton blocks reduce to the cross-component test
    that no outgoing link is strictly profitable. The certification is exact:
    viable trees for each block combine into an equilibrium realizing the
    partition, and any equilibrium restricts to viable trees blockwise.

    A simpler per-member test (each member either profits from staying
    connected or makes the rest profit from reaching it) is necessary only
    for star-shaped components; chains routing information through a member
    whose information is jointly redundant escape it, so the constructive
    characterization is used instead. Supports homogeneous and
    recipient-dependent costs; general cost matrices are rejected. A
    partition whose blocks have more than ``CHECK_BUDGET`` sponsored trees
    in all raises :class:`~infogame.kernel.CapExceededError` before any is
    checked.
    """
    if cfg.costs.kind not in ("homogeneous", "recipient"):
        raise ValueError("component checker supports homogeneous or recipient costs only")
    n = cfg.n_agents
    masks = _partition_masks(n, partition)
    require_budget(sum(sponsored_tree_count(mask.bit_count()) for mask in masks),
                   f"component checker on blocks of {sorted(m.bit_count() for m in masks)} agents",
                   "sponsored trees")
    for mask in masks:
        others = [m for m in masks if m != mask]
        if not _block_supports_ne(cfg, mask, others):
            return False
    return True


def strict_structure_mask(cfg: GameConfig, rows) -> np.ndarray:
    """Which profiles of a batch are shaped like a strict equilibrium?

    Requires homogeneous costs. ``rows`` holds link rows, shape (batch, n).
    A profile passes when its partition passes
    :func:`check_component_structure_ne`, every non-singleton component is a
    star whose core sponsors all of its links, and each periphery agent j
    makes the core's link to it strictly worthwhile:
    f(H(C)) - f(H(C\\{j})) > c. A component with a single sponsor is such
    a star, since each of its links has the sponsor at one end. The usual
    statement also asks at least M - 1 members of an M-agent component to
    clear the bar; the M - 1 periphery agents do, so that follows. Each
    distinct partition of the batch's star-shaped profiles is checked once.
    Returns a bool array of length batch.
    """
    if cfg.costs.kind != "homogeneous":
        raise ValueError("strict-structure checker supports homogeneous costs only")
    n = cfg.n_agents
    rows = np.asarray(rows, dtype=np.int64)
    if rows.ndim != 2 or rows.shape[1] != n:
        raise ValueError("profile size does not match the game")
    comp = components(rows)
    sponsors = sum((rows[:, i] != 0).astype(np.int64) << i for i in range(n))
    masks = np.arange(1 << n)
    ok = np.ones(len(rows), dtype=bool)
    for j in range(n):
        bit = 1 << j
        own = sponsors & comp[j]  # the sponsors of j's component, one bit each
        # zeta[C]: the link from C's core to j is strictly worth its cost
        zeta = cfg.fh - cfg.fh[masks & ~bit] > cfg.costs.values[0] + TOL
        # a single sponsor (a linked component has at least one), and j is it or in zeta
        ok &= (comp[j] == bit) | (own & (own - 1) == 0) & ((own == bit) | zeta[comp[j]])
    partitions = {}
    for b, key in zip(np.flatnonzero(ok).tolist(), map(tuple, comp.T[ok].tolist())):
        if key not in partitions:
            partitions[key] = check_component_structure_ne(cfg, [subset_agents(m) for m in sorted(set(key))])
        ok[b] = partitions[key]
    return ok


def check_strict_ne_structure(cfg: GameConfig, profile: LinkProfile) -> bool:
    """Is ``profile`` shaped like a strict equilibrium? :func:`strict_structure_mask`
    of the batch of one."""
    return bool(strict_structure_mask(cfg, [profile.rows])[0])


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
    """
    label = _region(cfg, "PoA").label
    f = cfg.benefit
    ev = cfg.ev
    empty_welfare = sum(f(v) for v in ev.singletons)
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
