"""Cross-validation of the closed-form predictors against brute force.

Each check pits an analytic statement (region soundness, partition
characterizations, strict-equilibrium structure, efficiency formulas and
bounds, production-game characterizations, producer-fraction laws) against
exhaustive enumeration on randomized small instances plus the derived
three-agent families. The report is plain text, one PASS/FAIL line per
check, and is byte-identical across runs for a fixed seed.

A randomized check draws all its games, in the order of one game at a time,
enumerates them in one :func:`~infogame.equilibrium.enumerate_games` call
and judges them in order. One that stops at instance t leaves the generator
as it stood after drawing instance t, so later checks draw what they would
if each game were drawn and judged in turn.

The games come from :class:`~infogame.pcg64.Pcg64`, PCG64 drawn in pure
Python exactly as numpy's ``default_rng(seed)`` draws it: saved reports keep
their bytes, and no run loads numpy's random module or the OpenSSL library
that it maps.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import analytic, equilibrium, production
from .csvtable import row_strings
from .entropy import TOL, EntropicVector, JointPmf, band, family_pair_redundancy, from_joint_pmfs, subset_agents
from .formation_game import BenefitFunction, CostModel, GameConfig
from .kernel import ne_status, profile_indices, require_budget, rows_from_indices
from .pcg64 import Pcg64
from .production import Aggregation, ProductionGameConfig

# each agent of a random joint pmf draws 2 .. MAX_ALPHABET outcomes
MAX_ALPHABET = 3


@dataclass(frozen=True)
class VerifyCheck:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class VerifyReport:
    seed: int
    checks: tuple[VerifyCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_text(self) -> str:
        lines = [f"verification seed={self.seed} checks={len(self.checks)}"]
        for c in self.checks:
            lines.append(f"{'PASS' if c.passed else 'FAIL'} {c.name}: {c.detail}")
        lines.append(("OK" if self.ok else "FAILED")
                     + f" ({sum(c.passed for c in self.checks)}/{len(self.checks)} passed)")
        return "\n".join(lines) + "\n"


# -- randomized instances ------------------------------------------------------

def random_joint_pmf(rng, n_agents: int) -> JointPmf:
    """A random pmf of ``n_agents`` agents with 2 .. MAX_ALPHABET outcomes each; ``rng`` is a numpy
    ``Generator`` or a :class:`~infogame.pcg64.Pcg64`, which draw the same pmf from one state."""
    sizes = tuple(int(rng.integers(2, MAX_ALPHABET + 1)) for _ in range(n_agents))
    raw = rng.random(sizes) ** 2 + 1e-6
    return JointPmf(raw / raw.sum())


def random_configs(rng, sizes, benefit: BenefitFunction, homogeneous: bool = True,
                   states: list | None = None) -> list[GameConfig]:
    """A random game per size, pmf-derived, with c drawn from [0, 2 c_u] or recipient costs from
    [0, 1.5 c_u]: a pmf, then a variate u per cost, and cost hi * u, as rng.uniform(0, hi) gives.
    The vectors are built in one batch per pmf shape. ``rng`` is a numpy ``Generator`` or a
    :class:`~infogame.pcg64.Pcg64`; ``states``, which needs the latter, gets its state after each game."""
    pmfs, draws = [], []
    for m in sizes:
        pmfs.append(random_joint_pmf(rng, m))
        draws.append(rng.random(1 if homogeneous else m).tolist())
        if states is not None:
            states.append(rng.getstate())
    cfgs = []
    for ev, u in zip(from_joint_pmfs(pmfs), draws):
        hi = (2.0 if homogeneous else 1.5) * max(analytic.thresholds_homogeneous(ev, benefit)[1], 1e-6)
        costs = CostModel.homogeneous(hi * u[0]) if homogeneous else CostModel.recipient([hi * x for x in u])
        cfgs.append(GameConfig(ev, benefit, costs))
    return cfgs


def _realized_partitions(report: equilibrium.EquilibriumReport) -> set[frozenset[frozenset[int]]]:
    return {frozenset(frozenset(subset_agents(m)) for m in column)
            for column in set(map(tuple, report.components.T.tolist()))}


def _region_refuted(label: str, report: equilibrium.EquilibriumReport, ev: EntropicVector) -> str:
    """What brute force refutes of a region's claim, '' if nothing: in K_C every agent of every
    equilibrium holds the joint entropy, within TOL; in K_I the empty network is the one equilibrium."""
    info = np.array(report.info_values)[report.components]
    if label == analytic.K_C and (np.abs(info - ev.joint_entropy) > TOL).any():
        return "disconnected equilibrium inside K_C"
    if label == analytic.K_I and (len(report.rows) != 1 or report.rows.any()):
        return "K_I equilibrium is not the unique empty network"
    return ""


def _games(rng, n_agents, instances, benefit, homogeneous=True):
    """A check's instances, t with 2 + t mod (n_agents - 1) agents, as (t, cfg, report), all
    drawn, then enumerated in one batch; each comes with ``rng`` back at its state right after
    that instance was drawn, so a check that stops at instance t leaves it there."""
    states = []
    cfgs = random_configs(rng, [2 + t % (n_agents - 1) for t in range(instances)], benefit, homogeneous, states)
    for t, (cfg, report) in enumerate(zip(cfgs, equilibrium.enumerate_games(cfgs))):
        rng.setstate(states[t])
        yield t, cfg, report


# -- individual checks ----------------------------------------------------------

def _check_existence_minimality(rng, n_agents, instances, benefit):
    """Every game has an equilibrium, each a forest without duplicate links, and the scan lists
    what ``ne_status`` finds on the whole profile space, each size's games stacked: no forest premise."""
    bad = 0
    witness = ""
    games = list(_games(rng, n_agents, instances, benefit))
    judged = {}  # each size's (ne, strict) pairs, one per game in order
    for n in {cfg.n_agents for _, cfg, _ in games}:
        same = [cfg for _, cfg, _ in games if cfg.n_agents == n]
        flags = ne_status(rows_from_indices(np.arange(1 << n * (n - 1)), n), np.stack([cfg.fh for cfg in same]),
                          np.stack([cfg.row_costs for cfg in same]))
        judged[n] = zip(*flags)
    for t, cfg, report in games:
        rows, n = report.rows, cfg.n_agents
        ne, strict = next(judged[n])
        if not len(rows):
            bad += 1
            witness = f"instance {t} has no equilibrium"
            continue
        # a forest without duplicate links has n - (number of components) links
        links = (rows[:, :, None] >> np.arange(n) & 1).sum(axis=(1, 2))
        roots = report.components & -report.components == 1 << np.arange(n)[:, None]
        wrong = np.flatnonzero(links > n - roots.sum(axis=0))
        if len(wrong):
            r = rows[wrong[0]]
            bad += 1
            duplicate = any(r[i] >> j & r[j] >> i & 1 for i in range(n) for j in range(i))
            witness = (f"instance {t} equilibrium {''.join(row_strings(n)[r])} has "
                       + ("a duplicate link" if duplicate else "a cycle"))
        elif profile_indices(rows.astype(np.int64)).tolist() != np.flatnonzero(ne).tolist() or (
                report.strict.tolist() != strict[ne].tolist()):
            bad += 1
            witness = (f"instance {t} equilibria differ from its whole profile space's: "
                       f"{len(rows)} listed, {ne.sum()} found")
    detail = f"{instances} instances" + (f"; {witness}" if bad else ", all equilibria exist and are forests")
    return bad == 0, detail


def _check_region_soundness(benefit):
    games = []  # (kl, c, vector), enumerated in one batch: a grid, then each threshold and TOL/2 either side
    for kl in [0.0, 1.0, 2.0, 3.0, 4.0]:
        ev = family_pair_redundancy(5.0, 4.0, 4.0, kl)
        cuts = [x + d * TOL for x in analytic.thresholds_homogeneous(ev, benefit) for d in (-0.5, 0, 0.5)]
        games += [(kl, float(c), ev) for c in [*np.linspace(0.02, 1.4, 15), *cuts]]
    reports = equilibrium.enumerate_games(GameConfig(ev, benefit, CostModel.homogeneous(c)) for _, c, ev in games)
    for (kl, c, ev), report in zip(games, reports):
        if refuted := _region_refuted(analytic.classify_homogeneous(ev, benefit, c).label, report, ev):
            return False, f"kl={kl} c={c!r}: {refuted}"
    return True, "connected below c_l, unique empty above c_u"


def _check_partitions(rng, n_agents, instances, benefit, homogeneous):
    for t, cfg, report in _games(rng, n_agents, instances, benefit, homogeneous):
        realized = _realized_partitions(report)
        accepted = analytic.component_structures(cfg)
        if realized != accepted:
            return False, f"instance {t}: realized {len(realized)} vs accepted {len(accepted)} partitions"
    return True, f"{instances} instances, partition sets identical"


def _check_strict_equivalence(rng, n_agents, instances, benefit):
    for t, cfg, report in _games(rng, n_agents, instances, benefit):
        n = cfg.n_agents
        rows = rows_from_indices(np.arange(1 << (n * (n - 1))), n)
        strict = np.zeros(len(rows), dtype=bool)
        strict[profile_indices(report.rows[report.strict])] = True
        wrong = np.flatnonzero(analytic.strict_structure_mask(cfg, rows) != strict)
        if len(wrong):
            return False, f"instance {t}: profile {''.join(row_strings(n)[rows[wrong[0]]])} misclassified"
    return True, f"{instances} instances, strict sets identical"


def _check_poa(rng, n_agents, instances, benefit, homogeneous, claim):
    """Brute-force PoA against the prediction: equal where it is exact, below
    it where it is a bound. A bound holds vacuously for a game without a pure
    equilibrium; such games are counted, and fail an exact prediction."""
    without_ne = 0
    for t, cfg, report in _games(rng, n_agents, instances, benefit, homogeneous):
        pred = analytic.poa_predict(cfg)
        poa = report.poa
        if poa is None:
            if pred.is_bound and not len(report.rows):
                without_ne += 1
                continue
            return False, f"instance {t}: undefined brute-force PoA"
        if pred.is_bound:
            if not poa < pred.value + TOL:
                return False, f"instance {t}: PoA {poa} exceeds bound {pred.value}"
        elif abs(poa - pred.value) > 1e-6:
            return False, f"instance {t}: PoA {poa} vs exact {pred.value} in {pred.region}"
    detail = f"{instances} instances, {claim}"
    if without_ne:
        detail += f"; {without_ne} without a pure equilibrium"
    return True, detail


def _check_mil(rng, n_agents, instances, benefit):
    for t, cfg, report in _games(rng, n_agents, instances, benefit):
        pred = analytic.mil_predict(cfg)
        mil = report.mil
        if pred.is_bound:
            if mil > pred.value + TOL:
                return False, f"instance {t}: MIL {mil} above bound {pred.value}"
        elif abs(mil - pred.value) > TOL:
            return False, f"instance {t}: MIL {mil} vs exact {pred.value}"
    return True, f"{instances} instances, zero in K_C/K_I and bounded in K_M"


def _check_heterogeneous_regions(rng, n_agents, instances, benefit):
    for t, cfg, report in _games(rng, n_agents, instances, benefit, False):
        if refuted := _region_refuted(analytic.region_heterogeneous(cfg.ev, benefit, cfg.costs).label, report, cfg.ev):
            return False, f"instance {t}: {refuted}"
    return True, f"{instances} instances, K_C all-connected and K_I unique-empty"


def _check_poa_monotonicity(benefit):
    costs = CostModel.recipient([0.01, 0.02, 0.03])
    series = analytic.poa_monotonicity_sweep(
        benefit, costs, lambda kl: family_pair_redundancy(5.0, 4.0, 4.0, kl),
        [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0])
    values = [v for _, v in series]
    increasing = all(b > a for a, b in zip(values, values[1:]))
    return increasing, f"series {['%.6f' % v for v in values]}"


def _production_scan_matches(cfg: ProductionGameConfig):
    """Compare the grid scan with the characterization; (True, the scan's equilibria as
    (rows, prods)) when they agree, else (False, the first misclassified profile)."""
    rows, prods = production.grid_profiles(cfg)
    ne = production.production_ne_mask(cfg, rows, prods)
    wrong = np.argwhere(ne != production.shape_mask(cfg, rows, prods))
    if len(wrong):
        links = "".join(row_strings(cfg.n_agents)[rows[wrong[0, 0]]])
        levels = ",".join(f"{p:.17g}" for p in prods[wrong[0, 1]].tolist())
        return False, f"profile {links} {levels} misclassified"
    at, level = np.nonzero(ne)
    return True, (rows[at], prods[level])


def _check_production(agg: Aggregation, benefit):
    base = dict(n_agents=3, benefit=benefit, k=0.25, agg=agg)
    for c in (0.2, 1.0):
        cfg = ProductionGameConfig(c=c, **base)
        ok, found = _production_scan_matches(cfg)
        if not ok:
            return False, f"c={c}: {found}"
        if band(c, cfg.k * cfg.h_bar) > 0:
            rows, prods = found
            if len(rows) != 1 or rows.any() or (np.abs(prods - cfg.h_bar) > TOL).any():
                return False, f"c={c}: high-cost equilibrium not unique full production"
    return True, "grid scan matches on both sides of k*h_bar"


def _check_few_laws(benefit):
    n_list = [2, 3, 4, 5, 6, 7, 8]
    high = ProductionGameConfig(n_agents=2, benefit=benefit, k=0.25, c=1.0, agg=Aggregation.SUM)
    low_max = ProductionGameConfig(n_agents=2, benefit=benefit, k=0.25, c=0.2, agg=Aggregation.MAX)
    low_sum = ProductionGameConfig(n_agents=2, benefit=benefit, k=0.25, c=0.2, agg=Aggregation.SUM)
    hb = high.h_bar
    for pt in production.few_sweep(high, n_list):
        if pt.producer_fraction != 1.0 or abs(pt.total_information_bits - pt.n * hb) > TOL:
            return False, f"high-cost SUM point n={pt.n} off"
    for pt in production.few_sweep(low_max, n_list):
        if abs(pt.producer_fraction - 1.0 / pt.n) > 1e-12 or abs(pt.total_information_bits - hb) > TOL:
            return False, f"low-cost MAX point n={pt.n} off"
    for pt in production.few_sweep(low_sum, n_list):
        if pt.producer_fraction != 1.0 or abs(pt.total_information_bits - hb) > TOL:
            return False, f"low-cost SUM point n={pt.n} off"
    return True, f"n in {n_list}: fractions 1, 1/n, 1 with totals n*h_bar, h_bar, h_bar"


def _instance_profiles(n_agents: int, instances: int) -> int:
    """Profiles of the games of one randomized check: instance t has m = 2 + t mod (n_agents - 1)
    agents and 2**(m(m-1)) profiles, so each size counts once per full cycle plus the remainder."""
    cycles, rest = divmod(instances, n_agents - 1)
    return sum((cycles + (m - 2 < rest)) << (m * (m - 1)) for m in range(2, n_agents + 1))


def run_verification(n_agents: int = 3, instances: int = 20, seed: int = 0) -> VerifyReport:
    """Run every cross-validation suite; deterministic for a fixed seed. Refuses a
    randomized check whose games have more than ``CHECK_BUDGET`` profiles in all, and any
    argument that is not an integer (a bool included); numpy integers count as ints."""
    for name, value in (("n_agents", n_agents), ("instances", instances), ("seed", seed)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    n_agents, instances, seed = int(n_agents), int(instances), int(seed)
    if not 2 <= n_agents <= 4:
        raise ValueError("verification brute force supports 2..4 agents")
    if instances < 1:
        raise ValueError("need at least one instance")
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    require_budget(_instance_profiles(n_agents, instances),
                   f"verify with {instances} instances of up to {n_agents} agents", "profiles")
    benefit = BenefitFunction.log1p(math.e)
    checks = []

    def run(name, fn, *args):
        passed, detail = fn(*args)
        checks.append(VerifyCheck(name, bool(passed), detail))

    rng = Pcg64(seed)
    run("existence_and_minimality", _check_existence_minimality, rng, n_agents, instances, benefit)
    run("connectivity_thresholds", _check_region_soundness, benefit)
    run("ne_partition_characterization", _check_partitions, rng, n_agents, instances, benefit, True)
    run("strict_ne_structure", _check_strict_equivalence, rng, n_agents, max(instances // 2, 5), benefit)
    run("poa_homogeneous", _check_poa, rng, n_agents, instances, benefit, True, "exact in K_C/K_I and bounded in K_M")
    run("mil_bounds", _check_mil, rng, n_agents, instances, benefit)
    run("heterogeneous_regions", _check_heterogeneous_regions, rng, n_agents, instances, benefit)
    run("heterogeneous_partition_characterization", _check_partitions, rng, n_agents, instances, benefit, False)
    run("poa_heterogeneous", _check_poa, rng, n_agents, instances, benefit, False,
        "connected-region closed form matches brute force")
    run("poa_redundancy_monotonicity", _check_poa_monotonicity, benefit)
    run("production_sum_characterization", _check_production, Aggregation.SUM, benefit)
    run("production_max_characterization", _check_production, Aggregation.MAX, benefit)
    run("producer_fraction_laws", _check_few_laws, benefit)
    return VerifyReport(seed=seed, checks=tuple(checks))
