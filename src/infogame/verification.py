"""Cross-validation of the closed-form predictors against brute force.

Each check pits an analytic statement (region soundness, partition
characterizations, strict-equilibrium structure, efficiency formulas and
bounds, production-game characterizations, producer-fraction laws) against
exhaustive enumeration on randomized small instances plus the derived
three-agent families. The report is plain text, one PASS/FAIL line per
check, and is byte-identical across runs for a fixed seed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import analytic, equilibrium, production
from .entropy import (
    EntropicVector,
    JointPmf,
    family_pair_redundancy,
    from_joint_pmf,
)
from .formation_game import (
    BenefitFunction,
    CostModel,
    GameConfig,
    LinkProfile,
    components,
    is_minimally_connected,
)
from .kernel import profile_indices, require_budget, rows_from_indices, set_partitions
from .production import Aggregation, ProductionGameConfig, ProductionProfile


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

def random_joint_pmf(rng: np.random.Generator, n_agents: int, max_alphabet: int = 3) -> JointPmf:
    sizes = tuple(int(rng.integers(2, max_alphabet + 1)) for _ in range(n_agents))
    raw = rng.random(sizes) ** 2 + 1e-6
    return JointPmf(raw / raw.sum())


def random_entropic_vector(rng: np.random.Generator, n_agents: int) -> EntropicVector:
    return from_joint_pmf(random_joint_pmf(rng, n_agents))


def random_homogeneous_config(rng: np.random.Generator, n_agents: int,
                              benefit: BenefitFunction) -> GameConfig:
    """Random pmf-derived vector with c drawn from [0, 2 c_u]."""
    ev = random_entropic_vector(rng, n_agents)
    _, c_u = analytic.thresholds_homogeneous(ev, benefit)
    c = float(rng.uniform(0.0, 2.0 * max(c_u, 1e-6)))
    return GameConfig(ev, benefit, CostModel.homogeneous(c))


def random_recipient_config(rng: np.random.Generator, n_agents: int,
                            benefit: BenefitFunction) -> GameConfig:
    ev = random_entropic_vector(rng, n_agents)
    _, c_u = analytic.thresholds_homogeneous(ev, benefit)
    costs = [float(rng.uniform(0.0, 1.5 * max(c_u, 1e-6))) for _ in range(n_agents)]
    return GameConfig(ev, benefit, CostModel.recipient(costs))


def _realized_partitions(report: equilibrium.EquilibriumReport) -> set[frozenset[frozenset[int]]]:
    out = set()
    for p in report.ne_profiles:
        out.add(frozenset(components(p)))
    return out


def _accepted_partitions(cfg: GameConfig) -> set[frozenset[frozenset[int]]]:
    out = set()
    for part in set_partitions(tuple(range(cfg.n_agents))):
        if analytic.check_component_structure_ne(cfg, part):
            out.add(frozenset(frozenset(b) for b in part))
    return out


# -- individual checks ----------------------------------------------------------

def _check_existence_minimality(rng, n_agents, instances, benefit):
    bad = 0
    witness = ""
    for t in range(instances):
        cfg = random_homogeneous_config(rng, 2 + t % (n_agents - 1), benefit)
        report = equilibrium.enumerate_nash(cfg)
        if not report.ne_profiles:
            bad += 1
            witness = f"instance {t} has no equilibrium"
            continue
        for p in report.ne_profiles:
            if any(p.rows[i] >> j & 1 and p.rows[j] >> i & 1
                   for i in range(cfg.n_agents) for j in range(i + 1, cfg.n_agents)):
                bad += 1
                witness = f"instance {t} equilibrium {p.bitstring()} has a duplicate link"
                break
            if not all(is_minimally_connected(p, comp) for comp in components(p)):
                bad += 1
                witness = f"instance {t} equilibrium {p.bitstring()} has a cycle"
                break
    detail = f"{instances} instances" + (f"; {witness}" if bad else ", all equilibria exist and are forests")
    return bad == 0, detail


def _check_region_soundness(rng, benefit):
    kl_grid = [0.0, 1.0, 2.0, 3.0, 4.0]
    failures = []
    for kl in kl_grid:
        ev = family_pair_redundancy(5.0, 4.0, 4.0, kl)
        c_l, c_u = analytic.thresholds_homogeneous(ev, benefit)
        for c in np.linspace(0.02, 1.4, 15):
            cfg = GameConfig(ev, benefit, CostModel.homogeneous(float(c)))
            report = equilibrium.enumerate_nash(cfg)
            if c < c_l - 1e-9:
                joint = ev.joint_entropy
                if not all(all(abs(v - joint) <= 1e-9 for v in info) for info in report.ne_agent_info):
                    failures.append(f"kl={kl} c={c:.4f}: disconnected equilibrium below c_l")
            elif c > c_u + 1e-9:
                if len(report.ne_profiles) != 1 or any(report.ne_profiles[0].rows):
                    failures.append(f"kl={kl} c={c:.4f}: non-empty equilibrium above c_u")
    return not failures, failures[0] if failures else "connected below c_l, unique empty above c_u"


def _check_partitions(rng, n_agents, instances, benefit, random_config):
    for t in range(instances):
        cfg = random_config(rng, 2 + t % (n_agents - 1), benefit)
        realized = _realized_partitions(equilibrium.enumerate_nash(cfg))
        accepted = _accepted_partitions(cfg)
        if realized != accepted:
            return False, f"instance {t}: realized {len(realized)} vs accepted {len(accepted)} partitions"
    return True, f"{instances} instances, partition sets identical"


def _check_strict_equivalence(rng, n_agents, instances, benefit):
    for t in range(instances):
        cfg = random_homogeneous_config(rng, 2 + t % (n_agents - 1), benefit)
        report = equilibrium.enumerate_nash(cfg)
        n = cfg.n_agents
        rows = rows_from_indices(np.arange(1 << (n * (n - 1))), n)
        strict_rows = np.array([p.rows for p in report.strict_ne_profiles], dtype=np.int64).reshape(-1, n)
        strict = np.zeros(len(rows), dtype=bool)
        strict[profile_indices(strict_rows)] = True
        wrong = np.flatnonzero(analytic.strict_structure_mask(cfg, rows) != strict)
        if len(wrong):
            p = LinkProfile(n, tuple(rows[wrong[0]].tolist()))
            return False, f"instance {t}: profile {p.bitstring()} misclassified"
    return True, f"{instances} instances, strict sets identical"


def _check_poa(rng, n_agents, instances, benefit, random_config, claim):
    """Brute-force PoA against the prediction: equal where it is exact, below
    it where it is a bound. A bound holds vacuously for a game without a pure
    equilibrium; such games are counted, and fail an exact prediction."""
    without_ne = 0
    for t in range(instances):
        cfg = random_config(rng, 2 + t % (n_agents - 1), benefit)
        pred = analytic.poa_predict(cfg)
        report = equilibrium.enumerate_nash(cfg)
        poa = report.poa
        if poa is None:
            if pred.is_bound and not report.ne_profiles:
                without_ne += 1
                continue
            return False, f"instance {t}: undefined brute-force PoA"
        if pred.is_bound:
            if not poa < pred.value + 1e-9:
                return False, f"instance {t}: PoA {poa} exceeds bound {pred.value}"
        elif abs(poa - pred.value) > 1e-6:
            return False, f"instance {t}: PoA {poa} vs exact {pred.value} in {pred.region}"
    detail = f"{instances} instances, {claim}"
    if without_ne:
        detail += f"; {without_ne} without a pure equilibrium"
    return True, detail


def _check_mil(rng, n_agents, instances, benefit):
    for t in range(instances):
        cfg = random_homogeneous_config(rng, 2 + t % (n_agents - 1), benefit)
        pred = analytic.mil_predict(cfg)
        mil = equilibrium.enumerate_nash(cfg).mil
        if pred.is_bound:
            if mil > pred.value + 1e-9:
                return False, f"instance {t}: MIL {mil} above bound {pred.value}"
        elif abs(mil - pred.value) > 1e-9:
            return False, f"instance {t}: MIL {mil} vs exact {pred.value}"
    return True, f"{instances} instances, zero in K_C/K_I and bounded in K_M"


def _check_heterogeneous_regions(rng, n_agents, instances, benefit):
    for t in range(instances):
        cfg = random_recipient_config(rng, 2 + t % (n_agents - 1), benefit)
        region = analytic.region_heterogeneous(cfg.ev, benefit, cfg.costs)
        report = equilibrium.enumerate_nash(cfg)
        joint = cfg.ev.joint_entropy
        if region.label == analytic.K_C:
            if not all(all(abs(v - joint) <= 1e-9 for v in info) for info in report.ne_agent_info):
                return False, f"instance {t}: disconnected equilibrium inside K_C"
        elif region.label == analytic.K_I:
            if len(report.ne_profiles) != 1 or any(report.ne_profiles[0].rows):
                return False, f"instance {t}: K_I equilibrium is not the unique empty network"
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
    for rows, prods in production.grid_batches(cfg):
        wrong = np.flatnonzero(production.production_ne_mask(cfg, rows, prods)
                               != production.shape_mask(cfg, rows, prods))
        if len(wrong):
            s = ProductionProfile(tuple(prods[wrong[0]].tolist()),
                                  LinkProfile(cfg.n_agents, tuple(rows[wrong[0]].tolist())))
            return False, f"profile {s.to_text().strip()} misclassified"
    return True, "scan agrees with the characterization"


def _check_production(agg: Aggregation, benefit):
    base = dict(n_agents=3, benefit=benefit, k=0.25, agg=agg)
    for c in (0.2, 1.0):
        cfg = ProductionGameConfig(c=c, **base)
        ok, detail = _production_scan_matches(cfg)
        if not ok:
            return False, f"c={c}: {detail}"
        if cfg.high_cost():
            found = production.enumerate_production_ne(cfg)
            hb = cfg.h_bar()
            if len(found) != 1 or any(found[0].links.rows) or any(
                    abs(p - hb) > 1e-9 for p in found[0].productions):
                return False, f"c={c}: high-cost equilibrium not unique full production"
    return True, "grid scan matches on both sides of k*h_bar"


def _check_few_laws(benefit):
    n_list = [2, 3, 4, 5, 6, 7, 8]
    high = ProductionGameConfig(n_agents=2, benefit=benefit, k=0.25, c=1.0, agg=Aggregation.SUM)
    low_max = ProductionGameConfig(n_agents=2, benefit=benefit, k=0.25, c=0.2, agg=Aggregation.MAX)
    low_sum = ProductionGameConfig(n_agents=2, benefit=benefit, k=0.25, c=0.2, agg=Aggregation.SUM)
    hb = high.h_bar()
    for pt in production.few_sweep(high, n_list):
        if pt.producer_fraction != 1.0 or abs(pt.total_information_bits - pt.n * hb) > 1e-9:
            return False, f"high-cost SUM point n={pt.n} off"
    for pt in production.few_sweep(low_max, n_list):
        if abs(pt.producer_fraction - 1.0 / pt.n) > 1e-12 or abs(pt.total_information_bits - hb) > 1e-9:
            return False, f"low-cost MAX point n={pt.n} off"
    for pt in production.few_sweep(low_sum, n_list):
        if pt.producer_fraction != 1.0 or abs(pt.total_information_bits - hb) > 1e-9:
            return False, f"low-cost SUM point n={pt.n} off"
    return True, f"n in {n_list}: fractions 1, 1/n, 1 with totals n*h_bar, h_bar, h_bar"


def _instance_profiles(n_agents: int, instances: int) -> int:
    """Profiles of the games of one randomized check: instance t has m = 2 + t mod (n_agents - 1)
    agents and 2**(m(m-1)) profiles, so each size counts once per full cycle plus the remainder."""
    cycles, rest = divmod(instances, n_agents - 1)
    return sum((cycles + (m - 2 < rest)) << (m * (m - 1)) for m in range(2, n_agents + 1))


def run_verification(n_agents: int = 3, instances: int = 20, seed: int = 0) -> VerifyReport:
    """Run every cross-validation suite; deterministic for a fixed seed. Refuses a
    randomized check whose games have more than ``CHECK_BUDGET`` profiles in all."""
    if not 2 <= n_agents <= 4:
        raise ValueError("verification brute force supports 2..4 agents")
    if instances < 1:
        raise ValueError("need at least one instance")
    require_budget(_instance_profiles(n_agents, instances),
                   f"verify with {instances} instances of up to {n_agents} agents", "profiles")
    benefit = BenefitFunction.log1p(math.e)
    checks = []

    def run(name, fn, *args):
        passed, detail = fn(*args)
        checks.append(VerifyCheck(name, bool(passed), detail))

    rng = np.random.default_rng(seed)
    run("existence_and_minimality", _check_existence_minimality, rng, n_agents, instances, benefit)
    run("connectivity_thresholds", _check_region_soundness, rng, benefit)
    run("ne_partition_characterization", _check_partitions, rng, n_agents, instances, benefit,
        random_homogeneous_config)
    run("strict_ne_structure", _check_strict_equivalence, rng, n_agents, max(instances // 2, 5), benefit)
    run("poa_homogeneous", _check_poa, rng, n_agents, instances, benefit,
        random_homogeneous_config, "exact in K_C/K_I and bounded in K_M")
    run("mil_bounds", _check_mil, rng, n_agents, instances, benefit)
    run("heterogeneous_regions", _check_heterogeneous_regions, rng, n_agents, instances, benefit)
    run("heterogeneous_partition_characterization", _check_partitions, rng, n_agents, instances, benefit,
        random_recipient_config)
    run("poa_heterogeneous", _check_poa, rng, n_agents, instances, benefit,
        random_recipient_config, "connected-region closed form matches brute force")
    run("poa_redundancy_monotonicity", _check_poa_monotonicity, benefit)
    run("production_sum_characterization", _check_production, Aggregation.SUM, benefit)
    run("production_max_characterization", _check_production, Aggregation.MAX, benefit)
    run("producer_fraction_laws", _check_few_laws, benefit)
    return VerifyReport(seed=seed, checks=tuple(checks))
