"""Acceptance suite: one test per criterion, one PASS/FAIL line printed each.

Run with ``pytest tests/test_acceptance.py -v -s``. Every numeric target is
recomputed here from its defining formula or from the brute-force oracle;
nothing is asserted that was not derived independently of the code path
under test.
"""
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from infogame import production
from infogame.analytic import (
    K_C,
    K_I,
    K_M,
    classify_homogeneous,
    component_structures,
    mil_predict,
    poa_monotonicity_sweep,
    poa_predict,
    region_heterogeneous,
    strict_structure_mask,
    thresholds_homogeneous,
)
from infogame.cli import main
from infogame.entropy import family_pair_redundancy, from_joint_pmfs
from infogame.equilibrium import enumerate_nash
from infogame.entropy import subset_agents
from infogame.formation_game import (
    BenefitFunction,
    CostModel,
    GameConfig,
)
from infogame.production import (
    Aggregation,
    ProductionGameConfig,
    few_sweep,
    production_equilibria,
    production_ne_mask,
    shape_mask,
)
from infogame.verification import random_joint_pmf
from scalar_kernel import is_minimally_connected, profile_from_index, random_homogeneous_config

LN = BenefitFunction.log1p(math.e)


@contextmanager
def criterion(num, claim):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} FAIL: {claim}")
        raise
    print(f"ACCEPTANCE {num} PASS: {claim}")


@pytest.fixture(scope="module")
def random_batch():
    """200 random instances (n <= 4, pmf-derived vectors, c in [0, 2 c_u])
    with their enumeration reports; shared by criteria 1 and 2."""
    t0 = time.time()
    batch = []
    for seed in range(200):
        rng = np.random.default_rng(seed)
        cfg = random_homogeneous_config(rng, 2 + seed % 3, LN)
        batch.append((cfg, enumerate_nash(cfg)))
    return batch, time.time() - t0


def test_criterion_1_pure_ne_existence(random_batch):
    batch, elapsed = random_batch
    with criterion(1, "200 random instances each have at least one pure equilibrium, "
                      f"enumerated in {elapsed:.1f}s"):
        assert len(batch) == 200
        for cfg, report in batch:
            assert len(report.rows), "instance without equilibrium"
        assert elapsed < 60.0


def test_criterion_2_equilibrium_minimality(random_batch):
    batch, _ = random_batch
    with criterion(2, "every component of every enumerated equilibrium is a tree"):
        for cfg, report in batch:
            for p, comp in zip(report.rows.tolist(), report.components.T.tolist()):
                assert all(is_minimally_connected(p, subset_agents(m)) for m in set(comp))


def test_criterion_3_connectivity_thresholds():
    with criterion(3, "below c_l all equilibria are connected at full information; "
                      "above c_u the unique equilibrium is empty; thresholds exact"):
        for kl in (0.0, 1.0, 2.0, 3.0, 4.0):
            ev = family_pair_redundancy(5, 4, 4, kl)
            c_l, c_u = thresholds_homogeneous(ev, LN)
            # threshold formulas recomputed from the benefit function directly
            assert c_l == pytest.approx(
                math.log(14 - kl) - math.log(9 - kl), abs=1e-9)
            assert c_u == pytest.approx(math.log(14 - kl) - math.log(5), abs=1e-9)
            joint = ev.joint_entropy
            for c in np.linspace(0.02, 1.4, 20):
                cfg = GameConfig(ev, LN, CostModel.homogeneous(float(c)))
                report = enumerate_nash(cfg)
                if c < c_l - 1e-9:
                    info = np.array(report.info_values)[report.components]
                    assert (np.abs(info - joint) <= 1e-9).all()
                elif c > c_u + 1e-9:
                    assert report.rows.tolist() == [[0, 0, 0]]


def test_criterion_4_structure_oracle_equivalence():
    with criterion(4, "partition and strict-equilibrium checkers agree with brute "
                      "force on 50 random homogeneous instances; every strict "
                      "equilibrium is a core-sponsored star"):
        for seed in range(50):
            rng = np.random.default_rng(seed)
            cfg = random_homogeneous_config(rng, 2 + seed % 3, LN)
            n = cfg.n_agents
            report = enumerate_nash(cfg)
            partitions = [[subset_agents(m) for m in set(comp)] for comp in report.components.T.tolist()]
            realized = {frozenset(map(frozenset, part)) for part in partitions}
            assert realized == component_structures(cfg)
            strict = set(map(tuple, report.rows[report.strict].tolist()))
            rows = [profile_from_index(idx, n) for idx in range(1 << (n * (n - 1)))]
            assert strict_structure_mask(cfg, rows).tolist() == [r in strict for r in rows]
            for p, part, strict_ne in zip(report.rows.tolist(), partitions, report.strict.tolist()):
                if not strict_ne:
                    continue
                for comp in part:
                    if len(comp) == 1:
                        continue
                    sponsors = [i for i in comp if p[i]]
                    assert len(sponsors) == 1
                    core = sponsors[0]
                    assert p[core] == sum(1 << j for j in comp if j != core)


def test_criterion_5_price_of_anarchy():
    notes = []
    with criterion(5, "PoA exact in K_C/K_I, closed form in heterogeneous K_C, "
                      "strict bound in K_M"):
        # homogeneous K_C: always exactly 1
        checked_kc = 0
        for seed in range(40):
            rng = np.random.default_rng(1_000 + seed)
            n = 2 + seed % 3
            ev = from_joint_pmfs([random_joint_pmf(rng, n)])[0]
            c_l, c_u = thresholds_homogeneous(ev, LN)
            if c_l <= 1e-6:
                continue
            cfg = GameConfig(ev, LN, CostModel.homogeneous(float(rng.uniform(0, c_l))))
            assert poa_predict(cfg).value == 1.0
            assert enumerate_nash(cfg).poa == pytest.approx(1.0, abs=1e-6)
            checked_kc += 1
        assert checked_kc >= 20

    # homogeneous K_I: exact prediction equals brute force; the classical
    # value 1 holds exactly when the planner's optimum is the empty network
        coincide = 0
        corrected = 0
        for seed in range(40):
            rng = np.random.default_rng(2_000 + seed)
            n = 2 + seed % 3
            ev = from_joint_pmfs([random_joint_pmf(rng, n)])[0]
            _, c_u = thresholds_homogeneous(ev, LN)
            cfg = GameConfig(ev, LN, CostModel.homogeneous(float(rng.uniform(1.0, 2.2)) * c_u))
            pred = poa_predict(cfg)
            assert pred.region == K_I and not pred.is_bound
            report = enumerate_nash(cfg)
            assert pred.value == pytest.approx(report.poa, abs=1e-6)
            empty_welfare = sum(LN(v) for v in ev.singletons)
            if report.social_optimum_value <= empty_welfare + 1e-9:
                assert report.poa == pytest.approx(1.0, abs=1e-6)
                coincide += 1
            else:
                assert report.poa > 1.0
                corrected += 1
        assert coincide >= 5
        notes.append(f"K_I: {coincide} instances at PoA=1, {corrected} with a "
                     "non-empty planner optimum (documented isolation-region caveat)")

        # heterogeneous K_C: closed form against brute force
        derived = GameConfig(family_pair_redundancy(5, 4, 4, 0), LN,
                             CostModel.recipient([0.1, 0.2, 0.3]))
        expect = (3 * math.log(14) - 2 * 0.1) / (3 * math.log(14) - 0.6 + 0.1)
        assert poa_predict(derived).value == pytest.approx(expect, abs=1e-12)
        assert enumerate_nash(derived).poa == pytest.approx(expect, abs=1e-6)
        checked_het = 0
        for seed in range(60):
            rng = np.random.default_rng(3_000 + seed)
            n = 2 + seed % 3
            ev = from_joint_pmfs([random_joint_pmf(rng, n)])[0]
            top = (1 << n) - 1
            fj = LN(ev.joint_entropy)
            gaps = [fj - LN(ev.h(top ^ (1 << i))) for i in range(n)]
            if min(gaps) <= 1e-6:
                continue
            costs = [float(rng.uniform(0.05, 0.95)) * gaps[i] for i in range(n)]
            cfg = GameConfig(ev, LN, CostModel.recipient(costs))
            if region_heterogeneous(ev, LN, cfg.costs).label != K_C:
                continue
            pred = poa_predict(cfg)
            assert not pred.is_bound
            assert enumerate_nash(cfg).poa == pytest.approx(pred.value, abs=1e-6)
            checked_het += 1
        assert checked_het >= 20

        # K_M: brute force strictly below the bound
        checked_km = 0
        for seed in range(60):
            rng = np.random.default_rng(4_000 + seed)
            n = 2 + seed % 3
            cfg = random_homogeneous_config(rng, n, LN)
            if classify_homogeneous(cfg.ev, LN, cfg.costs.values[0]).label != K_M:
                continue
            pred = poa_predict(cfg)
            assert pred.is_bound
            assert enumerate_nash(cfg).poa < pred.value
            checked_km += 1
        assert checked_km >= 10
    for note in notes:
        print(f"  note: {note}")


def test_criterion_6_redundancy_monotonicity():
    with criterion(6, "K_C price of anarchy is nondecreasing in total redundancy, "
                      "strictly increasing for non-uniform costs"):
        kl_grid = [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0]
        series = poa_monotonicity_sweep(
            LN, CostModel.recipient([0.01, 0.02, 0.03]),
            lambda kl: family_pair_redundancy(5, 4, 4, kl), kl_grid)
        values = [v for _, v in series]
        assert all(b > a for a, b in zip(values, values[1:]))
        uniform = poa_monotonicity_sweep(
            LN, CostModel.recipient([0.02, 0.02, 0.02]),
            lambda kl: family_pair_redundancy(5, 4, 4, kl), kl_grid)
        assert all(v == pytest.approx(1.0, abs=1e-12) for _, v in uniform)


def test_criterion_7_maximum_information_loss():
    with criterion(7, "MIL is 0 in K_C/K_I, exactly 9 bits on the derived mixed "
                      "instance, and never above H(all) - min H({i})"):
        derived = GameConfig(family_pair_redundancy(5, 4, 4, 0), LN, CostModel.homogeneous(0.75))
        report = enumerate_nash(derived)
        assert report.mil == pytest.approx(9.0, abs=1e-12)
        for seed in range(60):
            rng = np.random.default_rng(5_000 + seed)
            cfg = random_homogeneous_config(rng, 2 + seed % 3, LN)
            mil = enumerate_nash(cfg).mil
            pred = mil_predict(cfg)
            if pred.is_bound:
                assert mil <= pred.value + 1e-9
            else:
                assert mil == pytest.approx(0.0, abs=1e-9)


def test_criterion_8_production_characterizations():
    with criterion(8, "three-agent grid enumeration agrees with the equilibrium "
                      "characterizations in both directions, both aggregations, "
                      "both cost regimes; high cost gives one full-production "
                      "equilibrium"):
        for agg in (Aggregation.SUM, Aggregation.MAX):
            for c in (0.2, 1.0):
                cfg = ProductionGameConfig(3, LN, 0.25, c, agg)
                grid = production.grid_levels(cfg)
                assert len(grid) == 7  # step h_bar / 6
                # the check and the shapes, on every grid profile
                rows, prods = production.grid_profiles(cfg)
                ne = production_ne_mask(cfg, rows, prods)
                assert ne.tolist() == shape_mask(cfg, rows, prods).tolist()
                assert ne.size == (1 << 6) * len(grid) ** 3
                assert ne.any()
                if c > 0.25 * cfg.h_bar:
                    rows, prods = production_equilibria(cfg)
                    assert rows.tolist() == [[0, 0, 0]]
                    assert (np.abs(prods - cfg.h_bar) <= 1e-9).all()


def test_criterion_9_law_of_the_few():
    with criterion(9, "producer fractions are 1 at high cost, 1/n under MAX at "
                      "low cost, and 1 via a verified SUM witness; totals are "
                      "n*h_bar, h_bar, and h_bar"):
        n_list = list(range(2, 9))
        hb = 3.0
        for agg in (Aggregation.SUM, Aggregation.MAX):
            pts = few_sweep(ProductionGameConfig(2, LN, 0.25, 1.0, agg), n_list)
            assert all(pt.producer_fraction == 1.0 for pt in pts)
            expect_total = [hb * n for n in n_list] if agg is Aggregation.SUM \
                else [hb] * len(n_list)
            assert [pt.total_information_bits for pt in pts] == \
                pytest.approx(expect_total, abs=1e-8)
        pts = few_sweep(ProductionGameConfig(2, LN, 0.25, 0.2, Aggregation.MAX), n_list)
        assert [pt.producer_fraction for pt in pts] == [1 / n for n in n_list]
        assert all(pt.total_information_bits == pytest.approx(hb, abs=1e-9) for pt in pts)
        pts = few_sweep(ProductionGameConfig(2, LN, 0.25, 0.2, Aggregation.SUM), n_list)
        assert all(pt.producer_fraction == 1.0 for pt in pts)
        assert all(pt.total_information_bits == pytest.approx(hb, abs=1e-9) for pt in pts)


def test_criterion_10_verification_determinism(tmp_path):
    with criterion(10, "running the verification command twice produces "
                       "byte-identical passing reports"):
        spec = tmp_path / "verify.yaml"
        spec.write_text("command: verify\nseed: 0\nverify: {n_agents: 3, instances: 8}\n")
        outputs = []
        for name in ("r1.txt", "r2.txt"):
            out = tmp_path / name
            assert main(["--spec", str(spec), "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        assert b"OK (13/13 passed)" in outputs[0]
