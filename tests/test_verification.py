"""The cross-validation harness itself."""
import math

import numpy as np
import pytest

from infogame import verification
from infogame.analytic import poa_predict
from infogame.entropy import EntropicVector, validate_shannon
from infogame.equilibrium import enumerate_nash
from infogame.formation_game import BenefitFunction, CostModel, GameConfig
from infogame.verification import (
    random_entropic_vector,
    random_homogeneous_config,
    random_joint_pmf,
    random_recipient_config,
    run_verification,
)

LN = BenefitFunction.log1p(math.e)


class TestGenerators:
    def test_random_pmf_is_normalized(self):
        rng = np.random.default_rng(0)
        for n in (2, 3, 4):
            pmf = random_joint_pmf(rng, n)
            assert pmf.n_agents == n
            assert float(pmf.table.sum()) == pytest.approx(1.0, abs=1e-12)
            assert all(2 <= s <= 3 for s in pmf.alphabet_sizes)

    def test_random_vectors_are_shannon_valid(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            assert validate_shannon(random_entropic_vector(rng, 3)).ok

    def test_random_configs_have_matching_dimensions(self):
        rng = np.random.default_rng(2)
        cfg = random_homogeneous_config(rng, 3, LN)
        assert cfg.n_agents == 3 and cfg.costs.kind == "homogeneous"
        cfg = random_recipient_config(rng, 4, LN)
        assert cfg.costs.kind == "recipient" and len(cfg.costs.values) == 4


class TestSuite:
    def test_four_agent_instances_pass(self):
        report = run_verification(n_agents=4, instances=10, seed=0)
        assert report.ok
        assert len(report.checks) == 13
        assert "OK (13/13 passed)" in report.to_text()

    def test_reports_are_reproducible(self):
        a = run_verification(n_agents=3, instances=5, seed=11)
        b = run_verification(n_agents=3, instances=5, seed=11)
        assert a.to_text() == b.to_text()

    def test_check_names_are_stable(self):
        report = run_verification(n_agents=2, instances=3, seed=0)
        names = [c.name for c in report.checks]
        assert names == [
            "existence_and_minimality",
            "connectivity_thresholds",
            "ne_partition_characterization",
            "strict_ne_structure",
            "poa_homogeneous",
            "mil_bounds",
            "heterogeneous_regions",
            "heterogeneous_partition_characterization",
            "poa_heterogeneous",
            "poa_redundancy_monotonicity",
            "production_sum_characterization",
            "production_max_characterization",
            "producer_fraction_laws",
        ]

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            run_verification(n_agents=5)
        with pytest.raises(ValueError):
            run_verification(n_agents=3, instances=0)


class TestPoaCheck:
    # a three-agent recipient-cost game in K_M whose 64 profiles hold no pure equilibrium
    NO_PURE_NE = GameConfig(
        EntropicVector(3, (1.5548227125963834, 0.983362969163396, 2.308195877078754,
                           0.8151197651989379, 2.2998198386772075, 1.7858666456580972,
                           2.989872499621462)),
        LN,
        CostModel.recipient([0.5641013053238928, 0.5537202169052128, 0.4688629228076661]))

    def test_bound_holds_vacuously_without_pure_equilibrium(self):
        cfg = self.NO_PURE_NE
        assert enumerate_nash(cfg).ne_profiles == ()
        assert poa_predict(cfg).is_bound
        passed, detail = verification._check_poa(
            np.random.default_rng(0), 3, 2, LN, lambda rng, n, benefit: cfg, "claim")
        assert passed
        assert detail == "2 instances, claim; 2 without a pure equilibrium"

    def test_detail_unchanged_when_every_game_has_an_equilibrium(self):
        passed, detail = verification._check_poa(
            np.random.default_rng(0), 3, 4, LN, random_homogeneous_config, "claim")
        assert passed and detail == "4 instances, claim"
