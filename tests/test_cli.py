"""The batch front end: spec documents, CSV schemas, exit codes, determinism."""
import math

import numpy as np
import pytest

from infogame import analytic, equilibrium
from infogame.cli import main
from infogame.entropy import family_pair_redundancy
from infogame.equilibrium import enumerate_nash
from infogame.formation_game import BenefitFunction, CostModel, GameConfig

LN = BenefitFunction.log1p(math.e)

REGION_SPEC = """\
command: regions
seed: 0
game:
  entropic_vector: {family: pair_redundancy, h: [5, 4, 4]}
  benefit: {name: log1p, base: e}
grid:
  kl: [0, 1, 2, 3, 4]
  c: {start: 0.02, stop: 1.4, points: 20}
"""


def run_cli(tmp_path, spec_text, name="exp.yaml", extra=()):
    spec = tmp_path / name
    spec.write_text(spec_text)
    out = tmp_path / (name + ".csv")
    code = main(["--spec", str(spec), "--out", str(out)] + list(extra))
    return code, out.read_text() if out.exists() else ""


def parse_csv(text):
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


class TestRegions:
    def test_fully_redundant_band_has_no_mixed_region(self, tmp_path):
        code, text = run_cli(tmp_path, REGION_SPEC)
        assert code == 0
        rows = parse_csv(text)
        assert len(rows) == 100
        kl4 = [r for r in rows if float(r["kl"]) == 4.0]
        assert kl4 and all(r["region"] != "K_M" for r in kl4)
        kl0 = [r for r in rows if float(r["kl"]) == 0.0]
        assert any(r["region"] == "K_M" for r in kl0)

    def test_second_family_keeps_mixed_region(self, tmp_path):
        spec = REGION_SPEC.replace("[5, 4, 4]", "[7, 4, 2]").replace(
            "kl: [0, 1, 2, 3, 4]", "kl: [0, 1, 2]")
        code, text = run_cli(tmp_path, spec)
        assert code == 0
        rows = parse_csv(text)
        for kl in (0.0, 1.0, 2.0):
            band = [r for r in rows if float(r["kl"]) == kl]
            assert any(r["region"] == "K_M" for r in band)

    def test_zero_cost_is_connected(self, tmp_path):
        spec = REGION_SPEC.replace("start: 0.02", "start: 0.0")
        code, text = run_cli(tmp_path, spec)
        rows = parse_csv(text)
        first = [r for r in rows if float(r["c"]) == 0.0 and float(r["kl"]) == 0.0]
        assert first[0]["region"] == "K_C"

    def test_header_comment_records_hash_and_seed(self, tmp_path):
        code, text = run_cli(tmp_path, REGION_SPEC)
        head = text.splitlines()[0]
        assert head.startswith("# spec_sha256=")
        assert "seed=0" in head and "command=regions" in head
        # saved outputs keep their bytes: the field of the retired agent-cap option stays
        assert head.endswith(" seed=0 max_n=default command=regions")

    def test_byte_identical_reruns(self, tmp_path):
        _, first = run_cli(tmp_path, REGION_SPEC, name="a.yaml")
        _, second = run_cli(tmp_path, REGION_SPEC, name="b.yaml")
        assert first == second


class TestSweeps:
    def test_poa_column_one_outside_mixed_and_decreasing_inside(self, tmp_path):
        spec = REGION_SPEC.replace("command: regions", "command: poa-sweep")
        code, text = run_cli(tmp_path, spec)
        assert code == 0
        rows = parse_csv(text)
        assert {r["region"] for r in rows} == {"K_C", "K_M", "K_I"}
        for r in rows:
            if r["region"] == "K_C":
                assert float(r["poa_or_bound"]) == 1.0
            elif r["region"] == "K_I":
                cfg = GameConfig(family_pair_redundancy(5, 4, 4, float(r["kl"])), LN,
                                 CostModel.homogeneous(float(r["c"])))
                assert float(r["poa_or_bound"]) == enumerate_nash(cfg).poa
        by_c = {}
        for r in rows:
            if r["region"] == "K_M":
                by_c.setdefault(r["c"], []).append((float(r["kl"]), float(r["poa_or_bound"])))
        decreasing_checked = 0
        for series in by_c.values():
            series.sort()
            for (_, a), (_, b) in zip(series, series[1:]):
                assert b < a
                decreasing_checked += 1
        assert decreasing_checked > 0

    def test_mil_bound_column(self, tmp_path):
        spec = REGION_SPEC.replace("command: regions", "command: mil-sweep")
        code, text = run_cli(tmp_path, spec)
        rows = parse_csv(text)
        for r in rows:
            expect = 13 - float(r["kl"]) - 4 if r["region"] == "K_M" else 0.0
            assert float(r["mil_or_bound"]) == pytest.approx(expect, abs=1e-9)


ENUM_SPEC = """\
command: enumerate
game:
  entropic_vector: {family: independent, h: [1, 1]}
  benefit: {name: log1p, base: 2}
  costs: {model: homogeneous, c: 0.3}
"""


class TestEnumerate:
    def test_two_agent_equilibria(self, tmp_path):
        code, text = run_cli(tmp_path, ENUM_SPEC)
        assert code == 0
        rows = parse_csv(text)
        assert [r["profile"] for r in rows] == ["0010", "0100"]
        assert all(r["strict"] == "1" for r in rows)
        assert float(rows[0]["welfare"]) == pytest.approx(2 * math.log2(3) - 0.3)
        assert any("poa=" in ln for ln in text.splitlines() if ln.startswith("#"))

    def test_cap_exceeded_exit_code(self, tmp_path):
        spec = ENUM_SPEC.replace("[1, 1]", "[1, 1, 1, 1, 1, 1, 1]")
        code, _ = run_cli(tmp_path, spec)
        assert code == 3

    def test_agent_cap_option_is_gone(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli(tmp_path, ENUM_SPEC, extra=["--max-n", "8"])
        assert exc.value.code == 2


PRODUCTION_SPEC = """\
command: production
production:
  n_agents: 2
  benefit: {name: log1p, base: e}
  k: 0.25
  c: 1.0
  aggregation: sum
"""


class TestProduction:
    def test_high_cost_unique_equilibrium(self, tmp_path):
        code, text = run_cli(tmp_path, PRODUCTION_SPEC)
        assert code == 0
        rows = parse_csv(text)
        assert len(rows) == 1
        assert rows[0]["links"] == "0000"
        assert float(rows[0]["prod_0"]) == pytest.approx(3.0, abs=1e-9)

    def test_few_sweep_columns(self, tmp_path):
        spec = PRODUCTION_SPEC.replace("command: production", "command: few-sweep") \
            .replace("c: 1.0", "c: 0.2").replace("aggregation: sum", "aggregation: max")
        spec += "n_list: [2, 4, 8]\n"
        code, text = run_cli(tmp_path, spec)
        assert code == 0
        rows = parse_csv(text)
        assert [r["n"] for r in rows] == ["2", "4", "8"]
        assert [float(r["producer_fraction"]) for r in rows] == [0.5, 0.25, 0.125]
        assert all(float(r["total_information_bits"]) == pytest.approx(3.0, abs=1e-9)
                   for r in rows)
        assert all(r["agg"] == "max" for r in rows)


VERIFY_SPEC = """\
command: verify
seed: 0
verify: {n_agents: 3, instances: 6}
"""


class TestVerify:
    def test_passes_and_is_deterministic(self, tmp_path):
        code1, text1 = run_cli(tmp_path, VERIFY_SPEC, name="v1.yaml")
        code2, text2 = run_cli(tmp_path, VERIFY_SPEC, name="v2.yaml")
        assert code1 == 0 and code2 == 0
        assert text1 == text2
        assert "OK (13/13 passed)" in text1

    def test_seed_override_changes_instances_not_structure(self, tmp_path):
        code, text = run_cli(tmp_path, VERIFY_SPEC, extra=["--seed", "7"])
        assert code == 0
        assert "seed=7" in text.splitlines()[1]

    def test_instances_over_budget_refused_before_any_work(self, tmp_path, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("the verification started")
        monkeypatch.setattr(equilibrium, "enumerate_nash", refuse)
        # 252 cycles of 2-, 3- and 4-agent games, 4 + 64 + 4096 profiles each
        spec = VERIFY_SPEC.replace("n_agents: 3, instances: 6", "n_agents: 4, instances: 756")
        code, text = run_cli(tmp_path, spec)
        assert code == 3 and text == ""
        assert "it would check 1049328 profiles" in capsys.readouterr().err


class TestSpecValidation:
    def test_unknown_command(self, tmp_path):
        code, _ = run_cli(tmp_path, "command: dance\n")
        assert code == 2

    def test_missing_section(self, tmp_path):
        code, _ = run_cli(tmp_path, "command: enumerate\n")
        assert code == 2

    def test_shannon_violating_vector_rejected_at_load(self, tmp_path):
        spec = """\
command: enumerate
game:
  entropic_vector:
    inline: {n_agents: 2, entries: [[1, 1.0], [2, 1.0], [3, 3.0]]}
  benefit: {name: log1p, base: 2}
  costs: {model: homogeneous, c: 0.3}
"""
        code, _ = run_cli(tmp_path, spec)
        assert code == 2

    def test_yaml_syntax_error(self, tmp_path):
        code, _ = run_cli(tmp_path, "command: [unclosed\n")
        assert code == 2

    def test_bad_grid(self, tmp_path):
        code, _ = run_cli(tmp_path, REGION_SPEC.replace("kl: [0, 1, 2, 3, 4]", "kl: []"))
        assert code == 2

    @pytest.mark.parametrize("grid", [
        "kl: [0, .nan]\n  c: [0.1]",
        "kl: [0]\n  c: [0.1, .inf]",
        "kl: [0]\n  c: {start: 0.0, stop: -.inf, points: 3}",
    ])
    def test_non_finite_grid_rejected(self, tmp_path, grid):
        spec = REGION_SPEC.split("grid:")[0] + "grid:\n  " + grid + "\n"
        code, _ = run_cli(tmp_path, spec)
        assert code == 2

    @pytest.mark.parametrize("spec", [
        REGION_SPEC.split("game:")[0] + "game: [1, 2]\n" + "grid:" + REGION_SPEC.split("grid:")[1],
        REGION_SPEC.split("grid:")[0] + "grid: [1, 2]\n",
        "command: production\nproduction: [1]\n",
    ], ids=["game", "grid", "production"])
    def test_non_mapping_section_rejected(self, tmp_path, spec):
        code, text = run_cli(tmp_path, spec)
        assert code == 2 and text == ""

    def test_oversized_sweep_grid_refused_before_any_work(self, tmp_path, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("the sweep started")
        monkeypatch.setattr(np, "linspace", refuse)
        monkeypatch.setattr(analytic, "classify_homogeneous", refuse)
        spec = REGION_SPEC.replace("points: 20", "points: 100000000000")
        code, text = run_cli(tmp_path, spec)
        assert code == 3 and text == ""
        assert "it would check 500000000000 grid points" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", [
        REGION_SPEC.replace("h: [5, 4, 4]", "h: 5"),
        REGION_SPEC.replace("h: [5, 4, 4]", "h: [5, [4], 4]"),
        PRODUCTION_SPEC.replace("k: 0.25", "k: [1]"),
        PRODUCTION_SPEC.replace("n_agents: 2", "n_agents: {two: 2}"),
        REGION_SPEC.replace("points: 20", "points: [3]"),
        REGION_SPEC.replace("points: 20", "points: .inf"),
        REGION_SPEC.replace("start: 0.02", "start: [0]"),
        REGION_SPEC.replace("kl: [0, 1, 2, 3, 4]", "kl: [0, [1]]"),
        VERIFY_SPEC.replace("n_agents: 3", "n_agents: [4]"),
        VERIFY_SPEC.replace("instances: 6", "instances: [6]"),
        VERIFY_SPEC.replace("seed: 0", "seed: [0]"),
        PRODUCTION_SPEC.replace("command: production", "command: few-sweep") + "n_list: [2, [3]]\n",
    ], ids=["sweep-h-scalar", "sweep-h-entry", "production-k", "production-n", "grid-points",
            "grid-points-inf", "grid-start", "grid-value", "verify-n", "verify-instances", "seed",
            "few-sweep-n"])
    def test_wrong_typed_value_rejected(self, tmp_path, spec, capsys):
        code, text = run_cli(tmp_path, spec)
        assert code == 2 and text == ""
        assert capsys.readouterr().err.startswith("error: ")

    def test_nan_cost_rejected(self, tmp_path):
        code, text = run_cli(tmp_path, ENUM_SPEC.replace("c: 0.3", "c: .nan"))
        assert code == 2 and text == ""

    def test_missing_file(self, tmp_path):
        assert main(["--spec", str(tmp_path / "nope.yaml")]) == 2

    def test_output_written_to_spec_path(self, tmp_path):
        spec = tmp_path / "exp.yaml"
        target = tmp_path / "named.csv"
        spec.write_text(ENUM_SPEC + f"output: {target}\n")
        assert main(["--spec", str(spec)]) == 0
        assert target.exists()
