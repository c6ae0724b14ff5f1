"""The batch front end: spec documents, CSV schemas, exit codes, determinism."""
import hashlib
import math

import numpy as np
import pytest

from infogame import analytic, cli, equilibrium, production
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

# a 4-agent weighted coverage vector (agents hold {a,b}, {b,c}, {c}, {a,d} of
# independent parts weighing 1, 0.5, 0.75 and 1.25 bits) with per-pair costs:
# three equilibria, one strict, two of them leaving two pairs apart
GOLDEN_MATRIX_SPEC = """\
command: enumerate
game:
  entropic_vector:
    inline:
      n_agents: 4
      entries: [[1, 1.5], [2, 1.25], [3, 2.25], [4, 0.75], [5, 2.25], [6, 1.25], [7, 2.25],
                [8, 2.25], [9, 2.75], [10, 3.5], [11, 3.5], [12, 3.0], [13, 3.5], [14, 3.5], [15, 3.5]]
  benefit: {name: log1p, base: 2}
  costs:
    model: matrix
    c: [[0, 0.72, 0.67, 1.01], [0.35, 0, 0.22, 0.54], [0.15, 1.06, 0, 0.76], [0.34, 0.34, 0.79, 0]]
"""

# every sponsored spanning tree is an equilibrium: 2,000 rows
GOLDEN_CHEAP_SPEC = """\
command: enumerate
game:
  entropic_vector: {family: independent, h: [1, 1.5, 2, 1.25, 0.75]}
  benefit: {name: log1p, base: e}
  costs: {model: homogeneous, c: 0.05}
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

    @pytest.mark.parametrize("spec, digest", [
        (GOLDEN_MATRIX_SPEC, "39690967859fd4e952a7a5870f2e239170aed4b0a32415db860bda71bc3b9cf8"),
        (GOLDEN_CHEAP_SPEC, "6a5c3f4e0d26912845d9fb44942c5977130227f9cc500ce3754b9f4d25d96431"),
    ], ids=["n4-inline-matrix", "n5-independent-cheap"])
    def test_golden_bytes(self, tmp_path, spec, digest):
        # pinned output of two fixed games: a change to the report phase may not move a byte
        code, text = run_cli(tmp_path, spec)
        assert code == 0
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_integer_entropies_print_as_floats(self, tmp_path):
        spec = """\
command: enumerate
game:
  entropic_vector: {family: pair_redundancy, h: [5, 4, 4], kl: 1}
  benefit: {name: log1p, base: e}
  costs: {model: homogeneous, c: 5.0}
"""
        _, ints = run_cli(tmp_path, spec, name="ints.yaml")
        _, floats = run_cli(tmp_path, spec.replace("[5, 4, 4]", "[5.0, 4.0, 4.0]"), name="floats.yaml")
        body = ints.split("\n", 1)[1]  # after the line carrying the spec's hash
        assert body == floats.split("\n", 1)[1]
        assert "5.0,4.0,4.0" in body


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

    def test_too_many_agents_refused_before_any_check(self, tmp_path, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise AssertionError("a profile was checked")
        monkeypatch.setattr(production, "production_ne_mask", fail)
        code, text = run_cli(tmp_path, PRODUCTION_SPEC.replace("n_agents: 2", "n_agents: 40")
                             .replace("c: 1.0", "c: 5.0"))
        assert code == 2 and text == ""
        assert capsys.readouterr().err == "error: n_agents must be in 1..16\n"

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


INLINE_SPEC = ENUM_SPEC.replace("{family: independent, h: [1, 1]}",
                                "{inline: {n_agents: 2, entries: [[1, 1.0], [2, 1.0], [3, 1.5]]}}")


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
        # YAML booleans, which int() and float() would read as 1
        PRODUCTION_SPEC.replace("k: 0.25", "k: true"),
        PRODUCTION_SPEC.replace("c: 1.0", "c: yes"),
        ENUM_SPEC.replace("c: 0.3", "c: yes"),
        REGION_SPEC.replace("kl: [0, 1, 2, 3, 4]", "kl: [0, true]"),
        REGION_SPEC.replace("start: 0.02", "start: true"),
        INLINE_SPEC.replace("[3, 1.5]", "[3, yes]"),
    ], ids=["sweep-h-scalar", "sweep-h-entry", "production-k", "production-n", "grid-points",
            "grid-points-inf", "grid-start", "grid-value", "verify-n", "verify-instances", "seed",
            "few-sweep-n", "production-k-bool", "production-c-bool", "enumerate-c-bool", "grid-value-bool",
            "grid-start-bool", "inline-entropy-bool"])
    def test_wrong_typed_value_rejected(self, tmp_path, spec, capsys):
        code, text = run_cli(tmp_path, spec)
        assert code == 2 and text == ""
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("spec, value", [
        (PRODUCTION_SPEC.replace("n_agents: 2", "n_agents: {}"), 2),
        (VERIFY_SPEC.replace("n_agents: 3", "n_agents: {}"), 3),
        (VERIFY_SPEC.replace("instances: 6", "instances: {}"), 6),
        (VERIFY_SPEC.replace("seed: 0", "seed: {}"), 0),
        (REGION_SPEC.replace("points: 20", "points: {}"), 20),
        (PRODUCTION_SPEC.replace("command: production", "command: few-sweep") + "n_list: [2, {}]\n", 3),
        (INLINE_SPEC.replace("n_agents: 2", "n_agents: {}"), 2),
        (INLINE_SPEC.replace("[3, 1.5]", "[{}, 1.5]"), 3),
    ], ids=["production-n", "verify-n", "verify-instances", "seed", "grid-points", "few-sweep-n",
            "inline-n-agents", "inline-mask"])
    def test_non_integral_count_rejected(self, tmp_path, capsys, spec, value):
        # a count written as a float is accepted when it is whole, and refused, not truncated, when not
        code, text = run_cli(tmp_path, spec.replace("{}", f"{value}.9"), name="frac.yaml")
        assert code == 2 and text == ""
        assert "must be an integer, got " in capsys.readouterr().err
        code, text = run_cli(tmp_path, spec.replace("{}", "true"), name="bool.yaml")
        assert code == 2 and text == ""
        assert "must be a number, got True" in capsys.readouterr().err
        code, whole = run_cli(tmp_path, spec.replace("{}", f"{value}.0"), name="whole.yaml")
        expect, same = run_cli(tmp_path, spec.replace("{}", f"{value}"), name="int.yaml")
        assert code == expect == 0
        assert whole.split("\n", 1)[1] == same.split("\n", 1)[1]

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


class TestGameSection:
    def test_benefit_parsing(self):
        assert cli._benefit({"name": "log1p", "base": "e"}) == LN
        assert cli._benefit({"name": "power", "alpha": 0.5}).name == "power"
        with pytest.raises(ValueError):
            cli._benefit({"name": "cubic"})

    def test_costs_parsing(self):
        assert cli._cost_model({"model": "homogeneous", "c": 0.5}).kind == "homogeneous"
        assert cli._cost_model({"model": "recipient", "c": [1, 2]}).values == (1.0, 2.0)
        assert cli._cost_model({"model": "matrix", "c": [[0, 1], [2, 0]]}).values == ((0.0, 1.0), (2.0, 0.0))
        with pytest.raises(ValueError):
            cli._cost_model({"model": "exotic", "c": 1})

    def test_vector_families(self):
        ev = cli._entropic_vector({"family": "pair_redundancy", "h": [5, 4, 4], "kl": 2})
        assert ev.joint_entropy == 11.0
        ev = cli._entropic_vector({"family": "independent", "h": [1, 1]})
        assert ev.joint_entropy == 2.0

    def test_inline_vector_validated(self):
        good = {"inline": {"n_agents": 2, "entries": [[1, 1.0], [2, 1.0], [3, 1.5]]}}
        assert cli._entropic_vector(good).joint_entropy == 1.5
        bad = {"inline": {"n_agents": 2, "entries": [[1, 1.0], [2, 1.0], [3, 3.0]]}}
        with pytest.raises(ValueError, match="rejected"):
            cli._entropic_vector(bad)

    def test_full_game_config(self):
        cfg = cli._game_config({"game": {
            "entropic_vector": {"family": "independent", "h": [1, 1]},
            "benefit": {"name": "log1p", "base": 2},
            "costs": {"model": "homogeneous", "c": 0.3},
        }})
        assert cfg.n_agents == 2
        with pytest.raises(ValueError, match="missing"):
            cli._game_config({"game": {"benefit": {"name": "linear"}}})

    def test_inline_spec_runs(self, tmp_path):
        code, text = run_cli(tmp_path, INLINE_SPEC)
        assert code == 0 and parse_csv(text)

    @pytest.mark.parametrize("spec, message", [
        (ENUM_SPEC.replace("c: 0.3", "c: [1]"), "c must be a finite number"),
        (ENUM_SPEC.replace("{model: homogeneous, c: 0.3}", "{model: recipient, c: 5}"),
         "recipient costs c must be a list"),
        (ENUM_SPEC.replace("h: [1, 1]", "h: 5"), "h must be a list"),
        (ENUM_SPEC.replace("{family: independent, h: [1, 1]}",
                           "{family: pair_redundancy, h: [5, 4, 4], kl: [1]}"), "kl must be a finite number"),
        (ENUM_SPEC.replace("{name: log1p, base: 2}", "{name: power, alpha: [1]}"),
         "alpha must be a finite number"),
        (INLINE_SPEC.replace("n_agents: 2", "n_agents: [2]"), "inline n_agents must be a finite number"),
        (ENUM_SPEC.replace("game:\n", "game:\n  n_agents: [3]\n"), "n_agents must be a finite number"),
        (INLINE_SPEC.replace("[3, 1.5]", "[7, 1.5]"), "subset mask 7 out of range"),
        (INLINE_SPEC.replace("[3, 1.5]", "[3, 1.5], [0, 1.5]"), "subset mask 0 out of range"),
        (INLINE_SPEC.replace("[3, 1.5]", "[3, 2.0], [3, 1.5]"), "duplicate record for mask 3"),
        (INLINE_SPEC.replace("[[1, 1.0],", "[1, [1, 1.0],"), "inline entries must be a list of"),
    ], ids=["homogeneous-c-list", "recipient-c-scalar", "family-h-scalar", "pair-redundancy-kl-list",
            "power-alpha-list", "inline-n-agents-list", "game-n-agents-list", "inline-mask-too-large",
            "inline-mask-zero", "inline-mask-duplicate", "inline-entry-scalar"])
    def test_bad_game_value_exits_2(self, tmp_path, capsys, spec, message):
        code, text = run_cli(tmp_path, spec)
        assert code == 2 and text == ""
        assert capsys.readouterr().err.startswith(f"error: {message}")

    @pytest.mark.parametrize("name", ["none.txt", "."], ids=["missing", "directory"])
    def test_unreadable_vector_file_exits_2(self, tmp_path, capsys, name):
        spec = ENUM_SPEC.replace("{family: independent, h: [1, 1]}", f"{{file: {tmp_path / name}}}")
        code, text = run_cli(tmp_path, spec)
        assert code == 2 and text == ""
        assert capsys.readouterr().err.startswith("error: cannot read the entropic-vector file")
