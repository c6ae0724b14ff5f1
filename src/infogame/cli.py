"""Batch front end: experiment documents in, CSV or text reports out.

    python -m infogame.cli --spec FILE [--out FILE] [--seed N]

A flag's value follows it (``--out FILE``) or an equals sign (``--out=FILE``);
a repeated flag keeps its last value, and no flag may be abbreviated. An
experiment is one YAML document; its ``command`` key selects what runs and
the remaining sections configure it:

    command: regions | poa-sweep | mil-sweep | enumerate | production | few-sweep | verify
    seed: 0                      # RNG seed, overridable with --seed

    game:                        # enumerate + the three sweeps
      entropic_vector:
        family: pair_redundancy         # independent | max_correlated | pair_redundancy
        h: [5, 4, 4]
        kl: 0.0                  # pair_redundancy only
        # or: file: vector.txt
        # or: inline: {n_agents: 2, entries: [[1, 1.0], [2, 1.0], [3, 2.0]]}
      benefit: {name: log1p, base: e}   # log1p | power(alpha) | linear
      costs: {model: homogeneous, c: 0.3}
        # or: {model: recipient, c: [0.1, 0.2, 0.3]} | {model: matrix, c: [[...], ...]}

    grid:                        # the three sweeps; family must be pair_redundancy
      kl: [0, 1, 2, 3, 4]        # list or {start, stop, points}
      c: {start: 0.0, stop: 1.5, points: 20}

    production:                  # production + few-sweep
      n_agents: 3
      benefit: {name: log1p, base: e}
      k: 0.25
      c: 0.2
      aggregation: sum           # sum | max
      grid_step: 0.5             # optional, defaults to h_bar / 6
    n_list: [2, 3, 4, 5, 6, 7, 8]   # few-sweep

    verify: {n_agents: 3, instances: 20}

    output: out.csv              # optional, overridden by --out

Sweep rows are emitted redundancy-major, then cost. Every CSV starts with a
comment line recording the sha256 of the experiment document and the seed,
so identical inputs produce byte-identical files. Every result is computed
before the output is opened, so a failed run leaves no file; CSV rows are
then formatted from arrays and written in chunks by :mod:`infogame.csvtable`.
Exit codes: 0 success, 1 verification failure, 2 invalid flags, spec or output,
3 work budget (2**20) exceeded.
"""
from __future__ import annotations

import gc
import math
import os
import sys
from contextlib import nullcontext
try:  # CPython's built-in SHA-256: hashlib would map OpenSSL's libcrypto (3.5 MB) for one small digest
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:  # an interpreter with neither
        from hashlib import sha256

import numpy as np
import yaml

from . import analytic, csvtable, equilibrium, production
from .entropy import (
    EntropicVector,
    family_independent,
    family_max_correlated,
    family_pair_redundancy,
    from_records,
    from_text,
    validate_shannon,
)
from .formation_game import BenefitFunction, CostModel, GameConfig
from .kernel import CapExceededError, require_budget
from .production import Aggregation, ProductionGameConfig
from .verification import run_verification

COMMANDS = ("enumerate", "regions", "poa-sweep", "mil-sweep", "production", "few-sweep", "verify")
USAGE = "usage: infogame [-h] --spec SPEC [--out OUT] [--seed SEED]"


class SpecError(ValueError):
    """The experiment document is malformed or inconsistent."""


def _number(kind, value, what: str):
    """``kind(value)`` for kind int or float; a wrong-typed or non-finite value is a spec
    error, and so is a non-integral value for kind int."""
    try:
        x = kind(value)
    except (TypeError, ValueError, OverflowError):
        x = math.nan
    if isinstance(value, (bool, str)):  # YAML true / yes, or quoted text, which int() and float() would read
        text = repr(x) if "." in repr(x) else repr(x).replace("e", ".0e")  # YAML 1.1 reads 1e-9 as text
        hint = f"; YAML reads it as text: write {text} unquoted" if isinstance(value, str) and math.isfinite(x) else ""
        raise SpecError(f"{what} must be a number, got {value!r}{hint}")
    if not math.isfinite(x):
        raise SpecError(f"{what} must be a finite number, got {value!r}")
    if isinstance(value, float) and x != value:
        raise SpecError(f"{what} must be an integer, got {value!r}")
    return x


def _floats(node, what: str) -> list[float]:
    """Every entry of a list through :func:`_number`; anything but a list is a spec error."""
    if not isinstance(node, list):
        raise SpecError(f"{what} must be a list")
    return [_number(float, v, what) for v in node]


def _grid_size(node, what: str) -> int:
    """Number of values of a grid node, validated without building them."""
    if isinstance(node, (list, tuple)):
        size = len(node)
    elif isinstance(node, dict) and {"start", "stop", "points"} <= node.keys():
        size = _number(int, node["points"], f"{what} grid points")
    else:
        raise SpecError(f"{what} grid must be a list or a start/stop/points mapping")
    if size < 1:
        raise SpecError(f"{what} grid must be nonempty")
    return size


def _grid_values(node, what: str) -> list[float]:
    """The values of a grid node that :func:`_grid_size` accepted."""
    if isinstance(node, dict):
        start, stop = (_number(float, node[key], f"{what} grid {key}") for key in ("start", "stop"))
        return [float(v) for v in np.linspace(start, stop, int(node["points"]))]
    return _floats(node, f"{what} grid value")


def _require(spec: dict, key: str) -> dict:
    """The mapping under ``key``; a missing or non-mapping section is a spec error."""
    if key not in spec:
        raise SpecError(f"spec is missing the {key!r} section")
    if not isinstance(spec[key], dict):
        raise SpecError(f"the {key!r} section must be a mapping")
    return spec[key]


def _sweep_family(spec: dict):
    game = _require(spec, "game")
    ev_cfg = game.get("entropic_vector")
    if not isinstance(ev_cfg, dict) or ev_cfg.get("family") != "pair_redundancy":
        raise SpecError("region sweeps need entropic_vector family 'pair_redundancy'")
    h = _floats(ev_cfg.get("h"), "h")
    if len(h) != 3:
        raise SpecError("pair_redundancy family needs h: [h1, h2, h3]")
    return h, _benefit(_require(game, "benefit"))


def _run_sweep(spec: dict):
    h, benefit = _sweep_family(spec)
    grid = _require(spec, "grid")
    kl_node, c_node = grid.get("kl", [0.0]), grid.get("c")
    require_budget(_grid_size(kl_node, "kl") * _grid_size(c_node, "c"), "sweep grid", "grid points")
    kl_values, c_values = _grid_values(kl_node, "kl"), _grid_values(c_node, "c")

    points = []
    for kl in kl_values:  # each kl row's vector and thresholds once
        ev = family_pair_redundancy(h[0], h[1], h[2], kl)
        points += [(c, kl) + row for c, row in zip(c_values, analytic.homogeneous_sweep(ev, benefit, c_values))]
    header = ["c", "kl", "region", "c_l", "c_u", "poa_or_bound", "mil_or_bound"]
    columns = [_texts(col) if k == 2 else np.array(col, dtype=np.float64) for k, col in enumerate(zip(*points))]
    return lambda out: csvtable.write_csv(out, header, columns)


def _texts(values) -> tuple[np.ndarray, np.ndarray]:
    """A CSV column of the given strings (see :mod:`infogame.csvtable`)."""
    return np.array(values, dtype=object), np.arange(len(values))


def _run_enumerate(spec: dict):
    report = equilibrium.enumerate_nash(_game_config(spec))
    poa = "undefined" if report.poa is None else repr(report.poa)
    extra = (f"# social_optimum={report.social_optimum_value!r}"
             f" worst_ne_welfare={report.worst_ne_welfare!r} poa={poa} mil={report.mil!r}\n")

    def emit(out):
        out.write(extra)
        report.write_csv(out)
    return emit


def _benefit(node: dict) -> BenefitFunction:
    """The benefit function of a {name: ..., params} mapping."""
    name = node.get("name")
    if name == "log1p":
        base = node.get("base", 2)
        return BenefitFunction.log1p(math.e if base in ("e", "E") else _number(float, base, "base"))
    if name == "power":
        if "alpha" not in node:
            raise SpecError("power benefit needs 'alpha'")
        return BenefitFunction.power(_number(float, node["alpha"], "alpha"))
    if name == "linear":
        return BenefitFunction.linear()
    raise SpecError(f"unknown benefit function {name!r}")


def _cost_model(node: dict) -> CostModel:
    """The cost model of a {model: ..., c: ...} mapping."""
    if "model" not in node or "c" not in node:
        raise SpecError("cost config must be a mapping with 'model' and 'c' keys")
    model, c = node["model"], node["c"]
    if model == "homogeneous":
        return CostModel.homogeneous(_number(float, c, "c"))
    if model == "recipient":
        return CostModel.recipient(_floats(c, "recipient costs c"))
    if model == "matrix":
        if not isinstance(c, list):
            raise SpecError("cost matrix c must be a list of rows")
        return CostModel.matrix([_floats(row, "cost matrix row") for row in c])
    raise SpecError(f"unknown cost model {model!r}")


def _entropic_vector(node: dict) -> EntropicVector:
    """The entropic vector of a family, file or inline mapping (see the module docstring).

    Vectors loaded from files or inline data are validated against the
    Shannon inequalities and rejected if they violate any.
    """
    if "family" in node:
        family, h = node["family"], _floats(node.get("h"), "h")
        if family == "independent":
            return family_independent(h)
        if family == "max_correlated":
            return family_max_correlated(h)
        if family == "pair_redundancy":
            if len(h) != 3:
                raise SpecError("pair_redundancy takes exactly three entropies")
            return family_pair_redundancy(h[0], h[1], h[2], _number(float, node.get("kl", 0.0), "kl"))
        raise SpecError(f"unknown entropic-vector family {family!r}")
    if "file" in node:
        try:
            with open(str(node["file"]), "r", encoding="utf-8") as fh:
                ev = from_text(fh.read())
        except OSError as e:
            raise SpecError(f"cannot read the entropic-vector file: {e}") from None
    elif "inline" in node:
        inline = _require(node, "inline")
        entries = inline.get("entries")
        if not isinstance(entries, list) or not all(isinstance(e, list) and len(e) == 2 for e in entries):
            raise SpecError("inline entries must be a list of [mask, entropy] pairs")
        ev = from_records(_number(int, inline.get("n_agents"), "inline n_agents"),
                          [(_number(int, mask, "inline mask"), _number(float, value, "inline entropy"))
                           for mask, value in entries])
    else:
        raise SpecError("entropic-vector config needs 'family', 'file' or 'inline'")
    report = validate_shannon(ev)
    if not report.ok:
        raise SpecError(f"entropic vector rejected: {report.describe()}")
    return ev


def _game_config(spec: dict) -> GameConfig:
    game = _require(spec, "game")
    ev = _entropic_vector(_require(game, "entropic_vector"))
    if "n_agents" in game and _number(int, game["n_agents"], "n_agents") != ev.n_agents:
        raise SpecError("n_agents does not match the entropic vector")
    return GameConfig(ev, _benefit(_require(game, "benefit")), _cost_model(_require(game, "costs")))


def _production_config(spec: dict) -> ProductionGameConfig:
    node = _require(spec, "production")
    try:
        agg = Aggregation(node.get("aggregation", "sum"))
    except ValueError:
        raise SpecError(f"unknown aggregation {node.get('aggregation')!r}") from None
    try:
        return ProductionGameConfig(
            n_agents=_number(int, node.get("n_agents", 2), "n_agents"),
            benefit=_benefit(_require(node, "benefit")),
            k=_number(float, node["k"], "k"),
            c=_number(float, node["c"], "c"),
            agg=agg,
            grid_step=_number(float, node["grid_step"], "grid_step") if "grid_step" in node else None,
        )
    except KeyError as e:
        raise SpecError(f"the 'production' section is missing {e}") from None


def _run_production(spec: dict):
    cfg = _production_config(spec)
    rows, prods = production.production_equilibria(cfg)
    header = ["links"] + [f"prod_{i}" for i in range(cfg.n_agents)]
    columns = [(csvtable.row_strings(cfg.n_agents), rows)] + list(prods.T)
    return lambda out: csvtable.write_csv(out, header, columns)


def _run_few_sweep(spec: dict):
    cfg = _production_config(spec)
    n_list = spec.get("n_list", [2, 3, 4, 5, 6, 7, 8])
    if not isinstance(n_list, (list, tuple)) or not n_list:
        raise SpecError("few-sweep needs a nonempty n_list")
    points = production.few_sweep(cfg, [_number(int, n, "n_list entry") for n in n_list])
    header = ["n", "agg", "c", "k", "h_bar", "producer_fraction", "total_information_bits"]
    columns = [_texts([str(pt.n) for pt in points]), _texts([pt.agg.value for pt in points])]
    columns += [np.array([getattr(pt, name) for pt in points], dtype=np.float64) for name in header[2:]]
    return lambda out: csvtable.write_csv(out, header, columns)


def _run_verify(spec: dict, seed: int):
    node = spec.get("verify", {})
    if not isinstance(node, dict):
        raise SpecError("verify section must be a mapping")
    report = run_verification(
        n_agents=_number(int, node.get("n_agents", 3), "n_agents"),
        instances=_number(int, node.get("instances", 20), "instances"),
        seed=seed,
    )
    return (lambda out: out.write(report.to_text())), 0 if report.ok else 1


def run_spec(spec: dict, spec_bytes: bytes, seed: int | None):
    """Execute one experiment document; returns (write, exit code), where ``write(out)``
    writes the output to the text file ``out``. Every result is computed before this
    returns, so a failed run writes nothing."""
    if not isinstance(spec, dict):
        raise SpecError("experiment document must be a mapping")
    command = spec.get("command")
    if command not in COMMANDS:
        raise SpecError(f"command must be one of {', '.join(COMMANDS)}; got {command!r}")
    if not isinstance(spec.get("output", ""), str):  # open() takes an int or a bool for a file descriptor
        raise SpecError(f"output must be a file path, got {spec['output']!r}")
    effective_seed = seed if seed is not None else _number(int, spec.get("seed", 0), "seed")
    digest = sha256(spec_bytes).hexdigest()
    # the field before "command" names an agent-cap option that no longer exists; it stays
    # so that output bytes do not change (bench/workloads.py expects this exact header)
    comment = f"# spec_sha256={digest} seed={effective_seed} max_n=default command={command}\n"

    code = 0
    if command in ("regions", "poa-sweep", "mil-sweep"):
        body = _run_sweep(spec)
    elif command == "enumerate":
        body = _run_enumerate(spec)
    elif command == "production":
        body = _run_production(spec)
    elif command == "few-sweep":
        body = _run_few_sweep(spec)
    else:
        body, code = _run_verify(spec, effective_seed)

    def write(out):
        out.write(comment)
        body(out)
    return write, code


def _usage_error(message: str):
    print(f"{USAGE}\nerror: {message}", file=sys.stderr)
    raise SystemExit(2)


def _flags(argv: list[str]) -> dict:
    """``--spec``, ``--out`` and ``--seed`` (an int) of ``argv``; ``-h`` prints the usage and the schema."""
    flags, args = {}, iter(argv)
    for arg in args:
        if arg in ("-h", "--help"):
            print(f"{USAGE}\n\n{__doc__}", end="")
            raise SystemExit(0)
        name, eq, value = arg.partition("=")
        value = value if eq else next(args, None)
        if name not in ("--spec", "--out", "--seed"):
            _usage_error(f"unrecognized argument: {arg}")
        if value is None or not eq and value.startswith("--"):
            _usage_error(f"{name} expects a value")
        if name == "--seed" and not value.removeprefix("-").isdecimal():
            _usage_error(f"--seed must be an integer, got {value!r}")
        flags[name] = int(value) if name == "--seed" else value
    if "--spec" not in flags:
        _usage_error("--spec is required")
    return flags


def main(argv=None) -> int:
    flags = _flags(sys.argv[1:] if argv is None else argv)
    try:
        with open(flags["--spec"], "rb") as fh:
            spec_bytes = fh.read()
        spec = yaml.safe_load(spec_bytes)
    except OSError as e:
        print(f"error: cannot read spec: {e}", file=sys.stderr)
        return 2
    except yaml.YAMLError as e:
        print(f"error: spec is not valid YAML: {e}", file=sys.stderr)
        return 2
    try:
        write, code = run_spec(spec, spec_bytes, flags.get("--seed"))
    except CapExceededError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except ValueError as e:  # SpecError included
        print(f"error: {e}", file=sys.stderr)
        return 2
    out_path = flags.get("--out") or spec.get("output")
    try:
        with open(out_path, "w", encoding="utf-8", newline="\n") if out_path else nullcontext(sys.stdout) as fh:
            write(fh)
            fh.flush()
    except OSError as e:  # an unopenable path, a full disk, a closed pipe
        if not out_path:  # so that the interpreter's flush at exit meets no closed pipe
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write output: {e}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    gc.freeze()  # the import's objects live to the end: leave them out of every collection, the one at exit too
    sys.exit(main())
