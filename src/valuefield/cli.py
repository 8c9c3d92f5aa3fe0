"""Config-driven scenario runner.

Configuration files are line-oriented ``key = value`` pairs under
``[section]`` headers (INI syntax). The ``[scenario]`` section selects the
experiment by ``name``; a section of the same name holds its parameters.
Parameter names, defaults and ranges come only from the ``_scenario`` records in
``scenarios.py``. Sections other than ``[scenario]`` (``name``), ``[output]``
(``dir``) and the scenario's own, unknown keys and non-finite values are rejected.
``--set section.key=value`` flags override config keys, and the output
directory resolves in order: ``--out`` flag, ``VALUEFIELD_OUT`` environment
variable, ``[output] dir`` key, then ``./valuefield_out``.

Exit codes: 0 all checks passed, 1 at least one check failed, 2 invalid
configuration, usage or I/O error, 3 the run raised an error, a NumPy
floating-point error included (reported as one ``run error:`` line on stderr).
"""

from __future__ import annotations

import argparse
import configparser
import functools
import os
import sys
from pathlib import Path

import numpy as np

from .errors import ConfigInvalid, ValueFieldError
from .scenarios import SCENARIOS, parse_params, run_scenario

DEFAULT_CONFIGS = {n: {k: p.default for k, p in s.params.items()} for n, s in SCENARIOS.items()}


def load_config(path) -> dict[str, dict[str, str]]:
    # values are literal text, and [DEFAULT] is an ordinary (rejected) section
    parser = configparser.ConfigParser(default_section="", interpolation=None)
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigInvalid(f"cannot parse {path}: {exc}") from exc
    return {section: dict(parser.items(section)) for section in parser.sections()}


def validate_config(cfg: dict[str, dict[str, str]]) -> list[str]:
    """Schema and range diagnostics; an empty list means the config is valid."""
    scenario = cfg.get("scenario", {}).get("name")
    if scenario is None:
        return ["missing key scenario.name"]
    if scenario not in SCENARIOS:
        return [f"scenario.name: unknown scenario {scenario!r}; "
                f"choose from {sorted(SCENARIOS)}"]

    known = {"scenario": {"name"}, "output": {"dir"}}
    diags = [f"{section}: unknown section; expected scenario, output or {scenario}"
             for section in cfg if section not in (*known, scenario)]
    diags += [f"{section}.{key}: unknown key" for section, keys in known.items()
              for key in cfg.get(section, {}) if key not in keys]
    return diags + parse_params(scenario, cfg.get(scenario, {}))[1]


def _resolve_out_dir(args, cfg) -> Path:
    if getattr(args, "out", None):
        return Path(args.out)
    env = os.environ.get("VALUEFIELD_OUT")
    if env:
        return Path(env)
    return Path(cfg.get("output", {}).get("dir", "valuefield_out"))


def _apply_overrides(cfg, overrides) -> None:
    for item in overrides or []:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigInvalid(f"--set expects section.key=value, got {item!r}")
        target, value = item.split("=", 1)
        section, key = target.split(".", 1)
        cfg.setdefault(section.strip(), {})[key.strip()] = value.strip()


def cmd_run(args) -> int:
    cfg = load_config(args.config)
    _apply_overrides(cfg, args.set)
    diags = validate_config(cfg)
    if diags:
        for d in diags:
            print(f"config error: {d}", file=sys.stderr)
        return 2
    scenario = cfg["scenario"]["name"]
    # NumPy overflow, division by zero and invalid results become a
    # FloatingPointError (exit 3) instead of warnings; underflow stays silent
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        report = run_scenario(scenario, cfg.get(scenario, {}), _resolve_out_dir(args, cfg))
    print(f"scenario: {report.scenario}  wall_time: {report.wall_time_s:.3f} s")
    for c in report.checks:
        status = "PASS" if c.passed else "FAIL"
        print(f"  [{status}] {c.name}: measured {c.measured!r} vs expected "
              f"{c.expected!r} (tolerance {c.tolerance!r})")
    for path in report.artifacts:
        print(f"  artifact: {path}")
    return 0 if report.all_passed else 1


def cmd_validate(args) -> int:
    cfg = load_config(args.config)
    _apply_overrides(cfg, args.set)
    diags = validate_config(cfg)
    for d in diags:
        print(d)
    return 0 if not diags else 2


def cmd_demo(args) -> int:
    """Write the scenario's default config next to its outputs, then run it."""
    out_dir = _resolve_out_dir(args, {})
    out_dir.mkdir(parents=True, exist_ok=True)
    config_path = out_dir / f"{args.scenario}.cfg"
    parser = configparser.ConfigParser()
    parser.read_dict({"scenario": {"name": args.scenario},
                      args.scenario: DEFAULT_CONFIGS[args.scenario]})
    with open(config_path, "w") as fh:
        parser.write(fh)
    print(f"wrote config: {config_path}")
    return cmd_run(argparse.Namespace(config=config_path, set=None, out=out_dir))


@functools.cache  # one per process: main() parses each call's argv afresh with it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="valuefield",
        description="Run value-field scenarios from a config file.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute the scenario named in the config")
    p_run.add_argument("config")
    p_run.add_argument("--out", help="output directory (overrides config and env)")
    p_run.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE",
                       help="override a config key")
    p_run.set_defaults(func=cmd_run)

    p_val = sub.add_parser("validate", help="print config diagnostics and exit")
    p_val.add_argument("config")
    p_val.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE")
    p_val.set_defaults(func=cmd_validate)

    p_demo = sub.add_parser("demo", help="run a scenario with built-in defaults")
    p_demo.add_argument("scenario", choices=sorted(SCENARIOS))
    p_demo.add_argument("--out")
    p_demo.set_defaults(func=cmd_demo)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigInvalid as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    except (ValueFieldError, ValueError, ArithmeticError, MemoryError) as exc:
        print(f"run error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
