"""Command-line front end: one subcommand per operation, reproducible by seed.

Exit codes: 0 success (and all verifications passed), 1 computation or
verification failure, 2 usage error.  Every output embeds the resolved run
configuration; floats print with 12 significant digits.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from ._report import make_report
from .equilibria import (
    critical_regime_strategy,
    log_equilibrium,
    uniform_equilibrium,
    value_weighted,
    weighted_equilibrium,
)
from .experiments import (
    NORMALIZATION_GATE,
    RESIDUAL_GATE,
    RESIDUAL_POINTS,
    RegionKind,
    br_dynamics,
    equilibrium_inequalities,
    functional_residuals,
    joint_value_consistency,
    mc_tournament,
    region_grid,
    region_grid_csv,
    strategy_normalization,
)
from .game_core import (
    MarketConfig,
    WeightedKernel,
    critical_p,
    cutpoints3,
    jump_signs,
    ordering_cell,
    BoundaryError,
)
from .oracle_solver import (
    ddpm_probe,
    grid_sup_inf,
    make_grid,
    payoff_matrix,
    pure_ne_scan,
    regime_breakpoints,
    solve_grid_game,
    value_curve_oracle,
)
from .strategy import MixedStrategy

__all__ = ["RunConfig", "main"]

# typing 0.232408 on the command line cannot hit the irrational critical
# weight; classification surfaces snap anything this close onto it
_CRITICAL_SNAP = 1e-6

_STRATEGIES = ("uniform", "log", "weighted", "critical")


class _UsageError(Exception):
    pass


@dataclass(frozen=True)
class RunConfig:
    A: float = 0.0
    B: float = 1.5
    E: float = 1.0
    p: float = 0.5
    n: int = 101
    samples: int = 100_000
    seed: int = 42
    tol: float = 1e-6
    output: Optional[str] = None
    format: str = "csv"

    def market(self) -> MarketConfig:
        return MarketConfig(A=self.A, B=self.B, E=self.E)

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        return {k: _sig(v) if isinstance(v, float) else v for k, v in d.items()}


def _sig(v: float) -> float:
    # 12 significant digits, re-parsed so JSON prints the rounded value
    return float(f"{v:.12g}")


def _fmt(v: float) -> str:
    return f"{v:.12g}"


def _snap_critical(p: float) -> float:
    p_star = critical_p()
    return p_star if abs(p - p_star) <= _CRITICAL_SNAP else p


def _jsonify(obj):
    if isinstance(obj, float):
        return _sig(obj)
    if isinstance(obj, (np.floating,)):
        return _sig(float(obj))
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_jsonify(v) for v in obj]
    return obj


def _dump(payload: dict) -> str:
    return json.dumps(_jsonify(payload)) + "\n"


# ---------------------------------------------------------------------------
# run-config plumbing: flags > --config JSON > defaults

# the JSON values each RunConfig annotation accepts; bool, an int subclass,
# is refused separately
_CONFIG_TYPES = {"float": (int, float), "int": (int,), "str": (str,),
                 "Optional[str]": (str, type(None))}


def _typed_config(loaded: dict) -> dict:
    """The config values, type-checked; JSON ints in float fields become floats,
    so they echo as a flag's value would."""
    out = dict(loaded)
    for field in dataclasses.fields(RunConfig):
        if field.name not in loaded:
            continue
        value = loaded[field.name]
        if isinstance(value, bool) or not isinstance(value, _CONFIG_TYPES[field.type]):
            raise _UsageError(
                f"config field {field.name} must be {field.type}, got {json.dumps(value)}")
        if field.type == "float":
            try:
                out[field.name] = float(value)
            except OverflowError:
                raise _UsageError(f"config field {field.name} is too large for a float")
    return out


def _run_config_from(args: argparse.Namespace) -> RunConfig:
    values = dataclasses.asdict(RunConfig())
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            loaded = json.loads(Path(config_path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise _UsageError(f"cannot read config file {config_path}: {exc}")
        if not isinstance(loaded, dict):
            raise _UsageError("config file must hold a JSON object")
        unknown = sorted(set(loaded) - set(values))
        if unknown:
            raise _UsageError(f"unknown config fields: {', '.join(unknown)}")
        values.update(_typed_config(loaded))
    for field in values:
        flag = getattr(args, field, None)
        if flag is not None:
            values[field] = flag
    if values["format"] not in ("csv", "json"):
        raise _UsageError(f"format must be csv or json, got {values['format']!r}")
    rc = RunConfig(**values)
    try:
        rc.market()  # A < E < B validation
    except Exception as exc:
        raise _UsageError(str(exc))
    if rc.n < 2:
        raise _UsageError("n must be at least 2")
    if rc.samples < 2:
        raise _UsageError("samples must be at least 2")
    if not rc.tol > 0.0:
        raise _UsageError("tol must be positive")
    return rc


def _emit(text: str, rc: RunConfig) -> None:
    if rc.output:
        Path(rc.output).write_text(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommand handlers, each returning (text, exit_code)


def _parse_ladder(raw: str) -> list[int]:
    if not raw:
        return []
    try:
        ladder = [int(tok) for tok in raw.split(",")]
    except ValueError:
        raise _UsageError(f"n-ladder must be comma-separated integers, got {raw!r}")
    if any(n < 2 for n in ladder):
        raise _UsageError("every ladder grid size must be at least 2")
    return sorted(set(ladder))


def _certificate_misses(command: str, misses: list[tuple[float, int]]) -> int:
    """One stderr line per (p, n) grid solve that missed its certificate; the exit code."""
    for p, n in misses:
        print(f"procurelab {command}: error: grid solve at p={_fmt(p)}, n={n} "
              "missed its certificate tolerance", file=sys.stderr)
    return 1 if misses else 0


def _cmd_value_curve(rc: RunConfig, args: argparse.Namespace) -> tuple[str, int]:
    if not (0.0 < args.p_min <= args.p_max <= 0.5):
        raise _UsageError("need 0 < p-min <= p-max <= 0.5")
    if args.steps < 1:
        raise _UsageError("steps must be positive")
    ladder = _parse_ladder(args.n_ladder)
    cfg = rc.market()
    ps = [_snap_critical(float(v)) for v in np.linspace(args.p_min, args.p_max, args.steps)]
    solves = value_curve_oracle(ps, cfg, ladder, rc.tol) if ladder else []
    ladder_values = {(row["p"], row["n"]): row["value_n"] for row in solves}
    code = _certificate_misses(
        "value-curve", [(row["p"], row["n"]) for row in solves if not row["converged"]])
    rows = []
    for p in ps:
        rep = value_weighted(p)
        row = {
            "p": p,
            "v_formula": rep.v,
            "regime": rep.regime.value,
            "m": rep.m,
            "epsilon_p": rep.epsilon_p,
        }
        for n in ladder:
            row[f"value_n{n}"] = ladder_values[(p, n)]
        rows.append(row)
    if rc.format == "json":
        return _dump({"run_config": rc.to_dict(), "rows": rows}), code
    header = ["p", "v_formula", "regime", "m", "epsilon_p"] + [f"value_n{n}" for n in ladder]
    lines = [f"# run_config: {json.dumps(rc.to_dict())}", ",".join(header)]
    for row in rows:
        cells = [_fmt(row["p"]), _fmt(row["v_formula"]), row["regime"],
                 "" if row["m"] is None else str(row["m"]), _fmt(row["epsilon_p"])]
        cells += [_fmt(row[f"value_n{n}"]) for n in ladder]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n", code


def _cmd_verify(rc: RunConfig, args: argparse.Namespace) -> tuple[str, int]:
    cfg = rc.market()
    name = args.strategy
    if args.p is not None and name != "weighted":
        raise _UsageError("--p only applies to --strategy weighted")
    grid_n = args.grid if args.grid is not None else rc.n
    if grid_n < 2:
        raise _UsageError("grid must be at least 2")
    if name == "weighted":
        kp = _snap_critical(rc.p)
    else:
        kp = critical_p() if name == "critical" else 0.5
    s = _named_strategy(name, kp, cfg)
    v = value_weighted(kp).v
    reports = [make_report("normalization", {"strategy": name},
                           strategy_normalization([(name, s)])[0], NORMALIZATION_GATE)]
    dev, worst = equilibrium_inequalities([(name, s, kp)], np.linspace(cfg.A, cfg.B, grid_n))
    reports.append(make_report(
        "payoff-inequalities", {"grid": grid_n, "value": _sig(v)}, dev, rc.tol, worst
    ))
    if name in ("log", "weighted"):
        dev, worst = functional_residuals([(s, kp)])
        reports.append(make_report(
            "functional-residuals", {"p": kp, "points": RESIDUAL_POINTS}, dev, RESIDUAL_GATE, worst
        ))
    reports.append(make_report(
        "joint-value", {"strategy": name}, joint_value_consistency([(s, kp)])[0], rc.tol
    ))
    ok = all(r.passed for r in reports)
    payload = {
        "run_config": rc.to_dict(),
        "strategy": name,
        "p": kp,
        "grid": grid_n,
        "reports": [json.loads(r.to_json()) for r in reports],
        "pass": ok,
    }
    return _dump(payload), 0 if ok else 1


def _cmd_solve_grid(rc: RunConfig, args: argparse.Namespace) -> tuple[str, int]:
    cfg = rc.market()
    mandatory = regime_breakpoints(rc.p, cfg) if 0.0 < rc.p <= 0.5 else ()
    g = make_grid(rc.n, cfg, mandatory=mandatory)
    sol = solve_grid_game(WeightedKernel(p=rc.p, cfg=cfg), g, g, tol=rc.tol)
    payload = {
        "run_config": rc.to_dict(),
        "p": rc.p,
        "requested_n": rc.n,
        "grid_n": g.size,
        "value": sol.value,
        "exploitability": sol.exploitability,
        "converged": sol.converged,
        "row_support": int(np.count_nonzero(np.asarray(sol.row_mix) > 1e-12)),
        "col_support": int(np.count_nonzero(np.asarray(sol.col_mix) > 1e-12)),
        "v_formula": value_weighted(rc.p).v if 0.0 < rc.p <= 0.5 else None,
    }
    misses = [] if sol.converged else [(rc.p, rc.n)]
    return _dump(payload), _certificate_misses("solve-grid", misses)


def _cmd_cutpoints3(rc: RunConfig, args: argparse.Namespace) -> tuple[str, int]:
    cfg = rc.market()
    cut = cutpoints3(args.y, args.z, cfg)
    try:
        cell = ordering_cell(args.y, args.z, cfg)
        cell_part = {"cell": cell.tag, "mirrored": cell.mirrored,
                     "jump_signs": jump_signs(cell)}
    except BoundaryError:
        cell_part = {"cell": None, "mirrored": None, "jump_signs": None}
    payload = {
        "run_config": rc.to_dict(),
        "y": args.y, "z": args.z,
        "t": cut.t, "p_y": cut.p_y, "p_z": cut.p_z,
        **cell_part,
    }
    return _dump(payload), 0


def _cmd_regimes(rc: RunConfig, args: argparse.Namespace) -> tuple[str, int]:
    p = _snap_critical(rc.p)
    if not 0.0 <= p <= 0.5:
        raise _UsageError(f"regime classification needs 0 <= p <= 1/2, got {p:g}")
    rep = value_weighted(p)
    payload = {"run_config": rc.to_dict(), **json.loads(rep.to_json())}
    return _dump(payload), 0


def _named_strategy(name: str, p: float, cfg: MarketConfig) -> MixedStrategy:
    if name == "uniform":
        return uniform_equilibrium(cfg)
    if name == "log":
        return log_equilibrium(cfg)
    if name == "critical":
        return critical_regime_strategy(cfg)
    if not 0.0 < p <= 0.5:
        raise _UsageError(f"strategy 'weighted' needs 0 < p <= 1/2, got {p:g}")
    return weighted_equilibrium(p, cfg)


def _cmd_simulate(rc: RunConfig, args: argparse.Namespace) -> tuple[str, int]:
    cfg = rc.market()
    row = _named_strategy(args.row, rc.p, cfg)
    col = _named_strategy(args.col, rc.p, cfg)
    res = mc_tournament([row, col], WeightedKernel(p=rc.p, cfg=cfg), rc.samples, rc.seed)
    payload = {
        "run_config": rc.to_dict(),
        "row": args.row, "col": args.col, "p": rc.p,
        "means": list(res.means), "stderrs": list(res.stderrs),
        "samples": res.samples, "seed": res.seed,
    }
    return _dump(payload), 0


def _cmd_pure_ne_scan(rc: RunConfig, args: argparse.Namespace) -> tuple[str, int]:
    cfg = rc.market()
    g = make_grid(rc.n, cfg)
    found = pure_ne_scan(args.N, g)
    payload = {
        "run_config": rc.to_dict(),
        "N": args.N,
        "grid_n": g.size,
        "found": [list(prof) for prof in found],
        "count": len(found),
    }
    if args.N == 2:
        sup_inf, inf_sup = grid_sup_inf(payoff_matrix(WeightedKernel(p=0.5, cfg=cfg), g, g))
        payload["sup_inf"] = sup_inf
        payload["inf_sup"] = inf_sup
    return _dump(payload), 0


def _cmd_ddpm_probe(rc: RunConfig, args: argparse.Namespace) -> tuple[str, int]:
    report = ddpm_probe(rc.samples, rc.seed, rc.market())
    payload = {"run_config": rc.to_dict(), **json.loads(report.to_json())}
    return _dump(payload), 0 if report.passed else 1


def _parse_start(raw: str) -> list[float]:
    try:
        return [float(tok) for tok in raw.split(",")]
    except ValueError:
        raise _UsageError(f"start must be comma-separated numbers, got {raw!r}")


def _cmd_br_dynamics(rc: RunConfig, args: argparse.Namespace) -> tuple[str, int]:
    cfg = rc.market()
    start = _parse_start(args.start) if args.start else [cfg.A, cfg.A]
    if len(start) < 2:
        raise _UsageError("start needs at least two comma-separated bids")
    if args.steps < 1:
        raise _UsageError("steps must be positive")
    traj = br_dynamics(start, args.steps, cfg)
    payload = {
        "run_config": rc.to_dict(),
        "start": start,
        "steps": args.steps,
        "fixed_point_step": traj.fixed_point_step,
        "min_winner_payoff": traj.min_winner_payoff,
        "final_profile": list(traj.profiles[-1]),
    }
    return _dump(payload), 0


_REGION_KINDS = {k.value: k for k in RegionKind}


def _cmd_region_grid(rc: RunConfig, args: argparse.Namespace) -> tuple[str, int]:
    cfg = rc.market()
    kind = _REGION_KINDS[args.kind]
    p = x = None
    if kind is RegionKind.WEIGHTED_P:
        p = rc.p
    elif kind is RegionKind.THREE_PLAYER_SLICE:
        if args.x is None:
            raise _UsageError("ThreePlayerSlice needs --x")
        x = args.x
    if args.x is not None and kind is not RegionKind.THREE_PLAYER_SLICE:
        raise _UsageError("--x only applies to ThreePlayerSlice")
    M = region_grid(kind, args.resolution, cfg, p=p, x=x)
    if rc.format == "json":
        payload = {
            "run_config": rc.to_dict(),
            "kind": kind.value, "resolution": args.resolution,
            "p": p, "x": x,
            "matrix": M,
        }
        return _dump(payload), 0
    text = f"# run_config: {json.dumps(rc.to_dict())}\n" + region_grid_csv(
        M, kind, args.resolution, cfg, p=p, x=x
    )
    return text, 0


_DISPATCH = {
    "value-curve": _cmd_value_curve,
    "verify": _cmd_verify,
    "solve-grid": _cmd_solve_grid,
    "cutpoints3": _cmd_cutpoints3,
    "regimes": _cmd_regimes,
    "simulate": _cmd_simulate,
    "pure-ne-scan": _cmd_pure_ne_scan,
    "ddpm-probe": _cmd_ddpm_probe,
    "br-dynamics": _cmd_br_dynamics,
    "region-grid": _cmd_region_grid,
}


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None, metavar="PATH",
                        help="JSON file with run-config fields; flags override it")
    common.add_argument("--A", type=float, default=None, help="lowest admissible bid")
    common.add_argument("--B", type=float, default=None, help="highest admissible bid")
    common.add_argument("--E", type=float, default=None, help="estimated cost")
    common.add_argument("--p", type=float, default=None, help="row tie weight")
    common.add_argument("--n", type=int, default=None, help="grid size")
    common.add_argument("--samples", type=int, default=None, help="Monte Carlo draws")
    common.add_argument("--seed", type=int, default=None, help="root seed")
    common.add_argument("--tol", type=float, default=None, help="verification tolerance")
    common.add_argument("--output", default=None, metavar="PATH",
                        help="write to this file instead of stdout")
    common.add_argument("--format", choices=("csv", "json"), default=None)

    parser = argparse.ArgumentParser(
        prog="procurelab",
        description="Numerical laboratory for the average-bid procurement game.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("value-curve", parents=[common],
                        help="sweep the explicit value formula over p")
    pc.add_argument("--p-min", type=float, required=True)
    pc.add_argument("--p-max", type=float, required=True)
    pc.add_argument("--steps", type=int, default=1)
    pc.add_argument("--n-ladder", default="", metavar="N1,N2,...",
                    help="also solve shared grids of these sizes per p")

    pv = sub.add_parser("verify", parents=[common],
                        help="check an equilibrium strategy, emit reports")
    pv.add_argument("--strategy", choices=_STRATEGIES, required=True)
    pv.add_argument("--grid", type=int, default=None,
                    help="scan points for the payoff inequalities (default: n)")

    sub.add_parser("solve-grid", parents=[common],
                   help="solve the discretized matrix game")

    p3 = sub.add_parser("cutpoints3", parents=[common],
                        help="three-player cutpoints and ordering cell")
    p3.add_argument("--y", type=float, required=True)
    p3.add_argument("--z", type=float, required=True)

    sub.add_parser("regimes", parents=[common],
                   help="classify p and report the value formula")

    ps = sub.add_parser("simulate", parents=[common],
                        help="seeded Monte Carlo tournament")
    ps.add_argument("--row", choices=_STRATEGIES, required=True)
    ps.add_argument("--col", choices=_STRATEGIES, required=True)

    pn = sub.add_parser("pure-ne-scan", parents=[common],
                        help="exhaustive grid scan for pure equilibria")
    pn.add_argument("--N", type=int, choices=(2, 3), default=2)

    sub.add_parser("ddpm-probe", parents=[common],
                   help="one-sided limit probes on the tie hypersurfaces")

    pb = sub.add_parser("br-dynamics", parents=[common],
                        help="round-robin best-response play")
    pb.add_argument("--start", default=None, metavar="B1,B2,...",
                    help="starting bids (default: A,A)")
    pb.add_argument("--steps", type=int, default=10_000)

    pr = sub.add_parser("region-grid", parents=[common],
                        help="dense payoff matrix over a bid plane")
    pr.add_argument("--kind", choices=tuple(_REGION_KINDS), required=True)
    pr.add_argument("--resolution", type=int, default=64)
    pr.add_argument("--x", type=float, default=None,
                    help="own bid for ThreePlayerSlice")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        rc = _run_config_from(args)
        if args.command not in ("value-curve", "region-grid"):
            if args.format == "csv":
                raise _UsageError("--format csv applies only to value-curve and region-grid")
            rc = dataclasses.replace(rc, format="json")
        text, code = _DISPATCH[args.command](rc, args)
        _emit(text, rc)
    except _UsageError as exc:
        print(f"procurelab {args.command}: error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # library and I/O failures exit 1, not a traceback
        print(f"procurelab {args.command}: error: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
