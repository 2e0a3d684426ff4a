"""Print one ``name sha256`` line per seeded payload of a procurelab checkout.

Usage: python scripts/payload_digests.py [ROOT]

ROOT is the checkout to digest (default: the one holding this script); its
``src`` is what gets imported and run.  Two runs compare with one ``diff``:

    python scripts/payload_digests.py > new.txt
    python scripts/payload_digests.py /path/to/other/checkout > old.txt
    diff old.txt new.txt

The payloads are:

* ``battery/<check>``: each report of ``run_battery(seed=42)`` as JSON;
* ``cli/seed=<s>/<args>``: stdout and exit code of each of the benchmark's
  cli-cold commands at seeds 1-3, in a fresh interpreter each; the
  commands come from ``perfbench.workloads.cli_args`` of the same ROOT;
* ``cli/<args>``: the same for ``region-grid --kind ThreePlayerSlice --x
  0.9``, the three-player payoff slice, which no benchmark command draws;
* ``scan/seed=<s>/<label>``: the payload of each of the four ops of the
  benchmark's equilibrium-scan workload at seeds 1-3 (exact and quadrature
  ``expect_vs``, residuals, joint value and Monte Carlo), run in this
  process from ``perfbench.workloads.equilibrium_scan`` of the same ROOT;
* ``floatpath/<label>/<side>/<method>,n=<n>``: every value that the
  seed-1 scan op ``<label>`` takes from a float-bid ``expect_vs`` call on
  that side and method, in call order, as float64 bytes (20,000 exact and
  1,000 quadrature values a side), so a last-ulp change shows even where
  the scan's payload keeps only a max or a min;
* ``verify/<strategy>[-p<p>]``: stdout and exit code of ``verify --format
  json`` for the uniform, log and critical strategies and the weighted one
  at p in {0.5, 0.3, 0.1, 0.05, 0.01} (the last in the low-p regime, where
  the quadrature halves its panels toward E most often);
* ``grid/p=<p>,n=<n>``: the ``value_curve_oracle`` row, as sorted-key JSON,
  of the benchmark's grid-ladder solves (p*, 0.3 and 0.1 at n = 401, 801
  and 1601 on the default market);
* ``landmarks/market=<market>,p=<p>``: the raw float64 bytes of
  ``regime_breakpoints`` at p in {0.3, 0.1, 0.05, 0.01, 1e-4, 1e-12} on the
  default market and its five affine images, the grid landmarks of both the
  intermediate and the low-p regime (at 1e-12, m = 38 on every market);
* ``regimes/p=<p>``: ``value_weighted(p).to_json()`` at p in {0.1, 1e-4,
  1e-9, 1e-13, 1e-16}, which pins the low-p count m;
* ``grid/solve,...``: the ``solve_grid_game`` result (value, both mixes,
  certificate and converged flag) as JSON, for the p = 0.3 kernel at
  n = 401 on the five affine images of the default market and on
  ``(0, 1.5, 0.003)``, on unequal 203 x 301 grids of the default market, and
  at p in {0, 0.7, 1} on the default market at n = 401, where the grid
  steps' cutpoints take their limits or the column weight is the smaller;
* ``mc/...``: sampling paths that no benchmark payload draws, at sizes that
  cross the 65,536-draw block seams: ``mc_tournament`` of three players
  (kernel None), and of a pair of mixtures with atoms (so bids tie) under
  the p = 0.3 kernel and under p = 0.0 and 1.0, where the tie value equals
  the loss or the win value, as JSON of the result's fields; and the raw
  bytes of the critical strategy's quantiles of ``uniform_stream(7, n)``;
* ``joint/<label>,p=<p>``: ``expect_joint`` of the uniform, log, critical
  and weighted-0.3 strategies against themselves, as JSON of the value, the
  per-form values and the max gap, under the kernels of p in {0.3, 0.0,
  1.0}; at p in {0, 1} the outer form takes the quadrature path and both
  read the limits of the kernel's cutpoints;
* ``quad/<label>/<side>,p=<p>``: the raw bytes of array-bid quadrature
  ``expect_vs`` against the same four strategies, on A, B, E and 151
  evenly spaced bids, on both sides, under the kernels of p in {0.0, 1.0};
* ``ddpm/...``: the ``ddpm_probe`` report as JSON at 1,000 samples on the
  default market, and on two narrow markets, ``(0, 1.5, 0.003)`` at 40
  samples and ``(5, 6, 5.004)`` at 25, where E sits close to A, so the
  Transition profiles fit only because the margins scale with E - A;
* ``br/...``: a 10,000-step three-player ``br_dynamics`` trajectory as
  JSON: every profile, the cycle start and period, and the least winner
  payoff;
* ``matrix/...``: the raw bytes of ``WeightedKernel.matrix`` for the p = 0.3
  kernel and its ``swapped()`` column kernel, at shapes that cross the
  row-block seams (1601 x 1601, 7 x 70,000 and 70,000 x 1).  Row bids are
  evenly spaced on [A, B]; column bids are m - 1 evenly spaced bids on
  [A, B] and then E, so bids at A and B tie (for m > 2) and the last column
  sits on E.

A digest covers the bytes of the payload, so any moved digit shows.
"""
from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

SEEDS = (1, 2, 3)
VERIFY = (
    ["--strategy", "uniform"],
    ["--strategy", "log"],
    ["--strategy", "critical"],
    *(["--strategy", "weighted", "--p", p] for p in ("0.5", "0.3", "0.1", "0.05", "0.01")),
)
LADDER_N = (401, 801, 1601)
MC_SAMPLES = 200_003
SLICE = ["region-grid", "--kind", "ThreePlayerSlice", "--x", "0.9"]
DDPM = (((0.0, 1.5, 1.0), 1_000), ((0.0, 1.5, 0.003), 40), ((5.0, 6.0, 5.004), 25))
BR_START = (0.2, 0.9, 1.3)
MATRIX_SHAPES = ((1601, 1601), (7, 70_000), (70_000, 1))
GRID_MARKETS = ((0.0, 1.5e-6, 1e-6), (-3.0, 0.0, -1.0), (0.2, 2.0, 1.1), (0.0, 1.5e6, 1e6),
                (1e6, 1e6 + 1.5, 1e6 + 1), (0.0, 1.5, 0.003))
LANDMARK_P = (0.3, 0.1, 0.05, 0.01, 1e-4, 1e-12)
REGIME_P = (0.1, 1e-4, 1e-9, 1e-13, 1e-16)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def cli_digest(root: Path, env: dict, args: list[str]) -> str:
    proc = subprocess.run([sys.executable, "-m", "procurelab.cli", *args], cwd=root,
                          env=env, capture_output=True, timeout=300)
    return digest(proc.stdout + f"\nexit={proc.returncode}\n".encode())


@contextlib.contextmanager
def recording_float_bids(values: dict):
    """Wrap strategy.expect_vs, the attribute the scan ops call, so that each
    float-bid call appends its value to values[(side value, method)]."""
    from procurelab import strategy

    real = strategy.expect_vs

    def expect_vs(bid, s, kernel, *, side=strategy.Side.AS_ROW, method="exact"):
        out = real(bid, s, kernel, side=side, method=method)
        if not isinstance(bid, np.ndarray):
            values.setdefault((side.value, method), []).append(out)
        return out

    strategy.expect_vs = expect_vs
    try:
        yield
    finally:
        strategy.expect_vs = real


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    root = Path(argv[0] if argv else Path(__file__).resolve().parent.parent).resolve()
    src = root / "src"
    if not (src / "procurelab" / "__init__.py").is_file():
        print(f"no procurelab sources under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(root)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))

    from procurelab._rng import uniform_stream
    from procurelab.equilibria import (critical_regime_strategy, log_equilibrium,
                                       uniform_equilibrium, value_weighted,
                                       weighted_equilibrium)
    from procurelab.experiments import br_dynamics, mc_tournament, run_battery
    from procurelab.game_core import (MarketConfig, Side, WeightedKernel, critical_p,
                                      default_config)
    from procurelab.oracle_solver import (ddpm_probe, make_grid, regime_breakpoints,
                                          solve_grid_game, value_curve_oracle)
    from procurelab.strategy import (Atom, MixedStrategy, Piece, PieceKind, expect_joint,
                                     expect_vs)
    from perfbench.workloads import cli_args, equilibrium_scan

    for report in run_battery(seed=42):
        print(f"battery/{report.check} {digest(report.to_json().encode())}")
    for seed in SEEDS:
        for args in cli_args(seed):
            print(f"cli/seed={seed}/{'_'.join(args)} {cli_digest(root, env, args)}")
    print(f"cli/{'_'.join(SLICE)} {cli_digest(root, env, SLICE)}")
    float_paths = []
    for seed in SEEDS:
        ops, _ = equilibrium_scan(seed, root)
        for label, op in ops:
            values = {}
            with recording_float_bids(values) if seed == 1 else contextlib.nullcontext():
                _, payload, _ = op(False)
            print(f"scan/seed={seed}/{label} {digest(payload.encode())}")
            float_paths += [(label, key, vals) for key, vals in values.items()]
    for label, (side, method), vals in float_paths:
        print(f"floatpath/{label}/{side}/{method},n={len(vals)} "
              f"{digest(np.array(vals, dtype=np.float64).tobytes())}")
    for args in VERIFY:
        name = args[1] + (f"-p{args[3]}" if len(args) > 2 else "")
        print(f"verify/{name} "
              f"{cli_digest(root, env, ['verify', *args, '--format', 'json'])}")
    for p in (critical_p(), 0.3, 0.1):
        for n in LADDER_N:
            (row,) = value_curve_oracle([p], default_config(), [n])
            print(f"grid/p={p!r},n={n} {digest(json.dumps(row, sort_keys=True).encode())}")
    cfg = default_config()
    for market in ((cfg.A, cfg.B, cfg.E), *GRID_MARKETS[:5]):
        for p in LANDMARK_P:
            marks = np.array(regime_breakpoints(p, MarketConfig(*market)), dtype=np.float64)
            print(f"landmarks/market={market},p={p!r} {digest(marks.tobytes())}")
    for p in REGIME_P:
        print(f"regimes/p={p!r} {digest(value_weighted(p).to_json().encode())}")

    def solve_digest(market: tuple, p: float, nx: int, ny: int) -> None:
        mcfg = MarketConfig(*market)
        sol = solve_grid_game(WeightedKernel(p=p, cfg=mcfg), make_grid(nx, mcfg),
                              make_grid(ny, mcfg))
        print(f"grid/solve,market={market},p={p!r},n={nx}x{ny} "
              f"{digest(json.dumps(dataclasses.asdict(sol)).encode())}")

    for market in GRID_MARKETS:
        solve_digest(market, 0.3, 401, 401)
    solve_digest((cfg.A, cfg.B, cfg.E), 0.3, 203, 301)
    for p in (0.0, 0.7, 1.0):
        solve_digest((cfg.A, cfg.B, cfg.E), p, 401, 401)
    mixed = MixedStrategy((Piece(PieceKind.UNIFORM, 0.0, 0.4, 0.3),
                           Piece(PieceKind.RECIPROCAL, 0.5, 0.9, 0.4)),
                          (Atom(0.45, 0.1), Atom(0.95, 0.2)), cfg).validate()
    three = [log_equilibrium(cfg), uniform_equilibrium(cfg), critical_regime_strategy(cfg)]
    for name, strategies, kernel in (
        ("N=3,kernel=None", three, None),
        *((f"atoms-pair,p={p}", [mixed, mixed], WeightedKernel(p=p, cfg=cfg))
          for p in (0.3, 0.0, 1.0)),
    ):
        res = mc_tournament(strategies, kernel, MC_SAMPLES, 7)
        print(f"mc/{name},samples={MC_SAMPLES} "
              f"{digest(json.dumps(dataclasses.asdict(res), sort_keys=True).encode())}")
    n = 2 * 65_536 + 5
    draws = critical_regime_strategy(cfg).quantile(uniform_stream(7, n))
    print(f"mc/sample/critical,n={n} {digest(draws.tobytes())}")
    labelled = (("uniform", uniform_equilibrium(cfg)), ("log", log_equilibrium(cfg)),
                ("critical", critical_regime_strategy(cfg)),
                ("weighted-0.3", weighted_equilibrium(0.3, cfg)))
    for label, s in labelled:
        for p in (0.3, 0.0, 1.0):
            joint = expect_joint(s, s, WeightedKernel(p=p, cfg=cfg))
            print(f"joint/{label},p={p} "
                  f"{digest(json.dumps(dataclasses.asdict(joint), sort_keys=True).encode())}")
    bids = np.append([cfg.A, cfg.B, cfg.E], np.linspace(cfg.A, cfg.B, 151))
    for label, s in labelled:
        for side in Side:
            for p in (0.0, 1.0):
                vals = expect_vs(bids, s, WeightedKernel(p=p, cfg=cfg), side=side,
                                 method="quadrature")
                print(f"quad/{label}/{side.value},p={p} {digest(vals.tobytes())}")
    for market, samples in DDPM:
        report = ddpm_probe(samples, 7, MarketConfig(*market))
        print(f"ddpm/market={market},samples={samples} {digest(report.to_json().encode())}")
    traj = br_dynamics(BR_START, 10_000, cfg)
    print(f"br/N=3,start={BR_START},steps=10000 "
          f"{digest(json.dumps(dataclasses.asdict(traj)).encode())}")
    k = WeightedKernel(p=0.3, cfg=cfg)
    for name, kernel in (("p=0.3", k), ("p=0.3,swapped", k.swapped())):
        for n, m in MATRIX_SHAPES:
            xs = np.linspace(cfg.A, cfg.B, n)
            ys = np.append(np.linspace(cfg.A, cfg.B, m - 1), cfg.E)
            print(f"matrix/{name},shape={n}x{m} {digest(kernel.matrix(xs, ys).tobytes())}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
