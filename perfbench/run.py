"""procurelab benchmark: one seeded workload per run, with correctness gates.

Usage (from the root of a source tree):

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Workloads (see workloads.py for their ops and gates; each is a closed loop
with one client in one process, no concurrency):

* battery           run_battery(default_config(), seed), the verification gate;
                    mostly scalar best-response play.
* grid-ladder       grid-LP value ladder at p*, 0.3, 0.1 and n = 401/801/1601;
                    kernel matrices and HiGHS LPs, no strategy code.
* equilibrium-scan  exact and quadrature expected payoffs, residuals, joint
                    value and Monte Carlo for four equilibria; no LP.
* cli-cold          11 CLI invocations, each in a fresh interpreter, so
                    import cost shows.

The program runs from the tree's own ``src/`` (PYTHONPATH), so two commits
are compared without reinstalling.  Each workload runs in its own process;
set-up time is sampled in several fresh interpreters.

With --trace 0 the last stdout line carries the end-to-end metrics, with
--trace 1 the per-layer metrics of a traced run (see tracer.py) together
with the layer-share table and the tracing overhead.  That line is one JSON
object with the keys correct, attempted, failed and metrics.  An op fails
if it raises, exits non-zero, fails its gate, or its seeded payload differs
from an earlier pass or from an earlier run of the same tree and seed
(kept in perfbench/out/payloads.json).
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from tracer import LAYER_METRICS, LAYERS  # noqa: E402

WORKLOADS = ("battery", "grid-ladder", "equilibrium-scan", "cli-cold")
SETUP_PROBES = 3  # fresh interpreters besides the worker itself
RUN_LIMIT_S = 170  # a run ends within this, or fails
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
BATTERY_CHECKS = (
    "payoff-conservation", "combinatorial-agreement", "three-player-agreement",
    "deviation-optimality", "cutpoint-relations", "ordering-cells-exhaustive",
    "jump-sign-scan", "map-roundtrips", "strategy-normalization",
    "equilibrium-inequalities", "curve-quadrature-agreement", "functional-residuals",
    "value-at-half", "value-at-critical", "critical-map-identity",
    "joint-value-consistency", "mc-consistency", "matrix-constant-sum",
    "solver-certificate-recompute", "projection-gap-ladder", "pure-ne-scan",
    "br-dynamics-no-fixed-point", "value-ladder-desk", "ddpm-one-sided-limits",
)

END_TO_END = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MiB"}


def per_layer_units() -> dict[str, str]:
    units = {f"cli.{k}": "s" for k in ("interp_s", "import_s", "import_numpy_s",
                                       "import_scipy_s", "dispatch_s")}
    units.update({m: unit for m, _fn, _field, unit in LAYER_METRICS})
    units.update({f"experiments.check.{c}_s": "s" for c in BATTERY_CHECKS})
    units.update({f"share.{k}": "%" for k in (*LAYERS, "unattributed")})
    units["trace.overhead_s"] = "s"
    return units


# ---------------------------------------------------------------------------
# environment record


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None  # not a git checkout


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def environment(seed: int, env: dict, libs: dict) -> dict:
    """What the numbers depend on; `libs` holds the versions the worker saw."""
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        **libs,
        "threads": {k: env.get(k) for k in THREAD_VARS},
        "git_commit": _git_commit(),
        "src_digest": src_digest(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# processes


def _start_worker(args: list[str], env: dict) -> tuple[subprocess.Popen, float, dict]:
    """Start a worker and wait for its ready line: (process, seconds to ready, setup)."""
    t0 = perf_counter()
    # own process group, so a kill also reaches the CLI processes it starts
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args], cwd=ROOT,
                            env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    line = proc.stdout.readline()
    ready = perf_counter() - t0
    if not line.startswith("ready "):
        _finish(proc, 0)
        raise RuntimeError(f"worker failed during set-up: {line!r}")
    return proc, ready, json.loads(line[6:])


def _finish(proc: subprocess.Popen, timeout: float) -> None:
    """Wait for a worker; past `timeout` seconds kill its process group."""
    try:
        proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")


# ---------------------------------------------------------------------------
# metrics


def tail(values: list[float]) -> tuple[float | None, float | None]:
    """(percentile, value) of the highest percentile with >= 10 samples beyond it.

    None below 20 samples, where that percentile would not exceed the median.
    """
    xs = sorted(values)
    k = len(xs) - 10  # 1-based rank of the order statistic
    if k < 10:
        return None, None
    return 100.0 * k / len(xs), xs[k - 1]


def check_payloads(key: str, passes: list[dict]) -> None:
    """Fail ops whose payload differs from an earlier run of this tree and seed."""
    store_path = OUT / "payloads.json"
    store = json.loads(store_path.read_text()) if store_path.exists() else {}
    known = store.setdefault(key, {})
    for p in passes:
        for op in p["ops"]:
            if not op["ok"]:
                continue
            if known.setdefault(op["key"], op["digest"]) != op["digest"]:
                op["ok"] = False
                op["info"]["error"] = "payload differs from an earlier run"
    tmp = store_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(store, indent=1, sort_keys=True))
    tmp.replace(store_path)


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, statistics.median(xs), q3


def main() -> int:
    started = perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "procurelab" / "__init__.py").is_file():
        print(f"no procurelab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("--seconds must be at least 1", file=sys.stderr)
        return 2
    seed = args.seed % 2**32  # workload seed; numpy generators need it non-negative

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    for var in THREAD_VARS:  # one client, no concurrency: single-threaded BLAS
        env[var] = "1"
    OUT.mkdir(exist_ok=True)

    wargs = ["--workload", args.workload, "--seed", str(seed)]
    setups = []
    for _ in range(SETUP_PROBES):
        proc, ready, setup = _start_worker(wargs, env)
        _finish(proc, 60)
        setups.append((ready, setup))
    tag = f"{args.workload}-{seed}-{os.getpid()}"
    result_path = OUT / f"result-{tag}.json"
    spans_path = OUT / f"spans-{args.workload}-{seed}.jsonl"
    run_args = [*wargs, "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--out", str(result_path)]
    if args.trace:
        run_args += ["--spans", str(spans_path)]
    proc, ready, setup = _start_worker(run_args, env)
    setups.append((ready, setup))
    try:
        _finish(proc, max(1.0, RUN_LIMIT_S - (perf_counter() - started)))
        result = json.loads(result_path.read_text())
    finally:
        result_path.unlink(missing_ok=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    record = environment(args.seed, env, result["libs"])
    print("env " + json.dumps(record))
    passes = result["passes"]
    check_payloads(f"{args.workload} {seed} {record['src_digest']}", passes)
    ops = [op for p in passes for op in p["ops"]]
    failed = sum(not op["ok"] for op in ops)
    for op in ops:
        if not op["ok"]:
            print(f"FAILED op {op['key']}: {op['info'].get('error', 'gate')}")

    plain = [p for p in passes if not p["traced"]]
    pass_q = quartiles([p["s"] for p in plain])
    op_times = [op["s"] for p in plain for op in p["ops"]]
    pct, tail_s = tail(op_times)
    setup_q = quartiles([r for r, _ in setups])
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}  closed loop, 1 client")
    print(f"pass_s       {pass_q[1]:.4f} s   q1 {pass_q[0]:.4f}  q3 {pass_q[2]:.4f}  "
          f"({len(plain)} untraced passes of {len(passes[0]['ops'])} ops)")
    print(f"op_p50_s     {statistics.median(op_times):.4f} s   ({len(op_times)} ops)")
    if tail_s is None:
        print(f"op_tail_s    n/a   (needs at least 20 ops, have {len(op_times)})")
    else:
        print(f"op_tail_s    {tail_s:.4f} s   p{pct:.0f} of {len(op_times)} ops")
    print(f"setup_s      {setup_q[1]:.4f} s   q1 {setup_q[0]:.4f}  q3 {setup_q[2]:.4f}  "
          f"({len(setups)} fresh interpreters)")
    print(f"peak_rss_mb  {peak_rss_mb:.1f} MiB")
    print(f"failed_share {failed / len(ops):.4f}   ({failed} of {len(ops)} ops)")
    for key in dict.fromkeys(op["key"] for op in ops):
        times = [op["s"] for p in plain for op in p["ops"] if op["key"] == key]
        print(f"  op {statistics.median(times):9.4f} s  {key}")
    if args.workload == "grid-ladder":
        top_n = max(op["info"]["n"] for op in ops if "n" in op["info"])
        gaps = [op["info"]["gap"] for op in ops if op["info"].get("n") == top_n]
        print(f"value_gap_max {max(gaps):.6e}   (|value_n - v(p)| at n={top_n})")

    if args.trace:
        metrics = dict(result["trace"]["metrics"])
        if args.workload != "cli-cold":  # the cli layer here is start-up and import
            metrics["cli.interp_s"] = statistics.median(r - s["elapsed_s"] for r, s in setups)
            for k in ("import_s", "import_numpy_s", "import_scipy_s"):
                metrics[f"cli.{k}"] = statistics.median(s[k] for _, s in setups)
        units = per_layer_units()
        absent = list(result["trace"]["absent"])
        for name in units:
            if name not in metrics:
                if name.startswith("experiments.check.") and args.workload == "battery":
                    absent.append(name)
                metrics[name] = 0.0
        _print_layer_table(args.workload, metrics, result["trace"]["traced_pass_s"])
        print(f"tracing overhead {metrics['trace.overhead_s']:+.4f} s per pass "
              f"(traced minus untraced pass_s); spans in {spans_path.relative_to(ROOT)}")
        if absent:
            print("absent: " + ", ".join(sorted(absent)))
    else:
        metrics = {
            "setup_s": setup_q[1],
            "pass_s": pass_q[1],
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END
    expected = _declared(args.trace)
    if expected is not None and set(expected) != set(units):
        print("metric names disagree with BENCHMARK.json: "
              f"{sorted(set(expected) ^ set(units))}", file=sys.stderr)
        return 3
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


def _print_layer_table(workload: str, metrics: dict, traced_pass_s: float) -> None:
    print(f"layer shares of traced pass_s = {traced_pass_s:.4f} s ({workload})")
    counts = {m: metrics[m] for m, _fn, _field, unit in LAYER_METRICS
              if unit in ("count", "bytes")}
    for layer in (*LAYERS, "unattributed"):
        share = metrics[f"share.{layer}"]
        line = f"  {layer:<14} {share:6.1f} %  {share * traced_pass_s / 100:9.4f} s"
        extra = ", ".join(f"{m.split('.', 1)[1]}={v:.0f}" for m, v in counts.items()
                          if m.startswith(layer + ".") and v)
        print(line + (f"   {extra}" if extra else ""))
    print("  (lp_bytes is computed from constraint-matrix sizes)")


def _declared(trace: int) -> list[str] | None:
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        return None
    spec = json.loads(path.read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


if __name__ == "__main__":
    sys.exit(main())
