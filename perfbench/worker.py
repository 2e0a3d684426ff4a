"""One workload in its own process: set up, run passes for a time budget, report.

Usage: python3 perfbench/worker.py --workload W --seed S --seconds T --trace 0|1
                                   [--out RESULT.json] [--spans SPANS.jsonl]

Prints ``ready <json>`` once procurelab is imported and the workload's
inputs are built (the JSON holds the import times), then runs passes over
the workload's op list.  Without --out it stops after ``ready``: run.py
starts it that way to sample set-up time.

With --trace 0 every pass is untraced and passes run while another one
still fits in T seconds.  With --trace 1 untraced passes use the first half
of T and traced passes (tracer wrappers installed) the rest; both kinds run
at least once.
"""
from time import perf_counter

T_START = perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from tracer import (  # noqa: E402
    LAYERS, Tracer, layer_metrics, merge_totals, procurelab_modules, timed_imports)

ROOT = Path(__file__).resolve().parent.parent


def _import_procurelab() -> dict:
    setup = timed_imports("procurelab")
    src = (ROOT / "src").resolve()
    origin = Path(sys.modules["procurelab"].__file__).resolve()
    if src not in origin.parents:
        raise SystemExit(f"procurelab imported from {origin}, not from {src}")
    return setup


def run_pass(ops, pass_gate, traced: bool, first: dict) -> dict:
    """Run every op once; an op fails on an exception, its gate, or a changed payload."""
    t0 = perf_counter()
    records = []
    for key, op in ops:
        s = perf_counter()
        try:
            ok, payload, info = op(traced)
        except Exception as exc:  # a failing op is counted, the run goes on
            ok, payload, info = False, "", {"error": repr(exc)}
        d = perf_counter() - s
        digest = hashlib.sha256(payload.encode()).hexdigest()
        if ok and first.setdefault(key, digest) != digest:
            ok, info = False, {**info, "error": "payload differs from the first pass"}
        records.append({"key": key, "s": d, "ok": bool(ok), "digest": digest, "info": info})
    wall = perf_counter() - t0
    if pass_gate is not None:
        bad = set(pass_gate({r["key"]: r["info"] for r in records}))
        for r in records:
            if r["key"] in bad:
                r["ok"] = False
                r["info"]["error"] = "gap grew with n"
    return {"traced": traced, "s": wall, "ops": records}


def _cli_layers(passes: list[dict]) -> tuple[dict, dict, dict, list]:
    """Totals, self seconds, cli.* samples and absent targets of traced invocations."""
    functions: dict = {}
    self_s = {"cli": 0.0}
    absent: set[str] = set()
    samples = {k: [] for k in ("interp_s", "import_s", "import_numpy_s",
                               "import_scipy_s", "dispatch_s")}
    for p in passes:
        for op in p["ops"]:
            tr = op["info"].get("trace")
            if tr is None:
                continue
            merge_totals(functions, tr["summary"]["functions"])
            absent.update(tr["summary"]["absent"])
            for layer, s in tr["summary"]["self_s"].items():
                self_s[layer] = self_s.get(layer, 0.0) + s
            interp = op["s"] - tr["elapsed_s"]
            # start-up, imports and cli's own code all belong to the cli layer
            self_s["cli"] += interp + tr["import_s"]
            samples["interp_s"].append(interp)
            samples["dispatch_s"].append(op["s"] - tr["import_s"])
            for k in ("import_s", "import_numpy_s", "import_scipy_s"):
                samples[k].append(tr[k])
    return functions, self_s, samples, sorted(absent)


def trace_report(workload: str, tracer, passes: list[dict]) -> dict:
    """Per-layer metrics, layer shares and tracing overhead of a traced run.

    In-process workloads leave the cli.* metrics to run.py, which has the
    set-up samples.
    """
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    n = len(traced)
    traced_s = statistics.mean(p["s"] for p in traced)
    overhead = statistics.median(p["s"] for p in traced) - statistics.median(
        p["s"] for p in untraced)
    cli_metrics = {}
    if workload == "cli-cold":
        functions, self_s, cli, absent = _cli_layers(traced)
        cli_metrics = {f"cli.{k}": statistics.median(v) for k, v in cli.items() if v}
    else:
        summary = tracer.summary()
        functions, self_s, absent = summary["functions"], summary["self_s"], summary["absent"]
    metrics = layer_metrics(functions, n)
    metrics.update(cli_metrics)
    shares = {layer: 100.0 * self_s.get(layer, 0.0) / n / traced_s for layer in LAYERS}
    shares["unattributed"] = 100.0 - sum(shares.values())
    metrics.update({f"share.{k}": v for k, v in shares.items()})
    metrics["trace.overhead_s"] = overhead
    if workload == "battery":
        for check in untraced[0]["ops"][0]["info"]["checks"]:
            metrics[f"experiments.check.{check}_s"] = statistics.median(
                p["ops"][0]["info"]["checks"].get(check, 0.0) for p in untraced)
    return {"metrics": metrics, "absent": absent, "traced_pass_s": traced_s}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=None)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args()

    setup = _import_procurelab()
    from workloads import WORKLOADS

    t_build = perf_counter()
    ops, pass_gate = WORKLOADS[args.workload](args.seed, ROOT)
    setup["build_s"] = perf_counter() - t_build
    setup["elapsed_s"] = perf_counter() - T_START
    print("ready " + json.dumps(setup), flush=True)
    if args.out is None:
        return 0

    np, scipy = sys.modules["numpy"], sys.modules["scipy"]
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    libs = {"numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}
    first: dict = {}
    passes: list[dict] = []
    t0 = perf_counter()

    def run_passes(traced: bool, until: float) -> None:
        """At least one pass; another only if a pass of median length still fits."""
        mine: list[float] = []
        while not mine or perf_counter() - t0 + statistics.median(mine) <= until:
            passes.append(run_pass(ops, pass_gate, traced, first))
            mine.append(passes[-1]["s"])

    run_passes(False, args.seconds / 2 if args.trace else args.seconds)
    result = {"setup": setup, "libs": libs, "passes": passes}
    if args.trace:
        tracer = Tracer()
        tracer.install(procurelab_modules())
        run_passes(True, args.seconds)
        result["trace"] = trace_report(args.workload, tracer, passes)
        if args.spans:
            _write_spans(args.spans, tracer, passes)
        for p in passes:  # invocation traces are summarised above
            for op in p["ops"]:
                op["info"].pop("trace", None)
    Path(args.out).write_text(json.dumps(result))
    return 0


def _write_spans(path: str, tracer, passes: list[dict]) -> None:
    """Span and hot-counter records as JSON lines; cli-cold's come per invocation."""
    with open(path, "w") as fh:
        for rec in tracer.records():
            fh.write(json.dumps(rec) + "\n")
        for i, p in enumerate(passes):
            for op in p["ops"]:
                for rec in op["info"].get("trace", {}).get("records", []):
                    fh.write(json.dumps({"pass": i, "op": op["key"], **rec}) + "\n")

if __name__ == "__main__":
    sys.exit(main())
