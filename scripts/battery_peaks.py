"""Print the tracemalloc peak of each check of ``run_battery(seed=42)``.

Usage: python scripts/battery_peaks.py [ROOT]

ROOT is the checkout to measure (default: the one holding this script); its
``src`` is what gets imported and run.  Each line is ``check peak_MiB``: the
most memory numpy and Python held while the check ran, above what was held
when it started.  Two checkouts compare with one ``diff``, as with
``payload_digests.py``.

The battery runs once, on the default market, in this process, after the
imports and after a first untraced run has filled the module caches.  A
check's peak is read when its report is made (``make_report``, the error
report of a raising check, or ``ddpm_probe``) and then reset, so every check
is charged only for its own arrays.  tracemalloc slows the run about
threefold.
"""
from __future__ import annotations

import sys
import tracemalloc
from pathlib import Path


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    root = Path(argv[0] if argv else Path(__file__).resolve().parent.parent).resolve()
    src = root / "src"
    if not (src / "procurelab" / "__init__.py").is_file():
        print(f"no procurelab sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from procurelab import experiments

    experiments.run_battery(seed=42)
    peaks: dict[str, float] = {}
    base = 0

    def record(name: str) -> None:
        nonlocal base
        peaks[name] = (tracemalloc.get_traced_memory()[1] - base) / 2**20
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]

    def charged(build):
        """build(name, ...), after charging the peak so far to check `name`."""
        def wrapper(name, *args, **kwargs):
            record(name)
            return build(name, *args, **kwargs)
        return wrapper

    def probe(*args, **kwargs):
        report = ddpm_probe(*args, **kwargs)
        record(report.check)
        return report

    ddpm_probe = experiments.ddpm_probe
    experiments.make_report = charged(experiments.make_report)
    experiments.VerificationReport = charged(experiments.VerificationReport)
    experiments.ddpm_probe = probe
    tracemalloc.start()
    try:
        reports = experiments.run_battery(seed=42)
    finally:
        tracemalloc.stop()
    for report in reports:
        print(f"{report.check} {peaks[report.check]:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
