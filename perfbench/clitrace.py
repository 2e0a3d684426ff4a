"""One procurelab CLI invocation with its imports timed and the tracer installed.

Usage: python3 perfbench/clitrace.py OUT.json <procurelab cli arguments...>

Behaves like ``python3 -m procurelab.cli <arguments>`` (same stdout and
exit code) and writes the import times and the tracer's summary and span
records to OUT.json.
"""
from time import perf_counter

T_START = perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    from tracer import Tracer, procurelab_modules, timed_imports

    imports = timed_imports("procurelab.cli")
    tr = Tracer()
    tr.install(procurelab_modules())
    cli = sys.modules["procurelab.cli"]
    try:
        rc = cli.main(argv)
    finally:
        sys.stdout.flush()
        record = {
            **imports,
            "elapsed_s": perf_counter() - T_START,
            "summary": tr.summary(),
            "records": tr.records(),
        }
        with open(out_path, "w") as fh:
            json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
