#!/usr/bin/env python3
"""Regenerate ``reference.json``: pinned guest stats of every operation.

    python3 perfbench/pin.py [--workload exec|sweep|faults ...]

Runs every operation that any seed can draw (the whole input pools)
once, refuses to pin an operation whose output check fails, and writes
the sorted reference.
Only a change labelled as a deliberate fidelity or policy change should
rerun this; ``guest.drifted_ops`` counts operations that differ from it.
"""

import argparse
import json
import sys

import run as bench

sys.path.insert(0, str(bench.SRC))

from layers import Spans  # noqa: E402
from workloads import (  # noqa: E402
    EXEC_POOL,
    FAULT_POOL,
    FRAM_GEOMETRIES,
    ExecWorkload,
    FaultsWorkload,
    SweepWorkload,
)


def every_draw(name):
    """A workload whose op list holds every op any seed can draw."""
    if name == "exec":
        return ExecWorkload(0, program_seeds=EXEC_POOL)
    if name == "sweep":
        return SweepWorkload(0, geometries=FRAM_GEOMETRIES)
    return FaultsWorkload(0, program_seeds=FAULT_POOL)


def pin(name, reference):
    workload = every_draw(name)
    prepared = workload.setup(Spans(enabled=False))
    for op in workload.ops:
        state = prepared.pop(op.id, None)
        if state is None and op.prepare is not None:
            state = op.prepare()
        result = op.run(state)
        if result.problems:
            raise SystemExit(f"{op.id}: {result.problems}")
        reference[op.id] = json.loads(json.dumps(result.guest, sort_keys=True))
        print(op.id, flush=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", action="append", choices=("exec", "sweep", "faults")
    )
    args = parser.parse_args(argv)
    bench._pin_environment()
    reference = {}
    if bench.REFERENCE.exists():
        reference = json.loads(bench.REFERENCE.read_text())
    names = args.workload or ["exec", "sweep", "faults"]
    prefixes = tuple(f"{name}/" for name in names)
    reference = {k: v for k, v in reference.items() if not k.startswith(prefixes)}
    for name in names:
        pin(name, reference)
    bench.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
