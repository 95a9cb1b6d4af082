#!/usr/bin/env python3
"""Fails when a deterministic micro_substrate counter exceeds its pin.

    tools/check_micro_pins.py RESULTS.json bench/micro_substrate_pins.json

RESULTS.json is Google Benchmark's JSON output (--benchmark_out) of a
micro_substrate run that includes every pinned benchmark. The pins file
maps a benchmark name to the most each counter may read, for counters that
do not depend on the host's speed or load (allocation counts:
`allocs_per_cell`, `page_node_allocs`).
Timings are never gated. Exit status: 0 when every pinned benchmark ran
and stayed within its pins, 1 otherwise, 2 on a usage or input error.
"""

import json
import sys


def check(results, pins):
    """Returns the list of violations (empty when all pins hold)."""
    ran = {b["name"]: b for b in results.get("benchmarks", [])
           if b.get("run_type", "iteration") == "iteration"}
    bad = []
    for name, counters in sorted(pins.items()):
        bench = ran.get(name)
        if bench is None:
            bad.append(f"{name}: did not run")
            continue
        for counter, pin in sorted(counters.items()):
            value = bench.get(counter)
            if value is None:
                bad.append(f"{name}: no counter {counter}")
            elif value > pin + 1e-9:
                bad.append(f"{name}: {counter} = {value:g}, pinned at {pin}")
            else:
                print(f"ok  {name} {bench.get('label', '')} "
                      f"{counter} = {value:g} (pin {pin})")
    return bad


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(argv[1]) as f:
        results = json.load(f)
    with open(argv[2]) as f:
        pins = json.load(f)
    bad = check(results, pins)
    for line in bad:
        print("FAIL " + line)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
