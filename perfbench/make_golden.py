"""Write the golden digests: every op of every workload's universe.

Run from the repository root, only when a change is *meant* to alter
simulated results (a model change, never a speed-up)::

    python3 perfbench/make_golden.py [workload ...]

``--reverse`` runs each universe in reverse order and only compares with
the committed files; ops run on fresh clusters, so order must not matter.
"""

import argparse
import json
import sys

from run import _load_program


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workloads", nargs="*")
    parser.add_argument("--reverse", action="store_true")
    args = parser.parse_args()
    ops = _load_program()
    names = args.workloads or list(ops.WORKLOADS)
    log = ops.MachineLog()
    log.install()
    status = 0
    try:
        for name in names:
            workload = ops.WORKLOADS[name]
            universe = workload.universe()
            if args.reverse:
                universe.reverse()
            digests = {}
            for op in universe:
                result = workload.run(op)
                error = workload.check(op, result)
                if error is not None:
                    raise RuntimeError(f"{ops.key(op)}: {error}")
                digests[ops.key(op)] = ops.digest(result, log.take_counters())
            digests = dict(sorted(digests.items()))
            if args.reverse:
                same = digests == ops.load_golden(name)
                print(f"{name}: {len(digests)} ops, "
                      f"{'identical to' if same else 'DIFFERENT from'} golden")
                status |= not same
                continue
            with open(ops.golden_path(name), "w") as fh:
                json.dump({"workload": name, "digests": digests}, fh, indent=0)
                fh.write("\n")
            print(f"{name}: {len(digests)} ops written")
    finally:
        log.remove()
    return status


if __name__ == "__main__":
    sys.exit(main())
