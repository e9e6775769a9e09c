"""Rebuild references.json: the exact-output digest of every pool op.

Usage, from the root of a checkout: python3 perfbench/refs.py

Runs every op that any seed can draw (workloads.pool_keys) once, through
the same worker as the benchmark, and stores the digest of its output.
Run it only when the pool changes; a digest that changes for any other
reason is a changed exact output, which the benchmark counts as a failure.
"""

from __future__ import annotations

import json
import sys

from run import HERE, run_pass
import workloads


def _check_decompose(op: dict, result: dict, i: int) -> None:
    """The element was built from its exponent vectors, and the
    presentation's generators are independent, so decompose must give
    them back."""
    if op["kind"] != "decompose":
        return
    want = sorted((inv, plain) for inv, plain, _ in op["terms"])
    got = sorted((inv, plain) for _, inv, plain, _ in result["outputs"][i])
    if want != got:
        raise SystemExit(f"{op['key']}: decomposition {got} != input {want}")


def main() -> int:
    digests = {}
    for workload in workloads.WORKLOADS:
        ops = [workloads.pool_op(k) for k in workloads.pool_keys(workload)]
        result = run_pass(ops, workload, None, timeout=3600, keep_outputs=True)
        for i, (op, digest, err) in enumerate(zip(ops, result["digests"], result["errors"])):
            if err is not None:
                raise SystemExit(f"{op['key']}: {err}")
            _check_decompose(op, result, i)
            digests[op["key"]] = digest
        print(f"{workload}: {len(ops)} ops, {sum(result['latencies']):.1f} s", file=sys.stderr)
    with open(HERE / "references.json", "w") as fh:
        json.dump({"digests": digests}, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
