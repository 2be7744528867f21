"""Record golden values for the benchmark's seeds.

    python3 perfbench/golden.py --workload spod-heavy --seeds 20

For every modulus that seeds 0..seeds-1 draw, runs the pipeline once and
stores a digest of the generating vector, the per-step criterion (both
bit-exact) and the quadrature error in perfbench/golden.json, keyed by the
modulus.  run.py compares every construction whose modulus is listed.
Re-record only when a change is meant to alter these outputs.
"""

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))
from workloads import (  # noqa: E402
    POOL,
    WORKLOADS,
    fingerprint,
    import_polylat,
    make_inputs,
    modulus_key,
    run_iteration,
)

GOLDEN = HERE / "golden.json"


def record(workload: str, seeds: int) -> dict:
    pl = import_polylat()
    wl = WORKLOADS[workload]
    table = {}
    for seed in range(seeds):
        inputs = make_inputs(pl, wl, seed)
        for k in range(POOL):
            key = modulus_key(pl, inputs.moduli[k][0])
            if key in table:
                continue
            it = run_iteration(pl, inputs, k, HERE, None, export=False)
            bad = [f for f in it.failures if f[1] == "CheckFailed" or f[0] != "bound"]
            if bad or it.quad_abs_error is None:
                raise SystemExit(f"{workload} seed {seed} P={key}: {it.failures}")
            table[key] = fingerprint(pl, it.result, it.quad_abs_error)
            print(f"{workload} seed={seed} k={k} P={key} "
                  f"criterion={it.criterion_final:.6e} error={it.quad_abs_error:.4e}", flush=True)
    return table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seeds", type=int, default=20)
    args = parser.parse_args(argv)
    table = record(args.workload, args.seeds)
    doc = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {"workloads": {}}
    doc["seeds"] = max(doc.get("seeds", 0), args.seeds)
    doc["workloads"][args.workload] = dict(sorted(table.items()))
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
