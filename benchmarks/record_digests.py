"""Write the reference records digests the benchmark checks against.

    python3 benchmarks/record_digests.py [--workload NAME ...] [--jobs N]

For every workload and every input set (data seeds 0 .. N_INPUT_SETS-1)
this runs each round's sweep once and stores the SHA-256 of its records,
serialised as results.csv. Before storing, it checks that the digits
workload's curves are not flat: for each model, FN at the largest budget
must exceed FN at zero budget and stay below 1, so that an attack that
does nothing cannot match the digest. `--jobs 2` runs the sweeps with a
process pool; the digests must not depend on it.

Rerun only when a change is meant to alter the records, and say so.
"""
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import harness  # noqa: E402
from workloads import N_INPUT_SETS, WORKLOAD_NAMES, build_workload  # noqa: E402


def flat_curves(result) -> list[str]:
    return [
        f"{c.classifier} {c.scenario} lam={c.lam:g}: FN(0)={c.mean_fn[0]:.3f}, FN(max)={c.mean_fn[-1]:.3f}"
        for c in result.curves
        if not (c.mean_fn[0] < c.mean_fn[-1] < 1.0)
    ]


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", action="append", choices=WORKLOAD_NAMES)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--compare", action="store_true", help="compare with the committed digests instead of writing")
    args = p.parse_args()
    status = 0
    for name in args.workload or WORKLOAD_NAMES:
        table, problems = {}, []
        for data_seed in range(N_INPUT_SETS):
            workload = build_workload(name, data_seed)
            row = []
            for r, kwargs in enumerate(workload.rounds):
                result = harness.sweep(workload.dataset, **dict(kwargs, jobs=args.jobs))
                if name == "digits_continuous":
                    problems += [f"seed {data_seed} round {r}: flat curve {p}" for p in flat_curves(result)]
                row.append(harness.records_digest(result.records))
                print(f"{name} seed {data_seed} round {r}: {row[-1][:12]} "
                      f"{len(result.failures)} failed cells", file=sys.stderr, flush=True)
            table[str(data_seed)] = row
        if problems:
            print(f"{name}: not recorded\n  " + "\n  ".join(problems))
            status = 1
            continue
        digests = harness.load_reference_digests() if harness.DIGESTS_PATH.exists() else {}
        if args.compare:
            same = digests.get(name) == table
            status |= not same
            print(f"{name}: {'identical' if same else 'DIFFERENT'} (jobs={args.jobs})")
        else:
            digests[name] = table
            with open(harness.DIGESTS_PATH, "w") as fh:
                json.dump(digests, fh, indent=1, sort_keys=True)
                fh.write("\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
