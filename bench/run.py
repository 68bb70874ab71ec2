"""Benchmark entry point.

    python3 bench/run.py --workload {train,serve,serve_wide} --seed N --seconds S --trace {0,1}

Run from the root of a source tree. It builds its inputs from the seed under
`.bench_cache/`, runs one workload in this single process, and prints a
report line and then the result line, both JSON. With `--trace 0` the
result holds the end-to-end metrics; with `--trace 1` the per-layer ones.
"""

import os

# One BLAS thread, fixed before numpy loads: the box has two cores and the
# benchmark measures one single-threaded client.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

WORKLOADS = ("train", "serve", "serve_wide")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.seed < 0:
        parser.error("--seed must be at least 0")

    root = Path.cwd()
    package = root / "src" / "sketchsql"
    if not (package / "__init__.py").is_file():
        print(f"bench: no sketchsql sources under {package}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import sketchsql
    if Path(sketchsql.__file__).resolve().parent != package.resolve():
        print(f"bench: sketchsql imported from {sketchsql.__file__}, not {package}",
              file=sys.stderr)
        return 2

    import workloads
    workloads.main(root, args.workload, args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
