"""Benchmark entry point.

    python3 perfbench/run.py --workload small_scenes --seed 1 --seconds 50 --trace 0

Runs one workload from the root of a source checkout, checks every
answer, and prints as its last line one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports the
end-to-end metrics, `--trace 1` the per-layer metrics. Lines before it
name each metric with its unit, plus the failure rate and the run's
environment; the same record, with the failure notes, is written to
perfbench/out/. See perfbench/NOTES.md.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("small_scenes", "large_polygons", "cli_solve", "cli_verify")
REQUIRED = ("src/fovmax/__init__.py", "tests/conftest.py")

# numpy's BLAS starts a pool of spinning threads at import. The package
# does no BLAS work, and on a 2-core machine those threads compete with the
# main thread and spread cold-start times, so this process and every
# process it starts run BLAS on one thread.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        sys.stderr.write("error: not a fovmax source checkout, missing %s\n" % ", ".join(missing))
        return 2

    os.environ.update(BLAS_THREADS)
    sys.path.insert(0, str(HERE))
    workdir = HERE / "out" / ("work-%s-%d" % (args.workload, args.seed))
    try:
        import scenes

        inputs = scenes.build(args.workload, args.seed, workdir)
        setup_main_s = time.perf_counter() - T0

        import workloads

        result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace),
                               inputs, setup_main_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
