"""Benchmark of the sgl learner loop, its stage windows and the exact oracle.

Run from the root of a checkout:

    python3 perfbench/run.py --workload zerosum-converge --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` first runs the jobs untraced for a quarter of the time, then
wraps sgl's public functions (see tracing.py) and reports per-layer calls
and self times for the rest; every traced output must equal the untraced
one. A table goes to standard output and its last line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

Exit codes: 0 when every output check passed, 1 when one failed, 2 when the
checkout holds no ``src/sgl`` to measure. ``--record-reference`` runs every
job of the seed's pool once and rewrites ``reference/<workload>.json``.
"""

import os

# One BLAS/OpenMP thread, set before numpy is first imported; the set-up
# probes inherit it. On two cores a second BLAS thread measures the scheduler.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import pathlib  # noqa: E402
import sys  # noqa: E402

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
WORKLOAD_NAMES = ("zerosum-converge", "mixing-window", "oracle-audit")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "sgl" / "__init__.py").is_file():
        print(f"error: no sgl package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import sgl

    if pathlib.Path(sgl.__file__).resolve().parent != SRC / "sgl":
        print(f"error: imported sgl from {sgl.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import harness

    return harness.main(args)


if __name__ == "__main__":
    sys.exit(main())
