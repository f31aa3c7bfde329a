"""Times one cold set-up of a workload in a fresh interpreter.

Usage: setup_probe.py <workload> <inputs as JSON>. Prints the seconds from
interpreter start-up to a ready game, mixing certificate and schedule:
importing numpy, scipy and sgl, then the workload's ``setup``. Run by
harness.measure_setup, whose environment pins the BLAS threads.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import pathlib  # noqa: E402
import sys  # noqa: E402


def main() -> None:
    name, inputs = sys.argv[1], json.loads(sys.argv[2])
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))
    import workloads

    workloads.WORKLOADS[name].setup(inputs)
    print(repr(time.perf_counter() - START))


if __name__ == "__main__":
    main()
