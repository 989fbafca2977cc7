"""Time the program's own set-up in a fresh interpreter.

Set-up is importing gauss_spectra (numpy is loaded before the clock starts),
building the provider and discretization, and the first solve.  Prints one
JSON line; ``run.py`` starts this several times and reports the median.

    PYTHONPATH=src python3 spectra_bench/setup_probe.py
"""

import json
from time import perf_counter

import numpy  # noqa: F401  (loaded before the clock starts)


def main() -> None:
    start = perf_counter()
    from gauss_spectra import spectra
    spectra.default_provider().result(1.0, 0.0)
    print(json.dumps({"setup_s": perf_counter() - start}))


if __name__ == "__main__":
    main()
