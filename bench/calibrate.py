"""Fixed reference task whose run time tracks the speed of the machine.

    python3 bench/calibrate.py

The benchmark runs it as its own process between iterations and divides
each iteration's wall time by the mean of the two calibration times
around it, so that the slow swings in speed of a shared machine cancel.
It does the kinds of work the nctest CLI does: interpreter start, numpy
import, sorting, float formatting and JSON.  It never imports nctest,
so no change to the program can move it.
"""

import json

import numpy as np


def main() -> None:
    rng = np.random.default_rng(0)
    x = rng.normal(size=1_000_000)
    for _ in range(4):
        np.sort(x)
    values = x[:200_000].tolist()
    json.loads(json.dumps(values))
    "".join(f"t{i},test,{v!r}\n" for i, v in enumerate(values))


if __name__ == "__main__":
    main()
