"""Fixed calibration work that tracks the speed of the shared host.

    python3 perfbench/calibrate.py OUT_FILE

The host this benchmark runs on drifts in speed by 15-40% over seconds to
minutes, and every timing moves with it. The benchmark therefore runs
this fixed work next to every measured operation and reports each
operation's time as a multiple of the calibration time around it (see
run.py). The work never imports weylseq, so no change to the package can
move it. ``work()`` mixes what the in-process operations do: dense complex
BLAS as in the covariance check, many small numpy calls, an SVD rank
test and the pure-Python JSON encoder (``indent=2``, as ``weylseq.cli``
writes files); seq_ladder calls it in its worker. The CLI workloads run
this file as a process of its own, which adds what a CLI call pays:
interpreter start, the numpy import, fresh memory, and a JSON file
written. On this host the fresh-memory part is what makes the quotient
steady for the large ``cpso`` calls, which allocate about 200 MB.
"""

from __future__ import annotations

import json
import sys

import numpy as np


def work() -> None:
    """The in-process calibration work."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((144, 144)) + 1j * rng.standard_normal((144, 144))
    b = rng.standard_normal((4, 144, 144)) + 1j * rng.standard_normal((4, 144, 144))
    for _ in range(10):
        (np.abs(a @ b @ a.conj().T) ** 2).sum()
    s = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    for _ in range(150):
        np.abs(np.kron(s, s.conj()) @ np.kron(s.conj(), s)).max()
    np.linalg.svd(rng.standard_normal((64, 128)), compute_uv=False)
    z = rng.standard_normal(4000) + 1j * rng.standard_normal(4000)
    json.dumps({"data": [[float(v.real), float(v.imag)] for v in z]}, indent=2)


def main(out_path: str) -> None:
    """The process-level calibration: ``work()``, fresh memory touched page
    by page, and more JSON, written to ``out_path``."""
    work()
    for _ in range(4):
        m = np.empty(4_000_000)
        m.fill(1.0)
        del m
    rng = np.random.default_rng(1)
    z = rng.standard_normal(8000) + 1j * rng.standard_normal(8000)
    with open(out_path, "w") as fh:
        fh.write(json.dumps({"data": [[float(v.real), float(v.imag)] for v in z]}, indent=2))


if __name__ == "__main__":
    main(sys.argv[1])
