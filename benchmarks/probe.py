"""Set-up probe: a fresh interpreter imports twoeig and runs one warm-up op.

    python3 benchmarks/probe.py <workload>

prints "ready" once the op returns. run.py times this from process start to
that line, which is what every twoeig process pays before doing real work.
"""

from __future__ import annotations

import sys
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def warmup(workload: str) -> None:
    """One small op of the workload, through the same public functions it uses."""
    import twoeig
    import twoeig.io

    if workload == "bulk-certify":
        h = twoeig.io.parse_matrix(twoeig.io.format_matrix(twoeig.sylvester_hadamard(4)))
        if twoeig.certify_two_eigenvalues(twoeig.star(h)) is None:
            raise RuntimeError("warm-up certificate missing")
    elif workload == "spectra-lifts":
        twoeig.lift_spectrum_check(twoeig.star(twoeig.paley_conference(5)))
    elif workload == "sweep-small":
        k5 = [[0 if i == j else 1 for j in range(5)] for i in range(5)]
        twoeig.certify_two_eigenvalues(twoeig.SignedGraph(k5))
    elif workload == "cli-session":
        import twoeig.cli

        with redirect_stdout(StringIO()):
            code = twoeig.cli.main(["table", "--family", "knn", "-n", "4"])
        if code != 0:
            raise RuntimeError(f"warm-up command exited {code}")
    else:
        raise ValueError(f"unknown workload {workload!r}")


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    warmup(sys.argv[1])
    print("ready", flush=True)
