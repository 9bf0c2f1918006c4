"""Golden hashes of the CLI's standard output set, for byte-identical checks.

Each entry runs `python -m heulag.cli <argv>` in a child process and records
the sha256 of its stdout and of its stderr, and its exit code, in
data/cli_golden.json. A change that must keep the CLI's output byte-identical
writes the manifest before it and checks against it after (tests/frozen.py):

    python tests/cli_golden.py --write   # record the manifest
    python tests/cli_golden.py --check   # rerun everything; exit 1 on a mismatch

--check prints one line per field that differs, "differs: <entry> / stdout"
(or stderr, or exit), and one per entry that the manifest lacks.

The full set of 101 entries takes 30-36 s on a 2-core x86-64 host; each
`table 6` entry takes 0.6-0.9 s of that, each 200-moment `extrapolate` entry
0.6-0.9 s, each 120-moment 300-digit SD `extrapolate` entry about 0.35 s,
each two-beta `exact --oracle` entry 0.4-0.7 s, each 1000-digit
SD `exact` entry about 1 s, each 300-digit SD and spin-0 and 1000-digit
spin-1/2 `exact` entry 0.3-0.6 s, each 50-moment
`extrapolate` entry at the sweep's betas about 0.3 s, each `series` entry
about 0.2 s, and each of the eleven error runs well under 1 s. A change that
alters the output on purpose rewrites the manifest and says so.
pytest does not collect this file (its name does not start with test_);
test_cli.py checks every entry.
"""
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import frozen

SRC = Path(__file__).resolve().parents[1] / "src"

COMMANDS = (
    *(("table", str(n)) for n in range(1, 7)),
    ("extrapolate", "--moments", "50", "--beta", "1,1e7,1e12"),
    ("extrapolate", "--moments", "50", "--beta", "1e-4,1e-3,0.01"),
    ("extrapolate", "--moments", "20", "--truncation", "45", "--beta", "1,1e7"),
    ("extrapolate", "--moments", "200", "--digits", "200", "--beta", "0.01,1"),
    # SD's beta power in Delta, and Delta at long-mantissa y = 1/sqrt(beta)
    # with 200 moments
    ("extrapolate", "--model", "sd", "--moments", "100", "--digits", "100",
     "--beta", "1e-6,1,1e7,1e30"),
    ("extrapolate", "--model", "spin12", "--moments", "200", "--digits", "200",
     "--beta", "3,1e7,1e12,1e20"),
    # Delta's rounded Horner pass: spin0 at 200 moments on both sides of beta = 1,
    # and SD at 300 digits with a long-mantissa beta
    ("extrapolate", "--moments", "200", "--digits", "200", "--beta", "0.3,3,1e7,1e20"),
    ("extrapolate", "--model", "sd", "--moments", "120", "--digits", "300",
     "--beta", "0.01,1,41.3273,1e12"),
    # the benchmark sweep's size and digits at five of its betas, as printed
    # to six significant digits, for each model
    *(("extrapolate", "--model", m, "--moments", "50", "--digits", "60",
       "--beta", "0.0131237,1.31955,126.311,8.40597e+06,1.29965e+19")
      for m in ("spin0", "spin12", "sd")),
    ("compare", "--moments", "50", "--pade", "9,10", "--delta", "25", "--beta", "0.1,10"),
    # compare's --truncation orders the partial sum; the extrapolant keeps K = 2d
    ("compare", "--moments", "5", "--truncation", "3", "--beta", "1"),
    # one moment: every extrapolant cell reads ERR(DomainError)
    ("compare", "--moments", "1", "--beta", "1,10"),
    # a Pade column that raises on every cell (N < M - 1) beside delta,
    # partial-sum and extrapolant columns
    ("compare", "--moments", "10", "--pade", "3,5", "--delta", "10", "--beta", "0.1,1e3"),
    ("exact", "--beta", "0.01,1,100", "--oracle"),
    # the quadrature oracle at one of the benchmark's heavy betas and at the
    # last 60-digit beta where it returns, for each model
    ("exact", "--beta", "1484.03,1e13", "--oracle"),
    ("exact", "--model", "spin12", "--beta", "834.336,1e7", "--oracle"),
    ("exact", "--model", "sd", "--beta", "1819.25,1e16", "--oracle"),
    # SD closed forms (paired zeta'(-1, q), zeta'(0, q)) and a spin one far
    # above 100 digits
    ("exact", "--model", "sd", "--digits", "300", "--beta", "1e-4,0.5,1e7,1e20"),
    ("exact", "--model", "spin12", "--digits", "1000", "--beta", "0.01,1e12"),
    # the other models' high-precision closed forms, from weak to strong field
    ("exact", "--digits", "300", "--beta", "1e-6,0.01,41.3273,1e30"),
    ("exact", "--model", "sd", "--digits", "1000", "--beta", "1e-6,41.3273,1e30"),
    ("series", "--model", "sd", "--truncation", "20", "--beta", "0.01,0.1"),
)
FORMATS = ("markdown", "csv", "json")
# Runs that fail, once each: every argument conversion and dispatch path
# that ends in an error line and a nonzero exit code.
ERRORS = (
    "table 7",
    "extrapolate --moments 10 --truncation 0 --beta 1",
    "extrapolate --beta 1",
    "exact --beta -1",
    "compare --pade 9 --beta 1",
    "series --beta 1",
    "extrapolate --moments 10 --force",
    "exact --model spin3 --beta 1",
    "reconstruct --moments 10",
    "extrapolate --moments 10 --beta 1 --cache x",
    # the quadrature's capped error estimate at |f| >= 10^digits
    "exact --digits 60 --beta 1e60 --oracle",
)
ENTRIES = (*(" ".join((*cmd, "--format", fmt)) for cmd in COMMANDS for fmt in FORMATS),
           *ERRORS)


def run(entry: str) -> dict:
    """Exit code and stdout/stderr sha256 of `heulag <entry>` in a child process."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    r = subprocess.run([sys.executable, "-m", "heulag.cli", *entry.split()],
                       capture_output=True, env=env)
    return {"exit": r.returncode,
            "stdout": hashlib.sha256(r.stdout).hexdigest(),
            "stderr": hashlib.sha256(r.stderr).hexdigest()}


DATASET = frozen.Dataset("cli_golden", lambda: {e: run(e) for e in ENTRIES})


if __name__ == "__main__":
    raise SystemExit(frozen.main(DATASET))
