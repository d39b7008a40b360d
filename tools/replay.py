"""Replay a fixed list of CLI runs and print one hash per run.

    python tools/replay.py [--src DIR] > hashes.txt

Each run is `python -m leopoldt.cli ARGS` in a fresh process, with
`leopoldt` imported from DIR (default: the src/ of this checkout) and the
working directory set to a scratch directory that holds the character
files the run list names.  Each output line is

    <sha256 of stdout, stderr and exit code>  <exit code>  <ARGS>

and the last line hashes all the lines before it.  Run it against two
checkouts and diff the outputs: a line that differs is a report that
changed, byte for byte.  The list covers every command, with valid and
refused inputs, both output formats, and coefficient moduli p**n on both
sides of 2**31 (the int64 path and the exact one).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59)
# quadratic characters: the units mod d where chi = -1; chi is odd for
# d = 3, 4, 7 and even for d = 5
NON_SQUARES = {3: (2,), 4: (3,), 5: (2, 3), 7: (3, 5, 6)}
TIMEOUT_S = 600
JOBS = 2  # runs at a time, each one single-threaded process


def character_files() -> dict[str, dict]:
    """File name -> character file: a quadratic character of each conductor
    in NON_SQUARES for each p prime to it, the quadratic character of
    conductor 164 = 4 * 41 at p = 3, chi(a) = (-1/a) (a/41), and one file
    missing a value."""
    files = {"bad_p5.json": {"p": 5, "d": 4, "values": {"1": 0}},
             "chi164_p3.json": {"p": 3, "d": 164, "values": {
                 str(a): int((a % 4 == 3) != (pow(a, 20, 41) == 40))
                 for a in range(1, 164) if math.gcd(a, 164) == 1}}}
    for p in PRIMES[:6]:
        for d, minus in NON_SQUARES.items():
            if d % p:
                values = {str(a): (p - 1) // 2 if a in minus else 0
                          for a in range(1, d) if math.gcd(a, d) == 1}
                files[f"chi{d}_p{p}.json"] = {"p": p, "d": d, "values": values}
    return files


def even_j(p: int) -> range:
    """The J of the even nontrivial theta = omega**J (conductor one)."""
    return range(2, p - 1, 2)


def chars(primes, deltas=2) -> list[list[str]]:
    """--p, --delta and --character-file for each quadratic character mod
    p, with the first `deltas` delta that make theta = chi omega**(delta+1)
    even."""
    out = []
    for p in primes:
        for d in NON_SQUARES:
            if d % p:
                first = 1 if d == 5 else 0
                for delta in sorted({(first + 2 * i) % (p - 1) for i in range(deltas)}):
                    out.append(["--p", str(p), "--delta", str(delta),
                                "--character-file", f"chi{d}_p{p}.json"])
    return out


def run_list() -> list[list[str]]:
    runs = []
    add = runs.append
    # bounds
    for p in PRIMES:
        for d in (1, 3, 4, 5, 7, 8):
            add(["bounds", "--p", str(p), "--d", str(d)])
    for p in (1, 2, 9, 15):
        add(["bounds", "--p", str(p)])
    for p in (3, 5, 7):
        add(["bounds", "--p", str(p), "--d", "4", "--format", "csv"])
    # lambda-sum
    for p in PRIMES:
        add(["lambda-sum", "--p", str(p), "--m-max", "3"])
    for p in PRIMES[:5]:
        add(["lambda-sum", "--p", str(p), "--n", "3", "--m-max", "4"])
    add(["lambda-sum", "--p", "5", "--format", "csv"])
    for flags in (["--n", "0"], ["--m-max", "-1"], ["--n", "300"]):
        add(["lambda-sum", "--p", "3"] + flags)
    # series, with p**n >= 2**31 (the exact path) at (5, 14), (7, 12), (11, 9)
    # and (3, 20)
    for p in PRIMES[:7]:
        for j in even_j(p):
            for n, m in ((2, 1), (2, 2), (3, 2), (1, 3))[:4 if p < 17 else 2]:
                add(["series", "--p", str(p), "--theta-omega", str(j),
                     "--n", str(n), "--m", str(m)])
    for p, n, levels in ((5, 14, (1, 2)), (7, 12, (1, 2)), (11, 9, (1,))):
        for j in even_j(p):
            for m in levels:
                add(["series", "--p", str(p), "--theta-omega", str(j), "--n", str(n),
                     "--m", str(m)])
    for flags in chars([3], deltas=1):
        for m in (2, 3):
            add(["series", "--n", "20", "--m", str(m)] + flags)
    for flags in chars([7], deltas=1):
        add(["series", "--n", "12", "--m", "1"] + flags)
    for flags in chars(PRIMES[:6]):
        for n, m in ((2, 2), (3, 1)):
            add(["series", "--n", str(n), "--m", str(m)] + flags)
    for flags in (["--theta-omega", "0"], ["--theta-omega", "1"], [],
                  ["--theta-omega", "2", "--m", "20"], ["--theta-omega", "2", "--n", "0"],
                  ["--theta-omega", "2", "--n", "300"], ["--theta-omega", "2", "--m", "-1"],
                  ["--delta", "1", "--character-file", "chi4_p5.json"],
                  ["--delta", "0", "--character-file", "bad_p5.json"],
                  ["--delta", "0", "--character-file", "missing.json"],
                  ["--theta-omega", "2", "--format", "csv"]):
        add(["series", "--p", "5"] + flags)
    # invariants
    for p in PRIMES[:9]:
        for j in even_j(p):
            add(["invariants", "--p", str(p), "--theta-omega", str(j), "--m-max", "3"])
    for p in (5, 7, 11):
        for j in even_j(p):
            add(["invariants", "--p", str(p), "--theta-omega", str(j), "--n", "3",
                 "--check-precision", "3"])
    for p, n in ((5, 14), (7, 12), (11, 9)):
        for j in even_j(p)[:2]:
            add(["invariants", "--p", str(p), "--theta-omega", str(j), "--n", str(n),
                 "--m-max", "2", "--check-precision", "2"])
    for flags in chars([3], deltas=1):
        add(["invariants", "--n", "20", "--m-max", "2", "--check-precision", "2"] + flags)
    for flags in chars(PRIMES[:5]):
        add(["invariants"] + flags)
    for flags in (["--theta-omega", "0"], ["--theta-omega", "2", "--m-max", "-1"],
                  ["--theta-omega", "2", "--n", "0"], ["--theta-omega", "2", "--format", "csv"]):
        add(["invariants", "--p", "7"] + flags)
    # the level escalation: (2, 1) is indeterminate and (2, 2) certifies, so
    # --m-max 1 exits 2
    for flags in ([], ["--m-max", "1"]):
        add(["invariants", "--p", "3", "--character-file", "chi164_p3.json", "--delta", "0",
             "--check-precision", "2"] + flags)
    # interp-check
    for p in PRIMES[:8]:
        for j in even_j(p):
            add(["interp-check", "--p", str(p), "--theta-omega", str(j)])
    for j in even_j(7):
        add(["interp-check", "--p", "7", "--theta-omega", str(j), "--n", "4"])
    for ks in ("1,5,9", "5", "13,17,21", "3"):
        add(["interp-check", "--p", "5", "--theta-omega", "2", "--ks=" + ks])
    for flags in chars(PRIMES[:4], deltas=1):
        add(["interp-check"] + flags)
    add(["interp-check", "--p", "5", "--theta-omega", "1"])
    # pseudo-rational-check
    for p in PRIMES[:9]:
        for j in even_j(p):
            add(["pseudo-rational-check", "--p", str(p), "--theta-omega", str(j)])
    # every delta, odd theta too: the report is cached per (chi, delta mod 2)
    for name, doc in character_files().items():
        if name != "bad_p5.json":
            for delta in range(doc["p"] - 1):
                add(["pseudo-rational-check", "--p", str(doc["p"]), "--delta", str(delta),
                     "--character-file", name])
    add(["pseudo-rational-check", "--p", "5", "--theta-omega", "1"])
    add(["pseudo-rational-check", "--p", "5", "--theta-omega", "2", "--delta", "3"])
    # selftest, the exact path at the last four
    for p in PRIMES[:3]:
        for n, m in ((1, 1), (2, 2), (3, 1), (2, 0)):
            for seed in (0, 1):
                add(["selftest", "--p", str(p), "--n", str(n), "--m", str(m),
                     "--seed", str(seed), "--cases", "2"])
    for p, n, m in ((3, 20, 2), (3, 20, 3), (5, 14, 2), (7, 12, 1)):
        add(["selftest", "--p", str(p), "--n", str(n), "--m", str(m), "--cases", "2"])
    for flags in (["--m", "12"], ["--cases", "0"], ["--n", "0"], ["--format", "csv"]):
        add(["selftest", "--p", "3", "--cases", "2"] + flags)
    return runs


def run_hash(args: list[str], src: Path, cwd: str) -> tuple[str, str]:
    """The hash of one run's stdout, stderr and exit code, and the code."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = str(src)
    try:
        proc = subprocess.run([sys.executable, "-m", "leopoldt.cli", *args], cwd=cwd,
                              env=env, capture_output=True, timeout=TIMEOUT_S)
        out, err, code = proc.stdout, proc.stderr, str(proc.returncode)
    except subprocess.TimeoutExpired:
        out, err, code = b"", b"", "timeout"
    h = hashlib.sha256()
    for part in (out, err, code.encode()):
        h.update(len(part).to_bytes(8, "little") + part)
    return h.hexdigest(), code


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", type=Path, default=ROOT / "src",
                    help="directory that holds the leopoldt package")
    args = ap.parse_args()
    runs = run_list()
    with tempfile.TemporaryDirectory() as cwd:
        for name, doc in character_files().items():
            Path(cwd, name).write_text(json.dumps(doc))
        with ThreadPoolExecutor(JOBS) as pool:
            results = list(pool.map(lambda a: run_hash(a, args.src.resolve(), cwd), runs))
    lines = [f"{h}  {code}  {' '.join(a)}" for (h, code), a in zip(results, runs)]
    print("\n".join(lines))
    print(f"{hashlib.sha256(''.join(lines).encode()).hexdigest()}  all {len(runs)} runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
