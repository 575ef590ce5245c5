"""Output digests of a fixed list of CLI commands, kept in golden/outputs.txt.

Each line of the file is one command, tab-separated: its argv, its exit
code, the SHA-256 of what it printed (stdout then stderr), and its last
line (the status, FAIL or error line), so that a diff reads without a tool.
The file lists its own commands: the six defaults, every seed-1 command of
the three benchmark workloads, and reproducers of known defects at their
current exit codes.  It records what the tree prints, not that the output
is correct; a change that moves output on purpose rewrites it.

    python tests/golden.py --write            # rewrite the file from this tree
    python tests/golden.py --compare DIR      # field drift against checkout DIR

`--compare` runs every command on this tree and on DIR's `src/` (each in a
subprocess) and prints, per command whose output differs, the largest
relative drift in each CSV column that moved, then the largest per column
over all commands.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
PATH = os.path.join(HERE, "golden", "outputs.txt")
SRC = os.path.join(os.path.dirname(HERE), "src")


def versions() -> str:
    import numpy

    return f"python {platform.python_version()}, numpy {numpy.__version__}"


def read(path: str = PATH) -> tuple:
    """(header versions, [(argv, exit code, digest, last line)])."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    head = lines[0].split(": ", 1)[1]
    rows = []
    for line in lines[1:]:
        if line and not line.startswith("#"):
            argv, code, digest, last = line.split("\t")
            rows.append((tuple(argv.split(" ")), int(code), digest, last))
    return head, rows


def run(argv) -> tuple:
    """(exit code, stdout, stderr) of one in-process CLI call."""
    from qapprox.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def record(argv) -> tuple:
    """(exit code, digest, last line) of one command."""
    code, out, err = run(argv)
    digest = hashlib.sha256((out + err).encode()).hexdigest()
    last = (err or out).rstrip("\n").rsplit("\n", 1)[-1]
    return code, digest, last


def write(path: str = PATH) -> None:
    _, rows = read(path)
    lines = [
        f"# qapprox output digests: {versions()}",
        "# argv\texit\tsha256(stdout+stderr)\tlast line",
    ]
    for argv, *_ in rows:
        code, digest, last = record(argv)
        lines.append(f"{' '.join(argv)}\t{code}\t{digest}\t{last}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _dump(src: str) -> dict:
    """Every command's output from the package under src, in a subprocess."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--dump", src],
        capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout)


_NUMBER = re.compile(r"[-+]?(?:(?:\d+\.?\d*|\.\d+)(?:e[-+]?\d+)?|inf|nan)")


def _drift(a: str, b: str, worst: dict) -> None:
    """Record in `worst`, per CSV column (or "text" for the numbers in
    comment and status lines), the largest relative drift between two
    outputs.  A difference column (name with `_minus_`) is measured on the
    scale of the largest field of its row, as it is a difference of two of
    them.  Anything that moved and is not a number counts as inf."""
    la, lb = a.splitlines(), b.splitlines()
    if len(la) != len(lb):
        worst["line count"] = math.inf
        return
    header = la[1].split(",") if len(la) > 1 else []
    for ra, rb in zip(la, lb):
        if ra == rb:
            continue
        if "," in ra and not ra.startswith("#"):
            names, fa, fb = header, ra.split(","), rb.split(",")
        else:
            fa, fb = _NUMBER.findall(ra), _NUMBER.findall(rb)
            names = ["text"] * len(fa)
            if _NUMBER.sub("#", ra) != _NUMBER.sub("#", rb):
                fa = fb = []
                worst["text"] = math.inf
        if len(fa) != len(fb) or len(fa) != len(names):
            worst["text"] = math.inf
            continue
        nums = {}
        for col, (x, y) in enumerate(zip(fa, fb)):
            try:
                nums[col] = float(x), float(y)
            except ValueError:  # a text field: it must not move
                if x != y:
                    worst[names[col]] = math.inf
        scale = max((max(abs(x), abs(y)) for x, y in nums.values()), default=0.0)
        for col, (x, y) in nums.items():
            if x != y and not (math.isnan(x) and math.isnan(y)):
                ref = scale if "_minus_" in names[col] else max(abs(x), abs(y))
                worst[names[col]] = max(worst.get(names[col], 0.0), abs(x - y) / ref)


def compare(other: str) -> None:
    _, rows = read()
    mine, theirs = _dump(SRC), _dump(os.path.join(other, "src"))
    moved, overall = 0, {}
    for argv, *_ in rows:
        key = " ".join(argv)
        (ca, oa, ea), (cb, ob, eb) = theirs[key], mine[key]
        if (ca, oa, ea) == (cb, ob, eb):
            continue
        moved += 1
        worst = {"exit": math.inf} if ca != cb else {}
        _drift(oa + ea, ob + eb, worst)
        print(key + "\t" + ", ".join(f"{k} {v:.3g}" for k, v in sorted(worst.items())))
        for k, v in worst.items():
            overall[k] = max(overall.get(k, 0.0), v)
    print(f"{moved} of {len(rows)} commands moved; largest drift per column:")
    for k, v in sorted(overall.items()):
        print(f"  {k}: {v:.3g}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--write", action="store_true")
    group.add_argument("--compare", metavar="DIR")
    group.add_argument("--dump", metavar="SRC", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.dump:
        sys.path.insert(0, args.dump)
        _, rows = read()
        json.dump({" ".join(a): run(a) for a, *_ in rows}, sys.stdout)
        return
    sys.path.insert(0, SRC)
    if args.write:
        write()
    else:
        compare(args.compare)


if __name__ == "__main__":
    main()
