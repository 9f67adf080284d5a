"""Regenerate or check the standard timing-free reports in this folder.

Each report is the CLI's ``--format json`` output with the ``seconds``
of every result removed, printed with ``indent=2, sort_keys=True``:

- ``--check all`` at ``--samples`` 1 and 3 on q, dual and sq0, at seeds 0
  and 7;
- ``--check all --samples 1`` on m2q at seeds 0 and 7;
- ``--check kappa-pq --samples 1`` on m2q at seeds 2 and 12.

Run ``python tests/golden/make_reports.py`` from the repository root to
rewrite them after an intended report change, and
``python tests/golden/make_reports.py --check`` to compare the source
tree's reports with them (exit 1 and a unified diff on any difference).
Each report runs the CLI in its own process on ``src``.
"""

from __future__ import annotations

import argparse
import difflib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent.parent / "src"


def runs():
    """``(file name, CLI arguments)`` of each standard report."""
    for algebra in ("q", "dual", "sq0"):
        for samples in (1, 3):
            for seed in (0, 7):
                yield (f"all-{algebra}-samples{samples}-seed{seed}.json",
                       ["--check", "all", "--algebra", f"builtin:{algebra}",
                        "--samples", str(samples), "--seed", str(seed)])
    for seed in (0, 7):
        yield (f"all-m2q-samples1-seed{seed}.json",
               ["--check", "all", "--algebra", "builtin:m2q",
                "--samples", "1", "--seed", str(seed)])
    for seed in (2, 12):
        yield (f"kappa-pq-m2q-samples1-seed{seed}.json",
               ["--check", "kappa-pq", "--algebra", "builtin:m2q",
                "--samples", "1", "--seed", str(seed)])


def report(args) -> str:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-m", "loopstable.cli", *args, "--format", "json"],
        capture_output=True, text=True, env=env,
    )
    if proc.returncode not in (0, 1):
        raise SystemExit(f"{' '.join(args)}: exit {proc.returncode}\n{proc.stderr}")
    d = json.loads(proc.stdout)
    for r in d["results"]:
        r.pop("seconds")
    return json.dumps(d, indent=2, sort_keys=True) + "\n"


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--check", action="store_true",
                   help="compare with the committed reports instead of rewriting them")
    check = p.parse_args().check
    bad = 0
    for name, args in runs():
        text = report(args)
        path = HERE / name
        if not check:
            path.write_text(text, encoding="utf-8")
            continue
        old = path.read_text(encoding="utf-8") if path.exists() else ""
        if text != old:
            bad += 1
            sys.stdout.writelines(difflib.unified_diff(
                old.splitlines(True), text.splitlines(True), str(path), name))
    if check:
        print(f"{bad} of 16 reports differ" if bad else "16 reports identical")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
