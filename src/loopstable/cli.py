"""Command-line entry point for the check catalog.

Selects checks, binds an algebra (built-in or from a definition file),
and emits a deterministic text or JSON report.  Exit codes: 0 all
selected checks passed (or were skipped / reported ``NOT-FOUND``),
1 at least one check failed, 2 configuration error, 3 at least one check
raised an internal error (``ERROR``; this wins over 1).  A reader that
closes the output early does not change the exit code.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from .algebras import BUILTIN_ALGEBRAS, parse_algebra_file
from .carriers import Mismatch
from .verifier import CATALOG, CheckConfig, resolve_check_ids, run_suite


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="loopstable-verify",
        description="Replay the engine's identities and homotopy "
        "certificates exactly on deterministic samples.",
    )
    p.add_argument(
        "--check", action="append", default=None, metavar="ID",
        help="check id to run (repeatable); 'all' selects the whole catalog",
    )
    p.add_argument(
        "--algebra", default="builtin:dual", metavar="SRC",
        help="'builtin:<name>' (%s) or 'file:<path>' with an algebra "
        "definition file" % ", ".join(sorted(BUILTIN_ALGEBRAS)),
    )
    p.add_argument("--samples", type=int, default=20, metavar="N",
                   help="samples per check; 0 skips every check")
    p.add_argument("--seed", type=int, default=0, metavar="N")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--list", action="store_true",
                   help="list catalog ids and exit")
    return p


def _load_algebra(src: str) -> tuple:
    """(config name, algebra).  A file algebra is named by its source
    ``file:<path>``, never by the ``name:`` line the file controls, so it
    cannot borrow a built-in's frozen product oracle."""
    if ":" not in src:
        raise ValueError(
            f"algebra source {src!r} must be 'builtin:<name>' or 'file:<path>'"
        )
    kind, _, rest = src.partition(":")
    if kind == "builtin":
        if rest not in BUILTIN_ALGEBRAS:
            raise ValueError(
                f"unknown builtin algebra {rest!r}; available: "
                + ", ".join(sorted(BUILTIN_ALGEBRAS))
            )
        return rest, BUILTIN_ALGEBRAS[rest]()
    if kind == "file":
        with open(rest, "r", encoding="utf-8") as fh:
            alg = parse_algebra_file(fh.read())
        return src, alg
    raise ValueError(f"unknown algebra source {kind!r}")


def _print(text: str) -> None:
    """Print ``text``; a reader that closed the pipe early is not an error."""
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # point stdout at devnull so that the flush at exit does not raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.list:
        _print("\n".join(f"{cid:28s} {entry.description}"
                          for cid, entry in CATALOG.items()))
        return 0

    try:
        name, algebra = _load_algebra(args.algebra)
    except (ValueError, OSError) as e:
        # an algebra that fails its own laws names the offending values
        values = e.values if isinstance(e, Mismatch) else {}
        named = ", ".join(f"{k}={v!r}" for k, v in values.items())
        print(f"error: {e}" + (f" ({named})" if named else ""), file=sys.stderr)
        return 2

    try:
        cfg = CheckConfig(algebra_name=name, algebra=algebra, samples=args.samples,
                          seed=args.seed)
        checks = resolve_check_ids(args.check or ["all"])
    except ValueError as e:  # a negative sample count or an unknown check id
        print(f"error: {e}", file=sys.stderr)
        return 2

    report = run_suite(checks, cfg)
    _print(report.to_json() if args.format == "json" else report.to_text())
    if report.errored:
        return 3
    return 1 if report.failed else 0


if __name__ == "__main__":
    sys.exit(main())
