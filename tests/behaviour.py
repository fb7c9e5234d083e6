"""A behaviour lock: digests of the outputs a refactor must keep byte for byte.

A case is one market file or one demo.  A market is a fixture, or a
``clinch gen`` market, with or without quality factors.  For each market,
``clinch run --trace``, ``clinch verify`` and ``clinch check-submodular`` run
at ``--format json`` in process, through ``cli.main``.  Each command is
recorded as its exit code and the digests of its stdout and stderr, and for
``run`` of the trace file it wrote.  The market file's own digest is
recorded too, so a moved generator shows as a moved ``file``.  One more case
parses the mutated-file stream of ``tests/corpus.py`` and records the
(code, field, message) of each file the parser rejects.  A digest is the
first 16 hex digits of the SHA-256 of the bytes.

``tests/behaviour.json`` stores two sets: ``small`` (the fixtures, seeds 0-1
of the five polymatroid kinds at n = 4 and 12, both demos, the parse
errors), which ``tests/test_behaviour.py`` recomputes, and ``large`` (the
seed-0 markets that take seconds), which CI recomputes.  A change that moves a digest names
each moved case and says why.

Usage, from the repository root::

    PYTHONPATH=src python tests/behaviour.py --write        # regenerate both sets
    PYTHONPATH=src python tests/behaviour.py --check large  # recompute one set, exit 1 if it moved
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import pathlib
import sys
import tempfile

from polyclinch import ParseError, cli
from polyclinch.instances import POLYMATROID_KINDS, parse_instance_data

from corpus import mutated_files

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
LOCK = pathlib.Path(__file__).resolve().parent / "behaviour.json"
COMMANDS = ("run", "verify", "check-submodular")

# (kind, n, m, quality) of the large set, each generated at seed 0
LARGE = (("multi-unit", 512, None, False), ("single-keyword", 256, None, False),
         ("vod-cut", 256, None, False), ("vod-cut", 16, None, False), ("adwords", 16, 3, False),
         ("graphic", 16, None, False), ("graphic", 20, None, False), ("vod-cut", 64, None, True))


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def cases(which: str) -> dict:
    """Case name -> how to make it: ("fixture", path), ("gen", kind, n, m, seed,
    quality), ("demo", name) or ("parse-errors",)."""
    out = {}
    if which == "small":
        for path in sorted(FIXTURES.glob("*.json")):
            out[f"fixture/{path.stem}"] = ("fixture", path)
        for kind in POLYMATROID_KINDS:
            for n in (4, 12):
                for seed in (0, 1):
                    for quality in (False, True):
                        name = f"gen/{kind}-n{n}-m3-s{seed}" + "-quality" * quality
                        out[name] = ("gen", kind, n, 3, seed, quality)
        for demo in ("appendix-d", "impossibility"):
            out[f"demo/{demo}"] = ("demo", demo)
        out["parse/mutated-files"] = ("parse-errors",)
    else:
        for kind, n, m, quality in LARGE:
            name = f"gen/{kind}-n{n}" + f"-m{m}" * (m is not None) + "-s0" + "-quality" * quality
            out[name] = ("gen", kind, n, m, 0, quality)
    return out


def _main(argv: list) -> dict:
    """``cli.main(argv)`` in process: its exit code and output digests."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return {"exit": code, "stdout": digest(out.getvalue().encode()),
            "stderr": digest(err.getvalue().encode())}


def _parse_errors() -> dict:
    """(code, field, message) of each mutated file, None where it parses."""
    errors = []
    for data in mutated_files():
        try:
            parse_instance_data(data)
            errors.append(None)
        except ParseError as exc:
            errors.append([exc.code, exc.field, str(exc)])
    rejected = [tuple(e) for e in errors if e is not None]
    return {"rejected": len(rejected), "distinct": len(set(rejected)),
            "errors": digest(json.dumps(errors).encode())}


def _market(path: pathlib.Path, tmp: pathlib.Path) -> dict:
    record = {"file": digest(path.read_bytes())}
    for command in COMMANDS:
        argv = [command, "-i", str(path), "--format", "json"]
        if command == "run":
            trace = tmp / "trace.json"
            trace.unlink(missing_ok=True)
            record[command] = _main(argv + ["--trace", str(trace)])
            record[command]["trace"] = digest(trace.read_bytes()) if trace.exists() else None
        else:
            record[command] = _main(argv)
    return record


def compute(which: str) -> dict:
    """The records of one set (``small`` or ``large``), recomputed now."""
    records = {}
    with tempfile.TemporaryDirectory() as name:
        tmp = pathlib.Path(name)
        for case, how in cases(which).items():
            if how[0] == "demo":
                records[case] = {"demo": _main(["demo", how[1], "--format", "json"])}
                continue
            if how[0] == "parse-errors":
                records[case] = _parse_errors()
                continue
            path = how[1] if how[0] == "fixture" else tmp / "market.json"
            if how[0] == "gen":
                kind, n, m, seed, quality = how[1:]
                argv = ["gen", "--kind", kind, "--n", str(n), "--seed", str(seed), "-o", str(path)]
                with contextlib.redirect_stdout(io.StringIO()):
                    assert cli.main(argv + ["--m", str(m)] * (m is not None)) == cli.EXIT_OK
                if quality:
                    data = json.loads(path.read_text())
                    data["quality"] = [str(1 + i % 3) for i in range(n)]
                    path.write_text(json.dumps(data, indent=1) + "\n")
            records[case] = _market(path, tmp)
    return records


def stored() -> dict:
    return json.loads(LOCK.read_text())


def moved(which: str) -> list:
    """Names of the cases of one set whose records differ from the lock's."""
    now, then = compute(which), stored()[which]
    return sorted(case for case in now.keys() | then.keys() if now.get(case) != then.get(case))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--write", action="store_true", help="regenerate tests/behaviour.json")
    group.add_argument("--check", choices=("small", "large"), help="recompute one set")
    args = parser.parse_args(argv)
    os.environ.pop("CLINCH_BRUTE_FORCE_CAP", None)       # the lock is taken at the default cap
    if args.write:
        lock = {which: compute(which) for which in ("small", "large")}
        LOCK.write_text(json.dumps(lock, indent=1, sort_keys=True) + "\n")
        print(f"wrote {LOCK.name}: {sum(map(len, lock.values()))} cases")
        return 0
    differ = moved(args.check)
    for case in differ:
        print(f"moved: {case}")
    print(f"{args.check}: {len(cases(args.check)) - len(differ)} cases unchanged, "
          f"{len(differ)} moved")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
