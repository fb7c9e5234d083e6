"""A behaviour lock: digests of the outputs a refactor must keep byte for byte.

A case is one market file or one demo.  A market is a fixture, or a
``clinch gen`` market: as generated, with quality factors, or as the
zero-arc twin of another.  For each market,
``clinch run --trace``, ``clinch verify`` and ``clinch check-submodular`` run
at ``--format json`` in process, through ``cli.main``.  Each command is
recorded as its exit code and the digests of its stdout and stderr, and for
``run`` of the trace file it wrote.  The market file's own digest is
recorded too, so a moved generator shows as a moved ``file``.  One more case
parses the mutated-file stream of ``tests/corpus.py`` and records the
(code, field, message) of each file the parser rejects.  A digest is the
first 16 hex digits of the SHA-256 of the bytes.

``tests/behaviour.json`` stores two sets.  ``small`` holds the fixtures,
seeds 0-1 of the five polymatroid kinds at n = 4 and 12, a corpus of 25
small markets, the seed-0 markets of :data:`SMALL`, both demos and the parse
errors; ``tests/test_behaviour.py`` recomputes it.  ``large`` holds the
seed-0 markets of :data:`LARGE`, which take seconds; CI recomputes it.  A
market is added as one tuple of :data:`SMALL` (if it takes under 0.5 s in
process) or :data:`LARGE`.  A zero-arc twin is its base vod-cut market plus
an arc of capacity 0 from ``s`` into ``b0``: no cut changes, but the network
is no out-tree, so the max-flow solver answers where the tree pass does.
Its base is in the same set, and ``--check`` fails unless the twin's
``run``, ``verify`` and ``check-submodular`` records equal its base's.  A
change that moves a digest names each moved case and says why.

Usage, from the repository root::

    PYTHONPATH=src python tests/behaviour.py --write        # regenerate both sets
    PYTHONPATH=src python tests/behaviour.py --check large  # recompute one set, exit 1 if it moved or a twin split
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

# (kind, n, m, variant) of the seed-0 markets of each set; m None passes no
# --m, and a variant is None, "quality" (factors 1, 2, 3, 1, ...) or "twin"
SMALL = (("single-keyword", 128, None, None), ("single-keyword", 64, None, None),
         ("single-keyword", 64, None, "quality"), ("multi-unit", 64, None, None),
         ("vod-cut", 64, None, None), ("vod-cut", 14, None, None),
         ("graphic", 14, None, None), ("graphic", 17, None, None))
LARGE = (("multi-unit", 512, None, None), ("single-keyword", 256, None, None),
         ("vod-cut", 256, None, None), ("vod-cut", 16, None, None), ("adwords", 16, 3, None),
         ("graphic", 16, None, None), ("graphic", 20, None, None), ("vod-cut", 64, None, "quality"),
         ("multi-unit", 256, None, None), ("vod-cut", 128, None, None),
         ("multi-unit", 64, None, "quality"), ("adwords", 14, 3, None), ("adwords", 16, 8, None),
         ("vod-cut", 256, None, "twin"))


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _gen(kind: str, n: int, m, seed: int, variant) -> tuple:
    """The case name and recipe of one ``clinch gen`` market."""
    name = f"gen/{kind}-n{n}" + f"-m{m}" * (m is not None) + f"-s{seed}"
    return name + f"-{variant}" * bool(variant), ("gen", kind, n, m, seed, variant)


def cases(which: str) -> dict:
    """Case name -> how to make it: ("fixture", path), ("gen", kind, n, m, seed,
    variant), ("demo", name) or ("parse-errors",)."""
    if which == "large":
        return dict(_gen(kind, n, m, 0, variant) for kind, n, m, variant in LARGE)
    out = {f"fixture/{path.stem}": ("fixture", path) for path in sorted(FIXTURES.glob("*.json"))}
    out.update(_gen(kind, n, 3, seed, variant) for kind in POLYMATROID_KINDS for n in (4, 12)
               for seed in (0, 1) for variant in (None, "quality"))
    out.update(_gen(kind, 3 + k % 3, 2, 1000 + k, None)       # the 25-market corpus
               for kind in POLYMATROID_KINDS for k in range(5))
    out.update(_gen(kind, n, m, 0, variant) for kind, n, m, variant in SMALL)
    out.update({f"demo/{demo}": ("demo", demo) for demo in ("appendix-d", "impossibility")})
    out["parse/mutated-files"] = ("parse-errors",)
    return out


def twins(which: str) -> dict:
    """Twin case name -> its base's, for the twins of one set."""
    return {name: name.removesuffix("-twin")
            for name, how in cases(which).items() if how[0] == "gen" and how[-1] == "twin"}


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
                kind, n, m, seed, variant = how[1:]
                argv = ["gen", "--kind", kind, "--n", str(n), "--seed", str(seed), "-o", str(path)]
                with contextlib.redirect_stdout(io.StringIO()):
                    assert cli.main(argv + ["--m", str(m)] * (m is not None)) == cli.EXIT_OK
                if variant:
                    data = json.loads(path.read_text())
                    if variant == "quality":
                        data["quality"] = [str(1 + i % 3) for i in range(n)]
                    else:
                        data["environment"]["edges"].append(["s", "b0", "0"])
                    path.write_text(json.dumps(data, indent=1) + "\n")
            records[case] = _market(path, tmp)
    return records


def stored() -> dict:
    return json.loads(LOCK.read_text())


def problems(which: str) -> list:
    """One line per case of a set whose recomputed record differs from the
    lock's, and one per twin whose recomputed record differs from its base's."""
    now, then = compute(which), stored()[which]
    lines = [f"moved: {case}" for case in sorted(now.keys() | then.keys())
             if now.get(case) != then.get(case)]
    lines += [f"twin differs from its base: {twin} vs {base}"
              for twin, base in twins(which).items()
              if any(now[twin][command] != now[base][command] for command in COMMANDS)]
    return lines


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
    found = problems(args.check)
    for line in found:
        print(line)
    moved = sum(line.startswith("moved: ") for line in found)
    print(f"{args.check}: {len(cases(args.check)) - moved} cases unchanged, {moved} moved, "
          f"{len(twins(args.check))} twins checked")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
