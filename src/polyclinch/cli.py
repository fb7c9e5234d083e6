"""Command-line interface.

Commands::

    clinch run -i FILE [--trace OUT] [--format json|text]
    clinch verify -i FILE [--format json|text]
    clinch check-submodular -i FILE
    clinch demo appendix-d|impossibility
    clinch gen --kind KIND --n N [--m M] --seed S -o FILE

Exit codes: 0 all properties pass, 1 some property failed, 2 input error,
3 size/internal error.  Set CLINCH_BRUTE_FORCE_CAP to raise or lower the
subset-enumeration cap.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import replace

from .auction import (
    _scaled_bidders,
    _stretched,
    run_clinching,
    run_decreasing_marginals,
    run_generic_2player,
    run_scaled,
)
from .errors import ClinchError, DivergenceError, DomainError, ParseError, SizeError
from .instances import (
    KINDS,
    POLYMATROID_KINDS,
    InstanceFile,
    generate_instance,
    parse_instance,
    write_instance,
)
from .submodular import verify_submodular
from .verify import (
    VerificationReport,
    check_dominated_direction,
    check_outcome,
    demo_appendix_d,
    demo_impossibility,
    run_with_monitors,
    validate_trace,
)

EXIT_OK = 0
EXIT_PROPERTY_FAIL = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


def _run_instance(inst: InstanceFile, trace: bool):
    """Run an instance on the engine its kind needs, with a trace iff ``trace``."""
    cfg = replace(inst.config, trace=trace)
    if KINDS[inst.environment.kind].oracle is None:
        return run_generic_2player(*inst.polytope_rows(), inst.bidders, cfg)
    if inst.curves is not None:
        return run_decreasing_marginals(inst.curves, [b.budget for b in inst.bidders],
                                        inst.environment.payload["supply"], cfg)
    if inst.quality is not None:
        return run_scaled(inst.oracle, inst.quality, inst.bidders, cfg)
    return run_clinching(inst.oracle, inst.bidders, cfg)


def _verify(inst: InstanceFile):
    """Run an instance and check what its kind lets us check: (outcome, report).
    A file with ``quality`` is checked as its base market (:func:`run_scaled`)."""
    if KINDS[inst.environment.kind].oracle is None:
        outcome = _run_instance(inst, False)
        direction = check_dominated_direction(*inst.polytope_rows(), inst.bidders, outcome)
        report = VerificationReport()
        report.add("pareto-optimal", direction is None,
                   None if direction is None else {"direction": [str(t) for t in direction]})
        return outcome, report
    oracle = inst.oracle
    if inst.curves is not None:
        outcome = _run_instance(inst, True)
        return outcome, validate_trace(oracle, outcome.trace)
    bidders = inst.bidders
    if inst.quality is not None:
        factors, bidders = _scaled_bidders(oracle.n, inst.quality, bidders)
    outcome, report = run_with_monitors(oracle, bidders, inst.config)
    report.properties += check_outcome(oracle, bidders, outcome).properties
    if inst.quality is not None:
        outcome = _stretched(factors, outcome)
    return outcome, report


def execute(command: str, inst: InstanceFile | None, args) -> dict:
    """Run one command and assemble the report dict (the ReportFile)."""
    outcome = None
    if command == "run":
        outcome, ver = _run_instance(inst, bool(args.trace_out)), VerificationReport()
        if args.trace_out:
            with open(args.trace_out, "w", encoding="utf-8") as fh:
                # json.dump(trace, fh, indent=1)'s bytes, one snapshot in memory at a time
                for k, snap in enumerate(outcome.trace):
                    entry = json.dumps(snap.to_json(), indent=1).replace("\n", "\n ")
                    fh.write(("[\n " if k == 0 else ",\n ") + entry)
                fh.write("\n]\n" if outcome.trace else "[]\n")
    elif command == "verify":
        outcome, ver = _verify(inst)
    elif command == "check-submodular":
        check, ver = verify_submodular(inst.oracle), VerificationReport()
        ver.add("submodular-oracle", check.ok, None if check.ok else {
            "violation": check.violation, "sets": [sorted(w) for w in check.witness]},
            check.detail)
    else:                               # demo: main hands over no other command
        ver = demo_appendix_d() if args.which == "appendix-d" else demo_impossibility()
    report = {"schema": 1, "command": command}
    if outcome is not None:
        report["outcome"] = outcome.to_json(with_trace=False)
    report.update(ver.to_json())
    del report["ok"]                    # render_report derives the verdict from the properties
    return report


def render_report(report: dict, fmt: str = "text") -> tuple:
    """Render the report and derive the exit code from its content alone."""
    properties = report.get("properties", [])
    code = EXIT_PROPERTY_FAIL if any(not p["passed"] for p in properties) else EXIT_OK
    if fmt == "json":
        return json.dumps(report, indent=2) + "\n", code
    lines = [f"command: {report.get('command', '?')}"]
    outcome = report.get("outcome")
    if outcome:
        lines.append("allocation: " + " ".join(outcome["x"]))
        lines.append("payments:   " + " ".join(outcome["pay"]))
        lines.append("exhausted:  " +
                     (" ".join(str(i) for i in outcome["exhausted"]) or "(none)"))
    for prop in properties:
        mark = "PASS" if prop["passed"] else "FAIL"
        line = f"[{mark}] {prop['name']}"
        if not prop["passed"] and prop.get("witness") is not None:
            line += f"  witness: {json.dumps(prop['witness'])}"
        lines.append(line)
    for note in report.get("narrative", []):
        lines.append(f"note: {note}")
    return "\n".join(lines) + "\n", code


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``clinch`` parser, built once: each ``parse_args`` call returns a
    fresh namespace, so calls share no parsed state."""
    parser = argparse.ArgumentParser(
        prog="clinch",
        description="Polyhedral clinching auctions with exact-rational verification.")
    parser.set_defaults(which=None, trace_out=None)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("-i", "--instance", required=True, help="instance JSON file")
        p.add_argument("--format", choices=("json", "text"), default="text")

    run_p = sub.add_parser("run", help="run the auction and print the outcome")
    add_common(run_p)
    run_p.add_argument("--trace", dest="trace_out", default=None,
                       help="write the step trace to this file (JSON)")

    verify_p = sub.add_parser("verify", help="run with monitors and property checks")
    add_common(verify_p)

    check_p = sub.add_parser("check-submodular", help="verify the environment oracle")
    add_common(check_p)

    demo_p = sub.add_parser("demo", help="run a built-in counterexample demo")
    demo_p.add_argument("which", choices=("appendix-d", "impossibility"))
    demo_p.add_argument("--format", choices=("json", "text"), default="text")

    gen_p = sub.add_parser("gen", help="generate a seeded random instance")
    gen_p.add_argument("--kind", required=True, choices=POLYMATROID_KINDS)
    gen_p.add_argument("--n", type=int, required=True, help="number of bidders")
    gen_p.add_argument("--m", type=int, default=None, help="number of keywords (adwords)")
    gen_p.add_argument("--seed", type=int, required=True)
    gen_p.add_argument("-o", "--output", required=True)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "gen":
            inst = generate_instance(args.kind, args.n, args.m, args.seed)
            write_instance(inst, args.output)
            print(f"wrote {args.output}")
            return EXIT_OK
        inst = None if args.command == "demo" else parse_instance(args.instance)
        report = execute(args.command, inst, args)
    except ParseError as exc:
        print(f"input error [{exc.code}] at {exc.field}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except DomainError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (SizeError, DivergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except ClinchError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    text, code = render_report(report, args.format)
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
