"""Command line interface: `twistlab verify`, `twistlab dump`, `twistlab tables`.

Exit codes: 0 every check passed, 1 at least one check failed, 2 structural
error (invalid configuration or arguments, or an unwritable output).
"""

import argparse
import json
import sys

from .errors import ConfigInvalid, TwistlabError
from .rationals import parse_rat
from .roots import carrier_column
from .report import (
    SUITE_NAMES,
    WITNESSES,
    SuiteConfig,
    config_from_dict,
    dump_matrix,
    dump_witness,
    emit_report,
    run_suite,
)
from .states import STATE_IDS, table_payload
from .twists import (
    chain_twist,
    extended_twist_generic,
    external_factor,
    jordanian_factor,
    materialize,
    sequence,
)

# dump --twist name -> builder of its sequence from the parsed arguments
DUMPABLE = {
    "jordanian": lambda args: sequence(jordanian_factor(args.n, 1)),
    "extended": lambda args: extended_twist_generic(
        args.n,
        args.r if args.r is not None else carrier_column(args.n),
        _parse(args.alpha, parse_rat, "--alpha"),
    ),
    "chain": lambda args: chain_twist(args.n, args.p),
    "external0": lambda args: sequence(external_factor(args.n, "E0tilde")),
    "external1": lambda args: sequence(external_factor(args.n, "E1tilde")),
}


# the form each parser accepts, in the words of report.config_from_dict
ACCEPTED = {int: "an integer", parse_rat: "an integer or a 'p/q' string"}


def _parse(text, parse, flag):
    try:
        return parse(text)
    except ZeroDivisionError as exc:
        raise ConfigInvalid(f"{flag} {text!r}: zero denominator") from exc
    except ValueError as exc:
        raise ConfigInvalid(f"{flag} {text!r}: needs {ACCEPTED[parse]}") from exc


def _parse_csv(text, parse, flag):
    # None when the flag was not given
    return None if text is None else [_parse(x, parse, flag) for x in text.split(",") if x]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twistlab",
        description="Exact verification of twist deformations of U(gl(N))",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("--config", help="JSON file with a full SuiteConfig")
    v.add_argument("--n", type=int, help="gl(N) rank parameter")
    v.add_argument("--suites", help=f"comma list from {','.join(SUITE_NAMES)}")
    v.add_argument("--r", help="comma list of column indices r")
    v.add_argument("--alpha", help="comma list of rationals like 1/3")
    v.add_argument("--witness", choices=tuple(WITNESSES))
    v.add_argument("--format", dest="fmt", choices=("text", "json"))
    v.add_argument("--dump-dir", help="directory for materialized twist dumps")

    d = sub.add_parser("dump", help="materialize a named twist and dump it")
    d.add_argument("--twist", required=True, choices=DUMPABLE)
    d.add_argument("--n", type=int, required=True)
    d.add_argument("--r", type=int, default=None, help="carrier column (extended)")
    d.add_argument("--alpha", default="1/2", help="carrier split (extended)")
    d.add_argument("--p", type=int, default=1, help="chain depth (chain)")
    d.add_argument("--witness", choices=tuple(WITNESSES), default="fundamental")
    d.add_argument("--out", required=True, help="output path")

    t = sub.add_parser("tables", help="export costructure tables as JSON")
    t.add_argument("--n", type=int, required=True)
    t.add_argument("--r", type=int, required=True)
    t.add_argument("--state", choices=STATE_IDS, help="one state (default: all nine)")
    t.add_argument("--out", help="output path (default: stdout)")
    return parser


def _verify_config(args) -> SuiteConfig:
    """The --config file's object with every given flag written over its key."""
    data = {}
    if args.config is not None:  # "" names no file, so it cannot be read
        try:
            with open(args.config) as fh:
                data = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ConfigInvalid(f"cannot read --config {args.config!r}: {exc}") from exc
    flags = {
        "n": args.n,
        "suites": _parse_csv(args.suites, str, "--suites"),
        "r_values": _parse_csv(args.r, int, "--r"),
        "alpha_values": _parse_csv(args.alpha, parse_rat, "--alpha"),
        "witness": args.witness,
        "output": args.fmt,
        "dump_dir": args.dump_dir,
    }
    for flag, value in (("--suites", args.suites), ("--n", args.n)):
        if args.config is None and value is None:
            raise ConfigInvalid(f"verify needs {flag} (or --config)")
    if isinstance(data, dict):  # any other JSON value is config_from_dict's to reject
        data.update((key, value) for key, value in flags.items() if value is not None)
    return config_from_dict(data)


def _dump_twist(args) -> int:
    seq = DUMPABLE[args.twist](args)
    w = dump_witness(WITNESSES[args.witness](args.n))
    dump_matrix(materialize(seq, w, w), args.out)
    print(f"wrote {args.out}")
    return 0


def _export_tables(args) -> int:
    states = (args.state,) if args.state else STATE_IDS
    payload = [table_payload(sid, args.n, args.r) for sid in states]
    text = json.dumps(payload, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "dump":
            return _dump_twist(args)
        if args.command == "tables":
            return _export_tables(args)
        cfg = _verify_config(args)
        report = run_suite(cfg)
        sys.stdout.write(emit_report(report))
        return 0 if report.all_passed() else 1
    except ConfigInvalid as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (TwistlabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
