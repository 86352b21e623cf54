"""Command line front end: run one verification suite and report results.

Usage:
    3pv <suite> [--r 0|1] [--kappa0 P/Q] [--B0 P/Q] [--B1 A,B,C,D]
                [--window N] [--states vacuum|random:K:D] [--seed S]
                [--format text|json] [--config FILE]

A config file is a flat key=value listing of the same options ('#' starts a
comment).  Command line flags win over config file entries.  The exit status
is 0 when every check passes, 1 when any check fails, 2 on bad usage (a
state whose exponents pass the limit of 255 included) and 3 on an internal
error, so that an error never reads as a failed check.
"""

import argparse
import sys

from .scalars import parse_rat
from .suites import (
    FORMATS,
    SUITE_NAMES,
    SuiteConfig,
    emit_report,
    parse_b1,
    run_suite,
)


def load_config_file(path):
    """Read a flat key=value config file into a raw string dict."""
    raw = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError("%s:%d: expected key=value" % (path, lineno))
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in _CONFIG_KEYS:
                raise ValueError("%s:%d: unknown option %r" % (path, lineno, key))
            raw[key] = value
    return raw


def coerce_options(raw):
    """Convert raw string options into SuiteConfig keyword arguments."""
    out = {}
    for key, value in raw.items():
        if key in ("r", "window", "seed"):
            out[key] = int(value)
        elif key in ("kappa0", "B0"):
            out[key] = parse_rat(value)
        elif key == "B1":
            out[key] = parse_b1(value)
        else:
            out[key] = value
    return out


# the options of build_parser that a config file may set: all but --config
_CONFIG_KEYS = ("suite", "r", "kappa0", "B0", "B1", "window", "states", "seed",
                "format")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="3pv",
        description="Run exact-arithmetic verification suites for the "
                    "three-point Witt/Virasoro and affine algebras.",
    )
    parser.add_argument("suite", help="one of: %s" % ", ".join(SUITE_NAMES))
    parser.add_argument("--r", type=int, choices=(0, 1),
                        help="oscillator gauge (0 or 1)")
    parser.add_argument("--kappa0", metavar="P/Q",
                        help="level parameter as an exact rational "
                             "(a negative one as --kappa0=-P/Q)")
    parser.add_argument("--B0", metavar="P/Q",
                        help="vacuum scalar of the weight-one current "
                             "(a negative one as --B0=-P/Q)")
    parser.add_argument("--B1", metavar="A,B,C,D",
                        help="2x2 vacuum matrix of the second current, "
                             "row-major (starting with a minus sign as "
                             "--B1=-A,B,C,D)")
    parser.add_argument("--window", type=int, metavar="N",
                        help="mode window: indices run over [-N, N]")
    parser.add_argument("--states", metavar="SPEC",
                        help="'vacuum' or 'random:K:D' (K seeded states of "
                             "degree <= D, plus the vacuum)")
    parser.add_argument("--seed", type=int, metavar="S",
                        help="seed for the random states")
    parser.add_argument("--format", choices=FORMATS, help="output format")
    parser.add_argument("--config", metavar="FILE",
                        help="flat key=value config file (flags win)")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        raw = load_config_file(args.config) if args.config else {}
        for key in _CONFIG_KEYS:
            value = getattr(args, key)
            if value is not None:
                raw[key] = value
        cfg = SuiteConfig(**coerce_options(raw))
        report = run_suite(cfg)
        text = emit_report(report, cfg.format)
    except (ValueError, OSError, OverflowError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except Exception as exc:
        print("internal error: %r" % (exc,), file=sys.stderr)
        return 3
    sys.stdout.write(text)
    return 0 if report.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
