"""Command-line interface.

Subcommands: cohomology, homology, ring, duality, sweep, verify.  Output goes
to stdout in json (the stable contract), csv or markdown.  Exit codes: 0 on
success with all embedded checks passing, 1 if any check fails, 2 on usage
errors, 3 on an internal error (out of memory, or a RuntimeError from one of
the engine's self-checks), reported as one line on stderr with nothing on
stdout.  A failed write of the output (to a full disk, say) is an
internal error too: exit 3 and one stderr line, though part of the output
may already be written.  No environment variable changes the output.

Size limits, each a usage error with a "resource limit:" message: a*b is at
most INSTANCE_MAX_AB (360000) for cohomology, homology, ring and duality and
at most VERIFY_MAX_AB (2500) for verify; sweep ranges end at SWEEP_MAX (32).
Each twist entry, reduced to lowest terms, may have at most TWIST_MAX_DIGITS
(4300, Python's default int/str conversion limit) digits in its numerator and
in its denominator, so an exponent such as 1e5000 is refused before any
power of ten is built.
"""

from __future__ import annotations

import argparse
import re
import sys
from fractions import Fraction
from typing import Optional

from .algebra import TruncParams
from .chain import TwistParams
from .reporting import (
    ReportBundle,
    cohomology_bundle,
    duality_bundle,
    homology_bundle,
    render,
    ring_bundle,
    sweep_bundle,
    verify_bundle,
)

SWEEP_MAX = 32
# Caps on a*b.  The instance commands answer from closed forms, so at the cap
# only homology at the trivial twist with its a+b-1 degree-0 representatives
# takes long (-a 2 -b 180000: about 1.1 s, 195 MB); the others take about
# 0.035 s, mostly start-up.  verify -a 50 -b 50 takes about 0.8 s and 18 MB.
# (Median of 3 on a 2-core Intel Xeon VM, Python 3.11.)
INSTANCE_MAX_AB = 360_000
VERIFY_MAX_AB = 2_500
# Python's default limit on int <-> str conversion; a twist entry must print.
TWIST_MAX_DIGITS = 4300
EXIT_INTERNAL_ERROR = 3

_EXPONENT = r"[eE]([-+]?\d[\d_]*)\s*\Z"  # compiled on first use, by re's cache


def ab_value(s: str) -> int:
    try:
        v = int(s)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {s!r}")
    if v < 2:
        raise argparse.ArgumentTypeError(f"need two integers a,b ≥ 2; got {v}")
    return v


def range_value(s: str) -> tuple[int, int]:
    lo, sep, hi = s.partition("..")
    try:
        lo_i = int(lo)
        hi_i = int(hi) if sep else lo_i
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer range: {s!r} (use N or LO..HI)")
    if lo_i < 2 or hi_i < lo_i:
        raise argparse.ArgumentTypeError(f"need two integers a,b ≥ 2 and LO ≤ HI; got {s!r}")
    if hi_i > SWEEP_MAX:
        raise argparse.ArgumentTypeError(
            f"resource limit: sweep range bounds are capped at {SWEEP_MAX}; got {hi_i}"
        )
    return (lo_i, hi_i)


def _twist_entry(s: str) -> Fraction:
    """Fraction(s); OverflowError if its numerator or denominator passes TWIST_MAX_DIGITS digits.

    Fraction would build 10**exp for a decimal exponent before reducing.  Here
    the mantissa is parsed with the exponent's digits zeroed (the same
    grammar, so exactly the same inputs parse), and 10**exp is built only
    when |exp| is small enough for the result to fit: past that bound the
    reduced numerator or denominator exceeds the limit whatever the mantissa.
    """
    m = re.search(_EXPONENT, s)
    if m is None:
        value = Fraction(s)
    else:
        value = Fraction(s[: m.start(1)] + re.sub(r"\d", "0", m[1]) + s[m.end(1):])
        exp = int(m[1])
        if value:
            if abs(exp) > TWIST_MAX_DIGITS + value.numerator.bit_length() + value.denominator.bit_length():
                raise OverflowError
            value *= Fraction(10) ** exp
    if max(abs(value.numerator), value.denominator) >= 10**TWIST_MAX_DIGITS:
        raise OverflowError
    return value


def twist_value(s: str) -> tuple[str, Optional[TwistParams]]:
    if s == "trivial":
        return ("trivial", None)
    if s == "nakayama":
        return ("nakayama", None)
    parts = s.split(",")
    if len(parts) == 2:
        try:
            return ("explicit", TwistParams(_twist_entry(parts[0].strip()), _twist_entry(parts[1].strip())))
        except (ValueError, ZeroDivisionError):
            pass
        except OverflowError:
            raise argparse.ArgumentTypeError(
                f"twist entries need at most {TWIST_MAX_DIGITS} digits in numerator and denominator; got {s!r}"
            ) from None
    raise argparse.ArgumentTypeError(
        f"twist must be 'trivial', 'nakayama' or 'ALPHA,BETA' with rational entries like -1,3/2; got {s!r}"
    )


def _add_instance_args(sub: argparse.ArgumentParser):
    sub.add_argument("-a", type=ab_value, required=True, help="X-exponent bound (at least 2)")
    sub.add_argument("-b", type=ab_value, required=True, help="Y-exponent bound (at least 2)")


def _add_format_arg(sub: argparse.ArgumentParser):
    sub.add_argument(
        "--format", choices=("json", "csv", "markdown"), default="json", help="output format"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="truncpoisson",
        description="Exact Poisson (co)homology of truncated polynomial algebras in two variables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_coh = sub.add_parser("cohomology", help="cohomology dimensions and representatives")
    _add_instance_args(p_coh)
    _add_format_arg(p_coh)
    p_coh.add_argument(
        "--no-representatives", action="store_true", help="omit representative labels"
    )

    p_hom = sub.add_parser("homology", help="twisted homology dimensions and representatives")
    _add_instance_args(p_hom)
    _add_format_arg(p_hom)
    p_hom.add_argument(
        "--twist", type=twist_value, default=("trivial", None),
        help="trivial | nakayama | ALPHA,BETA (rationals)",
    )
    p_hom.add_argument(
        "--no-representatives", action="store_true", help="omit representative labels"
    )

    p_ring = sub.add_parser("ring", help="cup-product table of the five basis classes")
    _add_instance_args(p_ring)
    _add_format_arg(p_ring)

    p_dual = sub.add_parser("duality", help="degreewise duality comparisons")
    _add_instance_args(p_dual)
    _add_format_arg(p_dual)

    p_sweep = sub.add_parser("sweep", help="tabulate dimensions over parameter ranges")
    p_sweep.add_argument("-a", type=range_value, required=True, help="a range: N or LO..HI")
    p_sweep.add_argument("-b", type=range_value, required=True, help="b range: N or LO..HI")
    p_sweep.add_argument(
        "--kind", choices=("cohomology", "homology"), default="cohomology", help="what to sweep"
    )
    p_sweep.add_argument(
        "--twist", type=twist_value, help="twist for homology sweeps"
    )
    _add_format_arg(p_sweep)

    p_ver = sub.add_parser("verify", help="run every structural and theorem check")
    _add_instance_args(p_ver)
    _add_format_arg(p_ver)

    return parser


def _bundle(args: argparse.Namespace) -> ReportBundle:
    if args.command == "cohomology":
        p = TruncParams(args.a, args.b)
        return cohomology_bundle(p, include_reps=not args.no_representatives)
    if args.command == "homology":
        p = TruncParams(args.a, args.b)
        kind, explicit = args.twist
        return homology_bundle(p, kind, explicit, include_reps=not args.no_representatives)
    if args.command == "ring":
        return ring_bundle(TruncParams(args.a, args.b))
    if args.command == "duality":
        return duality_bundle(TruncParams(args.a, args.b))
    if args.command == "sweep":
        kind, explicit = args.twist or ("trivial", None)
        return sweep_bundle(args.kind, args.a, args.b, kind, explicit)
    return verify_bundle(TruncParams(args.a, args.b))


def _internal_error(message: str) -> int:
    print(f"truncpoisson: internal error: {message}", file=sys.stderr)
    return EXIT_INTERNAL_ERROR


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command != "sweep":
            cap = VERIFY_MAX_AB if args.command == "verify" else INSTANCE_MAX_AB
            if args.a * args.b > cap:
                parser.error(f"resource limit: a*b is capped at {cap} for {args.command}; got {args.a}*{args.b}")
        elif args.kind == "cohomology" and args.twist is not None:
            parser.exit(2, f"{parser.prog} sweep: error: --twist applies only to --kind homology\n")
    except SystemExit as e:
        return int(e.code or 0)

    try:
        bundle = _bundle(args)
        text = render(bundle, args.format)
    except MemoryError:
        return _internal_error("out of memory")
    except RuntimeError as e:
        return _internal_error(" ".join(str(e).split()) or type(e).__name__)
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as e:
        return _internal_error(f"cannot write output: {e}")
    return bundle.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
