"""Command-line interface.

Subcommands: cohomology, homology, ring, duality, sweep, verify.  Output goes
to stdout in json (the stable contract), csv or markdown; -h/--help prints a
help page.  The grammar: "--opt value" or "--opt=value", "-a 5", "-a5" or
"-a=5", any unique prefix of a long option, the last of a repeated option
wins, and a value that starts with "-" and is not a negative number is read
as an option.  Exit codes: 0 on success with all embedded checks passing,
1 if any check fails, 2 on usage errors, each one stderr line
"truncpoisson[ <command>]: error: ...", 3 on an internal error (out of
memory, a RuntimeError from one of the engine's self-checks, or any other
exception, named by its type, from building or rendering the report), reported
as one line on stderr with nothing on stdout.  A failed write of the output (to
a full disk, say, or to a stdout the process started without) is an internal
error too: exit 3 and one stderr line, though part of the output may already
be written.  A process whose stderr is closed or cannot be written writes no
error line and keeps its exit code.  No environment variable
changes the output.  The process (run(): python -m truncpoisson, the installed
script) ends with os._exit right after flushing its output, skipping interpreter
teardown, or normally under a tracer, profiler or sys.monitoring tool; library
callers use main(argv), which returns the exit code.  The process runs without
the cyclic garbage collector (run() turns it off, and __main__ before it
imports the package): the commands build acyclic maps, which reference
counting frees, and the process ends in os._exit after its flush, so the
collector would only walk the live set: over a third of the time of homology
-a 2 -b 180000 with it on.  main(argv) leaves the caller's collector as it is.

Size limits, each a usage error with a "resource limit:" message: a*b is at
most INSTANCE_MAX_AB (360000) for cohomology, homology, ring and duality and
at most VERIFY_MAX_AB (2500) for verify; sweep ranges end at SWEEP_MAX (32).
Each twist entry, reduced to lowest terms, may have at most TWIST_MAX_DIGITS
(4300, Python's default int/str conversion limit) digits in its numerator and
in its denominator, so an exponent such as 1e5000 is refused before any
power of ten is built.  An integer argument that Python's int/str limit
refuses is reported with its digit count and that limit.  An error line
quotes a token whole up to 40 bytes as written (UTF-8, line breaks escaped), a
longer one by its first 20 bytes and its length, an integer of more than 20
digits by its digit count.
"""

from __future__ import annotations

import gc
import os
import re
import sys
from types import SimpleNamespace

from .algebra import TWIST_MAX_DIGITS, TruncParams
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
# 0.05 s, almost all of it start-up.  verify -a 50 -b 50 takes about 0.35 s and
# 16 MB.  (Median of 5, of 10 for verify and for -a 2 -b 180000, on a 2-core
# Intel Xeon VM, Python 3.11, where python -c pass takes about 0.05 s.)
INSTANCE_MAX_AB = 360_000
VERIFY_MAX_AB = 2_500
EXIT_INTERNAL_ERROR = 3
_ESCAPES = str.maketrans({"\n": "\\n", "\r": "\\r"})  # an error line stays one line when it quotes a line break


def _shown(token, quote=repr) -> str:
    """token as an error line quotes it (text through quote: repr or str), a long one shortened as above."""
    if isinstance(token, int):
        digits = len(str(abs(token)))
        return str(token) if digits <= 20 else f"an integer of {digits} digits"
    if len(token) <= 40 and _size(token, quote) <= 40:  # a character takes at least one byte
        return quote(token)
    n = next(n for n in range(21) if _size(token[: n + 1], quote) > 20)  # cut at a character boundary
    return f"{quote(token[:n])}... ({len(token)} characters)"


def _size(text: str, quote) -> int:  # the UTF-8 bytes an error line writes of quote(text), past its quotes
    return len(quote(text).translate(_ESCAPES).encode(errors="backslashreplace")) - len(quote(""))


def _integer(token: str, error: str) -> int:
    """int(token); else a ValueError with error, or with the digit count if int refused an integer that long."""
    try:
        return int(token)
    except ValueError:
        if not re.fullmatch(r"\s*[-+]?\d+(?:_\d+)*\s*", token):
            raise ValueError(error) from None
    digits = len(re.findall(r"\d", token))
    raise ValueError(f"an integer of {digits} digits; at most {sys.get_int_max_str_digits()} digits are read")


def ab_value(s: str) -> int:
    v = _integer(s, f"not an integer: {_shown(s)}")
    if v < 2:
        raise ValueError(f"need two integers a,b ≥ 2; got {_shown(v)}")
    return v


def range_value(s: str) -> tuple[int, int]:
    lo, sep, hi = s.partition("..")
    error = f"not an integer range: {_shown(s)} (use N or LO..HI)"
    lo_i = _integer(lo, error)
    hi_i = _integer(hi, error) if sep else lo_i
    if lo_i < 2 or hi_i < lo_i:
        raise ValueError(f"need two integers a,b ≥ 2 and LO ≤ HI; got {_shown(s)}")
    if hi_i > SWEEP_MAX:
        raise ValueError(f"resource limit: sweep range bounds are capped at {SWEEP_MAX}; got {_shown(hi_i)}")
    return (lo_i, hi_i)


def twist_value(s: str) -> str | TwistParams:
    if s in ("trivial", "nakayama"):
        return s
    parts = s.split(",")
    if len(parts) == 2:
        try:
            return TwistParams(parts[0].strip(), parts[1].strip())
        except ValueError:
            pass
        except OverflowError:
            limit = f"at most {TWIST_MAX_DIGITS} digits in numerator and denominator"
            raise ValueError(f"twist entries need {limit}; got {_shown(s)}") from None
    expected = "'trivial', 'nakayama' or 'ALPHA,BETA' with rational entries like -1,3/2"
    raise ValueError(f"twist must be {expected}; got {_shown(s)}")


_DESCRIPTION = "Exact Poisson (co)homology of truncated polynomial algebras in two variables."
_HELP = ("-h/--help", None, None, "show this help message and exit")


def build_parser() -> dict:
    """The command table {command: (help, options)} that _parse reads argv with and _help renders.

    An option is (flag, convert, default, help); convert is a converter, a tuple of choices or None for
    a flag that sets True, and a default of ... marks a required option.
    """
    a = ("-a", ab_value, ..., "X-exponent bound (at least 2)")
    b = ("-b", ab_value, ..., "Y-exponent bound (at least 2)")
    fmt = ("--format", ("json", "csv", "markdown"), "json", "output format")
    no_reps = ("--no-representatives", None, False, "omit representative labels")
    twist = ("--twist", twist_value, "trivial", "trivial | nakayama | ALPHA,BETA (rationals)")
    return {
        "cohomology": ("cohomology dimensions and representatives", (a, b, fmt, no_reps)),
        "homology": ("twisted homology dimensions and representatives", (a, b, fmt, twist, no_reps)),
        "ring": ("cup-product table of the five basis classes", (a, b, fmt)),
        "duality": ("degreewise duality comparisons", (a, b, fmt)),
        "sweep": ("tabulate dimensions over parameter ranges", (
            ("-a", range_value, ..., "a range: N or LO..HI"), ("-b", range_value, ..., "b range: N or LO..HI"),
            ("--kind", ("cohomology", "homology"), "cohomology", "what to sweep"),
            ("--twist", twist_value, None, "twist for homology sweeps"), fmt)),
        "verify": ("run every structural and theorem check", (a, b, fmt)),
    }


class _Exit(Exception):
    """Ends the parse with (exit code, text): a help page for stdout or an error line for stderr."""


def _error(prog: str, message: str) -> _Exit:
    return _Exit(2, f"{prog}: error: {message}".translate(_ESCAPES))


def _classify(prog: str, opts: dict, tok: str):
    """None for a value token, else (option or None if unknown, flag, explicit value or None)."""
    if not tok.startswith("-") or tok == "-":
        return None
    flag, eq, value = tok.partition("=")
    if tok in opts or eq and flag in opts:
        return (opts[tok], tok, None) if tok in opts else (opts[flag], flag, value)
    hits = ([(opts[f], f, value if eq else None) for f in opts if f.startswith(flag)] if tok[1] == "-"
            else [(opts[tok[:2]], tok[:2], tok[2:])] if tok[:2] in opts else [])  # a prefix, or -a5
    if len(hits) > 1:
        matches = ", ".join(hit[1] for hit in hits)
        raise _error(prog, f"ambiguous option: {_shown(tok, str)} could match {matches}")
    negative = re.match(r"^-\d+$|^-\d*\.\d+$", tok)  # such a token, like one with a space, is a value
    return hits[0] if hits else None if negative or " " in tok else (None, tok, None)


def _value(prog: str, flag: str, convert, tok: str):
    """The value of an option's token: True for a flag, a checked choice or the converter's result."""
    try:
        if isinstance(convert, tuple) and tok not in convert:
            raise ValueError(f"invalid choice: {_shown(tok)} (choose from {', '.join(map(repr, convert))})")
        return True if convert is None else tok if isinstance(convert, tuple) else convert(tok)
    except ValueError as e:
        raise _error(prog, f"argument {flag}: {e}") from None


def _parse(table: dict, argv: list, command: str = ""):
    """Read argv by the module's grammar into the namespace (program) or (values by flag, unknown tokens).

    The program's command is its first value token, or a "--" with more tokens after it.
    """
    prog, options = f"truncpoisson {command}".rstrip(), table[command][1] if command else ()
    opts = {"-h": _HELP, "--help": _HELP, **{o[0]: o for o in options}}
    end = argv.index("--") if "--" in argv else len(argv)
    kinds = [_classify(prog, opts, tok) for tok in argv[:end]]
    values, extras, i = {}, [], 0
    while i < end and (command or kinds[i] is not None):
        opt, flag, explicit = kinds[i] if kinds[i] is not None else (None, argv[i], None)
        i, taken = i + 1, []
        if opt is None:
            extras.append(flag)
            continue
        while explicit and opt[1] is None and flag[1] != "-" and "-" + explicit[0] in opts:  # -hh, -ha5
            taken.append((opt, None))
            opt, flag, explicit = opts["-" + explicit[0]], "-" + explicit[0], explicit[1:] or None
        if explicit is not None and opt[1] is None:
            raise _error(prog, f"argument {opt[0]}: ignored explicit argument {_shown(explicit)}")
        if explicit is None and opt[1] is not None:
            if i == end or kinds[i] is not None:
                raise _error(prog, f"argument {opt[0]}: expected one argument")
            explicit, i = argv[i], i + 1
        for opt, tok in [*taken, (opt, explicit)]:
            if opt is _HELP:
                raise _Exit(0, _help(table, command))
            values[opt[0]] = _value(prog, opt[0], opt[1], tok)
    if command:
        if missing := [o[0] for o in options if o[2] is ... and o[0] not in values]:
            raise _error(prog, f"the following arguments are required: {', '.join(missing)}")
        return values, extras + argv[end:]
    if i == len(argv) or argv[i:] == ["--"]:
        raise _error(prog, "the following arguments are required: command")
    command = _value(prog, "command", tuple(table), argv[i])
    values, more = _parse(table, argv[i + 1:], command)
    if unknown := extras + more:
        count = f" ... ({len(unknown)} in all)" if unknown[10:] else ""
        raise _error(prog, f"unrecognized arguments: {' '.join(_shown(t, str) for t in unknown[:10])}{count}")
    dests = {o[0].lstrip("-").replace("-", "_"): values.get(o[0], o[2]) for o in table[command][1]}
    return SimpleNamespace(command=command, **dests)


def _usage(opt) -> str:
    flag, convert, default = opt[:3]
    if convert is not None:
        flag += " {" + ",".join(convert) + "}" if isinstance(convert, tuple) else " " + flag.lstrip("-").upper()
    return flag if default is ... else f"[{flag}]"


def _row(inv: str, text: str) -> str:
    return f"  {inv:<22}{text}" if len(inv) <= 20 else f"  {inv}\n{'':24}{text}"


def _help(table: dict, command: str) -> str:
    """The help page of one command, or of the program when command is empty."""
    options = table[command][1] if command else ()
    head = [f"usage: truncpoisson {command} [-h] {' '.join(map(_usage, options))}"]
    if not command:
        head = [f"usage: truncpoisson [-h] {{{','.join(table)}}} ...", "", _DESCRIPTION, "", "commands:"]
        head += [_row(name, spec[0]) for name, spec in table.items()]
    rows = [_row("-h, --help", _HELP[3])] + [_row(_usage(o).strip("[]"), o[3]) for o in options]
    return "\n".join([*head, "", "options:", *rows])


def _bundle(args: SimpleNamespace) -> ReportBundle:
    if args.command == "sweep":
        return sweep_bundle(args.kind, args.a, args.b, args.twist or "trivial")
    p = TruncParams(args.a, args.b)
    if args.command == "cohomology":
        return cohomology_bundle(p, include_reps=not args.no_representatives)
    if args.command == "homology":
        return homology_bundle(p, args.twist, include_reps=not args.no_representatives)
    return {"ring": ring_bundle, "duality": duality_bundle, "verify": verify_bundle}[args.command](p)


def _error_line(text: str) -> None:
    if sys.stderr is None:  # started with fd 2 closed, where print would write to stdout
        return
    try:
        print(text, file=sys.stderr)
    except OSError:  # a stderr that cannot be written leaves the exit code to say what happened
        pass


def _internal_error(message: str) -> int:
    _error_line(f"truncpoisson: internal error: {message}")
    return EXIT_INTERNAL_ERROR


def main(argv=None) -> int:
    try:
        args = _parse(build_parser(), sys.argv[1:] if argv is None else list(argv))
        cap = VERIFY_MAX_AB if args.command == "verify" else INSTANCE_MAX_AB
        if args.command != "sweep" and args.a * args.b > cap:
            got = f"{_shown(args.a)}*{_shown(args.b)}"
            message = f"resource limit: a*b is capped at {cap} for {args.command}; got {got}"
            raise _error("truncpoisson", message)
        if args.command == "sweep" and args.kind == "cohomology" and args.twist is not None:
            raise _error("truncpoisson sweep", "--twist applies only to --kind homology")
    except _Exit as e:
        code, text = e.args
        if code:
            _error_line(text)
            return code
        text += "\n"  # a help page is written as the output
    else:
        try:
            bundle = _bundle(args)
            code, text = bundle.exit_code, render(bundle, args.format)
        except MemoryError:
            return _internal_error("out of memory")
        except RuntimeError as e:
            return _internal_error(" ".join(str(e).split()) or type(e).__name__)
        except Exception as e:  # a fault of the program, not of its input, which the parse has checked
            message = " ".join(str(e).split())
            return _internal_error(f"{type(e).__name__}: {message}" if message else type(e).__name__)
    if sys.stdout is None:  # started with fd 1 closed
        return _internal_error("cannot write output: stdout is closed")
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as e:
        return _internal_error(f"cannot write output: {e}")
    return code


def run() -> None:
    """main() without the cyclic collector, a flush and os._exit; the normal exit under a tracer or profiler."""
    gc.disable()
    code = main()
    for stream in filter(None, (sys.stdout, sys.stderr)):  # None: started with that fd closed
        try:
            stream.flush()
        except OSError:  # main has already reported a failed write of the output
            pass
    watchers = [sys.gettrace(), sys.getprofile()]
    if hasattr(sys, "monitoring"):  # Python 3.12+: cProfile and coverage may register a tool here
        watchers += map(sys.monitoring.get_tool, range(6))
    if any(w is not None for w in watchers):
        raise SystemExit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
