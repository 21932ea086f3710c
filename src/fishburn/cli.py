"""Command-line front end.

Four subcommands, each a thin wrapper over the library:

    verify  re-check the counting identities for every total up to a bound
    count   print one family's refined count table as CSV or JSON
    map     apply a bijection to a matrix read from a file or stdin
    check   report family membership and statistics for a matrix

Tables and matrices go to standard output and are byte-stable across runs;
wall-clock timings, one per size for verify, go to standard error.  Exit
status is 0 when every requested check passes, 1 when a check or
membership predicate fails, and 2 on unusable input (bad flags, unreadable
files, malformed matrix text).

Each command imports the layers it runs: ``map`` and ``check`` load the
matrix layer and ``map`` the maps, when they are called, and ``verify``
loads both through the identity checker, so a ``count`` run loads neither.

One table, ``_COMMANDS``, declares every subcommand's options.  A line
that names a subcommand and then gives each of its options at most once,
spelled in full with a value argparse would take, is read straight from
that table; every other line, including ``-h``, abbreviations and every
mistake, goes to the ``argparse`` parser ``build_parser`` builds from the
same table, which reports it as it always has.  So a well-formed run never
imports ``argparse``, nor the ``gettext`` and ``locale`` it loads.
"""

import gc
import sys
import time

from .enumeration import (
    IDENTITIES,
    FamilyTag,
    count_refined,
    family_violation,
    verify_identities,
    verify_identity,  # unused here; perfbench's tracer tests patch this binding
)
from .records import MatrixConditionError, ParseError, Parity, _Record

# --- run outcome ---------------------------------------------------------------


class RunReport(_Record):
    """Outcome of one subcommand: the exact standard-output payload and the
    (label, seconds) timings."""

    __slots__ = ("passed", "output", "timings")
    _defaults = {"timings": ()}


# --- subcommand bodies -----------------------------------------------------------


def cmd_verify(identity, max_size):
    """Run one identity, or all of them, in one pass per size up to max_size.

    The passes make no reference cycles, yet the cyclic garbage collector
    would rescan the growing cache of members again and again, so it is
    paused while they run, and turned back on after them only if it was on.
    """
    names = IDENTITIES if identity == "all" else (identity,)
    by_size = []
    timings = []
    collecting = gc.isenabled()
    gc.disable()
    try:
        for n in range(1, max_size + 1):
            started = time.perf_counter()
            by_size.append(verify_identities(names, n))
            timings.append((f"{identity} n={n}", time.perf_counter() - started))
    finally:
        if collecting:
            gc.enable()
    reports = [report for row in zip(*by_size) for report in row]
    lines = [f"{r.identity} n={r.n}: {'pass' if r.passed else 'FAIL'} ({r.detail})"
             for r in reports]
    passed = all(r.passed for r in reports)
    lines.append("all checks passed" if passed else "FAILURES detected")
    output = "\n".join(lines) + "\n"
    witness = next((r.counterexample for r in reports if r.counterexample is not None), None)
    if witness is not None:
        from .matrices import format_matrix

        output += "counterexample:\n" + format_matrix(witness)
    return RunReport(passed, output, tuple(timings))


def cmd_count(family, n, output_format):
    """Print the refined count table for one family at one total."""
    table = count_refined(family, n)
    payload = table.to_csv() if output_format == "csv" else table.to_json()
    return RunReport(True, payload)


# each --bijection choice and the map of ``bijections`` it names
_BIJECTIONS = {
    "alpha": "alpha",
    "alpha_inv": "alpha_inv",
    "beta": "beta",
    "beta_inv": "beta_inv",
    "chain": "selfdual_to_signed_rm",
}


def cmd_map(bijection, input_path, trace=False):
    """Apply one bijection, or the composed chain, to a matrix from a file.

    Without --trace the output is just the image matrix, so it can be piped
    straight into another map invocation.  With --trace every labeled
    snapshot is printed instead, the image being the last one.  The chain
    appends a "flag:" line either way.
    """
    from . import bijections
    from .matrices import format_matrix, parse_matrix

    m = parse_matrix(_read_input(input_path))
    result = getattr(bijections, _BIJECTIONS[bijection])(m, want_trace=trace)
    image, snapshots = result if trace else (result, None)
    if trace:
        pieces = [f"{label}:\n{format_matrix(snapshot)}\n"
                  for label, snapshot in snapshots.steps]
    else:
        pieces = [format_matrix(image.matrix if bijection == "chain" else image)]
    if bijection == "chain":
        pieces.append(f"flag: {image.flag}\n")
    return RunReport(True, "".join(pieces))


def cmd_check(family, input_path):
    """Report whether a matrix from a file belongs to a family, and its
    statistics either way.  Non-membership is a failed check (exit 1)."""
    from .matrices import parse_matrix, stats

    m = parse_matrix(_read_input(input_path))
    violation = family_violation(family, m)
    lines = []
    if violation is None:
        lines.append("member: yes")
    else:
        lines.append("member: no")
        lines.append(f"reason: {violation}")
    vector = stats(m)
    for name in vector.__slots__:
        value = getattr(vector, name)
        lines.append(f"{name}: {value.value if isinstance(value, Parity) else value}")
    return RunReport(violation is None, "\n".join(lines) + "\n")


# --- argument plumbing -----------------------------------------------------------


def _read_input(path):
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _size(text):
    """The positive integer ``text`` spells in ASCII digits, the rule
    parse_matrix applies to its tokens, or None.  Like ``int``, raises
    ValueError on a string of more digits than ``int`` converts."""
    if text.isascii() and text.isdigit() and int(text) > 0:
        return int(text)
    return None


def _positive_int(text):
    # the argparse type of the size options
    size = _size(text)
    if size is None:
        import argparse

        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return size


_FAMILY_NAMES = tuple(tag.value for tag in FamilyTag)

# each subcommand: its help line, and each of its options with the keyword
# arguments build_parser passes to ``add_argument``, which _read_line reads
# too.  ``_positive_int`` is the one ``type``, ``store_true`` the one
# ``action``, and an option that is not required has a default
_COMMANDS = {
    "verify": ("re-check the counting identities up to a size bound", {
        "--identity": {"choices": IDENTITIES + ("all",), "default": "all",
                       "help": "which identity to check (default: all)"},
        "--max-size": {"type": _positive_int, "default": 4, "metavar": "N",
                       "help": "largest total to check (default: 4)"},
    }),
    "count": ("print one family's refined count table", {
        "--family": {"choices": _FAMILY_NAMES, "required": True},
        "--size": {"type": _positive_int, "required": True, "metavar": "N"},
        "--format": {"choices": ("csv", "json"), "default": "csv"},
    }),
    "map": ("apply a bijection to a matrix read from a file", {
        "--bijection": {"choices": tuple(_BIJECTIONS), "required": True},
        "--input": {"required": True, "metavar": "FILE",
                    "help": "matrix file in the text format, or - for stdin"},
        "--trace": {"action": "store_true", "default": False,
                    "help": "print every labeled intermediate snapshot"},
    }),
    "check": ("report family membership and statistics for a matrix", {
        "--family": {"choices": _FAMILY_NAMES, "required": True},
        "--input": {"required": True, "metavar": "FILE"},
    }),
}


def build_parser():
    import argparse

    parser = argparse.ArgumentParser(
        prog="fishburn",
        description="Verify, count, map, and check triangular-matrix families.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, options) in _COMMANDS.items():
        p_command = sub.add_parser(command, help=summary)
        for flag, spec in options.items():
            p_command.add_argument(flag, **spec)
    return parser


def _read_line(argv):
    """``vars(build_parser().parse_args(argv))`` for a subcommand followed
    by its own options, each spelled in full and given once with a value
    argparse takes; None for any other line, which argparse reads."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    options = _COMMANDS[argv[0]][1]
    args = {"command": argv[0]}
    words = iter(argv[1:])
    for flag in words:
        spec = options.get(flag)
        if spec is None:
            return None
        dest = flag[2:].replace("-", "_")
        if dest in args:
            return None
        if "action" in spec:
            args[dest] = True
            continue
        value = next(words, None)
        # argparse may take a word starting with "-", other than "-"
        # itself, for an option, so such a line is left to it
        if value is None or (value.startswith("-") and value != "-"):
            return None
        if "choices" in spec and value not in spec["choices"]:
            return None
        if "type" in spec:
            try:
                value = _size(value)
            except ValueError:  # more digits than int converts
                return None
            if value is None:
                return None
        args[dest] = value
    for flag, spec in options.items():
        dest = flag[2:].replace("-", "_")
        if dest not in args:
            if spec.get("required"):
                return None
            args[dest] = spec["default"]
    return args


def _dispatch(args):
    command = args["command"]
    if command == "verify":
        return cmd_verify(args["identity"], args["max_size"])
    if command == "count":
        return cmd_count(FamilyTag(args["family"]), args["size"], args["format"])
    if command == "map":
        return cmd_map(args["bijection"], args["input"], args["trace"])
    return cmd_check(FamilyTag(args["family"]), args["input"])


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read_line(argv)
    if args is None:
        args = vars(build_parser().parse_args(argv))
    try:
        report = _dispatch(args)
    except (ParseError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MatrixConditionError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(report.output)
    for label, seconds in report.timings:
        print(f"{label}: {seconds:.3f}s", file=sys.stderr)
    return 0 if report.passed else 1


def __getattr__(name):
    # the maps by their ``bijections`` names (``cli.alpha``), loaded on
    # first use like the rest of the map layer
    if name in _BIJECTIONS.values():
        from . import bijections

        return getattr(bijections, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
