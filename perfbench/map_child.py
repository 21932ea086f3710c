"""Serve a batch of single-matrix requests, one call at a time, and time each.

Reads request text (see ``mapgen.encode_batch``) from standard input and
writes one JSON line ``[nanoseconds, answer]`` per request to standard
output.  Run from the repository root:

    PYTHONPATH=src python3 perfbench/map_child.py < requests.txt

Each request goes through the text boundary (``parse_matrix`` validates
it) and one mix of library calls.  The package modules are reached through
their module attributes, so a tracer that rebinds those names sees every
call.
"""

import json
import sys
import time

from fishburn import bijections, enumeration, matrices, posets

from mapgen import decode_batch


def _chain(text):
    m = matrices.parse_matrix(text)
    violation = enumeration.family_violation(enumeration.FamilyTag.SELF_DUAL, m)
    if violation is not None:
        return f"violation: {violation}"
    signed = bijections.selfdual_to_signed_rm(m)
    return f"{signed.flag}\n{matrices.format_matrix(signed.matrix)}"


def _roundtrip(text):
    m = matrices.parse_matrix(text)
    back = bijections.alpha_inv(bijections.beta_inv(bijections.beta(bijections.alpha(m))))
    return matrices.format_matrix(back)


def _poset(text):
    m = matrices.parse_matrix(text)
    p = posets.fishburn_to_poset(m)
    self_dual = posets.is_self_dual_poset(p)
    back = posets.poset_to_fishburn(p)
    return f"{int(self_dual)}\n{matrices.format_matrix(back)}"


HANDLERS = {"chain": _chain, "roundtrip": _roundtrip, "poset": _poset}


def serve(requests):
    """Answer each (mix, text) request; return (nanoseconds, answer) pairs.

    A request that raises is answered with the error text, which the checks
    count as a failure, and the stream goes on.
    """
    clock = time.perf_counter_ns
    out = []
    for mix, text in requests:
        handler = HANDLERS[mix]
        start = clock()
        try:
            answer = handler(text)
        except Exception as exc:  # one bad request must not end the stream
            answer = f"error: {type(exc).__name__}: {exc}"
        out.append((clock() - start, answer))
    return out


def main():
    answers = serve(decode_batch(sys.stdin.read()))
    sys.stdout.write("".join(json.dumps(pair) + "\n" for pair in answers))


if __name__ == "__main__":
    main()
