"""Seeded request stream for the ``map_requests`` workload, and the checks
on its answers.

A request is one mix name and one matrix in the package's text format.
Inputs sit beyond the sizes enumeration reaches: self-dual matrices with
every row and column nonzero at reduced size 10-30 and dimension up to 12,
and matrices with every row and column nonzero at size 10-24.  Everything
is drawn from ``random.Random(seed)``, so one seed always gives the same
request text.

The checks in this module share no code with the ``fishburn`` package:
they read the answer text with their own parser and test membership and
statistics from the definitions.
"""

import random

MIXES = ("chain", "roundtrip", "poset")

SELF_DUAL_REDUCED = (10, 30)
SELF_DUAL_MAX_DIM = 12
FISHBURN_SIZE = (10, 24)
FISHBURN_MAX_DIM = 8


# --- generation ----------------------------------------------------------------


def _zeros(d):
    return [[0] * d for _ in range(d)]


def _self_dual(rng, reduced_lo, reduced_hi, max_dim):
    """A self-dual matrix with every row and column nonzero.

    The NW-plus-diagonal half gets one unit in each of the first h columns
    and one unit in each of the first h rows (h = ceil(d / 2)), which makes
    the mirrored matrix nonzero in every row and column, then the rest of
    the reduced size lands on uniformly chosen NW or diagonal cells.
    """
    d = rng.randint(1, max_dim)
    h = (d + 1) // 2
    g = _zeros(d)
    for c in range(1, h + 1):
        g[rng.randint(1, c) - 1][c - 1] += 1
    for i in range(1, h + 1):
        if not any(g[i - 1]):
            g[i - 1][rng.randint(i, d + 1 - i) - 1] += 1
    placed = sum(map(sum, g))
    half = [(i, j) for i in range(1, d + 1) for j in range(i, d + 2 - i)]
    for _ in range(rng.randint(max(reduced_lo, placed), reduced_hi) - placed):
        i, j = rng.choice(half)
        g[i - 1][j - 1] += 1
    for i in range(1, d + 1):
        for j in range(i, d + 1):
            if i + j > d + 1:
                g[i - 1][j - 1] = g[d - j][d - i]
    return g


def _fishburn(rng, size_lo, size_hi, max_dim):
    """A matrix with every row and column nonzero, of size in the range."""
    d = rng.randint(1, max_dim)
    g = _zeros(d)
    for i in range(1, d + 1):
        g[i - 1][rng.randint(i, d) - 1] += 1
    for j in range(1, d + 1):
        if not any(row[j - 1] for row in g):
            g[rng.randint(1, j) - 1][j - 1] += 1
    placed = sum(map(sum, g))
    upper = [(i, j) for i in range(1, d + 1) for j in range(i, d + 1)]
    for _ in range(rng.randint(max(size_lo, placed), size_hi) - placed):
        i, j = rng.choice(upper)
        g[i - 1][j - 1] += 1
    return g


def _poset_input(rng):
    """Half the poset requests encode a self-dual interval order, so both
    answers of the self-duality test are exercised."""
    if rng.random() < 0.5:
        return _fishburn(rng, *FISHBURN_SIZE, FISHBURN_MAX_DIM)
    while True:
        g = _self_dual(rng, FISHBURN_SIZE[0] // 2, FISHBURN_SIZE[1] // 2 + 2,
                       FISHBURN_MAX_DIM)
        if FISHBURN_SIZE[0] <= sum(map(sum, g)) <= FISHBURN_SIZE[1]:
            return g


def format_rows(g):
    """Matrix text exactly as ``fishburn.format_matrix`` writes it."""
    return "\n".join([str(len(g))] + [" ".join(map(str, row)) for row in g]) + "\n"


def generate(seed, count):
    """``count`` requests as (mix, matrix text) pairs, mixes in equal shares."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        mix = rng.choice(MIXES)
        if mix == "poset":
            g = _poset_input(rng)
        else:
            g = _self_dual(rng, *SELF_DUAL_REDUCED, SELF_DUAL_MAX_DIM)
        out.append((mix, format_rows(g)))
    return out


def encode_batch(requests):
    """The request text a server reads: per request, the mix name on its own
    line followed by the matrix text."""
    return "".join(f"{mix}\n{text}" for mix, text in requests)


def decode_batch(batch):
    """Inverse of ``encode_batch``."""
    lines = batch.splitlines(keepends=True)
    out = []
    pos = 0
    while pos < len(lines):
        mix = lines[pos].strip()
        d = int(lines[pos + 1])
        out.append((mix, "".join(lines[pos + 1:pos + 2 + d])))
        pos += 2 + d
    return out


# --- independent answer checks -------------------------------------------------


def parse_rows(text):
    lines = text.splitlines()
    d = int(lines[0])
    return [[int(tok) for tok in lines[i].split()] for i in range(1, d + 1)]


def _upper_triangular(g):
    d = len(g)
    return all(len(row) == d for row in g) and all(
        g[i][j] == 0 for i in range(d) for j in range(i))


def _is_mirror_symmetric(g):
    d = len(g)
    return all(g[i][j] == g[d - 1 - j][d - 1 - i] for i in range(d) for j in range(d))


def _diag_cell_sum(g):
    d = len(g)
    return sum(g[i - 1][d - i] for i in range(1, (d + 1) // 2 + 1))


def _reduced_size(g):
    d = len(g)
    return sum(g[i][j] for i in range(d) for j in range(i, d) if i + j <= d - 1)


def check_answer(mix, request_text, answer):
    """None when ``answer`` is right for the request, else why not.

    chain: the image has every row nonzero, keeps the reduced size, carries
    flag 1 exactly when the diagonal-cell sum is 0, and moves (first-row
    sum, diagonal-cell sum) to (last-column sum, first-row sum).
    roundtrip: alpha, beta, beta_inv, alpha_inv return the input.
    poset: the poset leg returns the input, and the poset's self-duality
    agrees with the matrix mirror test.
    """
    if mix == "roundtrip":
        return None if answer == request_text else "round trip changed the matrix"
    head, _, body = answer.partition("\n")
    if head not in ("0", "1"):
        return f"unexpected answer {answer[:60]!r}"
    g = parse_rows(request_text)
    if mix == "poset":
        if body != request_text:
            return "poset leg changed the matrix"
        if (head == "1") != _is_mirror_symmetric(g):
            return "poset self-duality disagrees with the mirror test"
        return None
    image = parse_rows(body)
    if not _upper_triangular(image) or not all(any(row) for row in image):
        return "chain image is not a row-nonzero matrix"
    if sum(map(sum, image)) != _reduced_size(g):
        return "chain image size differs from the reduced size"
    diag = _diag_cell_sum(g)
    if int(head) != (diag == 0):
        return "chain flag does not match the diagonal-cell sum"
    last_col = sum(row[-1] for row in image)
    if last_col != sum(g[0]) or (diag and sum(image[0]) != diag):
        return "chain does not transport the refined statistics"
    return None
