"""The map_requests inputs depend on the seed alone, meet their stated
definitions, and the answer checks refuse wrong answers.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

import json
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
REPO = BENCH.parent
sys.path[:0] = [str(BENCH), str(REPO / "src")]

import mapgen  # noqa: E402
from fishburn import FamilyTag, family_violation, parse_matrix, reduced_size  # noqa: E402


def test_same_seed_same_bytes_other_seed_other_bytes():
    first = mapgen.encode_batch(mapgen.generate(7, 300))
    again = mapgen.encode_batch(mapgen.generate(7, 300))
    other = mapgen.encode_batch(mapgen.generate(8, 300))
    assert first == again
    assert first != other


def test_batch_text_decodes_to_the_requests():
    requests = mapgen.generate(3, 200)
    assert mapgen.decode_batch(mapgen.encode_batch(requests)) == requests


def test_inputs_meet_their_definitions():
    requests = mapgen.generate(11, 600)
    assert {mix for mix, _ in requests} == set(mapgen.MIXES)
    self_dual_posets = 0
    for mix, text in requests:
        m = parse_matrix(text)
        if mix == "poset":
            assert family_violation(FamilyTag.FISHBURN, m) is None
            assert 10 <= m.size() <= 24 and m.dim <= 8
            self_dual_posets += family_violation(FamilyTag.SELF_DUAL, m) is None
        else:
            assert family_violation(FamilyTag.SELF_DUAL, m) is None
            assert 10 <= reduced_size(m) <= 30 and m.dim <= 12
    assert self_dual_posets > 0


def test_checks_refuse_wrong_answers():
    chain = "3\n1 1 0\n0 0 1\n0 0 1\n"
    assert mapgen.check_answer("chain", chain, "1\n2\n0 1\n0 1\n") is None
    assert mapgen.check_answer("chain", chain, "0\n2\n0 1\n0 1\n") is not None
    assert mapgen.check_answer("chain", chain, "1\n2\n1 0\n0 1\n") is not None
    assert mapgen.check_answer("chain", chain, "1\n2\n2 0\n0 0\n") is not None
    assert mapgen.check_answer("chain", chain, "1\n1\n3\n") is not None
    text = "2\n1 1\n0 1\n"
    assert mapgen.check_answer("roundtrip", text, text) is None
    assert mapgen.check_answer("roundtrip", text, "2\n1 1\n0 2\n") is not None
    assert mapgen.check_answer("poset", text, "1\n" + text) is None
    assert mapgen.check_answer("poset", text, "0\n" + text) is not None
    assert mapgen.check_answer("poset", text, "1\n2\n2 0\n0 1\n") is not None


def test_child_needs_only_the_request_text():
    requests = mapgen.generate(5, 40)
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    done = subprocess.run(
        [sys.executable, str(BENCH / "map_child.py")], cwd=REPO, env=env,
        input=mapgen.encode_batch(requests), capture_output=True, text=True,
        timeout=120, check=True)
    answers = [json.loads(line) for line in done.stdout.splitlines()]
    assert len(answers) == len(requests)
    for (mix, text), (ns, answer) in zip(requests, answers):
        assert ns > 0
        assert mapgen.check_answer(mix, text, answer) is None
