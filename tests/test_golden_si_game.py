"""Golden digests of the bipartite (set-intersection) adversary game.

For n in {8, 64, 512, 4096} and four opponents this pins j, the rounds
played, whether the opponent finished, and sha256 digests of the
transcript and of the realized A and B values of si_adversary_game.
Any change to how the bipartite adversary answers or realizes must
leave every entry unchanged.  After a deliberate change to the game's
output, print a new GOLDEN table with

    PYTHONPATH=src python tests/test_golden_si_game.py
"""

import hashlib
import random

import pytest

from edlab.adversary import si_adversary_game
from edlab.setint import si_doubling_gen
from edlab.sortsel import merge_sort_gen

SIZES = (8, 64, 512, 4096)


def trivial(n):
    return
    yield  # generator body is intentionally unreachable


def joint_sort(n):
    # one flat sort of A and B together; only cross ties matter
    return merge_sort_gen(list(range(2 * n)), cross_at=n)


def si_doubling(n):
    return si_doubling_gen(n, n)


def probe(n):
    """Pair each B-element with its successor, larger index first, so
    B-element 0 steps right and j moves off 1; then seeded random
    pairs over the whole index space until the budget cuts it off."""
    for b in range(n, 2 * n - 1, 2):
        yield b + 1, b
    rng = random.Random(n)
    while True:
        x = rng.randrange(2 * n)
        y = rng.randrange(2 * n - 1)
        yield x, y + (y >= x)


OPPONENTS = {"trivial": trivial, "joint_sort": joint_sort,
             "si_doubling": si_doubling, "probe": probe}
CASES = [(n, opp) for n in SIZES for opp in OPPONENTS]


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def case_record(n, opp) -> dict:
    rep = si_adversary_game(OPPONENTS[opp], n)
    inst = rep.instance
    return {"j": rep.j, "rounds": rep.rounds_played,
            "finished": rep.opponent_finished,
            "transcript": _digest(rep.transcript),
            "values": _digest((inst.a_values, inst.b_values))}


GOLDEN = {
    '8-trivial': {
        'j': 1, 'rounds': 0, 'finished': True,
        'transcript': '4f53cda18c2baa0c', 'values': 'a709255a89a322cf'},
    '8-joint_sort': {
        'j': 1, 'rounds': 4, 'finished': False,
        'transcript': '82c41eb3d04eebca', 'values': 'a709255a89a322cf'},
    '8-si_doubling': {
        'j': 1, 'rounds': 4, 'finished': False,
        'transcript': 'bd56f7dfd9c1cb21', 'values': 'e82af58d81be1d8e'},
    '8-probe': {
        'j': 2, 'rounds': 4, 'finished': False,
        'transcript': '9d2d30cffd91c70e', 'values': 'efd6ac8c551de463'},
    '64-trivial': {
        'j': 1, 'rounds': 0, 'finished': True,
        'transcript': '4f53cda18c2baa0c', 'values': 'f5973b3af9dee873'},
    '64-joint_sort': {
        'j': 1, 'rounds': 64, 'finished': False,
        'transcript': 'b3916f1acc63867f', 'values': 'f5973b3af9dee873'},
    '64-si_doubling': {
        'j': 1, 'rounds': 64, 'finished': False,
        'transcript': '86e0b7e68f8f4c73', 'values': '480558a6ff568b84'},
    '64-probe': {
        'j': 3, 'rounds': 64, 'finished': False,
        'transcript': '3f79b3432ca83693', 'values': 'ce3d526fbc75b89e'},
    '512-trivial': {
        'j': 1, 'rounds': 0, 'finished': True,
        'transcript': '4f53cda18c2baa0c', 'values': '70a1b18deee1a049'},
    '512-joint_sort': {
        'j': 1, 'rounds': 768, 'finished': False,
        'transcript': '2b8874de4b76942c', 'values': '70a1b18deee1a049'},
    '512-si_doubling': {
        'j': 1, 'rounds': 768, 'finished': False,
        'transcript': 'ba16823ca9091084', 'values': 'bfd833e0e77e4e1c'},
    '512-probe': {
        'j': 5, 'rounds': 768, 'finished': False,
        'transcript': '2675bf9e6b433a2b', 'values': 'be6329e61ed83eff'},
    '4096-trivial': {
        'j': 1, 'rounds': 0, 'finished': True,
        'transcript': '4f53cda18c2baa0c', 'values': 'cf63930d40d4b7dd'},
    '4096-joint_sort': {
        'j': 1, 'rounds': 8192, 'finished': False,
        'transcript': 'd42e2c5e17497eeb', 'values': 'cf63930d40d4b7dd'},
    '4096-si_doubling': {
        'j': 1, 'rounds': 8192, 'finished': False,
        'transcript': 'ae4971428b040759', 'values': '24be8c8c970afbee'},
    '4096-probe': {
        'j': 9, 'rounds': 8192, 'finished': False,
        'transcript': '4382331374c8b93e', 'values': 'c5166c2a47724c57'},
}


@pytest.mark.parametrize("n,opp", CASES)
def test_golden_si_game(n, opp):
    assert case_record(n, opp) == GOLDEN[f"{n}-{opp}"]


if __name__ == "__main__":
    print("GOLDEN = {")
    for case in CASES:
        rec = case_record(*case)
        print(f"    '{case[0]}-{case[1]}': {{")
        print(f"        'j': {rec['j']}, 'rounds': {rec['rounds']}, "
              f"'finished': {rec['finished']},")
        print(f"        'transcript': {rec['transcript']!r}, "
              f"'values': {rec['values']!r}}},")
    print("}")
