"""Golden digests of chain packing, reconstruction and realization.

For a fixed grid of (n, random_multicluster_profile mode, duel opponent)
this pins sha256 digests of the clusters that pack_isomorphic,
pack_separation and reconstruct return and of the values realize reads
off them.  Any change to how the adversary packs or realizes must leave
every digest unchanged.  After a deliberate change to the packed output,
print a new GOLDEN table with

    PYTHONPATH=src python tests/test_golden_packing.py
"""

import hashlib
import math
import random

import pytest

from edlab.adversary import (few_deep_index, pack_isomorphic,
                             pack_separation, play_game, realize,
                             reconstruct)
from edlab.harness import (DUEL_ALGOS, duel_opponent,
                           random_multicluster_profile,
                           reconstruction_budget, separation_row)
from edlab.profiles import ClusterProfile, lower_bound_median

SIZES = (256, 512, 1024)
SMALL_L = 3
CASES = [(n, mode, opp) for n in SIZES for mode in range(4)
         for opp in DUEL_ALGOS]


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def _outcome(state, pack):
    """pack() -> (clusters, extra); the clusters, extra and realized
    values, or the RuntimeError a packer may raise past its budget."""
    try:
        clusters, extra = pack()
    except RuntimeError as exc:
        return repr(exc)
    return extra, clusters, realize(state, clusters).values


def _separation(state, L):
    bigs, singles = pack_separation(state, L)
    return bigs + singles, len(bigs)


def case_digests(n, mode, opp) -> dict:
    """One digest per packer over the games of one grid point.

    The games stop at five budgets: the criterion-5 one (packing is
    promised), the reconstruction one (reconstruction is promised),
    n/16, n/8 and the separation budget n*loglog(n)/8.  Past its own
    budget a packer may raise, and the error is pinned too.
    pack_separation runs with the few-deep L of separation_row and with
    SMALL_L, which extracts many short chains.
    """
    prof = ClusterProfile(random_multicluster_profile(
        random.Random(f"golden:{n}:{mode}"), n, mode))
    opponent = duel_opponent(opp, prof)
    full = int(n * math.log2(math.log2(n)) / 8)
    budgets = (min(full, int(lower_bound_median(prof))),
               reconstruction_budget(prof), n // 16, n // 8, full)
    out = {"iso": [], "rec": [], "sep": [], "sep_small": []}
    for rounds in budgets:
        state = play_game(opponent, n, rounds)
        i = few_deep_index(state, n)
        L = n // 2 ** (2 ** (i - 1))
        out["iso"].append(
            _outcome(state, lambda: (pack_isomorphic(state, prof), None)))
        out["rec"].append(_outcome(state, lambda: reconstruct(state, prof)))
        out["sep"].append(_outcome(state, lambda: _separation(state, L)))
        out["sep_small"].append(
            _outcome(state, lambda: _separation(state, SMALL_L)))
    return {key: _digest(v) for key, v in out.items()}


GOLDEN = {
    '256-0-block': {
        'iso': '1942b2762da2719d', 'rec': '9cf0b91c16c255b7',
        'sep': 'e596589a9fa2c7ad', 'sep_small': 'bb7b76e25c5c4a60'},
    '256-0-median': {
        'iso': 'bc4c9d580b1a5882', 'rec': '3459efdfb1e388a7',
        'sep': 'ea6369f4f8d8c138', 'sep_small': 'eeea9dcb582abc26'},
    '256-0-oblivious': {
        'iso': 'ecc123370e82f576', 'rec': 'e348299b77f61c22',
        'sep': '383c9b845b77f316', 'sep_small': 'ca81a45aebce26a9'},
    '256-0-doubling': {
        'iso': '8607fc81474e5de3', 'rec': '9ce5a075269741b3',
        'sep': 'f7716d44a773c0ca', 'sep_small': '01b8892f15311f27'},
    '256-1-block': {
        'iso': '94c24ed999e05a52', 'rec': 'a78507b6f951c114',
        'sep': 'ea14de6827bc6cdf', 'sep_small': '0bae4eacefa2fb64'},
    '256-1-median': {
        'iso': 'b62585205209fb00', 'rec': '2dca7664c0cf8cbc',
        'sep': '6afe3f8fc13aacaa', 'sep_small': 'd7d5fe73e2726ebb'},
    '256-1-oblivious': {
        'iso': '80d0275ed95b46df', 'rec': 'ef88c003daff932f',
        'sep': '79d37623dfe36a12', 'sep_small': '48ce12d55d16e276'},
    '256-1-doubling': {
        'iso': '8996992c9f92ff3f', 'rec': '7657b1900cfdfe3e',
        'sep': '318d3caf82a81d01', 'sep_small': '156076adccbd4abd'},
    '256-2-block': {
        'iso': '3e026ac15a0ffa8f', 'rec': 'caed7c7ecb83042d',
        'sep': '32895f2f7ef52e2a', 'sep_small': 'a8c4f6e03449a26f'},
    '256-2-median': {
        'iso': '3e026ac15a0ffa8f', 'rec': '8e2ef035ad9186a1',
        'sep': '680cbf44e30a9ea8', 'sep_small': '4aa45e0f704587f2'},
    '256-2-oblivious': {
        'iso': '3e026ac15a0ffa8f', 'rec': '2ad8960f4bea6a96',
        'sep': '79d37623dfe36a12', 'sep_small': '48ce12d55d16e276'},
    '256-2-doubling': {
        'iso': '3e026ac15a0ffa8f', 'rec': 'f5adb4ecd4f96ce0',
        'sep': '318d3caf82a81d01', 'sep_small': '156076adccbd4abd'},
    '256-3-block': {
        'iso': '57f7d7605929b4cc', 'rec': '81e8752f306b4d30',
        'sep': 'c3b60831a0134fb7', 'sep_small': '6e5657a910afc97f'},
    '256-3-median': {
        'iso': '57f7d7605929b4cc', 'rec': '81e8752f306b4d30',
        'sep': '2f272e510f7e1589', 'sep_small': '47394ff2043b05a8'},
    '256-3-oblivious': {
        'iso': '57f7d7605929b4cc', 'rec': '9f3ad97b50abb6a2',
        'sep': '0b42017b4eba7f6f', 'sep_small': '3750f7698178e4ff'},
    '256-3-doubling': {
        'iso': '57f7d7605929b4cc', 'rec': '81e8752f306b4d30',
        'sep': '1a21b03a458bb547', 'sep_small': '6ba4f93e2d52f983'},
    '512-0-block': {
        'iso': '33cdc3a9ea3210ea', 'rec': 'ad1272e4dc092664',
        'sep': 'dbaf639b5dca13a9', 'sep_small': 'b8d9d6572bcb1d86'},
    '512-0-median': {
        'iso': '639e52f2e6b5399d', 'rec': '1007f1ab1c2dabb0',
        'sep': '12d4653406651493', 'sep_small': '1e8ba0917993c84f'},
    '512-0-oblivious': {
        'iso': 'c8228939a5c2032d', 'rec': '57af93d16f25e5f0',
        'sep': 'b7b05c8a57cc4b86', 'sep_small': '6765b51fb313a230'},
    '512-0-doubling': {
        'iso': '8fa83ab207ea22ae', 'rec': '08c016f6e4e73420',
        'sep': '34fdc87617d35023', 'sep_small': '76a7d6854f326f4c'},
    '512-1-block': {
        'iso': '7889dfecfb1a59ea', 'rec': '90e86437a743c4d5',
        'sep': '4e692ada8b880f72', 'sep_small': '04460a8fc1c345d4'},
    '512-1-median': {
        'iso': 'da5ab7f37f6bd9ff', 'rec': 'a60c0ddcb61eedb9',
        'sep': '30b98dc1349e18d7', 'sep_small': 'e4de48e112cf7fb6'},
    '512-1-oblivious': {
        'iso': 'fbcf3a88f4c80fe4', 'rec': 'a607a7f9c410e8b7',
        'sep': '4592f7836c0a19ac', 'sep_small': '854c9650d7d64263'},
    '512-1-doubling': {
        'iso': '5ae7c58519539d2b', 'rec': '1e49a8c08b5ea8dc',
        'sep': 'ade92e6d85b9d9a6', 'sep_small': 'a1c33d1da9b68927'},
    '512-2-block': {
        'iso': 'eda05ebeec205550', 'rec': 'ef7f5ffd03b03087',
        'sep': 'fa2bf0006914839b', 'sep_small': 'cf57547e354fcbc1'},
    '512-2-median': {
        'iso': 'eda05ebeec205550', 'rec': 'a0c179e2877e4923',
        'sep': '4344e2e179209cfe', 'sep_small': 'f9e5b14f594067f5'},
    '512-2-oblivious': {
        'iso': 'eda05ebeec205550', 'rec': 'b8f74b4e2edfa645',
        'sep': '52ab5d9f4907e161', 'sep_small': '35adcaa9e412a946'},
    '512-2-doubling': {
        'iso': 'eda05ebeec205550', 'rec': '54c78d6b0af7f872',
        'sep': '0d9e60e618aae904', 'sep_small': '62a931aa7caebe0d'},
    '512-3-block': {
        'iso': 'b7af966aa3a2fd10', 'rec': '00cf8479891b95ce',
        'sep': 'e1a48b1a5dcfff4d', 'sep_small': 'ce8761d6f39a0513'},
    '512-3-median': {
        'iso': 'b7af966aa3a2fd10', 'rec': '9f1b150b06aaf466',
        'sep': 'f5ad4976ee8a160d', 'sep_small': 'a3c49b696cdd509f'},
    '512-3-oblivious': {
        'iso': 'b7af966aa3a2fd10', 'rec': '3145189130ac186b',
        'sep': 'fd5a9efbdee2f64e', 'sep_small': 'cbd904f9dda0f09a'},
    '512-3-doubling': {
        'iso': 'b7af966aa3a2fd10', 'rec': '00cf8479891b95ce',
        'sep': '777bddc4496fc22f', 'sep_small': '29db0fe66a82cb37'},
    '1024-0-block': {
        'iso': 'e8fe951deb891e9a', 'rec': '3bff53200b5db7ff',
        'sep': 'be4dba395b7f6660', 'sep_small': '2055b36eb7d13912'},
    '1024-0-median': {
        'iso': '74f8f23c23182173', 'rec': '6fc4d234c80c8ce3',
        'sep': 'e9e9737525ae4c54', 'sep_small': '5d223a547062e9ed'},
    '1024-0-oblivious': {
        'iso': '372b66b151d1bfa9', 'rec': '0b406759d0b517c2',
        'sep': '1ee65454031a5361', 'sep_small': 'a2b4ef713a477df1'},
    '1024-0-doubling': {
        'iso': 'e2009f0503300e14', 'rec': '4c1b2ea3fbe37b49',
        'sep': 'f10b90c502827e8e', 'sep_small': '2aa900c0c30652f1'},
    '1024-1-block': {
        'iso': '4f1770cdea62aa6e', 'rec': '5a7b97e034c6996f',
        'sep': '05b7cc8aa112d03f', 'sep_small': 'e2e379620a11834d'},
    '1024-1-median': {
        'iso': 'b345000d4635be3d', 'rec': '723063e1d56e7d8d',
        'sep': 'e0e7a1a02dab6f25', 'sep_small': 'c99b269fd65daa37'},
    '1024-1-oblivious': {
        'iso': 'f4ab60ac6deda889', 'rec': '6c1807fd3da55601',
        'sep': '7bab593ef05b852e', 'sep_small': '063382bfe9f08b1d'},
    '1024-1-doubling': {
        'iso': '7c8ea70e01edac78', 'rec': 'c9b5bf476272b8f9',
        'sep': 'db6bca2d99fe39db', 'sep_small': '256ae6744f6860a1'},
    '1024-2-block': {
        'iso': '1f79d0baae343901', 'rec': 'd1675ff9252ba934',
        'sep': '9a7da2d7462106c9', 'sep_small': '23bd5077cbf5973c'},
    '1024-2-median': {
        'iso': 'b0efa6693907ee86', 'rec': '6b8eaf342396b5e5',
        'sep': '42c0c3a86cf410bf', 'sep_small': 'da7181de5eeb9076'},
    '1024-2-oblivious': {
        'iso': '1f79d0baae343901', 'rec': '1b3e17ebba49de88',
        'sep': '1794563ce1968180', 'sep_small': 'cd571f9182c2641c'},
    '1024-2-doubling': {
        'iso': '1f79d0baae343901', 'rec': '3b66e8cff6986f96',
        'sep': '6f49f8b4519a2ad2', 'sep_small': '40cbc536348a4d71'},
    '1024-3-block': {
        'iso': 'a1c60fe52135973e', 'rec': 'd0dbdbbf6ba7b998',
        'sep': '9670a371bb1595d5', 'sep_small': 'af1a99c5ba6c87bf'},
    '1024-3-median': {
        'iso': 'a1c60fe52135973e', 'rec': 'd0dbdbbf6ba7b998',
        'sep': '1c00b710d559d94b', 'sep_small': '1ac1d67813368aac'},
    '1024-3-oblivious': {
        'iso': 'a1c60fe52135973e', 'rec': 'd0dbdbbf6ba7b998',
        'sep': '66cc131aecb54378', 'sep_small': '998d014822a6dd7d'},
    '1024-3-doubling': {
        'iso': 'a1c60fe52135973e', 'rec': 'd0dbdbbf6ba7b998',
        'sep': 'cd3df28ce55bf80a', 'sep_small': '0c81f0c78819220e'},
}

SEPARATION_4096 = [4096, 1835, 1, 2048, True, 11242, '0.1632', True]


@pytest.mark.parametrize("n,mode,opp", CASES)
def test_golden_packing(n, mode, opp):
    assert case_digests(n, mode, opp) == GOLDEN[f"{n}-{mode}-{opp}"]


def test_golden_separation_row_4096():
    row, bad, _ = separation_row(4096)
    assert bad is None
    assert row == SEPARATION_4096


if __name__ == "__main__":
    print("GOLDEN = {")
    for case in CASES:
        pairs = [f"{k!r}: {v!r}" for k, v in case_digests(*case).items()]
        print(f"    {'-'.join(map(str, case))!r}: {{")
        print(f"        {', '.join(pairs[:2])},")
        print(f"        {', '.join(pairs[2:])}}},")
    print("}")
    print()
    print(f"SEPARATION_4096 = {separation_row(4096)[0]!r}")
