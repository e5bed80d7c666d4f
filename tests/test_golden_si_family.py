"""Golden digests of realized set-intersection family instances.

For n in {8, 64, 512, 4096}, i in {1, a middle value, s}, two seeds and
both partner_last values this pins a sha256 digest of the A and B values
that realize_si_family returns.  Any change to how the family or its
profile check is built must leave every entry unchanged.  After a
deliberate change to the realized values, print a new GOLDEN table with

    PYTHONPATH=src python tests/test_golden_si_family.py
"""

import hashlib

import pytest

from edlab.setint import realize_si_family, si_shape

SIZES = (8, 64, 512, 4096)
SEEDS = (0, 7)


def _family_indices(n):
    s, _ = si_shape(n)
    return sorted({1, (s + 1) // 2, s})


CASES = [(n, i, seed, last) for n in SIZES for i in _family_indices(n)
         for seed in SEEDS for last in (False, True)]


def case_digest(n, i, seed, last) -> str:
    inst = realize_si_family(n, i, seed=seed, partner_last=last)
    return hashlib.sha256(
        repr((inst.a_values, inst.b_values)).encode()).hexdigest()[:16]


def _key(n, i, seed, last):
    return f"{n}-{i}-{seed}-{'last' if last else 'any'}"


GOLDEN = {
    '8-1-0-any': '30398cdd1c10736c',
    '8-1-0-last': '795e22887708ae80',
    '8-1-7-any': 'bdf13223a92def69',
    '8-1-7-last': '3015bd60249e1367',
    '8-2-0-any': '8c4f9d0cf51cb07b',
    '8-2-0-last': '21dc1bcc0f4eaa6d',
    '8-2-7-any': '088610000390b28c',
    '8-2-7-last': 'de05ce493b5f9f47',
    '64-1-0-any': 'd60f0771327d25c8',
    '64-1-0-last': '6af54ad0bd3839c7',
    '64-1-7-any': '2685d4d70696bbe7',
    '64-1-7-last': '15396f4ab4cf4895',
    '64-2-0-any': 'a7fa9b0b691fe239',
    '64-2-0-last': '8bc337166ca66039',
    '64-2-7-any': '2c447af17402f9b1',
    '64-2-7-last': 'acc9be4c2fe6b6ea',
    '64-4-0-any': '58fadb465b198580',
    '64-4-0-last': '8be56ac139f065ab',
    '64-4-7-any': '995c4961803b380e',
    '64-4-7-last': 'b220d75456d40689',
    '512-1-0-any': '44e1745e10b799c6',
    '512-1-0-last': 'bdb9cbab854a2459',
    '512-1-7-any': '7a782c7c4c07102d',
    '512-1-7-last': '63fdde4a60eca265',
    '512-4-0-any': '38aef05ed5656623',
    '512-4-0-last': '1689f166e27c7387',
    '512-4-7-any': 'a371fbf78678049b',
    '512-4-7-last': '214ce63fe6ce0fe4',
    '512-8-0-any': 'e4568a6d70282cf7',
    '512-8-0-last': '77647625b7b9a36f',
    '512-8-7-any': '447f5ab85aa276dd',
    '512-8-7-last': 'db00d015b5cfc070',
    '4096-1-0-any': 'ca69835187f5901c',
    '4096-1-0-last': '7247ff4223aabf13',
    '4096-1-7-any': '7a03fceae0455c20',
    '4096-1-7-last': 'bdfe6505041d87af',
    '4096-8-0-any': '98aae5f558224810',
    '4096-8-0-last': '39d580de9e948515',
    '4096-8-7-any': '0909b55ad03edf26',
    '4096-8-7-last': '7a6dbea0ea3c4f73',
    '4096-16-0-any': 'a6405e4d037ddaf1',
    '4096-16-0-last': '7b24cb0803b24680',
    '4096-16-7-any': '5e85f5fd8afce1a8',
    '4096-16-7-last': '2701125f66bc88bf',
}


@pytest.mark.parametrize("n,i,seed,last", CASES)
def test_golden_si_family(n, i, seed, last):
    assert case_digest(n, i, seed, last) == GOLDEN[_key(n, i, seed, last)]


if __name__ == "__main__":
    print("GOLDEN = {")
    for case in CASES:
        print(f"    {_key(*case)!r}: {case_digest(*case)!r},")
    print("}")
