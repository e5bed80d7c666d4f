"""Oracle counting, realization, verification and transcript replay."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edlab.core import (Answer, CountingOracle, Instance, Outcome,
                        ceil_log2, parse_int_line, read_instance,
                        realize_instance, replay_transcript, verify_graph,
                        write_instance)
from edlab.profiles import ClusterProfile

sizes_lists = st.lists(st.integers(min_value=1, max_value=9), min_size=1,
                       max_size=12)


def test_equal_pair_answers_eq():
    o = CountingOracle(instance=Instance((5, 5)))
    assert o.compare(0, 1) is Answer.EQ
    assert o.count == 1


def test_ordered_pair_both_directions():
    o = CountingOracle(instance=Instance((1, 2)))
    assert o.compare(0, 1) is Answer.LT
    assert o.count == 1
    assert o.compare(1, 0) is Answer.GT
    assert o.count == 2
    assert o.transcript is None  # instance mode records no transcript


def test_self_and_out_of_range_comparisons_rejected():
    o = CountingOracle(instance=Instance((1, 2)))
    with pytest.raises(ValueError):
        o.compare(1, 1)
    with pytest.raises(ValueError):
        o.compare(0, 2)
    with pytest.raises(ValueError):
        o.compare(-1, 0)
    assert o.count == 0  # rejected calls are not charged


def test_oracle_constructor_contract():
    with pytest.raises(ValueError):
        CountingOracle()
    with pytest.raises(ValueError):
        CountingOracle(instance=Instance((1,)), adversary=lambda x, y: Answer.LT)
    with pytest.raises(ValueError):
        CountingOracle(adversary=lambda x, y: Answer.LT)  # needs n


def test_adversary_mode_uses_callback():
    calls = []

    def hook(x, y):
        calls.append((x, y))
        return Answer.GT

    o = CountingOracle(adversary=hook, n=4)
    assert o.compare(2, 3) is Answer.GT
    assert calls == [(2, 3)]
    assert o.transcript == [(2, 3, Answer.GT)]


def test_adversary_mode_charges_only_answered_comparisons():
    def hook(x, y):
        if x == 0:
            raise RuntimeError("no answer")
        return Answer.LT

    o = CountingOracle(adversary=hook, n=3)
    with pytest.raises(RuntimeError):
        o.compare(0, 1)
    assert o.count == 0 and o.transcript == []
    assert o.compare(1, 2) is Answer.LT
    assert o.count == 1 and o.transcript == [(1, 2, Answer.LT)]


def test_realize_single_pair():
    inst = realize_instance(ClusterProfile([2]), seed=0)
    assert len(inst) == 2
    assert inst.values[0] == inst.values[1]


def test_realize_all_distinct():
    inst = realize_instance(ClusterProfile([1, 1, 1]), seed=0)
    assert len(set(inst.values)) == 3


def test_realize_matches_profile():
    prof = ClusterProfile([3, 1, 1, 1])
    inst = realize_instance(prof, seed=7)
    assert verify_graph(inst, prof)


def test_realize_is_deterministic():
    prof = ClusterProfile([4, 2, 2])
    a = realize_instance(prof, seed=3)
    b = realize_instance(prof, seed=3)
    assert a.values == b.values


def test_verify_graph_examples():
    assert verify_graph(Instance((5, 5, 9)), ClusterProfile([2, 1]))
    assert not verify_graph(Instance((5, 5, 9)), ClusterProfile([3]))


def test_realize_verify_round_trip_100_seeds():
    prof = ClusterProfile([4, 2, 2])
    for seed in range(100):
        assert verify_graph(realize_instance(prof, seed), prof)


@settings(max_examples=60)
@given(sizes=sizes_lists, seed=st.integers(min_value=0, max_value=10**6))
def test_realize_verify_round_trip_random(sizes, seed):
    prof = ClusterProfile(sizes)
    inst = realize_instance(prof, seed)
    assert len(inst) == sum(sizes)
    assert verify_graph(inst, prof)


def test_replay_empty_transcript():
    assert replay_transcript(Instance((3, 1, 4)), [])


def test_replay_truthful_and_false_answers():
    inst = Instance((1, 2))
    assert replay_transcript(inst, [(0, 1, Answer.LT)])
    assert not replay_transcript(inst, [(0, 1, Answer.GT)])
    assert not replay_transcript(inst, [(0, 1, Answer.EQ)])
    assert not replay_transcript(inst, [(0, 0, Answer.EQ)])  # degenerate pair
    assert not replay_transcript(inst, [(0, 5, Answer.LT)])  # out of range


@settings(max_examples=40)
@given(sizes=sizes_lists, seed=st.integers(min_value=0, max_value=10**6),
       pairs=st.lists(st.tuples(st.integers(0, 30), st.integers(0, 30)),
                      max_size=40))
def test_replay_accepts_every_real_transcript(sizes, seed, pairs):
    inst = realize_instance(ClusterProfile(sizes), seed)
    o = CountingOracle(instance=inst)
    n = len(inst)
    answered = [(x, y, o.compare(x, y)) for x, y in pairs
                if x != y and x < n and y < n]
    assert o.count == len(answered) and o.transcript is None
    assert replay_transcript(inst, answered)


def test_instance_file_round_trip(tmp_path):
    inst = Instance((3, 0, 2, 2, 1))
    p = tmp_path / "inst"
    write_instance(p, inst)
    assert read_instance(p) == inst


@pytest.mark.parametrize("text, value", [
    ("0", 0), ("17", 17), ("-4", -4), ("007", 7), ("  12 \n", 12),
    ("9" * 4000, int("9" * 4000))])
def test_parse_int_line_reads_ascii_digits(text, value):
    assert parse_int_line("f", 1, text) == value


# the writers emit str(int); int() reads the first four of these too
@pytest.mark.parametrize("text", [
    "1_0", "\u0661\u0662", "+3", "\uff13", "1 2", "-", "--1", "0x10", "",
    "3.0"])
def test_parse_int_line_refuses_other_spellings(text):
    with pytest.raises(ValueError) as err:
        parse_int_line("f", 2, text)
    assert str(err.value) == f"f:2: expected an integer, got {text!r}"


def test_parse_int_line_quotes_a_long_line_in_part():
    with pytest.raises(ValueError) as err:
        parse_int_line("f", 3, "9" * 5000)
    shown = "9" * 40 + "..."
    assert str(err.value) == f"f:3: expected an integer, got {shown!r}"


def test_a_file_that_is_not_utf8_is_named_with_its_line(tmp_path):
    p = tmp_path / "late.inst"
    p.write_bytes(b"1\r\n" * 6000 + b"2\xff\n")
    with pytest.raises(ValueError) as err:
        read_instance(p)
    assert str(err.value) == (f"{p}:6001: 'utf-8' codec can't decode byte "
                              "0xff in position 1: invalid start byte")


def test_outcome_labels():
    assert Outcome.DUPLICATE.value == "duplicate"
    assert Outcome.DISTINCT.value == "distinct"
    assert Outcome.GAVE_UP.value == "gave_up"


@given(st.integers(min_value=1, max_value=10**9))
def test_log2_helpers_match_float_math(x):
    assert ceil_log2(x) == math.ceil(math.log2(x)) or 2 ** ceil_log2(x) >= x > 2 ** (ceil_log2(x) - 1)
    assert 2 ** ceil_log2(x) >= x and (x == 1 or 2 ** (ceil_log2(x) - 1) < x)


def test_log2_helpers_reject_nonpositive():
    with pytest.raises(ValueError):
        ceil_log2(0)
