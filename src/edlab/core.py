"""Instances, the comparison-counting oracle, and transcript replay.

Every algorithm in this package works in the comparison model: inputs are
lists of opaque values that may only be inspected through three-way
comparisons.  Values are realized as integer ranks, but only realization
and verification code is allowed to look at them; algorithms receive an
oracle plus index lists and nothing else.  The other readers are the
value evaluators ``sortsel.sort_spans``, ``sortsel.select``,
``algorithms.median_recursion`` and ``setint.si_clairvoyant``: on a
realized instance each computes what its request generator would cost,
and where it would stop, from the values.  The generator's answers are
fixed by the values, so that cost is exactly the count its comparisons
would have made, and the oracle is charged it.  ``tests/test_imports.py``
holds the list of readers.

The oracle counts every comparison.  It records a transcript only when
an adversary answers: a game's transcript is what replay checks against
the instance the adversary realizes, while an instance-mode run has its
instance already and keeps no per-comparison record.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterable, Optional


class Answer(Enum):
    """Outcome of a single three-way comparison."""

    LT = "<"
    EQ = "="
    GT = ">"


_LT, _EQ, _GT = Answer.LT, Answer.EQ, Answer.GT


class Outcome(Enum):
    """Terminal verdict of a run."""

    DUPLICATE = "duplicate"
    DISTINCT = "distinct"
    GAVE_UP = "gave_up"


@dataclass(frozen=True)
class Instance:
    """A list of opaque ordered values, stored as integer ranks.

    Algorithm code must not read ``values`` directly; it goes through a
    CountingOracle.  Realization, verification and replay helpers are the
    only intended readers.
    """

    values: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.values)


@dataclass
class RunReport:
    outcome: Outcome
    witness: Optional[tuple[int, int]]
    comparisons: int
    branch_costs: dict[str, int] = field(default_factory=dict)
    stats: dict = field(default_factory=dict)


Transcript = list  # list of (x, y, Answer) triples


class CountingOracle:
    """Gateway for comparisons: counts them, and records adversary games.

    Two modes: backed by a realized Instance (answers come from value
    ranks) or backed by an adversary hook (answers come from a callable;
    no instance exists until the adversary commits to one).  Only
    adversary mode records a transcript, because only games replay
    their answers on the instance they realize; in instance mode
    ``transcript`` is None.
    """

    __slots__ = ("adversary", "n", "count", "transcript", "_values")

    def __init__(self, instance: Optional[Instance] = None,
                 adversary: Optional[Callable[[int, int], Answer]] = None,
                 n: Optional[int] = None):
        if (instance is None) == (adversary is None):
            raise ValueError("exactly one of instance/adversary required")
        self.adversary = adversary
        self.n = len(instance) if instance is not None else n
        if self.n is None:
            raise ValueError("adversary mode needs an explicit n")
        self.count = 0
        self.transcript: Optional[Transcript] = (
            [] if adversary is not None else None)
        # the instance's values, or None in adversary mode: compare picks
        # its mode with this one load
        self._values = instance.values if instance is not None else None

    def compare(self, x: int, y: int) -> Answer:
        n = self.n
        if x == y:
            raise ValueError(f"comparison of an index with itself: {x}")
        if not (0 <= x < n and 0 <= y < n):
            raise ValueError(f"index out of range: ({x}, {y}) with n={n}")
        vals = self._values
        if vals is None:
            ans = self.adversary(x, y)
            self.count += 1
            self.transcript.append((x, y, ans))
            return ans
        vx, vy = vals[x], vals[y]
        self.count += 1
        return _LT if vx < vy else _GT if vx > vy else _EQ


def realize_instance(profile, seed: int) -> Instance:
    """Build an instance whose duplicate structure matches ``profile``.

    Each cluster receives one of m distinct ranks; both the rank
    assignment and the positions are seed-determined permutations, so the
    same (profile, seed) pair always yields the same instance.
    """
    sizes = tuple(profile.sizes)
    rng = random.Random(seed)
    ranks = list(range(len(sizes)))
    rng.shuffle(ranks)
    vals = []
    for ci, s in enumerate(sizes):
        vals.extend([ranks[ci]] * s)
    rng.shuffle(vals)
    return Instance(tuple(vals))


def verify_graph(instance: Instance, profile) -> bool:
    """True iff the instance's duplicate graph is isomorphic to profile.

    Structural check used by harnesses and tests; it reads values
    directly and performs no oracle comparisons.
    """
    counts = sorted(Counter(instance.values).values())
    return counts == sorted(profile.sizes)


def replay_transcript(instance: Instance, transcript: Iterable) -> bool:
    """Check every recorded answer against the instance's true order."""
    vals = instance.values
    n = len(vals)
    for x, y, ans in transcript:
        if x == y or not (0 <= x < n and 0 <= y < n):
            return False
        vx, vy = vals[x], vals[y]
        truth = _LT if vx < vy else _GT if vx > vy else _EQ
        if truth is not ans:
            return False
    return True


# --- file format: one decimal rank per line --------------------------------

def write_lines(path, lines) -> None:
    """Write each item of ``lines`` on a line of its own: the format of
    instance, profile and (with its section headers) ``.si`` files."""
    with open(path, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(f"{line}\n")


def write_instance(path, instance: Instance) -> None:
    write_lines(path, instance.values)


def parse_int_line(path, lineno: int, text: str) -> int:
    """The integer on a line of ASCII digits with an optional leading
    ``-``, the one form the writers emit, whitespace around it aside.
    Anything else is a ValueError that names ``path:lineno`` and quotes
    at most 40 characters of the line."""
    text = text.strip()
    digits = text[1:] if text.startswith("-") else text
    if digits.isascii() and digits.isdigit():
        try:
            return int(text)
        except ValueError:  # more digits than int() converts
            pass
    shown = text if len(text) <= 40 else text[:40] + "..."
    raise ValueError(f"{path}:{lineno}: expected an integer, got {shown!r}")


def text_lines(path):
    """(line number, stripped text) for each non-blank line of a UTF-8
    text file whose lines end in LF or CRLF.  A line that is not UTF-8
    is a ValueError that names ``path:lineno``; each line is decoded on
    its own, so the position quoted is the byte's within that line."""
    with open(path, "rb") as fh:
        for no, raw in enumerate(fh, 1):
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as err:
                raise ValueError(f"{path}:{no}: {err}") from None
            if line:
                yield no, line


def read_int_lines(path) -> list:
    """(line number, integer) for each non-blank line of a file with one
    integer per line; a file with none is an error that names it."""
    rows = [(no, parse_int_line(path, no, line))
            for no, line in text_lines(path)]
    if not rows:
        raise ValueError(f"{path}: no values in file")
    return rows


def read_instance(path) -> Instance:
    return Instance(tuple(v for _, v in read_int_lines(path)))


def ceil_log2(x: int) -> int:
    """Smallest k with 2**k >= x, for x >= 1.  Integer-exact."""
    if x < 1:
        raise ValueError("ceil_log2 needs x >= 1")
    return (x - 1).bit_length()
