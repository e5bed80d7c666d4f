"""Differential tests: realize refuses a broken assignment exactly as the
reference in bruteforce.py does, with the same exception type and
message.  Each case takes a valid packing of a random game and breaks it
in one way."""

from hypothesis import given, settings
from hypothesis import strategies as st

from bruteforce import brute_realize
from edlab.adversary import pack_isomorphic, pack_separation, realize
from test_packing_differential import games, outcome

COVER = ("ValueError", "assignment must cover every element exactly once")


def diverged(p, q) -> bool:
    """Neither path is a prefix of the other."""
    return not (p.startswith(q) or q.startswith(p))


def perturb(data, state, clusters, kind):
    """A copy of `clusters` broken by `kind`, and the refusal it must
    draw, or None where the game offers nothing to break that way."""
    n = len(state.positions)
    out = [list(c) for c in clusters]
    cid = data.draw(st.integers(0, len(out) - 1))
    c = out[cid]
    at = data.draw(st.integers(0, len(c) - 1))
    if kind == "drop":
        del c[at]
        return out, COVER
    if kind == "duplicate":  # one more member, or in place of another
        slots = [(k, j) for k, d in enumerate(out) for j in range(len(d))
                 if (k, j) != (cid, at)]
        if slots and data.draw(st.booleans()):
            k, j = data.draw(st.sampled_from(slots))
            out[k][j] = c[at]
        else:
            out[data.draw(st.integers(0, len(out) - 1))].append(c[at])
        return out, COVER
    if kind in ("minus_one", "n"):
        c[at] = -1 if kind == "minus_one" else n
        return out, COVER
    if kind == "empty":
        out.insert(cid, [])
        return out, ("ValueError", f"cluster {cid} is empty")
    pos = state.positions
    singles = [k for k, c in enumerate(out) if len(c) == 1]
    pairs = [(a, b) for a in singles for b in singles
             if a < b and diverged(pos[out[a][0]], pos[out[b][0]])]
    if not pairs:
        return None
    a, b = data.draw(st.sampled_from(pairs))
    out[a] += out.pop(b)
    return out, ("ValueError", "cluster is not a chain in the tree")


@settings(max_examples=300, deadline=None)
@given(game=games(), data=st.data(),
       kind=st.sampled_from(["drop", "duplicate", "minus_one", "n", "empty",
                             "merge"]))
def test_realize_refuses_like_reference(game, data, kind):
    state, prof, L = game
    bigs, singles = pack_separation(state, L)
    packings = [bigs + singles]
    iso = outcome(pack_isomorphic, state, prof)
    if isinstance(iso[0], list):
        packings.append(iso)
    clusters = data.draw(st.sampled_from(packings))
    assert realize(state, clusters) == brute_realize(state, clusters)
    broken = perturb(data, state, clusters, kind)
    if broken is None:
        return
    bad, refusal = broken
    got = outcome(realize, state, bad)
    assert got == outcome(brute_realize, state, bad)
    assert got == refusal
