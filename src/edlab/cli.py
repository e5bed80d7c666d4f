"""Command-line front end.

Verbs: gen, run, duel, sweep-competitive, sweep-separation, check-bounds,
si, profile.  Results are CSV (comma-separated, header row, LF); the
process exits 0 iff every checked invariant held, otherwise it prints
the first violation on stderr and exits 1.  Bad input also exits 1,
with one `Error:` line instead of a traceback.  EDLAB_SEED overrides
any --seed flag.
"""

from __future__ import annotations

import csv
import functools
import sys

import click

from . import harness
from .core import read_instance
from .profiles import read_profile

def _exit_on(violations):
    if violations:
        click.echo(f"violation: {violations[0]}", err=True)
        sys.exit(1)


def _rows(verb):
    """A CSV verb: adds the last option, --out, and writes the (header,
    rows, violations) that ``verb`` returns as CSV with LF endings, to
    stdout or to --out, then exits 1 on the first violation."""

    @click.option("--out", type=click.Path(), default=None)
    @functools.wraps(verb)
    def write(out, **params):
        header, rows, violations = verb(**params)
        fh = open(out, "w", encoding="utf-8", newline="") if out else sys.stdout
        try:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(header)
            w.writerows(rows)
        finally:
            if out:
                fh.close()
        _exit_on(violations)

    return write


def _kv(option, pairs, keys):
    """{key: int} from ``option``'s key=value tokens, which must give each
    of ``keys`` once; anything else is one error that names the option."""
    out = {}
    for key, _, val in (tok.partition("=") for tok in pairs):
        if key not in keys or key in out:
            break
        try:
            out[key] = int(val)
        except ValueError:
            break
    if not len(out) == len(pairs) == len(keys):
        want = " ".join(f"{k}=<int>" for k in keys)
        raise ValueError(f"{option} expects {want}, got {' '.join(pairs)!r}")
    return out


def _parse_ns(text):
    """The sizes of a comma-separated --ns: one or more integers."""
    try:
        ns = tuple(int(tok) for tok in text.split(",") if tok)
    except ValueError:
        ns = ()
    if not ns:
        raise ValueError(
            f"--ns expects comma-separated integers, got {text!r}")
    return ns


class _Group(click.Group):
    """Reports a ValueError or OSError from any verb as `Error: <msg>`.

    Either one exits 1 without a traceback.
    """

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (ValueError, OSError) as exc:
            raise click.ClickException(str(exc)) from None


@click.group(cls=_Group)
def main():
    """Comparison-counting laboratory for duplicate detection."""
    harness.effective_seed(0)  # a bad EDLAB_SEED fails every verb


@main.command()
@click.option("--profile-random", nargs=2, type=str, default=None,
              help="random power-law profile, e.g. --profile-random m=8 n=64")
@click.option("--clique", type=str, default=None,
              help="single-cluster profile, e.g. --clique n=16")
@click.option("--seed", type=int, default=0)
@click.option("--out-dir", type=click.Path(), default=".")
def gen(profile_random, clique, seed, out_dir):
    """Write a profile file and a realized instance file."""
    if (profile_random is None) == (clique is None):
        raise click.UsageError("pass exactly one of --profile-random/--clique")
    if clique is not None:
        params = _kv("--clique", [clique], ("n",))
        paths, violations = harness.cmd_gen(out_dir, clique_n=params["n"],
                                            seed=seed)
    else:
        params = _kv("--profile-random", profile_random, ("m", "n"))
        paths, violations = harness.cmd_gen(out_dir, random_m=params["m"],
                                            random_n=params["n"], seed=seed)
    for p in paths:
        click.echo(p)
    _exit_on(violations)


@main.command()
@click.option("--algo", type=click.Choice(harness.RUN_ALGOS), required=True)
@click.option("--input", "input_path", type=click.Path(exists=True),
              required=True)
@click.option("--k", type=int, default=None)
@click.option("--l", "--L", "l_param", type=int, default=None)
@click.option("--profile", "profile_path", type=click.Path(exists=True),
              default=None)
@_rows
def run(algo, input_path, k, l_param, profile_path):
    """Run one algorithm on one instance file; emit a RunReport row."""
    inst = read_instance(input_path)
    prof = read_profile(profile_path) if profile_path else None
    return harness.cmd_run(algo, inst, prof, k=k, L=l_param)


@main.command()
@click.option("--algo", type=click.Choice(harness.DUEL_ALGOS), required=True)
@click.option("--profile", "profile_path", type=click.Path(exists=True),
              required=True)
@click.option("--rounds", type=int, default=None,
              help="round budget; default keeps reconstruction guaranteed")
@_rows
def duel(algo, profile_path, rounds):
    """Play an algorithm against the adaptive adversary, then realize."""
    prof = read_profile(profile_path)
    return harness.cmd_duel(algo, prof.n, prof, rounds)


@main.command("sweep-competitive")
@click.option("--ns", default="256,1024,4096", show_default=True,
              help="comma-separated sizes")
@click.option("--reps", type=int, default=10, show_default=True)
@click.option("--seed", type=int, default=0)
@_rows
def sweep_competitive(ns, reps, seed):
    """Oblivious vs clairvoyant comparison counts over random profiles."""
    return harness.cmd_sweep_competitive(_parse_ns(ns), reps, seed)


@main.command("sweep-separation")
@click.option("--ns", default="1024,4096,16384", show_default=True)
@_rows
def sweep_separation(ns):
    """Adversary round budgets vs median recursion on realized instances."""
    return harness.cmd_sweep_separation(_parse_ns(ns))


@main.command("check-bounds")
@click.option("--count", type=int, default=200, show_default=True)
@click.option("--nmax", type=int, default=1024, show_default=True)
@click.option("--seed", type=int, default=0)
@_rows
def check_bounds(count, nmax, seed):
    """Structural inequalities on random profiles."""
    return harness.cmd_check_bounds(count, nmax, seed)


@main.group()
def si():
    """Set-intersection runners."""


@si.command("run")
@click.option("--algo", type=click.Choice(harness.SI_ALGOS), required=True)
@click.option("--input", "input_path", type=click.Path(exists=True),
              required=True)
@click.option("--i", "i_param", type=int, default=None)
@_rows
def si_run(algo, input_path, i_param):
    """Run a set-intersection algorithm on an A:/B: instance file."""
    return harness.cmd_si_run(algo, input_path, i_param)


@main.group()
def profile():
    """Profile inspection."""


@profile.command("stats")
@click.argument("path", type=click.Path(exists=True))
@_rows
def profile_stats(path):
    """Parameter selection summary for a profile file."""
    return harness.cmd_profile_stats(read_profile(path))


@profile.command("bounds")
@click.argument("path", type=click.Path(exists=True))
@_rows
def profile_bounds(path):
    """Lower-bound budgets for a profile file."""
    return harness.cmd_profile_bounds(read_profile(path))

