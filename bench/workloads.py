"""The benchmark's workloads: seeded inputs, jobs and their references.

A workload's `setup(seed)` builds every input before the timed loop: groups,
tower nodes, certified relator systems and the job list.  The job list is a
list of rounds, and every round holds the same mix of job kinds with freshly
drawn inputs, so a run that stops on a round boundary measures the stated mix
whatever the machine speed.

A job is one call into the library plus a check of what it returned against
a reference that does not come from the library: closed forms, verdicts known
by construction, textbook orders and class counts.  The check also renders
the verdict as one line; those lines make up the run's digest.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from groupforge import amalgam, fingrp, smallcancel, universe
from groupforge.words import FACTOR, SyllableWord

BOUND = Fraction(1, 10)
SCHEME = "bench/data/prod.scheme"  # Z5 * Z7, relative to the checkout root


@dataclass
class Job:
    label: str
    run: Callable[[], object]
    check: Callable[[object], "tuple[bool, str]"]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup: Callable[[int], list]
    # The traced run covers exactly this many rounds, and every run's digest
    # is taken over them.
    fixed_rounds: int
    # An untraced run covers at least this many rounds.  The tail percentile
    # is the highest with ten jobs beyond it at that job count.
    tail_rounds: int
    cli_args: tuple
    cli_check: Callable[[int, str], "tuple[bool, list]"]


def _fields(out: str) -> dict:
    got = {}
    for line in out.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            got[key] = value
    return got


def _free_product(n1: int, n2: int) -> amalgam.AmalgamNode:
    left = amalgam.BaseNode(fingrp.cyclic(n1), name=f"z{n1}")
    right = amalgam.BaseNode(fingrp.cyclic(n2), name=f"z{n2}")
    return amalgam.AmalgamNode(left, right, amalgam.ExplicitShared([0], [0]),
                               name=f"z{n1}*z{n2}")


def _s3xz2_pair() -> amalgam.AmalgamNode:
    """Two copies of S3 x Z2 over their shared {0, 1} (criterion 5's node)."""
    g = fingrp.named_group("s3xz2")
    return amalgam.AmalgamNode(amalgam.BaseNode(g, name="l"),
                               amalgam.BaseNode(g, name="r"),
                               amalgam.ExplicitShared([0, 1], [0, 1]),
                               name="s3xz2*s3xz2")


def _outside_shared(node, side) -> list:
    fac = node.factors[side]
    shared = node._shared
    return [e for e in range(fac.elem_count())
            if not fac.is_identity_elem(e) and not shared.member(side, e)]


# -- sc-certify ---------------------------------------------------------------

def _certify_job(node, x0, x1, n) -> Job:
    def run():
        tau = smallcancel.build_tau(node, x0, x1, n)
        system = smallcancel.RelatorSystem(node, [tau])
        return len(tau), smallcancel.check_metric(system, BOUND)

    def check(out):
        syllables, m = out
        want = 2 * n * (n + 1)
        ok = (syllables == want and m.ratio == Fraction(4 * n - 3, want)
              and m.ok)
        return ok, (f"certify {node.name} n={n} {node.format(x0)} "
                    f"{node.format(x1)}: syllables {syllables} max-piece "
                    f"{m.max_piece} ratio {m.ratio} certified {m.ok}")

    return Job(f"certify {node.name} n={n}", run, check)


def sc_certify_setup(seed: int) -> list:
    rng = random.Random(seed)
    z57 = _free_product(5, 7)
    pair = _s3xz2_pair()
    # s3xz2 generators of order 3 or 6, so that x1^2 stays outside {0, 1}
    g = pair.left.group
    big = [e for e in range(g.n) if g.order_of(e) > 2]
    rounds = []
    for _ in range(10):
        # The seed draws the generators, which leave the cost unchanged.  The
        # sizes are fixed and spaced so that the median and the tail fall
        # inside one cost class (n = 36-38, three jobs, and n = 60) rather
        # than between two.
        jobs = [_certify_job(z57, z57.parse(f"f0:{rng.randint(1, 4)}"),
                             z57.parse(f"f1:{rng.randint(1, 6)}"), n)
                for n in (20, 30, 38, 38, 50, 60, 70)]
        jobs += [_certify_job(pair, pair.parse(f"f0:{rng.choice(big)}"),
                              pair.parse(f"f1:{rng.choice(big)}"), n)
                 for n in (20, 26, 36, 40)]
        rng.shuffle(jobs)
        rounds.append(jobs)
    return rounds


def sc_certify_cli(code: int, out: str):
    f = _fields(out)
    ok = (code == 0 and f.get("lengths") == "12960,12960"
          and f.get("ratio") == str(Fraction(4 * 80 - 3, 2 * 80 * 81))
          and f.get("certified") == "true")
    return ok, [f"exit {code}"] + out.splitlines()


# -- sc-decide ----------------------------------------------------------------

def _random_reduced(node, rng, length) -> SyllableWord:
    side = rng.randrange(2)
    syls = []
    for _ in range(length):
        syls.append((FACTOR, side, rng.choice(_outside_shared(node, side))))
        side = 1 - side
    return node.reduce(SyllableWord(syls))


def _member(system, rng, k) -> SyllableWord:
    """A product of k conjugates of r^+-1 by reduced conjugators of at most
    six syllables."""
    node = system.node
    r = system.relators[0]
    acc = SyllableWord()
    for _ in range(k):
        rel = r if rng.random() < 0.5 else node.invert_word(r)
        c = _random_reduced(node, rng, rng.randint(0, 6))
        acc = node.mul_words(acc, node.conjugate_word(rel, c))
    return acc


def _shifted(system, rng, k) -> SyllableWord:
    """A member times one syllable outside the shared subgroup: a nonmember,
    because the factors embed in the quotient."""
    node = system.node
    side = rng.randrange(2)
    syl = (FACTOR, side, rng.choice(_outside_shared(node, side)))
    return node.mul_words(_member(system, rng, k), SyllableWord([syl]))


def _short(system, rng) -> SyllableWord:
    """A nontrivial reduced word shorter than half the relator: a nonmember
    by Greendlinger's lemma."""
    half = min(len(r) for r in system.cyclic_relators) / 2
    return _random_reduced(system.node, rng,
                           rng.randint(1, math.ceil(half) - 1))


def _decide_job(system, tag, cls, w, want) -> Job:
    def run():
        return smallcancel.greendlinger_decide(system, w)

    def check(v):
        ok = v.status == want
        if v.status == "member":
            # outside the timed region: the trace must replay to 1
            ok = ok and smallcancel.replay_trace(system, w, v)
        return ok, (f"decide {tag} {cls} len {len(w)}: {v.status} steps "
                    f"{v.steps} max-fraction {v.max_fraction}")

    return Job(f"decide {tag} {cls}", run, check)


def sc_decide_setup(seed: int) -> list:
    rng = random.Random(seed)
    systems = []
    for tag, node, x0, x1, n in (("z3*z5", _free_product(3, 5), "f0:1",
                                  "f1:1", 19),
                                 ("s3xz2", _s3xz2_pair(), "f0:4", "f1:4", 20)):
        tau = smallcancel.build_tau(node, node.parse(x0), node.parse(x1), n)
        system = smallcancel.RelatorSystem(node, [tau])
        system.ensure_certified(BOUND)
        systems.append((tag, system))
    (zt, z35), (st, s3) = systems
    rounds = []
    for _ in range(10):
        # Cost grows with the number k of conjugates.  The mix puts three
        # k = 2 queries in the middle of the nine, so the median job is one.
        queries = [(zt, z35, "short", _short(z35, rng)),
                   (st, s3, "short", _short(s3, rng)),
                   (zt, z35, "member", _member(z35, rng, 1)),
                   (st, s3, "shifted", _shifted(s3, rng, 1)),
                   (zt, z35, "member", _member(z35, rng, 2)),
                   (zt, z35, "shifted", _shifted(z35, rng, 2)),
                   (st, s3, "member", _member(s3, rng, 2)),
                   (zt, z35, "shifted", _shifted(z35, rng, 3)),
                   (st, s3, "member", _member(s3, rng, 3))]
        jobs = [_decide_job(system, tag, cls, w,
                            "member" if cls == "member" else "nonmember")
                for tag, system, cls, w in queries]
        rng.shuffle(jobs)
        rounds.append(jobs)
    return rounds


def sc_decide_cli(code: int, out: str):
    f = _fields(out)
    ok = (code == 0 and f.get("samples") == "200"
          and f.get("counterexamples") == "0" and f.get("undecided") == "0"
          and f.get("ok") == "true")
    return ok, [f"exit {code}"] + out.splitlines()


# -- universe-probe -----------------------------------------------------------

def _probe_job(h, blocks, samples, seed) -> Job:
    def run():
        fam = universe.standard_family(h, blocks)
        reg = universe.CodeRegistry()
        codes = [reg.code(g) for g in fam]
        checks = [universe.check_ugroup(g).ok for g in fam]
        rep = universe.poset_axiom_probe(fam, samples=samples, seed=seed)
        return len(fam), len(reg), codes, checks, rep

    def check(out):
        members, classes, codes, checks, rep = out
        clauses = {k: (c.checked, len(c.failures))
                   for k, c in sorted(rep.clauses.items())}
        ok = (members == 2 ** (len(blocks) - 1) and classes == len(blocks)
              and all(checks) and rep.ok
              and all(fails == 0 for _, fails in clauses.values()))
        return ok, (f"probe {h.name} {blocks} samples {samples}: members "
                    f"{members} classes {classes} codes "
                    f"{[c.cod for c in codes]} checks {sum(checks)} clauses "
                    f"{clauses} ok {rep.ok}")

    return Job(f"probe {h.name} {len(blocks)} blocks", run, check)


def _density_job(h, blocks, x_text, y_text) -> Job:
    def run():
        g = universe.standard_ugroup(h, blocks)
        x, y = g.node.parse(x_text), g.node.parse(y_text)
        move = universe.density_simplicity_step(g, x, y, window=16)
        final = move.ugroup
        fx = final.word_at(g.addr[g.node.canonical(x)])
        fy = final.word_at(g.addr[g.node.canonical(y)])
        return (move, universe.replay_simplicity(move, fx, fy),
                universe.check_ugroup(final).ok)

    def check(out):
        move, replayed, checked = out
        ok = move.case == "finite-both" and replayed and checked
        return ok, (f"density {h.name} {blocks} x {x_text} y {y_text}: case "
                    f"{move.case} trace {len(move.trace)} node "
                    f"{move.ugroup.node.kind} replay {replayed} check "
                    f"{checked}")

    return Job(f"density {h.name} {blocks}", run, check)


def universe_probe_setup(seed: int) -> list:
    rng = random.Random(seed)
    groups = {name: fingrp.named_group(name) for name in ("z3", "s3", "a4")}
    z3 = groups["z3"]
    rounds = []
    for _ in range(12):
        jobs = []
        for name, k in (("z3", 3), ("s3", 3), ("z3", 5), ("s3", 4),
                        ("a4", 3)):
            blocks = [0] + sorted(rng.sample(range(1, 10), k - 1))
            jobs.append(_probe_job(groups[name], blocks, 20,
                                   rng.randrange(1000)))
        # x from the second block keeps the move's cost steady; both orders
        # are finite and z3's elements are pairwise non-conjugate, so the
        # move is the finite-both case ending in a stable letter
        blocks = [0, rng.randint(1, 9)]
        x = rng.randint(1, 2)
        y = rng.choice([f"f1:{3 - x}", "f0:1", "f0:2"])
        jobs.append(_density_job(z3, blocks, f"f1:{x}", y))
        rng.shuffle(jobs)
        rounds.append(jobs)
    return rounds


def universe_probe_cli(code: int, out: str):
    f = _fields(out)
    clauses = [f.get(f"clause {k}", "") for k in range(1, 9)]
    ok = (code == 0 and f.get("members") == "16" and f.get("ok") == "true"
          and all(c.endswith(" failures 0") for c in clauses))
    return ok, [f"exit {code}"] + out.splitlines()


# -- finite-groups ------------------------------------------------------------

# Textbook values: automorphism group orders, which groups are complete
# (centerless with only inner automorphisms), and which are centerless; among
# these groups the suitable ones are exactly the centerless ones.
AUT_ORDER = {"s3": 6, "s4": 24, "s5": 120, "a4": 24, "a5": 120, "d4": 8,
             "q8": 24, "z2xz2": 6}
COMPLETE = {"s3", "s4", "s5"}
CENTERLESS = {"s3", "s4", "s5", "a4", "a5"}
ABELIAN_POOL = ["z2", "z3", "z4", "z5", "z6", "z7", "z8", "z2xz2", "z2xz4",
                "z3xz3", "z2xz6"]


def _euler_phi(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def _group_job(kind, name, g) -> Job:
    def run():
        if kind == "aut":
            return fingrp.automorphism_group(g).n
        if kind == "complete":
            return fingrp.is_complete(g).ok
        return fingrp.is_suitable(g).ok

    def check(got):
        if kind == "aut":
            want = AUT_ORDER.get(name) or _euler_phi(int(name[1:]))
        elif kind == "complete":
            want = name in COMPLETE
        else:
            want = name in CENTERLESS
        return got == want, f"{kind} {name}: {got}"

    return Job(f"{kind} {name}", run, check)


def _localization_job(eta, want) -> Job:
    """`want` is True or False when known, None for a seeded hom, where an
    accepted localization must be surjective."""
    def run():
        return fingrp.is_localization(eta)

    def check(rep):
        if want is None:
            ok = not rep.ok or len(set(eta.img)) == eta.dst.n
        else:
            ok = rep.ok == want
        return ok, (f"localization {eta.src.name}->{eta.dst.name} "
                    f"{list(eta.img)}: {rep.ok} homs {rep.hom_count} endos "
                    f"{rep.endo_count}")

    return Job(f"localization {eta.src.name}->{eta.dst.name}", run, check)


def finite_groups_setup(seed: int) -> list:
    rng = random.Random(seed)
    groups = {name: fingrp.named_group(name)
              for name in list(AUT_ORDER) + ABELIAN_POOL}
    z2, z4 = groups["z2"], groups["z4"]
    doubling = fingrp.GroupHom(z2, z4, (0, 2))
    rounds = []
    for _ in range(16):
        jobs = [_group_job(kind, name, groups[name]) for name in AUT_ORDER
                for kind in ("aut", "complete", "suitable")]
        zn = f"z{rng.randint(2, 30)}"
        jobs.append(_group_job("aut", zn, fingrp.named_group(zn)))
        jobs.append(_localization_job(
            fingrp.identity_hom(groups[rng.choice(ABELIAN_POOL)]), True))
        jobs.append(_localization_job(doubling, False))
        for _ in range(2):
            h = groups[rng.choice(ABELIAN_POOL)]
            g = groups[rng.choice(ABELIAN_POOL)]
            homs = list(fingrp.enumerate_homs(h, g))
            jobs.append(_localization_job(rng.choice(homs), None))
        rng.shuffle(jobs)
        rounds.append(jobs)
    return rounds


def finite_groups_cli(code: int, out: str):
    f = _fields(out)
    ok = (code == 0 and f.get("aut-order") == "120"
          and f.get("suitable") == "true")
    return ok, [f"exit {code}"] + out.splitlines()


WORKLOADS = {w.name: w for w in (
    Workload(
        "sc-certify",
        "build_tau, RelatorSystem and check_metric on Z5*Z7 (n 20-70) and "
        "s3xz2*s3xz2 (n 20-40): build_tau's prefix copies and max_piece",
        sc_certify_setup, 2, 6,
        ("sc", "certify", SCHEME, "--n", "80"), sc_certify_cli),
    Workload(
        "sc-decide",
        "greendlinger_decide on seeded members, shifted nonmembers and short "
        "words: relator matching and long-word reduction",
        sc_decide_setup, 10, 23,
        ("sc", "probe", SCHEME, "--n", "20", "--samples", "200"),
        sc_decide_cli),
    Workload(
        "universe-probe",
        "fresh standard families probed over z3, s3 and a4, plus a density "
        "move: short-word canonical forms, registries, UGroup tables",
        universe_probe_setup, 2, 8,
        ("universe", "probe", "--h", "s3", "--master", "0,1,2,3,4"),
        universe_probe_cli),
    Workload(
        "finite-groups",
        "automorphism, completeness, suitability and localization checks: "
        "the only workload running enumerate_homs' vectorised table check",
        finite_groups_setup, 5, 7,
        ("group", "suitable", "a5"), finite_groups_cli),
)}
