"""Acceptance gate: nine end-to-end criteria, one PASS/FAIL line each.

Every test prints its verdict line through the capture bypass so the lines
appear in the live pytest stream, then asserts.  Time limits are part of the
contract and are measured around the work of each criterion, not around
fixture setup.  Expected constants were frozen from independent oracles
before the implementation existed; nothing here is tuned to the code under
test.
"""

import random
import time
from fractions import Fraction

import pytest

from groupforge import amalgam, fingrp, smallcancel, universe
from groupforge.cli import EXIT_OK, run
from groupforge.words import EMPTY, FACTOR, SyllableWord

BOUND = Fraction(1, 10)

FP57 = """\
group g1 z5
group g2 z7
base b1 g1
base b2 g2
amalgam top b1 b2 shared 0=0
target top
"""


def report(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def field(out, key):
    for ln in out.splitlines():
        if ln.startswith(key + ":"):
            return ln.split(":", 1)[1].strip()
    raise AssertionError(f"no {key!r} line in:\n{out}")


def pair_node(n1, n2):
    left = amalgam.BaseNode(fingrp.cyclic(n1), name="g1")
    right = amalgam.BaseNode(fingrp.cyclic(n2), name="g2")
    return amalgam.AmalgamNode(left, right, amalgam.ExplicitShared([0], [0]),
                               name="top")


def test_criterion_1_tau_word_length(capsys):
    t0 = time.perf_counter()
    code = run(["sc", "tau", "--n", "80"])
    elapsed = time.perf_counter() - t0
    big = field(capsys.readouterr().out, "syllables")
    code1 = run(["sc", "tau", "--n", "1"])
    small = field(capsys.readouterr().out, "syllables")
    ok = (code == EXIT_OK and code1 == EXIT_OK
          and big == str(sum(4 * k for k in range(1, 81)))
          and big == "12960" and small == "4" and elapsed < 1.0)
    report(capsys, 1, ok,
           f"n=80 gives {big} syllables and n=1 gives {small} "
           f"in {elapsed:.2f}s")


def test_criterion_2_metric_certificate(capsys, tmp_path):
    scheme = tmp_path / "fp57.scheme"
    scheme.write_text(FP57)
    t0 = time.perf_counter()
    code = run(["sc", "certify", str(scheme), "--n", "80"])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out

    node = pair_node(5, 7)
    tau = smallcancel.build_tau(node, node.parse("f0:1"), node.parse("f1:1"),
                                80)
    m = smallcancel.check_metric(smallcancel.RelatorSystem(node, [tau]),
                                 BOUND)
    ok = (code == EXIT_OK and field(out, "certified") == "true"
          and field(out, "ratio") == "317/12960"
          and m.ratio == Fraction(317, 12960) and m.ratio <= BOUND
          and elapsed < 60.0)
    report(capsys, 2, ok,
           f"C'(1/10) holds with exact ratio {field(out, 'ratio')} "
           f"in {elapsed:.2f}s")


def syllable_ball(factor_sizes, max_len):
    """Every reduced alternating word of at most max_len syllables."""
    out = [EMPTY]
    def extend(prefix, budget):
        if budget == 0:
            return
        last = prefix[-1][1] if prefix else None
        for fid, size in factor_sizes:
            if fid == last:
                continue
            for e in range(1, size):
                w = SyllableWord(list(prefix) + [(FACTOR, fid, e)])
                out.append(w)
                extend(w, budget - 1)
    extend(EMPTY, max_len)
    return out


def bounded_closure_words(system, node, factor_sizes, max_len, depth=3):
    """Breadth-first products of conjugated relators, kept in the ball.

    Conjugators run over all single-syllable words, so the search covers
    every product of up to `depth` such conjugates.
    """
    conjs = [EMPTY]
    for fid, size in factor_sizes:
        for e in range(1, size):
            conjs.append(SyllableWord([(FACTOR, fid, e)]))
    gens = []
    for r in (system.relators[0], node.invert_word(system.relators[0])):
        for c in conjs:
            gens.append(node.reduce(node.conjugate_word(r, c)))
    seen = {tuple(EMPTY): EMPTY}
    frontier = [EMPTY]
    for _ in range(depth):
        nxt = []
        for u in frontier:
            for g in gens:
                w = node.reduce(node.mul_words(u, g))
                k = tuple(w)
                if k not in seen:
                    seen[k] = w
                    nxt.append(w)
        frontier = nxt
    return {k for k, w in seen.items() if len(w) <= max_len}


def test_criterion_3_decide_agrees_with_closure_oracle(capsys):
    t0 = time.perf_counter()
    node = pair_node(3, 5)
    tau = smallcancel.build_tau(node, node.parse("f0:1"), node.parse("f1:1"),
                                19)
    system = smallcancel.RelatorSystem(node, [tau])
    system.ensure_certified(BOUND)

    sizes = ((0, 3), (1, 5))
    ball = syllable_ball(sizes, 8)
    members = set()
    undecided = 0
    for w in ball:
        v = smallcancel.greendlinger_decide(system, w)
        if v.status == "member":
            members.add(tuple(w))
        elif v.status == "undecided":
            undecided += 1
    oracle = bounded_closure_words(system, node, sizes, 8)
    elapsed = time.perf_counter() - t0
    ok = (undecided == 0 and oracle == {tuple(EMPTY)} and members == oracle
          and elapsed < 300.0)
    report(capsys, 3, ok,
           f"all {len(ball)} words of <= 8 syllables agree with the "
           f"bounded closure search ({undecided} undecided) "
           f"in {elapsed:.1f}s")


def test_criterion_4_quotient_properties(capsys):
    t0 = time.perf_counter()
    node = pair_node(5, 7)
    tau = smallcancel.build_tau(node, node.parse("f0:1"), node.parse("f1:1"),
                                80)
    system = smallcancel.RelatorSystem(node, [tau])
    system.ensure_certified(BOUND)

    v = smallcancel.greendlinger_decide(system, tau)
    relation_ok = (v.status == "member"
                   and smallcancel.replay_trace(system, tau, v))

    factor_ok = True
    for fid, size in ((0, 5), (1, 7)):
        for e in range(1, size):
            w = SyllableWord([(FACTOR, fid, e)])
            if smallcancel.greendlinger_decide(system, w).status \
                    != "nonmember":
                factor_ok = False
    probe = smallcancel.malnormality_probe(system, samples=200, seed=0)
    elapsed = time.perf_counter() - t0
    ok = (relation_ok and factor_ok and probe.ok
          and len(probe.counterexamples) == 0 and elapsed < 300.0)
    report(capsys, 4, ok,
           f"relator is a member, all 10 factor words are nonmembers, "
           f"probe found {len(probe.counterexamples)} counterexamples "
           f"in {elapsed:.1f}s")


def test_criterion_5_obstruction(capsys):
    t0 = time.perf_counter()
    g = fingrp.named_group("s3xz2")
    left = amalgam.BaseNode(g, name="l")
    right = amalgam.BaseNode(g, name="r")
    node = amalgam.AmalgamNode(left, right,
                               amalgam.ExplicitShared([0, 1], [0, 1]),
                               name="top")
    x0 = node.parse("f0:4")
    y0 = node.parse("f0:2")
    moved = not node.equal(node.conjugate_word(x0, y0), x0)

    r = smallcancel.obstruction_check(node, EMPTY, x0, node.parse("f1:4"),
                                      y0, EMPTY, 20, bound=BOUND)
    elapsed = time.perf_counter() - t0
    ok = (moved and r.config_ok and r.metric_ok
          and r.ratio == Fraction(11, 120)
          and r.verdicts == [(1, "nonmember")] and r.ok and elapsed < 120.0)
    report(capsys, 5, ok,
           f"conjugated-generator relator misses every nontrivial shared "
           f"element (ratio {r.ratio}) in {elapsed:.2f}s")


def test_criterion_6_finite_group_suite(capsys):
    t0 = time.perf_counter()
    a5 = fingrp.alternating(5)
    s3 = fingrp.symmetric(3)
    aut_a5 = fingrp.automorphism_group(a5).n
    aut_s3 = fingrp.automorphism_group(s3).n
    complete_s5 = fingrp.is_complete(fingrp.symmetric(5)).ok
    good = [fingrp.is_suitable(h).ok for h in (s3, a5)]
    bad = [fingrp.is_suitable(h).ok
           for h in (fingrp.cyclic(2), fingrp.cyclic(4),
                     fingrp.quaternion8())]
    elapsed = time.perf_counter() - t0
    ok = (aut_a5 == 120 and aut_s3 == 6 and complete_s5 and all(good)
          and not any(bad) and elapsed < 120.0)
    report(capsys, 6, ok,
           f"|Aut(A5)|={aut_a5}, |Aut(S3)|={aut_s3}, S5 complete, "
           f"suitability verdicts as expected in {elapsed:.2f}s")


ABELIAN_POOL = ["z2", "z3", "z4", "z5", "z6", "z7", "z8",
                "z2xz2", "z2xz4", "z3xz3", "z2xz6"]


def test_criterion_7_localization_suite(capsys):
    t0 = time.perf_counter()
    z2 = fingrp.cyclic(2)
    ident = fingrp.is_localization(fingrp.identity_hom(z2))
    doubling = fingrp.GroupHom(z2, fingrp.cyclic(4), (0, 2))
    rejected = fingrp.is_localization(doubling)

    rng = random.Random(7)
    accepted = 0
    surjective_ok = True
    for _ in range(20):
        h = fingrp.named_group(rng.choice(ABELIAN_POOL))
        g = fingrp.named_group(rng.choice(ABELIAN_POOL))
        for eta in fingrp.enumerate_homs(h, g):
            if fingrp.is_localization(eta).ok:
                accepted += 1
                if not eta.is_surjective():
                    surjective_ok = False
    elapsed = time.perf_counter() - t0
    ok = (ident.ok and not rejected.ok
          and "2 extensions" in rejected.witness
          and surjective_ok and elapsed < 60.0)
    report(capsys, 7, ok,
           f"identity accepted, doubling rejected ({rejected.witness}), "
           f"{accepted} seeded accepted localizations all surjective "
           f"in {elapsed:.1f}s")


def test_criterion_8_reduction_soundness(capsys):
    t0 = time.perf_counter()
    node = pair_node(5, 7)
    rng = random.Random(8)
    cancel_ok = True
    for _ in range(10000):
        syls = []
        for _ in range(rng.randrange(0, 13)):
            fid = rng.randrange(2)
            syls.append((FACTOR, fid, rng.randrange(1, 5 if fid == 0 else 7)))
        w = SyllableWord(syls)
        if node.reduce(node.mul_words(w, node.invert_word(w))):
            cancel_ok = False

    hnn = amalgam.HnnNode(amalgam.BaseNode(fingrp.cyclic(5), name="g"),
                          amalgam.ExplicitShared([0, 1, 2, 3, 4],
                                                 [0, 2, 4, 1, 3]))
    for _ in range(10000):
        syls = []
        for _ in range(rng.randrange(0, 13)):
            if rng.random() < 0.4:
                syls.append(("t", hnn.letter, rng.choice((1, -1))))
            else:
                syls.append((FACTOR, 0, rng.randrange(1, 5)))
        w = SyllableWord(syls)
        if hnn.reduce(hnn.mul_words(w, hnn.invert_word(w))):
            cancel_ok = False

    torsion_ok = True
    for _ in range(300):
        fid = rng.randrange(2)
        elem = SyllableWord([(FACTOR, fid, rng.randrange(1, 5 if fid == 0
                                                         else 7))])
        csyls = []
        for _ in range(rng.randrange(0, 5)):
            cf = rng.randrange(2)
            csyls.append((FACTOR, cf, rng.randrange(1, 5 if cf == 0 else 7)))
        w = node.conjugate_word(elem, SyllableWord(csyls))
        te = amalgam.conjugate_torsion_into_factor(node, w)
        back = node.conjugate_word(SyllableWord([(FACTOR, te.side, te.elem)]),
                                   te.conj)
        if te.order == amalgam.INFINITE or not node.equal(back, w):
            torsion_ok = False

    hat = amalgam.hat_base(fingrp.symmetric(3))
    elems = list(range(6))
    aut = hat.group
    inv = next(a for a in range(aut.n) if aut.order_of(a) == 2)
    iso_ok = True
    for phi in ([(a, a) for a in elems],
                [(a, aut.conj(a, inv)) for a in elems]):
        r = amalgam.realize_iso_by_hnn(hat, elems, [b for _, b in phi],
                                       elems, elems, phi_pairs=phi)
        lift = lambda e: r.node.lift(0, r.mid.lift(0, e))
        for a, b in phi:
            got = r.node.conjugate_word(r.node.elem_word(lift(a)), r.conj)
            if not r.node.equal(got, r.node.elem_word(lift(b))):
                iso_ok = False
    elapsed = time.perf_counter() - t0
    ok = cancel_ok and torsion_ok and iso_ok and elapsed < 180.0
    report(capsys, 8, ok,
           f"20000 seeded cancellations, 300 torsion conjugations and both "
           f"inner realizations verify in {elapsed:.1f}s")


def test_criterion_9_universe_suite(capsys):
    t0 = time.perf_counter()
    s3 = fingrp.symmetric(3)
    fam = universe.standard_family(s3, range(7))[:50]

    checks_ok = all(universe.check_ugroup(g).ok for g in fam)

    reg = universe.CodeRegistry()
    codes = [reg.code(g) for g in fam]
    pairs_ok = True
    for i in range(len(fam)):
        for j in range(i + 1, len(fam)):
            same = codes[i].cod == codes[j].cod
            witness = universe.is_strong_iso(fam[i], fam[j])
            if same != (witness is not None):
                pairs_ok = False

    rep = universe.poset_axiom_probe(fam, samples=100, seed=9)
    probe_ok = (rep.ok and rep.clauses[8].checked == 100
                and all(not rep.clauses[k].failures for k in (1, 2, 4, 7)))

    q = universe.standard_ugroup(s3, [0, 1])
    stepped = universe.density_domain_step(q, 3, set(q.u) | {3})
    dom_ok = (sorted(stepped.u) == [0, 1, 3] and universe.le(q, stepped)
              and universe.check_ugroup(stepped).ok
              and universe.density_domain_step(q, 1, set(q.u)) is q)

    g = universe.standard_ugroup(s3, [0, 1])
    x, y = g.node.parse("f0:1"), g.node.parse("f0:2")
    move = universe.density_simplicity_step(g, x, y, window=16)
    final = lambda w: move.ugroup.word_at(g.addr[g.node.canonical(w)])
    simple_ok = (move.case == "finite-both" and len(move.trace) == 4
                 and universe.replay_simplicity(move, final(x), final(y))
                 and universe.check_ugroup(move.ugroup).ok)
    elapsed = time.perf_counter() - t0
    ok = (checks_ok and pairs_ok and probe_ok and dom_ok and simple_ok
          and elapsed < 300.0)
    report(capsys, 9, ok,
           f"{len(fam)} addressings check, codes match strong isos on all "
           f"pairs, probe and density replays pass in {elapsed:.1f}s")
