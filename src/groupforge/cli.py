"""Command-line front end.

Every subcommand loads its inputs, calls one library operation, and prints a
line-oriented `key: value` report.  Runs are deterministic: the same inputs,
seed and budget produce byte-identical output.

Exit codes: 0 success or verdict-true, 1 verdict-false (a witness block is
printed), 2 undecided or budget exhausted, 3 malformed input, 4 an internal
error (a bug, reported as one `error: internal: ...` line).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Optional

from . import amalgam, fingrp, smallcancel, universe
from .amalgam import SchemeError
from .fingrp import BudgetExceeded, GroupError
from .words import EMPTY

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_UNDECIDED = 2
EXIT_INPUT = 3
EXIT_INTERNAL = 4


@dataclass
class Session:
    seed: int = 0
    budget: Optional[int] = None
    g0_window: int = 16
    samples: int = 200

    def __post_init__(self):
        if self.budget is None:
            env = os.environ.get("FORGE_BUDGET")
            if env:
                try:
                    self.budget = int(env)
                except ValueError:
                    raise SchemeError(f"FORGE_BUDGET must be an integer, "
                                      f"got {env!r}") from None
        for what, v, least in (("budget", self.budget, 0),
                               ("samples", self.samples, 0),
                               ("g0-window", self.g0_window, 1)):
            if v is not None and v < least:
                raise SchemeError(f"{what} must be at least {least}, got {v}")


def _bool(v) -> str:
    return "true" if v else "false"


def _verdict(lines, ok, witnesses):
    """A verdict report: exit 0 when ok, else the witness lines follow and
    the exit is 1.  `witnesses` is read only when the verdict is false."""
    if ok:
        return lines, EXIT_OK
    return lines + list(witnesses), EXIT_FALSE


def _blocks(text: str):
    try:
        out = sorted({int(p) for p in text.split(",") if p.strip() != ""})
    except ValueError:
        raise SchemeError(f"bad block list {text!r}, expected e.g. 0,2,5")
    if not out:
        raise SchemeError(f"bad block list {text!r}, expected e.g. 0,2,5")
    return out


def _bound(text: str) -> Fraction:
    try:
        out = Fraction(text)
    except (ValueError, ZeroDivisionError):
        out = None
    if out is None or out <= 0:
        raise SchemeError(f"bad bound {text!r}, expected a positive fraction "
                          f"such as 1/10")
    return out


def _ints(text: str):
    try:
        return [int(p) for p in text.split(",") if p.strip() != ""]
    except ValueError:
        raise SchemeError(f"bad index list {text!r}, expected e.g. 1,2,3")


def parse_hom_text(text: str, base_dir: str = ".") -> fingrp.GroupHom:
    """`hom` file: src/dst group lines and a full image map.

        hom <name>
        src <group-spec-or-path>
        dst <group-spec-or-path>
        map <img0> <img1> ...        (one image per source element)
    """
    ends = {}
    images: list = []
    for lineno, line in fingrp._content_lines(text):
        toks = line.split()
        try:
            if toks[0] in ("src", "dst"):
                if len(toks) < 2:
                    raise GroupError(f"{toks[0]} needs a group")
                ends[toks[0]] = fingrp.group_at(" ".join(toks[1:]), base_dir)
            elif toks[0] == "map":
                try:
                    images.extend(int(v) for v in toks[1:])
                except ValueError:
                    raise GroupError("map entries must be element indices")
            elif toks[0] != "hom":
                raise GroupError(f"unknown directive {toks[0]!r}")
        except GroupError as exc:
            exc.args = (f"line {lineno}: {exc}",)
            raise
    src, dst = ends.get("src"), ends.get("dst")
    if src is None or dst is None:
        raise GroupError("hom file needs src and dst lines")
    if len(images) != src.n:
        raise GroupError(f"map lists {len(images)} images for a source of "
                         f"order {src.n}")
    if any(not 0 <= v < dst.n for v in images):
        raise GroupError("map image out of range for the target group")
    eta = fingrp.GroupHom(src, dst, tuple(images))
    if not eta.check():
        raise GroupError("map is not a homomorphism")
    return eta


def load_hom(path: str) -> fingrp.GroupHom:
    with open(path) as fh:
        return parse_hom_text(fh.read(), base_dir=os.path.dirname(path) or ".")


# -- group ------------------------------------------------------------------------

def _cmd_group_check(args, s):
    g = fingrp.named_group(args.group)
    return [f"group: {g.name}", f"order: {g.n}",
            f"center-order: {len(g.center())}", "valid: true"], EXIT_OK


def _cmd_group_aut(args, s):
    g = fingrp.named_group(args.group)
    aut = fingrp.automorphism_group(g, budget=s.budget)
    return [f"group: {g.name}", f"order: {g.n}",
            f"aut-order: {aut.n}"], EXIT_OK


def _cmd_group_suitable(args, s):
    g = fingrp.named_group(args.group)
    r = fingrp.is_suitable(g, budget=s.budget)
    lines = [f"group: {r.group}", f"torsion: {_bool(r.torsion)}",
             f"centerless: {_bool(r.centerless)}",
             f"unique-copy: {_bool(r.unique_copy)}",
             f"extends-inner: {_bool(r.extends_inner)}",
             f"aut-order: {r.aut_order}",
             f"suitable: {_bool(r.ok)}"]
    return _verdict(lines, r.ok, [f"witness: {r.witness}"])


def _cmd_group_complete(args, s):
    g = fingrp.named_group(args.group)
    r = fingrp.is_complete(g, budget=s.budget)
    lines = [f"group: {r.group}", f"center-order: {r.center_order}",
             f"aut-order: {r.aut_order}", f"complete: {_bool(r.ok)}"]
    witnesses = []
    if r.center_order != 1:
        witnesses.append(f"witness: center has order {r.center_order}")
    if r.outer_witness is not None:
        witnesses.append(f"witness: automorphism {r.outer_witness} "
                         f"is not inner")
    return _verdict(lines, r.ok, witnesses)


def _cmd_group_localization(args, s):
    eta = load_hom(args.eta)
    r = fingrp.is_localization(eta, budget=s.budget)
    lines = [f"source: {eta.src.name}", f"target: {eta.dst.name}",
             f"maps: {r.hom_count}", f"endomorphisms: {r.endo_count}",
             f"localization: {_bool(r.ok)}"]
    return _verdict(lines, r.ok, [f"witness: {r.witness}"])


def _cmd_group_socle(args, s):
    h = fingrp.named_group(args.h)
    g = fingrp.named_group(args.group)
    elems = fingrp.h_socle(h, g, budget=s.budget)
    return [f"h: {h.name}", f"group: {g.name}",
            f"socle-order: {len(elems)}",
            f"socle-is-group: {_bool(len(elems) == g.n)}"], EXIT_OK


# -- words ------------------------------------------------------------------------

def _target(args, s):
    return amalgam.load_scheme(args.scheme, budget=s.budget)


def _target_of_kind(args, s, cls, what):
    """The scheme's target node, which must be a `cls`."""
    node = _target(args, s)
    if not isinstance(node, cls):
        raise SchemeError(f"target node {node.name} is not {what}")
    return node


def _cmd_word_reduce(args, s):
    node = _target(args, s)
    r = node.reduce(node.parse(args.word))
    return [f"node: {node.name}", f"input: {args.word}",
            f"reduced: {node.format(r)}", f"syllables: {len(r)}",
            f"identity: {_bool(not r)}"], EXIT_OK


def _cmd_word_invert(args, s):
    node = _target(args, s)
    r = node.reduce(node.invert_word(node.parse(args.word)))
    return [f"node: {node.name}", f"input: {args.word}",
            f"inverse: {node.format(r)}", f"syllables: {len(r)}"], EXIT_OK


# -- amalgam ----------------------------------------------------------------------

def _cmd_amalgam_nf(args, s):
    node = _target_of_kind(args, s, amalgam.AmalgamNode, "an amalgam")
    w = node.canonical(node.parse(args.word))
    return [f"node: {node.name}", f"canonical: {node.format(w)}",
            f"syllables: {len(w)}",
            f"weakly-cyclically-reduced: "
            f"{_bool(node.is_weakly_cyclically_reduced(w))}"], EXIT_OK


def _cmd_amalgam_torsion(args, s):
    node = _target_of_kind(args, s, amalgam.AmalgamNode, "an amalgam")
    w = node.parse(args.word)
    core, _ = node.weakly_cyclic_reduce(w)
    if len(core) >= 2 or (len(core) == 1 and
                          node.order_of(core) == amalgam.INFINITE):
        return [f"node: {node.name}",
                "conjugate-into-factor: false",
                f"witness: conjugacy-minimal form {node.format(core)} has "
                f"infinite order"], EXIT_FALSE
    te = amalgam.conjugate_torsion_into_factor(node, w)
    lines = [f"node: {node.name}", f"order: {te.order}"]
    if te.side is None:
        lines.append("factor: none (identity)")
    else:
        lines.append(f"factor: {te.side}")
        lines.append(f"element: {te.elem}")
    lines.append(f"conjugator: {node.format(te.conj)}")
    return lines, EXIT_OK


def _cmd_amalgam_centralizer(args, s):
    node = _target(args, s)
    cands = [node.parse(c) for c in args.cand]
    r = amalgam.centralizer_conclusion_check(node, node.parse(args.word),
                                             cands)
    lines = [f"node: {node.name}", f"x-class: {r.x_class}"]
    for i, e in enumerate(r.entries):
        lines.append(f"cand {i}: commutes={_bool(e.commutes)} "
                     f"consistent={_bool(e.consistent)} {e.note}")
    lines.append(f"ok: {_bool(r.ok)}")
    return _verdict(lines, r.ok, [f"witness: candidate {i} ({e.word})"
                                  for i, e in enumerate(r.entries)
                                  if not e.consistent])


# -- hnn --------------------------------------------------------------------------

def _cmd_hnn_reduce(args, s):
    node = _target_of_kind(args, s, amalgam.HnnNode,
                           "an extension with a stable letter")
    r = node.reduce(node.parse(args.word))
    letters = sum(1 for syl in r if syl[0] == "t")
    return [f"node: {node.name}", f"letter: t{node.letter}",
            f"reduced: {node.format(r)}", f"syllables: {len(r)}",
            f"letters: {letters}"], EXIT_OK


def _cmd_hnn_make_conjugate(args, s):
    node = _target(args, s)
    ext, t = amalgam.make_conjugate(node, node.parse(args.u),
                                    node.parse(args.v),
                                    window=s.g0_window)
    return [f"node: {ext.name}", f"letter: {ext.format(t)}",
            "verified: true"], EXIT_OK


def _cmd_hnn_realize_iso(args, s):
    node = _target(args, s)
    phi = None
    if args.phi:
        phi = []
        for tok in args.phi.split(","):
            a, _, b = tok.partition(":")
            try:
                phi.append((int(a), int(b)))
            except ValueError:
                raise SchemeError(f"bad pair {tok!r} in --phi, expected a:b")
    r = amalgam.realize_iso_by_hnn(node, _ints(args.a), _ints(args.b),
                                   _ints(args.a_hat), _ints(args.b_hat),
                                   phi_pairs=phi, budget=s.budget)
    return [f"node: {r.node.name}",
            f"letters: t{r.letters[0]},t{r.letters[1]}",
            f"conjugator: {r.node.format(r.conj)}",
            f"hat-conjugator: {r.hat_conjugator}",
            "verified: true"], EXIT_OK


# -- small cancellation -----------------------------------------------------------

def _default_tau_node():
    left = amalgam.BaseNode(fingrp.cyclic(5), name="g1")
    right = amalgam.BaseNode(fingrp.cyclic(7), name="g2")
    return amalgam.AmalgamNode(left, right,
                               amalgam.ExplicitShared([0], [0]),
                               name="g1*g2")


def _cmd_sc_tau(args, s):
    node = _target(args, s) if args.scheme else _default_tau_node()
    x0 = node.parse(args.x0)
    x1 = node.parse(args.x1)
    w = smallcancel.build_tau(node, x0, x1, args.n)
    lines = [f"node: {node.name}", f"n: {args.n}", f"syllables: {len(w)}"]
    if args.print_word:
        lines.append(f"word: {node.format(w)}")
    return lines, EXIT_OK


def _sc_system(args, s, node):
    relators = []
    if args.relator:
        relators = [node.parse(r) for r in args.relator]
    else:
        x0 = node.parse(args.x0)
        x1 = node.parse(args.x1)
        if args.z:
            relators = [smallcancel.build_relator(node, node.parse(args.z),
                                                  x0, x1, args.n)]
        else:
            relators = [smallcancel.build_tau(node, x0, x1, args.n)]
    bound = _bound(args.bound)
    return smallcancel.RelatorSystem(node, relators), bound


def _cmd_sc_certify(args, s):
    node = _target(args, s)
    system, bound = _sc_system(args, s, node)
    m = smallcancel.check_metric(system, bound)
    lines = [f"node: {node.name}",
             f"relators: {len(system.relators)}",
             f"lengths: {','.join(str(v) for v in m.relator_lengths)}",
             f"max-piece: {m.max_piece}",
             f"ratio: {m.ratio}",
             f"bound: {m.bound}",
             f"certified: {_bool(m.ok)}"]
    # an uncertified system has a piece, so a witness
    return _verdict(lines, m.ok, (
        f"witness: piece of {m.max_piece} syllables at (relator, offset) "
        f"{w[0]} and {w[1]}" for w in [m.witness]))


def _cmd_sc_decide(args, s):
    node = _target(args, s)
    system, bound = _sc_system(args, s, node)
    kw = {"bound": bound}
    if s.budget is not None:
        kw["max_steps"] = s.budget
    v = smallcancel.greendlinger_decide(system, node.parse(args.word), **kw)
    lines = [f"node: {node.name}", f"verdict: {v.status}",
             f"steps: {v.steps}", f"max-fraction: {v.max_fraction}"]
    if v.status == "member":
        return lines, EXIT_OK
    lines.append(f"witness: {v.detail}")
    return lines, EXIT_FALSE if v.status == "nonmember" else EXIT_UNDECIDED


def _cmd_sc_probe(args, s):
    node = _target(args, s)
    system, bound = _sc_system(args, s, node)
    r = smallcancel.malnormality_probe(system, samples=s.samples,
                                       seed=s.seed, bound=bound)
    lines = [f"node: {node.name}", f"samples: {r.samples}",
             f"tower-conjugacies: {r.tower_conjugacies}",
             f"undecided: {r.undecided}",
             f"counterexamples: {len(r.counterexamples)}",
             f"ok: {_bool(r.ok)}"]
    return _verdict(lines, r.ok, [f"witness: {conj} sends {g1} to {g2}"
                                  for conj, g1, g2 in r.counterexamples[:5]])


def _cmd_sc_obstruct(args, s):
    node = _target(args, s)
    r = smallcancel.obstruction_check(
        node, node.parse(args.z) if args.z else EMPTY,
        node.parse(args.x0), node.parse(args.x1),
        node.parse(args.y0),
        node.parse(args.y1) if args.y1 else EMPTY,
        args.n, bound=_bound(args.bound))
    lines = [f"node: {node.name}",
             f"config: {_bool(r.config_ok)} ({r.config_detail})",
             f"metric: {_bool(r.metric_ok)}",
             f"ratio: {r.ratio}"]
    for g0, verdict in r.verdicts:
        lines.append(f"shared {g0}: {verdict}")
    lines.append(f"obstructed: {_bool(r.ok)}")
    witnesses = []
    if not r.config_ok:
        witnesses.append(f"witness: {r.config_detail}")
    elif not r.metric_ok:
        witnesses.append(f"witness: overlap ratio {r.ratio} exceeds the "
                         f"bound")
    witnesses += [f"witness: shared element {g0} gave {verdict}"
                  for g0, verdict in r.verdicts if verdict != "nonmember"]
    return _verdict(lines, r.ok, witnesses)


# -- universe ---------------------------------------------------------------------

def _cmd_universe_assign(args, s):
    node = _target(args, s)
    g = universe.assign_addresses(node, _blocks(args.blocks))
    lines = [f"node: {node.name}",
             f"blocks: {','.join(str(b) for b in sorted(g.u))}",
             f"tracked: {len(g.addr)}"]
    for w in sorted(g.addr, key=lambda ww: g.addr[ww]):
        lines.append(f"addr {g.addr[w]}: {node.format(w)}")
    return lines, EXIT_OK


def _cmd_universe_check(args, s):
    node = _target(args, s)
    g = universe.assign_addresses(node, _blocks(args.blocks))
    rep = universe.check_ugroup(g)
    lines = [f"node: {node.name}", f"tracked: {len(g.addr)}",
             f"ok: {_bool(rep.ok)}"]
    return _verdict(lines, rep.ok, [f"clause: {rep.clause}",
                                    f"witness: {rep.detail}"])


def _cmd_universe_code(args, s):
    h = fingrp.named_group(args.h)
    fam = universe.standard_family(h, _blocks(args.master))
    reg = universe.CodeRegistry()
    lines = [f"h: {h.name}", f"members: {len(fam)}"]
    for g in fam:
        c = reg.code(g)
        lines.append(f"member {{{','.join(str(b) for b in sorted(g.u))}}}: "
                     f"code {c.cod}")
    lines.append(f"classes: {len(reg)}")
    lines.extend(reg.record_lines())
    return lines, EXIT_OK


def _cmd_universe_probe(args, s):
    h = fingrp.named_group(args.h)
    fam = universe.standard_family(h, _blocks(args.master))
    rep = universe.poset_axiom_probe(fam, samples=s.samples, seed=s.seed)
    lines = [f"h: {h.name}", f"members: {len(fam)}"]
    for k in sorted(rep.clauses):
        cr = rep.clauses[k]
        lines.append(f"clause {k}: checked {cr.checked} "
                     f"failures {len(cr.failures)}")
    lines.append(f"ok: {_bool(rep.ok)}")
    return _verdict(lines, rep.ok, [f"witness: clause {k}: {f}"
                                    for k in sorted(rep.clauses)
                                    for f in rep.clauses[k].failures[:2]])


def _cmd_universe_density_dom(args, s):
    h = fingrp.named_group(args.h)
    q = universe.standard_ugroup(h, _blocks(args.blocks))
    allowed = set(_blocks(args.allowed)) if args.allowed \
        else set(q.u) | {args.alpha}
    out = universe.density_domain_step(q, args.alpha, allowed)
    return [f"h: {h.name}",
            f"before: {{{','.join(str(b) for b in sorted(q.u))}}}",
            f"after: {{{','.join(str(b) for b in sorted(out.u))}}}",
            f"extended: {_bool(out is not q)}",
            "ok: true"], EXIT_OK


def _cmd_universe_density_simple(args, s):
    h = fingrp.named_group(args.h)
    g = universe.standard_ugroup(h, _blocks(args.blocks))
    if args.track:
        node = g.node
        tracked = list(g.addr)
        for text in args.track:
            w = node.parse(text)
            tracked.append(w)
            tracked.append(node.invert_word(w))
        g = universe.assign_addresses(node, g.u, tracked=tracked, h=h)
    move = universe.density_simplicity_step(g, g.node.parse(args.x),
                                            g.node.parse(args.y),
                                            window=s.g0_window)
    lines = [f"h: {h.name}", f"case: {move.case}",
             f"trace-terms: {len(move.trace)}",
             f"extended: {_bool(move.extended)}"]
    for i, (c, e) in enumerate(move.trace):
        lines.append(f"term {i}: exponent {e} conjugator "
                     f"{move.ugroup.node.format(c)}")
    lines.append("verified: true")
    return lines, EXIT_OK


# -- parser -----------------------------------------------------------------------

def _add_sc_relator_flags(p):
    p.add_argument("--relator", action="append", default=[],
                   help="explicit relator word (repeatable; overrides the "
                        "built family)")
    p.add_argument("--x0", default="f0:1", help="first generator word")
    p.add_argument("--x1", default="f1:1", help="second generator word")
    p.add_argument("--z", default="", help="target word folded into the "
                                           "relator")
    p.add_argument("--n", type=int, default=80, help="block count")
    p.add_argument("--bound", default="1/10",
                   help="metric bound as an exact fraction")


class _UsageError(Exception):
    """A malformed command line, reported by `run` instead of by argparse."""


class _Parser(argparse.ArgumentParser):
    # subparsers are made with the parser's own class, so they raise too;
    # argparse would print a usage block on stderr and exit
    def error(self, message):
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="seed for sampled checks (default 0)")
    common.add_argument("--budget", type=int, default=argparse.SUPPRESS,
                        help="enumeration/iteration cap (default: "
                             "FORGE_BUDGET or per-operation defaults)")
    common.add_argument("--g0-window", type=int, default=argparse.SUPPRESS,
                        help="power window for cyclic subgroup scans "
                             "(default 16)")
    common.add_argument("--samples", type=int, default=argparse.SUPPRESS,
                        help="sample count for probes (default 200)")

    ap = _Parser(
        prog="forge", parents=[common],
        description="Finite-scale toolkit for tower-group constructions.")
    top = ap.add_subparsers(dest="command", required=True)

    def sub(sp, name, **kw):
        return sp.add_parser(name, parents=[common], **kw)

    g = top.add_parser("group", help="finite group checks").add_subparsers(
        dest="sub", required=True)
    p = sub(g, "check", help="load and validate a group")
    p.add_argument("group")
    p.set_defaults(fn=_cmd_group_check)
    p = sub(g, "aut", help="automorphism group order")
    p.add_argument("group")
    p.set_defaults(fn=_cmd_group_aut)
    p = sub(g, "suitable", help="suitability verdict")
    p.add_argument("group")
    p.set_defaults(fn=_cmd_group_suitable)
    p = sub(g, "complete", help="completeness verdict")
    p.add_argument("group")
    p.set_defaults(fn=_cmd_group_complete)
    p = sub(g, "localization", help="localization verdict for a hom "
                                          "file")
    p.add_argument("--eta", required=True, help="hom file")
    p.set_defaults(fn=_cmd_group_localization)
    p = sub(g, "socle", help="subgroup generated by all copies of h")
    p.add_argument("h")
    p.add_argument("group")
    p.set_defaults(fn=_cmd_group_socle)

    w = top.add_parser("word", help="word reduction").add_subparsers(
        dest="sub", required=True)
    p = sub(w, "reduce", help="reduce a word at the target node")
    p.add_argument("scheme")
    p.add_argument("word")
    p.set_defaults(fn=_cmd_word_reduce)
    p = sub(w, "invert", help="reduced inverse")
    p.add_argument("scheme")
    p.add_argument("word")
    p.set_defaults(fn=_cmd_word_invert)

    a = top.add_parser("amalgam", help="amalgam word operations") \
        .add_subparsers(dest="sub", required=True)
    p = sub(a, "nf", help="canonical form")
    p.add_argument("scheme")
    p.add_argument("word")
    p.set_defaults(fn=_cmd_amalgam_nf)
    p = sub(a, "torsion-conj", help="conjugate a torsion element "
                                          "into a factor")
    p.add_argument("scheme")
    p.add_argument("word")
    p.set_defaults(fn=_cmd_amalgam_torsion)
    p = sub(a, "centralizer-check", help="centralizer dichotomy "
                                               "against candidates")
    p.add_argument("scheme")
    p.add_argument("word")
    p.add_argument("--cand", action="append", required=True,
                   help="candidate word (repeatable)")
    p.set_defaults(fn=_cmd_amalgam_centralizer)

    hn = top.add_parser("hnn", help="stable-letter operations") \
        .add_subparsers(dest="sub", required=True)
    p = sub(hn, "reduce", help="pinch-free form")
    p.add_argument("scheme")
    p.add_argument("word")
    p.set_defaults(fn=_cmd_hnn_reduce)
    p = sub(hn, "realize-iso", help="make a copy isomorphism inner")
    p.add_argument("scheme")
    p.add_argument("--a", required=True, help="source copy elements a,b,...")
    p.add_argument("--b", required=True, help="target copy elements")
    p.add_argument("--a-hat", required=True, dest="a_hat",
                   help="overgroup of the source copy")
    p.add_argument("--b-hat", required=True, dest="b_hat",
                   help="overgroup of the target copy")
    p.add_argument("--phi", default="", help="pairs a:b,... (default: "
                                             "position pairing)")
    p.set_defaults(fn=_cmd_hnn_realize_iso)
    p = sub(hn, "make-conjugate", help="stable letter conjugating u "
                                             "to v")
    p.add_argument("scheme")
    p.add_argument("u")
    p.add_argument("v")
    p.set_defaults(fn=_cmd_hnn_make_conjugate)

    sc = top.add_parser("sc", help="metric relator systems").add_subparsers(
        dest="sub", required=True)
    p = sub(sc, "tau", help="build the alternating block word")
    p.add_argument("scheme", nargs="?", default=None)
    p.add_argument("--x0", default="f0:1")
    p.add_argument("--x1", default="f1:1")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--print-word", action="store_true")
    p.set_defaults(fn=_cmd_sc_tau)
    p = sub(sc, "certify", help="overlap metric for the relator "
                                      "system")
    p.add_argument("scheme")
    _add_sc_relator_flags(p)
    p.set_defaults(fn=_cmd_sc_certify)
    p = sub(sc, "decide", help="normal-closure membership")
    p.add_argument("scheme")
    p.add_argument("word")
    _add_sc_relator_flags(p)
    p.set_defaults(fn=_cmd_sc_decide)
    p = sub(sc, "probe", help="sampled malnormality counterexample "
                                    "search")
    p.add_argument("scheme")
    _add_sc_relator_flags(p)
    p.set_defaults(fn=_cmd_sc_probe)
    p = sub(sc, "obstruct", help="conjugated-generator relator kills "
                                       "no boundary element")
    p.add_argument("scheme")
    p.add_argument("--y0", required=True)
    p.add_argument("--y1", default="")
    _add_sc_relator_flags(p)
    p.set_defaults(fn=_cmd_sc_obstruct)

    u = top.add_parser("universe", help="block addressing").add_subparsers(
        dest="sub", required=True)
    p = sub(u, "assign", help="address the tracked elements")
    p.add_argument("scheme")
    p.add_argument("--blocks", required=True)
    p.set_defaults(fn=_cmd_universe_assign)
    p = sub(u, "check", help="closure clauses for an addressing")
    p.add_argument("scheme")
    p.add_argument("--blocks", required=True)
    p.set_defaults(fn=_cmd_universe_check)
    p = sub(u, "code", help="class codes over a block family")
    p.add_argument("--h", required=True)
    p.add_argument("--master", required=True)
    p.set_defaults(fn=_cmd_universe_code)
    p = sub(u, "probe", help="order axioms on the standard family")
    p.add_argument("--h", required=True)
    p.add_argument("--master", required=True)
    p.set_defaults(fn=_cmd_universe_probe)
    p = sub(u, "density-dom", help="adjoin a block to the domain")
    p.add_argument("--h", required=True)
    p.add_argument("--blocks", required=True)
    p.add_argument("--alpha", type=int, required=True)
    p.add_argument("--allowed", default="")
    p.set_defaults(fn=_cmd_universe_density_dom)
    p = sub(u, "density-simple", help="express x as conjugates of y")
    p.add_argument("--h", required=True)
    p.add_argument("--blocks", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--track", action="append", default=[],
                   help="extra tracked word (repeatable)")
    p.set_defaults(fn=_cmd_universe_density_simple)
    return ap


def run(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}")
        return EXIT_INPUT
    except SystemExit:  # --help, the only exit left to argparse
        return EXIT_OK
    try:
        # a flag left off the command line is absent from args
        session = Session(**{f.name: getattr(args, f.name)
                             for f in fields(Session) if f.name in args})
        lines, code = args.fn(args, session)
    except BudgetExceeded as exc:
        print(f"error: {exc}")
        return EXIT_UNDECIDED
    except (SchemeError, GroupError, ValueError, OSError) as exc:
        print(f"error: {exc}")
        return EXIT_INPUT
    except Exception as exc:  # a bug: keep it apart from the verdict codes
        print(f"error: internal: {type(exc).__name__}: {exc}")
        return EXIT_INTERNAL
    for line in lines:
        print(line)
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
