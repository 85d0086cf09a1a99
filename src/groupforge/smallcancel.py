"""Metric relator systems over tower groups and a rewriting word-problem
solver.

A relator system holds cyclically reduced relator words at a tower node.  The
piece metric measures the longest subword occurring twice across the
symmetrized closure (all cyclic rotations of the relators and their
inverses).  Matching is done on reduced syllable sequences; at the two ends
of a match, syllables are compared up to a one-sided multiple from the shared
subgroup (left multiples at the left end, right multiples at the right end,
double cosets for single-syllable matches), interior syllables exactly.  This
end fuzz makes the metric stable under the carry moves that relate different
reduced spellings of the same element.

Both searches over span lengths (the piece metric and the decision
procedure's relator match) find candidate spans by int64 keys.  Every class
id gets a system-wide integer code; a span's key packs two polynomial
fingerprints of its codes (left class, exact interior, right class), each
modulo a prime below 2^31, computed for all spans of one length at once from
prefix sums.  Equal signatures always give equal keys; a key hit is only a
candidate, and every one is verified syllable by syllable against the exact
classes before it counts, so a fingerprint collision cannot change a result.

The decision procedure repeatedly replaces a matched relator portion longer
than half that relator by the inverse of its complement, which strictly
shortens the word.  On a system certified at ratio <= 1/10 the procedure is a
decision procedure for the generated normal subgroup on the words it answers:
empty terminal means member (with a replayable trace), a best match strictly
below half means non-member, and exactly half is reported undecided.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Iterable, Optional

import numpy as np

from . import words as W
from .amalgam import AmalgamNode, Node, SchemeError, shared_pairing
from .words import EMPTY, FACTOR, SyllableWord

# (prime modulus, base) of the two span fingerprints; a modulus below 2^31
# keeps every product of two residues inside int64
_FINGERPRINTS = ((2_147_483_647, 1_000_003), (2_147_483_629, 998_244_353))

# longest conjugator, in syllables, that the malnormality probe draws
MAX_CONJUGATOR_LEN = 5


# -- relator construction -----------------------------------------------------

def build_tau(node: Node, x0_word, x1_word, n: int) -> SyllableWord:
    """The product over k = 1..n of (x0 x1)^k (x0 x1 x1)^k, reduced."""
    if n < 1:
        raise SchemeError("tau needs n >= 1")
    x0 = node.reduce(x0_word)
    x1 = node.reduce(x1_word)
    if not x0 or not x1:
        raise SchemeError("tau generators must be nontrivial")
    block_a = node.mul_words(x0, x1)
    block_b = node.mul_words(x0, node.mul_words(x1, x1))
    # the blocks are reduced, so only their junctions are pushed
    parts = []
    for k in range(1, n + 1):
        parts.extend([block_a] * k)
        parts.extend([block_b] * k)
    return node.splice(EMPTY, EMPTY, *parts)


def build_relator(node: Node, z_word, x0_word, x1_word, n: int) -> SyllableWord:
    """Relator expressing z = tau(x0, x1): the reduced form of z^-1 tau."""
    tau = build_tau(node, x0_word, x1_word, n)
    z = node.reduce(z_word)
    r = node.mul_words(node.invert_word(z), tau)
    if not r:
        raise SchemeError("relator is trivial: z already equals tau")
    return r


# -- relator systems ------------------------------------------------------------

class RelatorSystem:
    """Relators over a tower node, with the matching tables built lazily."""

    def __init__(self, node: Node, relators: Iterable):
        self.node = node
        self.relators = [node.reduce(r) for r in relators]
        if not self.relators:
            raise SchemeError("relator system needs at least one relator")
        cyc = []
        for r in self.relators:
            core = node.cyclic_core(r)
            if core and core not in cyc:
                cyc.append(core)
            inv = node.cyclic_core(node.invert_word(core))
            if inv and inv not in cyc:
                cyc.append(inv)
        self.cyclic_relators = cyc
        self._classes: dict = {}
        self._codes: dict = {}
        self._rel_arrays = None
        self._sorted_keys: dict = {}
        self._metric_report = None

    # syllable classes: exact id, left-coset id, right-coset id, double-coset id

    def _class_of(self, syl):
        """The syllable's four class ids and their system-wide integer
        codes."""
        got = self._classes.get(syl)
        if got is not None:
            return got
        node = self.node
        shared = shared_pairing(node)
        if syl[0] != FACTOR or shared is None:
            ids = (syl, syl, syl, syl)
        else:
            side, elem = syl[1], syl[2]
            fac = node.factors[side]
            lrep, _ = node._coset_data(side, elem)
            edge_error = ("coset scan reached the window edge while "
                          "classifying a syllable; rerun with a larger window")
            scan = list(shared.scan(side))
            right = [(fac.mul_elem(elem, s), at_edge) for s, at_edge in scan]
            rrep, _ = node._least(side, right, edge_error)
            drep, _ = node._least(
                side, ((fac.mul_elem(s2, c), edge1 or edge2)
                       for c, edge1 in right for s2, edge2 in scan),
                edge_error)
            ids = ((FACTOR, side, elem), (FACTOR, side, lrep),
                   (FACTOR, side, rrep), (FACTOR, side, drep))
        codes = self._codes
        got = (ids, tuple(codes.setdefault(i, len(codes) + 1) for i in ids))
        self._classes[syl] = got
        return got

    def _arrays_for(self, w):
        """The doubled int64 class codes and the fingerprint prefix sums for
        a nonempty cyclic word.  Each distinct syllable is classified
        once."""
        index: dict = {}
        at = [index.setdefault(syl, len(index)) for syl in w]
        codes = np.array([self._class_of(syl)[1] for syl in index],
                         dtype=np.int64)
        ecode, lcode, rcode, dcode = codes.T.take(at * 2, axis=1)
        # pref[k] = sum of ecode[j] * base^j over j < k, and inv[j] = base^-j,
        # so (pref[s + m] - pref[s]) * inv[s] fingerprints the m codes from s
        pref, inv = [], []
        for mod, base in _FINGERPRINTS:
            terms = ecode * _powers(base, mod, len(ecode)) % mod
            pref.append(np.concatenate([[0], np.cumsum(terms) % mod]))
            inv.append(_powers(pow(base, mod - 2, mod), mod, len(ecode)))
        return {"ecode": ecode, "lcode": lcode, "rcode": rcode,
                "dcode": dcode, "pref": pref, "inv": inv, "n": len(w)}

    def _relator_arrays(self):
        if self._rel_arrays is None:
            self._rel_arrays = [self._arrays_for(r) for r in self.cyclic_relators]
        return self._rel_arrays

    def _relator_keys(self, ri, L):
        """The keys of cyclic relator ri's spans of length L, sorted, and the
        span offsets in that order (equal keys by increasing offset).
        Relators never change, so each (ri, L) is keyed once."""
        got = self._sorted_keys.get((ri, L))
        if got is None:
            arr = self._relator_arrays()[ri]
            keys = _keys(arr, L, arr["n"])
            order = np.argsort(keys, kind="stable")
            got = self._sorted_keys[(ri, L)] = (keys[order], order)
        return got

    def ensure_certified(self, bound: Fraction = Fraction(1, 10)):
        rep = check_metric(self, bound=bound)
        if not rep.ok:
            raise SchemeError(
                f"relator system is not certified at {bound}: max piece "
                f"{rep.max_piece} of relator length {min(rep.relator_lengths)}")
        return rep


def _powers(base, mod, count):
    """base^j mod `mod` for j < count, as int64, by doubling."""
    out = np.ones(count, dtype=np.int64)
    size = 1
    while size < count:
        step = min(size, count - size)
        out[size:size + step] = out[:step] * pow(base, size, mod) % mod
        size += step
    return out


def _keys(arrays, L, at):
    """int64 keys of the spans of length L starting at the offsets `at`: an
    int64 array of offsets, or a count for the offsets 0 .. at-1 (read by
    slicing, which costs about half as much as gathering every offset).

    A span's signature is its double-coset class when L == 1, else its left
    class, exact interior and right class; equal signatures give equal
    keys.  For L >= 2 the key packs one fingerprint per prime of the
    sequence (left code, interior codes, right code)."""
    if isinstance(at, int):
        def shift(d):
            return slice(d, d + at)
    else:
        def shift(d):
            return at + d
    if L == 1:
        return arrays["dcode"][shift(0)]
    left = arrays["lcode"][shift(0)]
    right = arrays["rcode"][shift(L - 1)]
    first, last = shift(1), shift(L - 1)
    key = 0
    for (mod, base), pref, inv in zip(_FINGERPRINTS, arrays["pref"],
                                      arrays["inv"]):
        inner = (pref[last] - pref[first]) % mod * inv[first] % mod
        top = pow(base, L - 1, mod)
        key = key << 31 | (left + inner * base % mod + right * top % mod) % mod
    return key


def _longest(top, probe):
    """Binary search for the largest L in 1..top with probe(L) not None,
    for a probe that holds at every length below one where it holds.
    Returns (L, probe(L)), or (0, None) when it holds nowhere."""
    lo, hit = 0, None
    while lo < top:
        mid = (lo + top + 1) // 2
        got = probe(mid)
        if got is not None:
            lo, hit = mid, got
        else:
            top = mid - 1
    return lo, hit


def _verify_fuzzy(arr1, p, arr2, q, L):
    """Exact check of a key hit (guards against fingerprint collisions).
    Class codes are injective on class ids, so equal codes are equal
    classes."""
    if L == 1:
        return arr1["dcode"][p] == arr2["dcode"][q]
    if arr1["lcode"][p] != arr2["lcode"][q]:
        return False
    if arr1["rcode"][p + L - 1] != arr2["rcode"][q + L - 1]:
        return False
    return np.array_equal(arr1["ecode"][p + 1:p + L - 1],
                          arr2["ecode"][q + 1:q + L - 1])


@dataclass
class MetricReport:
    max_piece: int
    relator_lengths: list
    ratio: Fraction
    witness: Optional[tuple]   # ((rel, offset), (rel, offset)) for the max piece
    # check_metric's verdict: ratio <= bound
    ok: Optional[bool] = None
    bound: Optional[Fraction] = None


def max_piece(system: RelatorSystem) -> MetricReport:
    """Longest fuzzy subword with two distinct occurrences in the
    symmetrized closure."""
    rels = system.cyclic_relators
    if not rels:
        raise SchemeError("metric undefined: every relator is trivial in "
                          "the tower")
    lengths = [len(r) for r in rels]
    if any(n < 2 for n in lengths):
        raise SchemeError("metric needs relators of syllable length at "
                          "least two")
    for r in rels:
        for a, b in zip(r, r[1:] + r[:1]):
            if a[0] == FACTOR and b[0] == FACTOR and a[1] == b[1]:
                raise SchemeError(
                    "metric needs relators whose syllables alternate "
                    "factors cyclically")
    arrays = system._relator_arrays()

    def occurs_twice(L, pool):
        """The first span in scan order (relator, then offset) that verifies
        against an earlier one, paired with the first such earlier span, and
        the spans whose key repeats; None when no span verifies.

        `pool` holds (relator, offsets) in scan order, the offsets as in
        `_keys`.  Only spans whose key repeats can verify, so only they are
        scanned."""
        live = [(ri, at) for ri, at in pool if L <= arrays[ri]["n"]]
        keys = np.concatenate([_keys(arrays[ri], L, at) for ri, at in live])
        ordered = np.sort(keys)
        repeats = ordered[1:][ordered[1:] == ordered[:-1]]
        if not len(repeats):
            return None
        offs = [np.arange(at) if isinstance(at, int) else at for _, at in live]
        rel = np.concatenate([np.full(len(o), ri)
                              for (ri, _), o in zip(live, offs)])
        off = np.concatenate(offs)
        kept = repeats[np.minimum(np.searchsorted(repeats, keys),
                                  len(repeats) - 1)] == keys
        rel, off, keys = rel[kept], off[kept], keys[kept]
        _, first, group = np.unique(keys, return_index=True,
                                    return_inverse=True)
        span = list(zip(rel.tolist(), off.tolist()))
        # candidates: spans whose key already occurred earlier in scan order
        for j in np.flatnonzero(first[group] < np.arange(len(keys))).tolist():
            rj, p = span[j]
            for i in np.flatnonzero(group[:j] == group[j]).tolist():
                qi, q = span[i]
                if _verify_fuzzy(arrays[qi], q, arrays[rj], p, L):
                    return (((qi, q), (rj, p)),
                            [(ri, off[rel == ri]) for ri, _ in live])
        return None

    # every probe after a hit is longer, and a piece truncates to a piece at
    # the same offsets, so it keys only the spans whose key repeated there
    pool = [(ri, arr["n"]) for ri, arr in enumerate(arrays)]

    def probe(L):
        nonlocal pool
        got = occurs_twice(L, pool)
        if got is None:
            return None
        witness, pool = got
        return witness

    piece, witness = _longest(max(lengths), probe)
    return MetricReport(piece, lengths, Fraction(piece, min(lengths)),
                        witness)


def check_metric(system: RelatorSystem,
                 bound: Fraction = Fraction(1, 10)) -> MetricReport:
    if system._metric_report is None:
        system._metric_report = max_piece(system)
    rep = system._metric_report
    return replace(rep, ok=rep.ratio <= bound, bound=bound)


# -- the decision procedure -----------------------------------------------------

@dataclass
class DehnStep:
    kind: str                      # "cyclic", "rotate" or "replace"
    data: tuple

@dataclass
class DehnVerdict:
    status: str                    # "member", "nonmember" or "undecided"
    steps: int
    max_fraction: Optional[Fraction]
    detail: str
    trace: list = field(default_factory=list)


def _best_match(system: RelatorSystem, w):
    """Maximal fuzzy match between the nonempty cyclic word w and any cyclic
    relator, ranked by fraction of the relator covered.

    Returns (fraction, L, wstart, rel_index, rel_offset) or None.
    """
    warr = system._arrays_for(w)
    wlen = len(w)
    arrays = system._relator_arrays()
    wkeys_at = {}   # the word's keys by span length, shared by the relators
    best = None
    for ri, rarr in enumerate(arrays):
        rlen = rarr["n"]

        def match_at(L):
            """The least word offset p, then the least relator offset q,
            whose spans of length L verify."""
            rkeys, order = system._relator_keys(ri, L)
            wkeys = wkeys_at.get(L)
            if wkeys is None:
                wkeys = wkeys_at[L] = _keys(warr, L, wlen)
            at = np.searchsorted(rkeys, wkeys)
            hit = np.flatnonzero(rkeys[np.minimum(at, rlen - 1)] == wkeys)
            ends = np.searchsorted(rkeys, wkeys[hit], "right")
            for p, lo, hi in zip(hit.tolist(), at[hit].tolist(),
                                 ends.tolist()):
                for q in order[lo:hi].tolist():
                    if _verify_fuzzy(warr, p, rarr, q, L):
                        return (p, q)
            return None

        L, hit = _longest(min(wlen, rlen), match_at)
        if hit is None:
            continue
        cand = (Fraction(L, rlen), L, hit[0], ri, hit[1])
        if best is None or cand[0] > best[0]:
            best = cand
    return best


def _end_carries(system: RelatorSystem, wsyls, p, rel, q, L):
    """Shared-subgroup elements a, b with match = a . relator-part . b.

    Returned as factor syllables (or None when trivial)."""
    node = system.node
    shared = shared_pairing(node)
    s_first, r_first = wsyls[p], rel[q % len(rel)]
    s_last, r_last = wsyls[p + L - 1], rel[(q + L - 1) % len(rel)]
    if L == 1:
        if s_first == r_first:
            return None, None
        side = s_first[1]
        fac = node.factors[side]
        for g, _ in shared.scan(side):
            for g2, _ in shared.scan(side):
                if fac.mul_elem(g, fac.mul_elem(r_first[2], g2)) == s_first[2]:
                    return ((FACTOR, side, g) if not fac.is_identity_elem(g) else None,
                            (FACTOR, side, g2) if not fac.is_identity_elem(g2) else None)
        raise SchemeError("internal: single-syllable match lost its carries")
    a = None
    if s_first != r_first:
        side = s_first[1]
        fac = node.factors[side]
        g = fac.mul_elem(s_first[2], fac.inv_elem(r_first[2]))
        if not shared.member(side, g):
            raise SchemeError("internal: left end of match is not a shared carry")
        a = (FACTOR, side, g)
    b = None
    if s_last != r_last:
        side = s_last[1]
        fac = node.factors[side]
        g = fac.mul_elem(fac.inv_elem(r_last[2]), s_last[2])
        if not shared.member(side, g):
            raise SchemeError("internal: right end of match is not a shared carry")
        b = (FACTOR, side, g)
    return a, b


def _replacement(system: RelatorSystem, L, ri, q, a, b) -> list:
    """What replaces a match: the carry a, the inverse of the relator
    complement, the carry b."""
    rel = system.cyclic_relators[ri]
    rlen = len(rel)
    tail = [rel[(q + L + i) % rlen] for i in range(rlen - L)]
    t_inv = list(W.invert(SyllableWord(tail), system.node.ops))
    return ([a] if a else []) + t_inv + ([b] if b else [])


def _apply_replacement(system: RelatorSystem, wsyls, p, L, ri, q, a, b):
    """Replace the matched span by the inverse of the relator complement.
    wsyls[:p] and wsyls[p + L:] are contiguous parts of a word reduced at
    the node, so only the replacement and its junctions are pushed."""
    return system.node.splice(wsyls[:p], _replacement(system, L, ri, q, a, b),
                              wsyls[p + L:])


def _dehn_step(system: RelatorSystem, cur, best, trace: list):
    """Rewrite cur, a cyclic word reduced at the node, by the match `best`
    from `_best_match`: rotate the match into place if it wraps, then
    replace it by the inverse of the relator complement.  The steps taken
    are appended to `trace`."""
    _, L, p, ri, q = best
    if p + L > len(cur):
        # the unmatched part cur[p + L - len(cur):p] stays contiguous
        trace.append(DehnStep("rotate", (p,)))
        wsyls = (list(cur) + list(cur))[p:p + len(cur)]
        p = 0
    else:
        wsyls = list(cur)
    rel = system.cyclic_relators[ri]
    a, b = _end_carries(system, wsyls, p, rel, q, L)
    trace.append(DehnStep("replace", (ri, q, p, L,
                                      a[2] if a else None,
                                      b[2] if b else None)))
    return _apply_replacement(system, wsyls, p, L, ri, q, a, b)


def greendlinger_decide(system: RelatorSystem, w, *, max_steps: int = 10000,
                        bound: Fraction = Fraction(1, 10)) -> DehnVerdict:
    """Decide membership of w in the normal closure of the relators."""
    system.ensure_certified(bound)
    node = system.node
    half = Fraction(1, 2)
    min_rlen = min(len(r) for r in system.cyclic_relators)
    cur = node.reduce(w)
    trace = []
    steps = 0
    while True:
        core = node.cyclic_core(cur)
        if core != cur:
            trace.append(DehnStep("cyclic", (W.format_word(cur),
                                             W.format_word(core))))
            cur = core
        if not cur:
            return DehnVerdict("member", steps, None,
                               "word rewrites to the empty word", trace)
        if 2 * len(cur) < min_rlen:
            return DehnVerdict(
                "nonmember", steps, Fraction(len(cur), min_rlen),
                "shorter than half the shortest relator; no relator can "
                "cover more than half of itself inside it", trace)
        best = _best_match(system, cur)
        if best is None:
            return DehnVerdict("nonmember", steps, Fraction(0),
                               "no relator subword occurs at all", trace)
        frac = best[0]
        if frac < half:
            return DehnVerdict(
                "nonmember", steps, frac,
                f"maximal relator coverage is {frac}, below one half", trace)
        if frac == half:
            return DehnVerdict(
                "undecided", steps, frac,
                "maximal relator coverage is exactly one half", trace)
        if steps >= max_steps:
            return DehnVerdict("undecided", steps, frac,
                               "step limit reached", trace)
        cur = _dehn_step(system, cur, best, trace)
        steps += 1


def replay_trace(system: RelatorSystem, w, verdict: DehnVerdict) -> bool:
    """Re-run a member trace step by step and confirm it empties the word."""
    node = system.node
    cur = node.reduce(w)
    for step in verdict.trace:
        if step.kind == "cyclic":
            before, after = step.data
            if W.format_word(cur) != before:
                return False
            core = node.cyclic_core(cur)
            if W.format_word(core) != after:
                return False
            cur = core
        elif step.kind == "rotate":
            (p,) = step.data
            syls = list(cur) + list(cur)
            cur = SyllableWord(syls[p:p + len(cur)])
        elif step.kind == "replace":
            ri, q, p, L, a_elem, b_elem = step.data
            rel = system.cyclic_relators[ri]
            wsyls = list(cur)
            if p + L > len(wsyls):
                return False
            # confirm the recorded match really holds here
            for i in range(L):
                s = wsyls[p + i]
                r = rel[(q + i) % len(rel)]
                if 0 < i < L - 1 and s != r:
                    return False
            a = (FACTOR, wsyls[p][1], a_elem) if a_elem is not None else None
            b = (FACTOR, wsyls[p + L - 1][1], b_elem) if b_elem is not None else None
            shared = shared_pairing(node)
            s0, r0 = wsyls[p], rel[q % len(rel)]
            sl, rl = wsyls[p + L - 1], rel[(q + L - 1) % len(rel)]
            if L >= 2:
                fac0 = node.factors[s0[1]]
                want0 = fac0.mul_elem(a[2], r0[2]) if a else r0[2]
                if s0[2] != want0 or (a and not shared.member(s0[1], a[2])):
                    return False
                facl = node.factors[sl[1]]
                wantl = facl.mul_elem(rl[2], b[2]) if b else rl[2]
                if sl[2] != wantl or (b and not shared.member(sl[1], b[2])):
                    return False
            # the full, validating reduction: the replay checks the splice
            cur = node.reduce(SyllableWord(
                wsyls[:p] + _replacement(system, L, ri, q, a, b)
                + wsyls[p + L:]))
        else:
            return False
    if verdict.status == "member":
        return not cur
    return True


@dataclass
class ProbeReport:
    samples: int
    counterexamples: list
    undecided: int
    tower_conjugacies: int
    ok: bool


def _random_word(node: Node, rng: random.Random, length: int) -> SyllableWord:
    """Random reduced word of the requested syllable length over base factors."""
    sides = len(node.factors)
    syls = []
    side = rng.randrange(sides)
    for _ in range(length):
        fac = node.factors[side]
        count = fac.elem_count()
        if count is None:
            raise SchemeError("random words need finite factor groups")
        choices = [e for e in range(count) if not fac.is_identity_elem(e)]
        syls.append((FACTOR, side, rng.choice(choices)))
        side = (side + 1) % sides
    return node.reduce(SyllableWord(syls))


def malnormality_probe(system: RelatorSystem, *, samples: int = 200,
                       seed: int = 0,
                       bound: Fraction = Fraction(1, 10)) -> ProbeReport:
    """Look for unexpected quotient-level conjugacies c^-1 g c = g' with g, g'
    nontrivial factor elements outside the shared subgroup and c a word of at
    least two syllables.  A member verdict is a counterexample.  The system
    must be certified at `bound`, which every decision runs at."""
    node = system.node
    if not isinstance(node, AmalgamNode):
        raise SchemeError("the probe runs over an amalgamated product")
    rng = random.Random(seed)
    shared = node._bound
    pool = []
    for side in (0, 1):
        fac = node.factors[side]
        count = fac.elem_count()
        if count is None:
            raise SchemeError("the probe needs finite factor groups")
        pool.extend((side, e) for e in range(count)
                    if not fac.is_identity_elem(e) and not shared.member(side, e))
    if not pool:
        raise SchemeError("no factor elements outside the shared subgroup")
    system.ensure_certified(bound)
    counterexamples = []
    undecided = 0
    tower_conj = 0
    for _ in range(samples):
        side, g = rng.choice(pool)
        side2, g2 = rng.choice(pool)
        length = rng.randrange(2, MAX_CONJUGATOR_LEN + 1)
        c = _random_word(node, rng, length)
        if len(c) < 2:
            tower_conj += 1
            continue
        gw = SyllableWord([(FACTOR, side, g)])
        g2w = SyllableWord([(FACTOR, side2, g2)])
        wordw = node.mul_words(node.conjugate_word(gw, c),
                               node.invert_word(g2w))
        if not wordw:
            tower_conj += 1     # already conjugate in the tower itself
            continue
        verdict = greendlinger_decide(system, wordw, bound=bound)
        if verdict.status == "member":
            counterexamples.append((node.format(c), (side, g), (side2, g2)))
        elif verdict.status == "undecided":
            undecided += 1
    return ProbeReport(samples, counterexamples, undecided, tower_conj,
                       not counterexamples)


@dataclass
class ObstructionReport:
    config_ok: bool
    config_detail: str
    metric_ok: bool
    ratio: Optional[Fraction]
    verdicts: list            # (shared element on side 0, status)
    ok: bool


def obstruction_check(node: Node, z_word, x0_word, x1_word, y0_word, y1_word,
                      n: int, *, bound: Fraction = Fraction(1, 10)) -> ObstructionReport:
    """Kill z = tau(x0^y0, x1^y1) and confirm no nontrivial shared element
    dies with it.

    The twisting conditions are checked first: y0 must lie outside the shared
    subgroup and must actually move x0.  Then every nontrivial shared element
    must come back nonmember.
    """
    if not isinstance(node, AmalgamNode):
        raise SchemeError("the obstruction configuration lives over an "
                          "amalgamated product")
    y0 = node.reduce(y0_word)
    y0_elem = node.intern(y0)
    details = []
    config_ok = True
    if len(y0) <= 1 and (not y0 or node._bound.member(y0[0][1], y0[0][2])):
        config_ok = False
        details.append("y0 lies in the shared subgroup")
    x0c = node.conjugate_word(x0_word, y0)
    x1c = node.conjugate_word(x1_word, node.reduce(y1_word))
    if node.intern(x0c) == node.intern(node.reduce(x0_word)):
        config_ok = False
        details.append("y0 centralizes x0")
    if not config_ok:
        return ObstructionReport(False, "; ".join(details), False, None, [], False)
    r = build_relator(node, z_word, x0c, x1c, n)
    system = RelatorSystem(node, [r])
    metric = check_metric(system, bound=bound)
    if not metric.ok:
        return ObstructionReport(True, "twist conditions hold", False,
                                 metric.ratio, [], False)
    verdicts = []
    ok = True
    for l_elem, _ in system.node._bound.pairs:
        if node.factors[0].is_identity_elem(l_elem):
            continue
        v = greendlinger_decide(system, SyllableWord([(FACTOR, 0, l_elem)]),
                                bound=bound)
        verdicts.append((l_elem, v.status))
        if v.status != "nonmember":
            ok = False
    return ObstructionReport(True, "twist conditions hold", True, metric.ratio,
                             verdicts, ok)
