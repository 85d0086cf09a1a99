"""Syllable words over tagged factor alphabets.

A word is a sequence of syllables.  Each syllable is either an element of a
named factor, written ``f<id>:<elt-index>``, or a stable letter occurrence,
written ``t<id>`` / ``t<id>^-1``.  The empty word is written ``1``.

This module performs no group multiplication itself.  Merging adjacent
syllables of the same factor needs the factor's multiplication, which the
owning scheme supplies through a small ops object (`FactorOps`).  Everything
heavier (shared-subgroup pushes, Britton pinches, transversals) lives in the
scheme modules.
"""

from __future__ import annotations

from typing import Protocol

FACTOR = "f"
LETTER = "t"


class FactorOps(Protocol):
    """Multiplication hooks for the factors a word ranges over."""

    def mul(self, factor: int, a: int, b: int) -> int: ...

    def inv(self, factor: int, a: int) -> int: ...

    def is_identity(self, factor: int, a: int) -> bool: ...


class SyllableWord(tuple):
    """Immutable syllable sequence.  Use the module functions to combine."""

    __slots__ = ()

    def __repr__(self):
        return f"SyllableWord({format_word(self)!r})"


class Reduced(SyllableWord):
    """A word reduced at one tower node.

    `at` is that node's serial number.  Serials are never reused, so the tag
    names no other node and keeps no node alive.  Only a node's own
    reduced and canonical forms are made so; `invert` keeps the tag, and
    every other function here returns a plain SyllableWord.
    """


def reduced(syllables, at: int) -> Reduced:
    w = Reduced(syllables)
    w.at = at
    return w


EMPTY = SyllableWord()


def _push(out: list, syl, ops: FactorOps) -> None:
    while True:
        kind, ident, val = syl
        if kind == FACTOR:
            if ops.is_identity(ident, val):
                return
            if out and out[-1][0] == FACTOR and out[-1][1] == ident:
                prev = out.pop()
                syl = (FACTOR, ident, ops.mul(ident, prev[2], val))
                continue
            out.append(syl)
            return
        if out and out[-1][0] == LETTER and out[-1][1] == ident and out[-1][2] == -val:
            out.pop()
            return
        out.append(syl)
        return


def concat(w1, w2, ops: FactorOps) -> SyllableWord:
    """w1 . w2 with adjacent same-factor syllables merged, identity
    syllables dropped and adjacent t t^-1 cancelled.  For a normalized w1
    the result is normalized, so `concat(EMPTY, w, ops)` normalizes w.
    Anything deeper (shared-subgroup membership, Britton pinches through a
    base element) is the owning scheme's job.

    Tower nodes multiply by splicing reduced words (`Node.splice`), not
    with this.  It serves the tests as their merge-normalization oracle and
    the benchmark's tracer as a layer to count."""
    out = list(w1)
    for syl in w2:
        _push(out, syl, ops)
    return SyllableWord(out)


def invert(w, ops: FactorOps) -> SyllableWord:
    """Inverse word.  Inverting a normalized word keeps it normalized, and
    the inverse of a word reduced at a node is reduced there: the tag is
    kept.  Each distinct syllable is inverted once."""
    memo: dict = {}
    out = []
    for syl in reversed(w):
        got = memo.get(syl)
        if got is None:
            kind, ident, val = syl
            if kind == FACTOR:
                got = (FACTOR, ident, ops.inv(ident, val))
            else:
                got = (LETTER, ident, -val)
            memo[syl] = got
        out.append(got)
    if type(w) is Reduced:
        return reduced(out, w.at)
    return SyllableWord(out)


# -- text form ---------------------------------------------------------------

def parse_word(text: str) -> SyllableWord:
    """Parse the `f<id>:<idx>` / `t<id>` / `t<id>^-1` syntax.

    No normalization is applied; the caller reduces against its scheme.
    """
    tokens = text.split()
    if tokens == ["1"]:
        return EMPTY
    syls = []
    for tok in tokens:
        syls.append(_parse_token(tok))
    return SyllableWord(syls)


def _parse_token(tok: str):
    if tok.startswith(FACTOR):
        body = tok[1:]
        if ":" not in body:
            raise ValueError(f"bad factor syllable {tok!r}, expected f<id>:<elt-index>")
        fid, _, idx = body.partition(":")
        try:
            return (FACTOR, int(fid), int(idx))
        except ValueError:
            raise ValueError(f"bad factor syllable {tok!r}") from None
    if tok.startswith(LETTER):
        body = tok[1:]
        sign = 1
        if "^" in body:
            body, _, exp = body.partition("^")
            if exp == "-1":
                sign = -1
            elif exp != "1":
                raise ValueError(f"stable letter exponent must be 1 or -1, got {tok!r}")
        try:
            return (LETTER, int(body), sign)
        except ValueError:
            raise ValueError(f"bad stable letter {tok!r}") from None
    raise ValueError(f"unrecognized syllable {tok!r}")


def format_word(w) -> str:
    if not w:
        return "1"
    parts = []
    for kind, ident, val in w:
        if kind == FACTOR:
            parts.append(f"f{ident}:{val}")
        elif val == 1:
            parts.append(f"t{ident}")
        else:
            parts.append(f"t{ident}^-1")
    return " ".join(parts)
