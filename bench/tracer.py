"""Per-layer tracing from outside the library.

`Tracer.installed()` replaces the public entry points of each groupforge
module with wrappers for the duration of a `with` block: functions by module
attribute, methods on each class that defines them.  The library calls its
own modules through those attributes (`W.concat`, `enumerate_homs`, `le`),
so the wrappers see every call, internal ones included.

A wrapper opens a span around the call.  Spans nest on a stack; when one
closes, its duration is charged to its parent, and its self time (duration
minus the time covered by its child spans) is added to each name it reports
under.  Only the per-name totals are kept, in memory, and read at the end.
Counts are taken at the same boundaries.  `FiniteGroup.mul` and `inverse`
get counters only: a span costs more than the lookup it would time.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

from groupforge import amalgam, fingrp, smallcancel, universe, words

LONG_WORD = 8  # a word of more than this many syllables counts as long


class Tracer:
    def __init__(self):
        self.stats = defaultdict(float)
        self._stack = []

    # -- wrappers ----------------------------------------------------------

    def span(self, fn, names, count=None):
        """Wrap `fn`; `count(args, result)` returns extra counter deltas."""
        stats, stack = self.stats, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                for name in names:
                    stats[name + ".calls"] += 1
                    stats[name + ".self_s"] += dt - child
            if count is not None:
                for key, delta in count(args, result).items():
                    stats[key] += delta
            return result

        return wrapper

    def gen_span(self, fn, name, budget_error):
        """Wrap a generator function; each resumption is a span."""
        stats, stack = self.stats, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stats[name + ".calls"] += 1
            it = fn(*args, **kwargs)
            while True:
                stack.append(0.0)
                t0 = perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                except budget_error:
                    stats["fingrp.budget_exceeded.count"] += 1
                    raise
                finally:
                    dt = perf_counter() - t0
                    child = stack.pop()
                    if stack:
                        stack[-1] += dt
                    stats[name + ".self_s"] += dt - child
                stats[name + ".homs_out"] += 1
                yield item

        return wrapper

    def counter(self, fn, name):
        stats = self.stats

        @functools.wraps(fn)
        def wrapper(*args):
            stats[name] += 1
            return fn(*args)

        return wrapper

    # -- installation --------------------------------------------------------

    def _plan(self):
        """(owner, attribute, wrapper) for every traced entry point."""
        S = self.span

        def syllables_out(prefix):
            return lambda args, r: {prefix + ".syllables_out": len(r)}

        def reduce_counts(args, r):
            n = len(args[1])
            return {"amalgam.reduce.long_calls": n > LONG_WORD,
                    "amalgam.reduce.syllables_in": n}

        def mul_counts(args, r):
            return {"amalgam.mul_words.long_calls":
                    len(args[1]) + len(args[2]) > LONG_WORD}

        def decide_counts(args, v):
            return {"smallcancel.greendlinger_decide.dehn_steps": v.steps,
                    "smallcancel.greendlinger_decide.undecided":
                        v.status == "undecided"}

        def le_counts(args, r):
            return {"universe.le.true": bool(r)}

        def replay_counts(args, r):
            return {"smallcancel.replay_trace.failures": not r}

        plan = [
            (words, "concat", S(words.concat, ("words.concat",),
                                syllables_out("words.concat"))),
            (words, "invert", S(words.invert, ("words.invert",))),
            (fingrp.FiniteGroup, "mul",
             self.counter(fingrp.FiniteGroup.mul, "fingrp.mul.calls")),
            (fingrp.FiniteGroup, "inverse",
             self.counter(fingrp.FiniteGroup.inverse, "fingrp.inverse.calls")),
            (fingrp, "enumerate_homs",
             self.gen_span(fingrp.enumerate_homs, "fingrp.enumerate_homs",
                           fingrp.BudgetExceeded)),
        ]
        for fname in ("automorphism_group", "is_complete", "is_suitable",
                      "is_localization"):
            plan.append((fingrp, fname,
                         S(getattr(fingrp, fname), ("fingrp." + fname,))))
        for cls in (amalgam.BaseNode, amalgam.AmalgamNode, amalgam.HnnNode):
            names = ("amalgam.reduce",)
            if cls is amalgam.HnnNode:
                names += ("amalgam.hnn_reduce",)
            plan.append((cls, "reduce", S(cls.__dict__["reduce"], names,
                                          reduce_counts)))
            plan.append((cls, "canonical", S(cls.__dict__["canonical"],
                                             ("amalgam.canonical",))))
        plan += [
            (amalgam.Node, "mul_words",
             S(amalgam.Node.mul_words, ("amalgam.mul_words",), mul_counts)),
            (amalgam.AmalgamNode, "weakly_cyclic_reduce",
             S(amalgam.AmalgamNode.weakly_cyclic_reduce,
               ("amalgam.weakly_cyclic_reduce",))),
            (amalgam.Node, "intern", self._intern(amalgam.Node.intern)),
            (amalgam.BaseNode, "intern",
             self.counter(amalgam.BaseNode.intern, "amalgam.intern.calls")),
            (smallcancel, "build_tau",
             S(smallcancel.build_tau, ("smallcancel.build_tau",),
               syllables_out("smallcancel.build_tau"))),
            (smallcancel.RelatorSystem, "__init__",
             S(smallcancel.RelatorSystem.__init__,
               ("smallcancel.RelatorSystem",))),
            (smallcancel, "max_piece",
             S(smallcancel.max_piece, ("smallcancel.max_piece",))),
            (smallcancel, "greendlinger_decide",
             S(smallcancel.greendlinger_decide,
               ("smallcancel.greendlinger_decide",), decide_counts)),
            (smallcancel, "replay_trace",
             S(smallcancel.replay_trace, ("smallcancel.replay_trace",),
               replay_counts)),
            (universe, "standard_family",
             S(universe.standard_family, ("universe.standard_family",))),
            (universe.UGroup, "_built_tables",
             self._tables(universe.UGroup._built_tables)),
            (universe, "le", S(universe.le, ("universe.le",), le_counts)),
            (universe, "check_ugroup",
             S(universe.check_ugroup, ("universe.check_ugroup",))),
            (universe, "is_strong_iso",
             S(universe.is_strong_iso, ("universe.is_strong_iso",))),
            (universe.CodeRegistry, "code",
             S(universe.CodeRegistry.code, ("universe.code",))),
            (universe, "poset_axiom_probe",
             S(universe.poset_axiom_probe, ("universe.poset_axiom_probe",))),
            (universe, "density_simplicity_step",
             S(universe.density_simplicity_step,
               ("universe.density_simplicity_step",))),
        ]
        return plan

    def _intern(self, fn):
        """Registry interning: calls, and words added to the registry."""
        stats = self.stats

        @functools.wraps(fn)
        def wrapper(node, w):
            before = len(node._rwords)
            result = fn(node, w)
            stats["amalgam.intern.calls"] += 1
            stats["amalgam.registry_words"] += len(node._rwords) - before
            return result

        return wrapper

    def _tables(self, fn):
        """UGroup tables: a span only on the access that builds them."""
        timed = self.span(fn, ("universe.tables",))
        stats = self.stats

        @functools.wraps(fn)
        def wrapper(g):
            if g._tables is not None:
                return g._tables
            stats["universe.tables.builds"] += 1
            return timed(g)

        return wrapper

    @contextmanager
    def excluding(self, keep_prefix):
        """Drop the counts made inside the block, except names under
        `keep_prefix`: a job's checks call the library too."""
        before = dict(self.stats)
        try:
            yield
        finally:
            kept = {k: v for k, v in self.stats.items()
                    if k.startswith(keep_prefix)}
            self.stats.clear()
            self.stats.update(before)
            self.stats.update(kept)

    @contextmanager
    def installed(self):
        plan = self._plan()
        saved = [(owner, attr, owner.__dict__[attr])
                 for owner, attr, _ in plan]
        try:
            for owner, attr, wrapper in plan:
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
