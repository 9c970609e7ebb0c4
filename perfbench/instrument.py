"""Hooks that let a traced sweep see inside coefficient supply.

Nothing here edits spspec.  Two hooks are installed for a traced sweep and
removed after it:

* `gauss_hermite_rule` and `hermite_batch` are replaced by timing wrappers
  in the namespaces of `coeffs` and `evaluators`, where those modules bind
  them.  Rules built are read from the public `cache_info()` of the rule
  cache around each call.
* Hermite caches are instances of a `HermiteCache` subclass whose
  `coefficient` records a folded span and classifies each lookup as a
  parity zero, a hit, or a miss (a quadrature computed).

A wrapped name that has gone missing raises instead of reporting zero.
"""

from __future__ import annotations

from contextlib import contextmanager

from spspec import coeffs, evaluators, quadrature
from spspec.coeffs import HermiteCache

BINDERS = (coeffs, evaluators)  # the modules whose namespaces bind the quadrature names


def _require(module, name):
    fn = getattr(module, name, None)
    if not callable(fn):
        raise RuntimeError(
            f"{module.__name__}.{name} is gone; the traced run cannot count "
            f"quadrature.{name} and refuses to report zero for it"
        )
    return fn


def rule_cache_misses() -> int:
    info = getattr(quadrature.gauss_hermite_rule, "cache_info", None)
    if info is None:
        raise RuntimeError("quadrature.gauss_hermite_rule.cache_info() is gone; rules built cannot be counted")
    return info().misses


def _rule_wrapper(tr, fn):
    def gauss_hermite_rule(n):
        before = rule_cache_misses()
        rule = tr.call("quadrature.gauss_hermite_rule", fn, n)
        tr.count("quadrature.rules_built", rule_cache_misses() - before)
        return rule

    return gauss_hermite_rule


def _batch_wrapper(tr, fn):
    def hermite_batch(nmax, x):
        rows = tr.call("quadrature.hermite_batch", fn, nmax, x)
        tr.count("quadrature.hermite_batch.values", rows.size)
        return rows

    return hermite_batch


@contextmanager
def traced(tr):
    """Route the quadrature calls of coeffs and evaluators through `tr`."""
    saved = []
    try:
        for name, wrapper in (("gauss_hermite_rule", _rule_wrapper), ("hermite_batch", _batch_wrapper)):
            for module in BINDERS:
                fn = _require(module, name)
                saved.append((module, name, fn))
                setattr(module, name, wrapper(tr, fn))
        yield
    finally:
        for module, name, fn in saved:
            setattr(module, name, fn)


def cache_class(tr):
    """HermiteCache itself when tracing is off, else a counting subclass."""
    if not tr.on:
        return HermiteCache

    class TracedCache(HermiteCache):
        __slots__ = ()

        def coefficient(self, ell, js):
            flat = [x[0] if isinstance(x, tuple) else x for x in (ell, *js)]
            if sum(flat) % 2:
                kind = "coeffs.coefficient.parity_zeros"
            elif tuple(sorted(flat)) in self.table:
                kind = "coeffs.coefficient.hits"
            else:
                kind = "coeffs.coefficient.misses"
            idx, t0 = tr.open("coeffs.coefficient", fold=True)
            try:
                value = HermiteCache.coefficient(self, ell, js)
            finally:
                tr.close(idx, t0)
            tr.count(kind, 1)
            if value:
                tr.count("coeffs.coefficient.nonzero", 1)
            return value

    return TracedCache


def adopt(cache: HermiteCache, tr) -> HermiteCache:
    """The same coefficients in the cache class `tr` uses."""
    return cache_class(tr)(cache.arity, cache.table) if tr.on else cache
