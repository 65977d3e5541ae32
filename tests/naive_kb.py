"""Independent naive oracle for the engine's closure.

Deliberately plain: rules R1..R6 are restated over Python sets of claims and
applied until nothing changes, with a min/max evaluator of its own over
Model.levels.  It shares nothing with the package except the data types and
the facts a KnowledgeBase carries; no rounds, ranks, traces or bitmasks.
"""

from taukb.core import CardinalAtom, Min


def value(e, levels):
    """The level of e in a model's levels, or None if an atom is missing."""
    if isinstance(e, CardinalAtom):
        return levels.get(e)
    vals = [value(c, levels) for c in e.args]
    if None in vals:
        return None
    return min(vals) if isinstance(e, Min) else max(vals)


def consistently_less(x, y, models):
    """Does some model put x strictly below y?"""
    for m in models:
        vx, vy = value(x, m.levels), value(y, m.levels)
        if vx is not None and vy is not None and vx < vy:
            return True
    return False


def closure(kb):
    """The fixpoint of R1..R6 over kb's facts.

    Returns (implies, notimplies, lower, upper, exact): the first two are
    sets of (P, Q) property pairs, the other three dicts from each property
    to its set of expressions.
    """
    props = kb.properties
    imp, non = set(), set()
    low = {p: set() for p in props}
    up = {p: set() for p in props}
    for c, _ in kb.facts:
        if c.kind == "implies":
            imp.add((c.subject, c.object))
        elif c.kind == "notimplies":
            non.add((c.subject, c.object))
        elif c.kind == "lower":
            low[c.subject].add(c.expr)
        elif c.kind == "upper":
            up[c.subject].add(c.expr)
    exprs = {e for p in props for e in low[p] | up[p]}
    models = list(kb.registry)
    less = {(x, y) for x in exprs for y in exprs if consistently_less(x, y, models)}

    def size():
        return len(imp) + len(non) + sum(len(low[p]) + len(up[p]) for p in props)

    # R1
    for p in props:
        imp.add((p, p))
    while True:
        before = size()
        # out[P] holds each Q with P -> Q, into[Q] each P with P -> Q
        out = {p: set() for p in props}
        into = {p: set() for p in props}
        for p, q in imp:
            out[p].add(q)
            into[q].add(p)
        # R2: P -> Q, Q -> R gives P -> R
        for p, q in list(imp):
            for r in out[q]:
                imp.add((p, r))
        # R3a: P -> Q, K -/-> Q gives K -/-> P
        for k, q in list(non):
            for p in into[q]:
                non.add((k, p))
        # R3b: P -> Q, P -/-> R gives Q -/-> R
        for p, r in list(non):
            for q in out[p]:
                non.add((q, r))
        # R4: an upper bound of non(P) consistently below a lower bound of
        # non(Q) gives Q -/-> P
        for p in props:
            for q in props:
                if p != q and any((u, l) in less for u in up[p] for l in low[q]):
                    non.add((q, p))
        # R5: P -> Q moves lower bounds up to Q and upper bounds down to P
        for p, q in list(imp):
            low[q] |= low[p]
            up[p] |= up[q]
        if size() == before:
            break
    # R6: a bound that is both lower and upper is an exact value; no rule
    # reads exact values, so it runs once, after the others settle
    exact = {p: low[p] & up[p] for p in props}
    return imp, non, low, up, exact
