"""Single-proposition hardness encodings: ez(K), the f and g translations,
and decoding a single-proposition model back.

Index convention: the ordering maps propositions onto 1..n, layer i >= 2 of
ez(K) encodes the proposition with index i-1, and the probes use exactly
o(p) next-steps after the marker.  Verified by the round-trip tests.
"""

from . import formula as F
from .errors import EncodingError, EvalError, KripkeError, OrderingError
from .kripke import KripkeStructure
from .mc import eval_mask


class PropOrdering:
    """A bijection from proposition names onto 1..n."""

    def __init__(self, mapping):
        values = sorted(mapping.values())
        if values != list(range(1, len(mapping) + 1)):
            raise OrderingError(f"ordering must be a bijection onto 1..{len(mapping)}: {mapping}")
        self.mapping = dict(mapping)

    @classmethod
    def from_props(cls, props):
        return cls({p: i + 1 for i, p in enumerate(props)})

    def __call__(self, prop):
        try:
            return self.mapping[prop]
        except KeyError:
            raise OrderingError(f"proposition {prop!r} not in ordering") from None

    def prop_at(self, index):
        for p, i in self.mapping.items():
            if i == index:
                return p
        raise KeyError(index)

    @property
    def props(self):
        return tuple(sorted(self.mapping, key=self.mapping.get))

    def __len__(self):
        return len(self.mapping)


def ez_encode(k, o, z="z"):
    """Attach per-state marker chains so a single proposition z encodes labels."""
    if not k.is_classical:
        raise KripkeError("ez_encode expects a classical structure")
    if z in k.props:
        raise KripkeError(f"encoding proposition {z!r} collides with a proposition of {k.name}")
    if set(o.props) != set(k.props):
        raise OrderingError("ordering domain must equal the structure's propositions")
    n = len(o)
    states = [f"({s},{i})" for s in k.states for i in range(n + 2)]
    init = [f"({s},0)" for s in k.init]
    trans = [(f"({s},0)", f"({t},0)") for s, t in k.trans]
    for s in k.states:
        for i in range(n + 1):
            trans.append((f"({s},{i})", f"({s},{i + 1})"))
        trans.append((f"({s},{n + 1})", f"({s},{n + 1})"))
    labels = {}
    for s in k.states:
        for i in range(n + 2):
            if i == 0:
                val = False
            elif i == 1:
                val = True
            else:
                val = k.label3(s, o.prop_at(i - 1)).value == "true"
            labels[f"({s},{i})"] = {z: val}
    return KripkeStructure(f"ez({k.name})", (z,), states, init, trans, labels)


# -- formula translations ---------------------------------------------------


def _neg_literal(a):
    return a.child if isinstance(a, F.Not) else F.Not(a)


def _imp(a, b):
    if isinstance(b, F.FalseConst):
        return _neg_literal(a)
    if isinstance(b, F.TrueConst) or isinstance(a, F.TrueConst):
        return b
    return F.Implies(a, b)


def _conj(items):
    """Conjunction with constant folding and absorption of a conjunct that a
    sibling EG conjunct entails (EG c implies c at the same state)."""
    ordered, todo = [], list(reversed(items))
    while todo:
        f = todo.pop()
        if isinstance(f, F.And):
            todo += (f.right, f.left)
        else:
            ordered.append(f)
    eg_bodies = {
        g.child.child
        for g in ordered
        if isinstance(g, F.PathE) and isinstance(g.child, F.Globally)
    }
    return F.conj([g for g in ordered if g not in eg_bodies])


def _ax_pow(body, n):
    for _ in range(n):
        body = F.PathA(F.Next(body))
    return body


def _x_pow(body, n):
    for _ in range(n):
        body = F.Next(body)
    return body


def _translate(psi, o, z, power, quantifier):
    """The f or g translation of psi, a fold from the leaves up: literal p
    (or !p) becomes the probe "some successor has z, and every one that has
    it reaches z (or !z) after o(p) `power` steps"; a path quantifier f
    becomes quantifier(f, translated child, !z); every other node keeps its
    type over its translated operands."""
    zat = F.Atom(z)

    def combine(f, parts):
        literal = f.child if isinstance(f, F.Not) else f
        if isinstance(literal, F.Atom):
            tail = zat if literal is f else F.Not(zat)
            return F.And(F.PathE(F.Next(zat)), F.PathA(F.Next(_imp(zat, power(tail, o(literal.name))))))
        if isinstance(f, (F.PathA, F.PathE)):
            return quantifier(f, parts[0], F.Not(zat))
        if isinstance(f, (F.SetAtom,) + F.QUANTIFIED):
            raise EvalError(f"no f/g translation of {F.render_formula(f)}")
        return F._rebuild(f, parts)

    return F.fold(psi, lambda f: () if isinstance(f, F.Not) and isinstance(f.child, F.Atom) else f.children(),
                  combine)


def _ctl_quantifier(f, c, nz):
    """f's rule for a CTL quantifier f whose temporal child translates to c:
    every step it takes stays off the markers (!z)."""
    if isinstance(c, F.Future):
        c = F.Until(F.TRUE, c.child)
    elif isinstance(c, F.Globally):
        c = F.Release(F.FALSE, c.child)
    if isinstance(c, F.Next):
        if isinstance(f, F.PathE):
            return F.PathE(F.Next(_conj([nz, c.child])))
        return F.And(F.PathE(F.Next(nz)), F.PathA(F.Next(_imp(nz, c.child))))
    if isinstance(f, F.PathE):
        return F.PathE(type(c)(_conj([nz, c.left]), _conj([nz, c.right])))
    return F.And(F.PathE(F.Globally(nz)), F.PathA(type(c)(_imp(nz, c.left), _imp(nz, c.right))))


def _path_quantifier(f, c, nz):
    """g's rule for a path quantifier f whose path child translates to c: the
    paths that never enter a marker (G !z)."""
    if isinstance(f, F.PathE):
        return F.PathE(F.And(F.Globally(nz), c))
    return F.And(F.PathE(F.Globally(nz)), F.PathA(F.Implies(F.Globally(nz), c)))


def f_translate_ctl(psi, o, z="z"):
    """CTL formula over o's domain to an equisatisfiable CTL formula over z."""
    if not F.is_ctl(psi):
        raise EvalError("f translation is defined for CTL formulas")
    return _translate(psi, o, z, _ax_pow, _ctl_quantifier)


def g_translate_ctl_star(psi, o, z="z"):
    """CTL* state formula over o's domain to one over z alone."""
    if not F.is_state_formula(psi) or isinstance(psi, F.QUANTIFIED):
        raise EvalError("g translation is defined for quantifier-free CTL* state formulas")
    return _translate(psi, o, z, _x_pow, _path_quantifier)


def decode_single_prop(m, props, o, z="z"):
    """Read a structure over props back out of a single-proposition model."""
    if set(m.props) != {z}:
        raise EncodingError(f"decoding expects a structure over {{{z}}}, got {m.props}")
    zmask = m.true_mask(z)
    base = set(m.init)
    frontier = list(m.init)
    while frontier:
        s = frontier.pop()
        for t in m.successors(s):
            if not zmask >> m.index(t) & 1 and t not in base:
                base.add(t)
                frontier.append(t)
    if not base:
        raise EncodingError("empty base: no non-marker states reachable")
    zat = F.Atom(z)
    labels = {s: {} for s in base}
    for p in props:
        probe_t = eval_mask(m, F.PathA(F.Next(_imp(zat, _ax_pow(zat, o(p))))))
        probe_f = eval_mask(m, F.PathA(F.Next(_imp(zat, _ax_pow(F.Not(zat), o(p))))))
        for s in base:
            i = m.index(s)
            t, f = bool(probe_t >> i & 1), bool(probe_f >> i & 1)
            if t == f:
                raise EncodingError(f"inconsistent encoding: probe for {p!r} undetermined at {s!r}")
            labels[s][p] = t
    states = [s for s in m.states if s in base]
    init = [s for s in m.init if s in base]
    trans = [(s, t) for s, t in m.trans if s in base and t in base]
    try:
        return KripkeStructure(f"dec({m.name})", tuple(props), states, init, trans, labels)
    except KripkeError as e:
        raise EncodingError(f"decoded structure is ill-formed: {e}") from e
