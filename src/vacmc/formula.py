"""CTL* formula ASTs, parser, printer, substitution, NNF, polarity, fragments.

Grammar (ASCII): atoms `[a-z][a-z0-9_]*`; constants `true`/`false`;
`!`, `&`, `|`, `->` with precedence ! > temporal U/R > & > | > -> and
right-associative `->`; CTL pairs `AX EX AF EF AG EG`, `A[f U g]`,
`E[f U g]`, `A[f R g]`, `E[f R g]`; CTL* `A(f)`, `E(f)` and path operators
`X F G` (prefix), `U`, `R` (infix); set atoms `{s0,s1}@NAME`; at most one
quantifier prefix `forall x .` / `exists x .` at the root.

Every bottom-up pass over a formula (substitution, NNF, path erasure, the
f/g encodings, the labelling of state subformulas) is one `fold`: a
memoized post-order from an explicit stack.  The parser is one loop over an
operand stack and an operator stack; the scans that look down the tree
(`subformulas`, the occurrence walk, fragment tests, `==`, the printer) use
explicit stacks too, so no pass recurses.
"""

import enum
import re
from functools import cached_property

from .errors import FormulaSyntaxError


class Formula:
    """Base class for formula nodes. Instances are immutable and hashable."""

    __slots__ = ("_hash",)
    _fields = ()

    def __init__(self, *args):
        if len(args) != len(self._fields):
            raise TypeError(f"{type(self).__name__} takes {len(self._fields)} arguments")
        for name, value in zip(self._fields, args):
            setattr(self, name, value)
        self._hash = hash((type(self).__name__,) + args)

    def __eq__(self, other):
        """Structural equality, compared from an explicit stack."""
        if self is other:
            return True
        if type(self) is not type(other) or self._hash != other._hash:
            return False
        todo = [(self, other)]
        pop, push = todo.pop, todo.append
        while todo:
            a, b = pop()
            if a is b:
                continue
            if type(a) is not type(b) or a._hash != b._hash:
                return False
            for name in a._fields:
                x, y = getattr(a, name), getattr(b, name)
                if isinstance(x, Formula):
                    push((x, y))
                elif x != y:
                    return False
        return True

    def __ne__(self, other):
        return not self.__eq__(other)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"<{type(self).__name__} {render_formula(self)!r}>"

    def children(self):
        """The fields that are formulas, in order.  A class with formula fields
        returns them directly; called unbound, as Formula.children(f), this
        defers to f's class, and a leaf has none."""
        own = type(self).children
        return () if own is Formula.children else own(self)


class _Unary(Formula):
    __slots__ = ("child",)
    _fields = ("child",)

    def children(self):
        return (self.child,)


class _Binary(Formula):
    __slots__ = ("left", "right")
    _fields = ("left", "right")

    def children(self):
        return (self.left, self.right)


class Atom(Formula):
    __slots__ = ("name",)
    _fields = ("name",)


class SetAtom(Formula):
    """A set of states of a named structure, used as an atomic proposition.

    `ref` optionally carries the structure object itself; it is excluded
    from equality and hashing so parsed and constructed atoms compare equal.
    """

    __slots__ = ("structure", "states", "ref")
    _fields = ("structure", "states")

    def __init__(self, structure, states, ref=None):
        super().__init__(structure, tuple(sorted(set(states))))
        self.ref = ref


class TrueConst(Formula):
    __slots__ = ()


class FalseConst(Formula):
    __slots__ = ()


TRUE = TrueConst()
FALSE = FalseConst()


class Not(_Unary):
    __slots__ = ()


class And(_Binary):
    __slots__ = ()


class Or(_Binary):
    __slots__ = ()


class Implies(_Binary):
    __slots__ = ()


class PathA(_Unary):
    __slots__ = ()


class PathE(_Unary):
    __slots__ = ()


class Next(_Unary):
    __slots__ = ()


class Until(_Binary):
    __slots__ = ()


class Release(_Binary):
    """Weak-until dual of Until: l R r == not (not l U not r)."""

    __slots__ = ()


class Future(_Unary):
    __slots__ = ()


class Globally(_Unary):
    __slots__ = ()


class _Quantifier(Formula):
    __slots__ = ("var", "child")
    _fields = ("var", "child")

    def children(self):
        return (self.child,)


class ForallProp(_Quantifier):
    __slots__ = ()


class ExistsProp(_Quantifier):
    __slots__ = ()


_BINARY = (And, Or, Implies, Until, Release)
_UNARY = (Not, Next, Future, Globally, PathA, PathE)
QUANTIFIED = (ForallProp, ExistsProp)
# State formulas whatever their children are.
STATE_LEAVES = (Atom, SetAtom, TrueConst, FalseConst, PathA, PathE) + QUANTIFIED


def conj(items):
    """Left-associated conjunction of a list, folding the constants."""
    out = None
    for f in items:
        if isinstance(f, FalseConst):
            return FALSE
        if isinstance(f, TrueConst):
            continue
        out = f if out is None else And(out, f)
    return TRUE if out is None else out


# ---------------------------------------------------------------------------
# The bottom-up pass


_READY = object()  # on the stack above an item whose operands' values are collected
_MISSING = object()


def fold(root, operands, combine, memo=None):
    """The value of root, computed bottom-up over the items below it.

    operands(item) gives the items whose values make item's, and
    combine(item, values) computes it from their values in order (an item
    without operands gets ()).  Every value computed goes into memo, and an
    item found there is not expanded again: each distinct item (by equality,
    so structurally for formulas) is combined once, and a memo passed in can
    be shared between folds or start with values of its own.  The post-order
    runs from an explicit stack, so depth is unbounded.
    """
    if memo is None:
        memo = {}
    stack, values = [root], []
    while stack:
        item = stack.pop()
        if item is _READY:
            item, n = stack.pop(), stack.pop()
            value = memo[item] = combine(item, values[-n:])
            del values[-n:]
        else:
            value = memo.get(item, _MISSING)
            if value is _MISSING:
                parts = operands(item)
                if parts:
                    stack += (len(parts), item, _READY)
                    stack += reversed(parts)
                    continue
                value = memo[item] = combine(item, ())
        values.append(value)
    return values[0]


# ---------------------------------------------------------------------------
# Parsing


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<setatom>\{[^{}]*\}@[A-Za-z_][A-Za-z0-9_|/~^#]*)"
    r"|(?P<word>[A-Za-z][A-Za-z0-9_]*)"
    r"|(?P<arrow>->)"
    r"|(?P<sym>[!&|()\[\].]))"
)

_KEYWORDS = {"true", "false", "forall", "exists"}
_ATOM_RE = re.compile(r"[a-z][a-z0-9_]*\Z")


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise FormulaSyntaxError(f"unexpected character {text[pos:].strip()[0]!r}", pos)
        if m.group("setatom"):
            tokens.append(("SETATOM", m.group("setatom"), m.start()))
        elif m.group("word"):
            tokens.append(("WORD", m.group("word"), m.start()))
        elif m.group("arrow"):
            tokens.append(("->", "->", m.start()))
        else:
            tokens.append((m.group("sym"), m.group("sym"), m.start()))
        pos = m.end()
    tokens.append(("END", "", len(text)))
    return tokens


# Infix operators: token -> (precedence, right-associative, node).  A prefix
# operator takes the operand after it alone, so it binds tighter than any of
# them.  An open group is a barrier (0) that no reduction passes; inside
# A[..] / E[..] the U or R that separates the operands waits above it (1).
_INFIX_OPS = {"->": (2, True, Implies), "|": (3, False, Or), "&": (4, False, And),
              "U": (5, True, Until), "R": (5, True, Release)}
_TIGHT = 6
_PREFIX_OPS = {"!": (Not,), "X": (Next,), "F": (Future,), "G": (Globally,)}
_PREFIX_OPS.update({q + t: (quant,) + _PREFIX_OPS[t] for q, quant in (("A", PathA), ("E", PathE)) for t in "XFG"})
# What closes an open group other than the root (END), as errors name it; "U"
# is the first half of A[..] / E[..], which the first U or R at its level ends.
_CLOSERS = {")": "')'", "]": "']'", "U": "'U' or 'R'"}


def _reduce(ops, values, prec):
    """Apply the pending operators of precedence prec or more, top first."""
    while ops[-1][0] >= prec:
        p, node = ops.pop()
        right = values.pop()
        values.append(node(right) if p == _TIGHT else node(values.pop(), right))


def _expect_failed(what, tok):
    return FormulaSyntaxError(f"expected {what!r}, found {tok[1] or 'end of input'!r}", tok[2])


def _leaf(kind, value, pos):
    """The formula a token in operand position stands for alone."""
    if kind == "SETATOM":
        body, name = value.rsplit("@", 1)
        return SetAtom(name, [s.strip() for s in body[1:-1].split(",") if s.strip()])
    if kind != "WORD":
        raise FormulaSyntaxError(f"unexpected {value or 'end of input'!r}", pos)
    if value in ("true", "false"):
        return TRUE if value == "true" else FALSE
    if value in ("forall", "exists"):
        raise FormulaSyntaxError("quantifier allowed only at the root", pos)
    if not _ATOM_RE.match(value):
        raise FormulaSyntaxError(f"unknown operator {value!r}", pos)
    return Atom(value)


def parse_formula(text):
    """Parse formula text into an AST; raises FormulaSyntaxError with position.

    One loop over the tokens with an operand stack and an operator stack,
    driven by the operator tables above, so nesting depth is unbounded.
    """
    tokens = _tokenize(text)
    i, quantifier = 0, None
    if tokens[0][1] in ("forall", "exists"):
        kind, var, pos = tokens[1]
        if kind != "WORD":
            raise _expect_failed("quantified variable", tokens[1])
        if not _ATOM_RE.match(var):
            raise FormulaSyntaxError(f"bad quantified variable {var!r}", pos)
        if tokens[2][0] != ".":
            raise _expect_failed("'.'", tokens[2])
        i, quantifier = 3, ForallProp if tokens[0][1] == "forall" else ExistsProp
    values, ops, closers = [], [(0, None)], ["END"]
    operand = True  # the next token starts an operand
    while True:
        kind, value, pos = tokens[i]
        i += 1
        if operand:
            if value in _PREFIX_OPS:
                ops += [(_TIGHT, node) for node in _PREFIX_OPS[value]]
            elif value in ("(", "A", "E"):
                opener = value
                if value != "(":
                    opener, _, at = tokens[i]
                    i += 1
                    if opener not in ("(", "["):
                        raise FormulaSyntaxError(f"expected '(' or '[' after {value!r}", at)
                    ops.append((_TIGHT, PathA if value == "A" else PathE))
                ops.append((0, None))
                closers.append(")" if opener == "(" else "U")
            else:
                values.append(_leaf(kind, value, pos))
                operand = False
            continue
        closer = closers[-1]
        if closer == "U" and value in ("U", "R"):
            _reduce(ops, values, 1)
            ops.append((1, _INFIX_OPS[value][2]))
            closers[-1] = "]"
        elif value in _INFIX_OPS:
            prec, right_assoc, node = _INFIX_OPS[value]
            _reduce(ops, values, prec + right_assoc)  # an equal right-associative one stays pending
            ops.append((prec, node))
        elif kind == closer:
            _reduce(ops, values, 1)
            del ops[-1], closers[-1]
            if kind == "END":
                return values[0] if quantifier is None else quantifier(tokens[1][1], values[0])
            continue
        elif closer == "END":
            raise FormulaSyntaxError(f"trailing input {value!r}", pos)
        elif closer == "U" and kind == "WORD":
            raise FormulaSyntaxError(f"expected 'U' or 'R', found {value!r}", pos)
        else:
            raise _expect_failed(_CLOSERS[closer], tokens[i - 1])
        operand = True


# ---------------------------------------------------------------------------
# Printing


def _is_literal(f):
    while isinstance(f, Not):
        f = f.child
    return isinstance(f, (Atom, SetAtom, TrueConst, FalseConst))


def _is_bracket_form(f):
    return isinstance(f, (PathA, PathE)) and isinstance(f.child, (Until, Release))


def _unary_op_arg(arg):
    """The items rendering the operand of a prefix operator."""
    if _is_literal(arg) or isinstance(arg, _UNARY):
        return (arg,)
    return ("(", arg, ")")


def _binary_operand(arg):
    """The items rendering an operand of an infix operator."""
    if _is_literal(arg) or _is_bracket_form(arg):
        return (arg,)
    return ("(", arg, ")")


def _left_spine(f, node):
    items = []
    while isinstance(f, node):
        items.append(f.right)
        f = f.left
    items.append(f)
    items.reverse()
    return items


_PREFIX = {Next: "X ", Future: "F ", Globally: "G "}
_INFIX = {Until: " U ", Release: " R "}


def _render_items(f):
    """One node's rendering: a sequence of strings and subformulas, in order."""
    if isinstance(f, Atom):
        return (f.name,)
    if isinstance(f, SetAtom):
        return ("{" + ",".join(f.states) + "}@" + f.structure,)
    if isinstance(f, TrueConst):
        return ("true",)
    if isinstance(f, FalseConst):
        return ("false",)
    if isinstance(f, Not):
        return ("!",) + _unary_op_arg(f.child)
    if isinstance(f, (And, Or)):
        op = " & " if isinstance(f, And) else " | "
        items = []
        for g in _left_spine(f, type(f)):
            items += (op,) + _binary_operand(g)
        return items[1:]
    if isinstance(f, Implies):
        right = (f.right,) if isinstance(f.right, Implies) else _binary_operand(f.right)
        return _binary_operand(f.left) + (" -> ",) + right
    if isinstance(f, (Until, Release)):
        return _binary_operand(f.left) + (_INFIX[type(f)],) + _binary_operand(f.right)
    if isinstance(f, (Next, Future, Globally)):
        return (_PREFIX[type(f)],) + _unary_op_arg(f.child)
    if isinstance(f, (PathA, PathE)):
        q = "A" if isinstance(f, PathA) else "E"
        c = f.child
        if isinstance(c, (Next, Future, Globally)):
            return (q + _PREFIX[type(c)],) + _unary_op_arg(c.child)
        if isinstance(c, (Until, Release)):
            return (q + "[",) + _binary_operand(c.left) + (_INFIX[type(c)], c.right, "]")
        return (q + " (", c, ")")
    if isinstance(f, QUANTIFIED):
        kw = "forall" if isinstance(f, ForallProp) else "exists"
        return (f"{kw} {f.var} . ", f.child)
    raise TypeError(f"not a formula: {f!r}")


def render_formula(f):
    """Deterministic text form; parse_formula(render_formula(f)) == f.

    Expands nodes into strings from an explicit stack, so depth is unbounded
    and the output is joined once.
    """
    out = []
    stack = [f]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
        else:
            stack += reversed(_render_items(item))
    return "".join(out)


# ---------------------------------------------------------------------------
# Substitution and occurrence analysis


def _rebuild(f, new_children):
    parts = [getattr(f, name) for name in f._fields]
    it = iter(new_children)
    changed = False
    for i, p in enumerate(parts):
        if isinstance(p, Formula):
            q = next(it)
            if q is not p:
                parts[i] = q
                changed = True
    return type(f)(*parts) if changed else f


def substitute(phi, psi, chi):
    """Replace every maximal occurrence of psi (structural equality) by chi.

    A fold whose memo starts with psi -> chi, so an occurrence is never
    expanded; a subterm that occurs more than once is rebuilt once.
    """
    return fold(phi, Formula.children, _rebuild, {psi: chi})


def _occurrences(phi, psi):
    """(parity, under E, under A) for each maximal occurrence of psi in phi.

    Parity counts the negations above the occurrence, the left side of -> as
    one.  A path quantifier above it counts as what nnf makes of it, its dual
    at odd parity, so the flags place the occurrence inside an E or an A of
    the negation normal form.
    """
    found = []
    todo = [(phi, 0, False, False)]
    while todo:
        f, parity, in_e, in_a = todo.pop()
        if f == psi:
            found.append((parity, in_e, in_a))
        elif isinstance(f, Not):
            todo.append((f.child, parity ^ 1, in_e, in_a))
        elif isinstance(f, Implies):
            todo += ((f.left, parity ^ 1, in_e, in_a), (f.right, parity, in_e, in_a))
        else:
            if isinstance(f, (PathA, PathE)):
                universal = isinstance(f, PathA) == (parity == 0)
                in_e, in_a = in_e or not universal, in_a or universal
            todo += ((c, parity, in_e, in_a) for c in f.children())
    return found


def count_occurrences(phi, psi):
    """Number of maximal occurrences of psi in phi."""
    return len(_occurrences(phi, psi))


class Polarity(enum.Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"
    MIXED = "mixed"
    ABSENT = "absent"


_BY_PARITIES = {(): Polarity.ABSENT, (0,): Polarity.POSITIVE, (1,): Polarity.NEGATIVE, (0, 1): Polarity.MIXED}


def occurrence_polarity(phi, psi):
    """Sign of psi's maximal occurrences by the parity of the negations above
    them; the left side of -> counts as one."""
    return _BY_PARITIES[tuple(sorted({parity for parity, _, _ in _occurrences(phi, psi)}))]


# ---------------------------------------------------------------------------
# Negation normal form


_NNF_DUAL = {And: Or, Or: And, PathA: PathE, PathE: PathA, Next: Next,
             Until: Release, Release: Until, Future: Globally, Globally: Future}


def nnf(phi):
    """Push negations to the atoms; A/E, U/R, F/G dualities; expands ->.

    The input must be quantifier-free.  A fold over (node, polarity) items:
    the NNF of the node itself when polarity is True, of its negation when
    False.
    """
    if isinstance(phi, QUANTIFIED):
        raise ValueError("nnf expects a quantifier-free formula")
    return fold((phi, True), _nnf_operands, _nnf_node)


def _nnf_operands(item):
    """(operand, polarity) items whose NNFs make up the NNF of item."""
    f, pos = item
    if isinstance(f, Not):
        return ((f.child, not pos),)
    if isinstance(f, Implies):
        return ((f.left, not pos), (f.right, pos))
    return tuple((c, pos) for c in f.children())


def _nnf_node(item, operands):
    f, pos = item
    if isinstance(f, Not):
        return operands[0]
    if isinstance(f, Implies):
        return Or(*operands) if pos else And(*operands)
    if pos:
        return _rebuild(f, operands)
    if isinstance(f, (Atom, SetAtom)):
        return Not(f)
    if isinstance(f, TrueConst):
        return FALSE
    if isinstance(f, FalseConst):
        return TRUE
    if type(f) not in _NNF_DUAL:
        raise TypeError(f"not a formula: {f!r}")
    return _NNF_DUAL[type(f)](*operands)


# ---------------------------------------------------------------------------
# Fragment analysis


def atoms(phi):
    """All proposition names occurring in phi (quantified variables included)."""
    return {f.name for f in subformulas(phi) if isinstance(f, Atom)}


def subformulas(phi):
    """Distinct subterms of phi, the DAG reading of the formula."""
    out = set()
    todo = [phi]
    while todo:
        f = todo.pop()
        if f not in out:
            out.add(f)
            todo.extend(f.children())
    return out


def formula_size(phi):
    """|phi| = number of distinct subterms (common subformulas shared)."""
    return len(subformulas(phi))


def is_state_formula(f):
    """True for formulas whose truth is a property of a state."""
    todo = [f]
    while todo:
        f = todo.pop()
        if isinstance(f, (Not, And, Or, Implies)):
            todo += f.children()
        elif not isinstance(f, STATE_LEAVES):
            return False
    return True


def is_pure_path(f):
    """No path quantifier anywhere inside."""
    return not _contains_quantifier(f, (PathA, PathE) + QUANTIFIED)


def is_ctl(phi):
    """Every path quantifier immediately pairs with one temporal operator."""
    todo = [phi]
    while todo:
        f = todo.pop()
        if isinstance(f, (Atom, SetAtom, TrueConst, FalseConst)):
            continue
        if isinstance(f, (Not, And, Or, Implies)):
            todo += f.children()
        elif isinstance(f, (PathA, PathE)) and isinstance(f.child, (Next, Future, Globally, Until, Release)):
            todo += f.child.children()
        else:
            return False
    return True


def _contains_quantifier(f, kinds):
    return any(isinstance(g, kinds) for g in subformulas(f))


class Analysis:
    """Fragment flags, size, and quantifier-scope placement of psi in phi,
    each computed on first read."""

    def __init__(self, phi, psi):
        self._phi, self._psi = phi, psi

    _nnf = cached_property(lambda self: nnf(self._phi))
    _found = cached_property(lambda self: () if self._psi is None else _occurrences(self._phi, self._psi))
    is_ctl = cached_property(lambda self: is_ctl(self._phi))
    is_ltl = cached_property(lambda self: isinstance(self._phi, PathA) and is_pure_path(self._phi.child))
    is_actl_star = cached_property(lambda self: not _contains_quantifier(self._nnf, PathE))
    is_ectl_star = cached_property(lambda self: not _contains_quantifier(self._nnf, PathA))
    size = cached_property(lambda self: formula_size(self._phi))
    universal_in = cached_property(
        lambda self: self._psi is not None and not any(in_e for _, in_e, _ in self._found))
    existential_in = cached_property(
        lambda self: self._psi is not None and not any(in_a for _, _, in_a in self._found))


def analyze(phi, psi=None):
    """The Analysis of psi in phi; each field is computed when first read."""
    if isinstance(phi, QUANTIFIED):
        raise ValueError("analyze expects a quantifier-free formula")
    return Analysis(phi, psi)


def fresh_prop(taken, base="x"):
    """A proposition name not occurring in `taken`."""
    if base not in taken:
        return base
    i = 0
    while f"{base}{i}" in taken:
        i += 1
    return f"{base}{i}"


def strip_quantifier(q):
    """(kind, var, body) of a root-quantified formula."""
    if isinstance(q, ForallProp):
        return "forall", q.var, q.child
    if isinstance(q, ExistsProp):
        return "exists", q.var, q.child
    raise ValueError("expected a root-quantified formula")
