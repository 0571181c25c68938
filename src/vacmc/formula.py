"""CTL* formula ASTs, parser, printer, substitution, NNF, polarity, fragments.

Grammar (ASCII): atoms `[a-z][a-z0-9_]*`; constants `true`/`false`;
`!`, `&`, `|`, `->` with precedence ! > temporal U/R > & > | > -> and
right-associative `->`; CTL pairs `AX EX AF EF AG EG`, `A[f U g]`,
`E[f U g]`, `A[f R g]`, `E[f R g]`; CTL* `A(f)`, `E(f)` and path operators
`X F G` (prefix), `U`, `R` (infix); set atoms `{s0,s1}@NAME`; at most one
quantifier prefix `forall x .` / `exists x .` at the root.

Every bottom-up pass over a formula (substitution, NNF, path erasure, the
f/g encodings, the labelling of state subformulas) is one `fold`: a
memoized post-order from an explicit stack.  The parser is the only
recursive pass left; the scans that look down the tree (`subformulas`,
polarity, fragment tests, `==`, the printer) use explicit stacks too.
"""

import enum
import re
from dataclasses import dataclass

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

    def _parts(self):
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        """Structural equality, compared from an explicit stack."""
        todo = [(self, other)]
        while todo:
            a, b = todo.pop()
            if a is b:
                continue
            if type(a) is not type(b) or a._hash != b._hash:
                return False
            for x, y in zip(a._parts(), b._parts()):
                if isinstance(x, Formula):
                    todo.append((x, y))
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
        return tuple(p for p in self._parts() if isinstance(p, Formula))


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


class Not(Formula):
    __slots__ = ("child",)
    _fields = ("child",)


class And(Formula):
    __slots__ = ("left", "right")
    _fields = ("left", "right")


class Or(Formula):
    __slots__ = ("left", "right")
    _fields = ("left", "right")


class Implies(Formula):
    __slots__ = ("left", "right")
    _fields = ("left", "right")


class PathA(Formula):
    __slots__ = ("child",)
    _fields = ("child",)


class PathE(Formula):
    __slots__ = ("child",)
    _fields = ("child",)


class Next(Formula):
    __slots__ = ("child",)
    _fields = ("child",)


class Until(Formula):
    __slots__ = ("left", "right")
    _fields = ("left", "right")


class Release(Formula):
    """Weak-until dual of Until: l R r == not (not l U not r)."""

    __slots__ = ("left", "right")
    _fields = ("left", "right")


class Future(Formula):
    __slots__ = ("child",)
    _fields = ("child",)


class Globally(Formula):
    __slots__ = ("child",)
    _fields = ("child",)


class ForallProp(Formula):
    __slots__ = ("var", "child")
    _fields = ("var", "child")


class ExistsProp(Formula):
    __slots__ = ("var", "child")
    _fields = ("var", "child")


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


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind, what=None):
        tok = self.next()
        if tok[0] != kind:
            raise FormulaSyntaxError(f"expected {what or kind!r}, found {tok[1] or 'end of input'!r}", tok[2])
        return tok

    def parse(self):
        f = self.quantified()
        tok = self.peek()
        if tok[0] != "END":
            raise FormulaSyntaxError(f"trailing input {tok[1]!r}", tok[2])
        return f

    def quantified(self):
        kind, value, _ = self.peek()
        if kind == "WORD" and value in ("forall", "exists"):
            self.next()
            var_tok = self.expect("WORD", "quantified variable")
            if not _ATOM_RE.match(var_tok[1]):
                raise FormulaSyntaxError(f"bad quantified variable {var_tok[1]!r}", var_tok[2])
            self.expect(".", "'.'")
            body = self.implies(False)
            node = ForallProp if value == "forall" else ExistsProp
            return node(var_tok[1], body)
        return self.implies(False)

    def implies(self, no_until):
        left = self.disj(no_until)
        if self.peek()[0] == "->":
            self.next()
            return Implies(left, self.implies(no_until))
        return left

    def disj(self, no_until):
        f = self.conj(no_until)
        while self.peek()[0] == "|":
            self.next()
            f = Or(f, self.conj(no_until))
        return f

    def conj(self, no_until):
        f = self.until(no_until)
        while self.peek()[0] == "&":
            self.next()
            f = And(f, self.until(no_until))
        return f

    def until(self, no_until):
        f = self.unary()
        kind, value, _ = self.peek()
        if not no_until and kind == "WORD" and value in ("U", "R"):
            self.next()
            right = self.until(False)
            return Until(f, right) if value == "U" else Release(f, right)
        return f

    def unary(self):
        kind, value, pos = self.next()
        if kind == "!":
            return Not(self.unary())
        if kind == "(":
            f = self.implies(False)
            self.expect(")", "')'")
            return f
        if kind == "SETATOM":
            body, name = value.rsplit("@", 1)
            states = [s.strip() for s in body[1:-1].split(",") if s.strip()]
            return SetAtom(name, states)
        if kind == "WORD":
            if value in ("X", "F", "G"):
                node = {"X": Next, "F": Future, "G": Globally}[value]
                return node(self.unary())
            if value in ("AX", "EX", "AF", "EF", "AG", "EG"):
                quant = PathA if value[0] == "A" else PathE
                node = {"X": Next, "F": Future, "G": Globally}[value[1]]
                return quant(node(self.unary()))
            if value in ("A", "E"):
                quant = PathA if value == "A" else PathE
                kind2, _, pos2 = self.peek()
                if kind2 == "(":
                    self.next()
                    f = self.implies(False)
                    self.expect(")", "')'")
                    return quant(f)
                if kind2 == "[":
                    self.next()
                    left = self.implies(True)
                    op = self.expect("WORD", "'U' or 'R'")
                    if op[1] not in ("U", "R"):
                        raise FormulaSyntaxError(f"expected 'U' or 'R', found {op[1]!r}", op[2])
                    right = self.implies(False)
                    self.expect("]", "']'")
                    return quant((Until if op[1] == "U" else Release)(left, right))
                raise FormulaSyntaxError(f"expected '(' or '[' after {value!r}", pos2)
            if value == "true":
                return TRUE
            if value == "false":
                return FALSE
            if value in ("forall", "exists"):
                raise FormulaSyntaxError("quantifier allowed only at the root", pos)
            if _ATOM_RE.match(value):
                return Atom(value)
            raise FormulaSyntaxError(f"unknown operator {value!r}", pos)
        raise FormulaSyntaxError(f"unexpected {value or 'end of input'!r}", pos)


def parse_formula(text):
    """Parse formula text into an AST; raises FormulaSyntaxError with position."""
    return _Parser(text).parse()


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
    parts = list(f._parts())
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


def count_occurrences(phi, psi):
    """Number of maximal occurrences of psi in phi."""
    n = 0
    todo = [phi]
    while todo:
        f = todo.pop()
        if f == psi:
            n += 1
        else:
            todo += f.children()
    return n


class Polarity(enum.Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"
    MIXED = "mixed"
    ABSENT = "absent"


def occurrence_polarity(phi, psi):
    """Sign of psi's occurrences by parity of enclosing negations.

    Implies counts one negation on its left-hand side.  Maximal occurrences
    only, matching substitute().
    """
    seen = set()
    todo = [(phi, 0)]
    while todo:
        f, parity = todo.pop()
        if f == psi:
            seen.add(parity)
        elif isinstance(f, Not):
            todo.append((f.child, parity ^ 1))
        elif isinstance(f, Implies):
            todo += ((f.left, parity ^ 1), (f.right, parity))
        else:
            todo += ((c, parity) for c in f.children())
    if not seen:
        return Polarity.ABSENT
    if seen == {0}:
        return Polarity.POSITIVE
    if seen == {1}:
        return Polarity.NEGATIVE
    return Polarity.MIXED


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


_MARKER = Atom("__sub__")


def _marker_outside(f, marker, scope):
    """No occurrence of marker (or its negation) inside a `scope` quantifier."""
    todo = [(f, False)]
    while todo:
        f, inside = todo.pop()
        if f == marker or (isinstance(f, Not) and f.child == marker):
            if inside:
                return False
        else:
            inside = inside or isinstance(f, scope)
            todo += ((c, inside) for c in f.children())
    return True


@dataclass(frozen=True)
class Analysis:
    is_ctl: bool
    is_ltl: bool
    is_actl_star: bool
    is_ectl_star: bool
    size: int
    universal_in: bool
    existential_in: bool


def analyze(phi, psi=None):
    """Fragment flags, size, and quantifier-scope placement of psi in phi."""
    if isinstance(phi, QUANTIFIED):
        raise ValueError("analyze expects a quantifier-free formula")
    n = nnf(phi)
    actl = not _contains_quantifier(n, PathE)
    ectl = not _contains_quantifier(n, PathA)
    ltl = isinstance(phi, PathA) and is_pure_path(phi.child)
    if psi is None:
        universal = existential = False
    else:
        marked = nnf(substitute(phi, psi, _MARKER))
        universal = _marker_outside(marked, _MARKER, PathE)
        existential = _marker_outside(marked, _MARKER, PathA)
    return Analysis(
        is_ctl=is_ctl(phi),
        is_ltl=ltl,
        is_actl_star=actl,
        is_ectl_star=ectl,
        size=formula_size(phi),
        universal_in=universal,
        existential_in=existential,
    )


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
