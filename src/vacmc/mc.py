"""Model checking on classical structures.

CTL-shaped nodes are labelled with state bitmasks by backward search over
the predecessor lists (Clarke-Emerson-Sistla), in time linear in the
structure: EX is pre(mask), E[l U r] is a worklist from r through l, E[l R r]
drops the states of r & ~l whose successors have all been dropped, counting
them down per state, and the A-forms are complements of E-forms.  The
worklists keep bytearray flags and turn them into one mask at the end.
Subformulas are labelled by `formula.fold`, the one bottom-up pass over
formulas, so depth is unbounded.

Genuine path formulas are decided in the automata-theoretic style
(Vardi-Wolper): a path formula's closure automaton (`_Closure`) does not
depend on any structure.  Its atoms and one-step laws depend only on a
state's leaf signature, the set of maximal state subformulas that hold
there, so they are built once per signature and formula.  `AtomGraph` is
the automaton's product with one structure, accepted through a
self-fulfilling SCC.  Set atoms of a foreign structure are resolved through
a bisimulation computed on demand.

A sweep over the labelings of one fresh atom labels a chunk of them at once,
one bit per labeling (`_LaneSweep`): a subformula that contains the atom
gets one int per state, whose bit j says whether it holds there under the
chunk's j-th labeling, and the connectives and CTL fixpoints run on these
lanes.  What does not contain the atom is labelled once.  A path
quantifier over the atom keeps its closure automaton throughout and builds
one product per chunk, whose nodes are enabled on the lanes of their leaf
signature; a fair-EG fixpoint over lanes (Emerson-Lei) decides the chunk.
A chunk's verdicts are one int, the AND of the root's lanes over the
initial states.
"""

from dataclasses import dataclass

from . import formula as F
from .errors import EvalError
from .kripke import _predecessor_lists, flags_mask, mask_flags, mask_members

_TEMPORAL = (F.Next, F.Until, F.Release, F.Future, F.Globally)
_CONNECTIVES = (F.Not, F.And, F.Or, F.Implies)
_NOT, _AND, _OR, _IMPLIES, _X, _U, _R, _F, _G = range(9)
_CODE = {F.Not: _NOT, F.And: _AND, F.Or: _OR, F.Implies: _IMPLIES,
         F.Next: _X, F.Until: _U, F.Release: _R, F.Future: _F, F.Globally: _G}


@dataclass(frozen=True)
class StateSet:
    """A subset of a named structure's states."""

    structure: str
    names: tuple

    def __contains__(self, state):
        return state in self.names


def _state_nodes(root):
    """is_state_formula of every node of root down to its path quantifiers,
    in one fold (asking it node by node from the top is quadratic)."""
    state = {}
    F.fold(root, lambda f: () if isinstance(f, F.STATE_LEAVES) else f.children(),
           lambda f, parts: not parts or isinstance(f, _CONNECTIVES) and all(parts), state)
    return state


class _Table:
    """The atoms of one leaf signature: their valuations in sigma order and
    their compiled (care, want) laws."""

    __slots__ = ("vals", "laws", "_succ")

    def __init__(self, vals, laws):
        self.vals, self.laws, self._succ = vals, laws, {}

    def successors(self, source):
        """For each atom a of the table `source`, the indices of the atoms b of
        this one with vals[b] & care_a == want_a; kept per source."""
        got = self._succ.get(source)
        if got is None:
            by_law = {}  # atoms with one law share one list
            for care, want in source.laws:
                if (care, want) not in by_law:
                    by_law[care, want] = [b for b, v in enumerate(self.vals) if v & care == want]
            got = self._succ[source] = [by_law[law] for law in source.laws]
        return got


class _Closure:
    """The closure automaton of one path formula, independent of any structure.

    Positions are the formula's distinct subformulas in post-order, each
    maximal state subformula a leaf (`leaves`, in that order).  A state's
    signature has bit i set when leaves[i] holds there.  An atom is a
    consistent valuation of the positions, one int with bit p for position p,
    fixed by the signature and a guess sigma of the `temporal` positions (bit
    t of sigma for temporal[t]).  Each atom's one-step law is compiled to a
    (care, want) pair: atom b may follow atom a iff vals_b & care_a == want_a.
    Atoms, laws and successor lists are built per signature on first use.
    """

    def __init__(self, pathform):
        state = _state_nodes(pathform)
        self.pathform = pathform
        self.leaves = []       # maximal state subformulas
        self.temporal = []     # temporal subformulas, in post-order
        self._leaf_pos = []    # position of each leaf
        self._ops = []         # (code, position, operand positions...) of the other positions

        def position(f, operands):
            p = len(self._leaf_pos) + len(self._ops)
            if operands:
                self._ops.append((_CODE[type(f)], p, *operands))
                if isinstance(f, _TEMPORAL):
                    self.temporal.append(f)
            else:
                self._leaf_pos.append(p)
                self.leaves.append(f)
            return p

        self.root = 1 << F.fold(pathform, lambda f: () if state[f] else f.children(), position)
        self.npos = len(self._leaf_pos) + len(self._ops)
        # (code, position bit, left bit, right bit) of each temporal position in
        # order; a unary operator's child is both its left and its right.
        self._steps = [(code, 1 << p, 1 << a[0], 1 << a[-1]) for code, p, *a in self._ops if code >= _X]
        # An atom owes the target (right, or child) true while an eventual
        # (U, F) position is set, and false while an invariant (R, G) one is unset.
        self._owed = [(bit, r, code in (_U, _F)) for code, bit, l, r in self._steps if code != _X]
        self._tables = {}

    def table(self, sig):
        """The _Table of leaf signature sig, built on first use."""
        got = self._tables.get(sig)
        if got is None:
            got = self._tables[sig] = self._build_table(sig)
        return got

    def _build_table(self, sig):
        # Each position's truth over all 2^T guesses at once: bit sigma of m[p].
        T = len(self.temporal)
        full = (1 << (1 << T)) - 1
        m = [0] * self.npos
        for i, p in enumerate(self._leaf_pos):
            if sig >> i & 1:
                m[p] = full
        ok, t = full, 0
        for code, p, *a in self._ops:
            if code == _NOT:
                m[p] = full ^ m[a[0]]
            elif code == _AND:
                m[p] = m[a[0]] & m[a[1]]
            elif code == _OR:
                m[p] = m[a[0]] | m[a[1]]
            elif code == _IMPLIES:
                m[p] = (full ^ m[a[0]]) | m[a[1]]
            else:
                # sigmas with bit t set: the upper half of every 2^(t+1)-bit block
                block = 1 << (1 << t)
                v = m[p] = (block - 1) * block * (full // (block * block - 1))
                t += 1
                nv, c = full ^ v, m[a[-1]]
                if code == _U:
                    ok &= (nv | m[a[0]] | c) & (v | full ^ c)
                elif code == _R:
                    ok &= (nv | c) & (v | full ^ (c & m[a[0]]))
                elif code == _F:
                    ok &= v | full ^ c
                elif code == _G:
                    ok &= nv | c
        vals = dict.fromkeys(mask_members(ok), 0)
        for p, mp in enumerate(m):
            bit = 1 << p
            for sigma in mask_members(mp & ok):
                vals[sigma] |= bit
        vals = list(vals.values())
        return _Table(vals, [self._law(v) for v in vals])

    def _law(self, v):
        """(care, want) of the successors of an atom valued v; (0, 1), which
        nothing obeys, when two laws pull one position both ways (X F p with !F p)."""
        ones = zeros = 0
        for code, bit, l, r in self._steps:
            if code == _X:
                if v & bit:
                    ones |= r
                else:
                    zeros |= r
            elif v & bit:
                # set U and F stay set until their target r holds, R until its
                # left holds; set G always stays set
                if code == _G or not v & (l if code == _R else r):
                    ones |= bit
            elif code == _F or v & (r if code == _R else l):
                # unset F stays unset, U while its left holds, R while its
                # right holds, G while its child holds
                zeros |= bit
        if ones & zeros:
            return 0, 1
        return ones | zeros, ones

    def obligations(self, v):
        """(target bit, value owed) of an atom valued v, in temporal order."""
        return [(target, eventual) for p, target, eventual in self._owed if bool(v & p) == eventual]

    def fulfilled(self, some, every):
        """Whether a component whose valuations OR to `some` and AND to `every`
        discharges every obligation pending in it."""
        for p, target, eventual in self._owed:
            if eventual:
                if some & p and not some & target:
                    return False
            elif not every & p and every & target:
                return False
        return True


def _bounded(closure):
    """closure, refused before any of its tables is built when it has more
    than AtomGraph.MAX_TEMPORAL temporal operators (2^T atoms per table)."""
    if len(closure.temporal) > AtomGraph.MAX_TEMPORAL:
        raise EvalError(f"path formula closure too large ({len(closure.temporal)} temporal operators)")
    return closure


class AtomGraph:
    """Product of a path formula's closure automaton with one structure.

    `leaves` are the state masks on k of the closure's leaves, in order; the
    closure is built from `pathform` unless given.  State si gets the atoms of
    its leaf signature in sigma order (`atoms[a]` is atom a's state, `vals[a]`
    its valuation), and edges follow the transitions where the successor atom
    obeys the law, successors in state-then-atom order.  E pathform holds at
    si iff an atom of si with the root set reaches a nontrivial SCC that
    discharges every obligation pending in it.
    """

    MAX_TEMPORAL = 14

    def __init__(self, k, pathform, leaves, closure=None):
        self.k = k
        self.closure = closure = _bounded(closure or _Closure(pathform))
        self.temporal = closure.temporal
        self._build(leaves)

    def _build(self, leaves):
        k = self.k
        sig = [0] * k.n
        for i, mask in enumerate(leaves):
            for si in mask_members(mask):
                sig[si] |= 1 << i
        tables = [self.closure.table(s) for s in sig]
        self.first = first = [0]   # atoms of state si: first[si] .. first[si+1]-1
        self.atoms, self.vals = atoms, vals = [], []
        for si, tab in enumerate(tables):
            atoms += [si] * len(tab.vals)
            vals += tab.vals
            first.append(len(vals))
        self.adj = adj = []
        for si, tab in enumerate(tables):
            rows = [[] for _ in tab.vals]
            for ti in k.succ[si]:
                base = first[ti]
                for row, succ in zip(rows, tables[ti].successors(tab)):
                    row += map(base.__add__, succ)
            adj += rows
        self._sccs()
        self._mark_good()

    def _sccs(self):
        """Tarjan's algorithm from an explicit stack of (atom, successor iterator)."""
        adj = self.adj
        n = len(adj)
        index = [-1] * n
        low = [0] * n
        on_stack = [False] * n
        self.scc_of = scc_of = [-1] * n
        self.sccs = sccs = []
        stack = []
        counter = 0
        for root in range(n):
            if index[root] >= 0:
                continue
            index[root] = low[root] = counter
            counter += 1
            stack.append(root)
            on_stack[root] = True
            work = [(root, iter(adj[root]))]
            while work:
                v, successors = work[-1]
                for w in successors:
                    if index[w] < 0:
                        index[w] = low[w] = counter
                        counter += 1
                        stack.append(w)
                        on_stack[w] = True
                        work.append((w, iter(adj[w])))
                        break
                    if on_stack[w] and index[w] < low[v]:
                        low[v] = index[w]
                else:
                    work.pop()
                    if low[v] == index[v]:
                        comp = []
                        while True:
                            w = stack.pop()
                            on_stack[w] = False
                            scc_of[w] = len(sccs)
                            comp.append(w)
                            if w == v:
                                break
                        sccs.append(comp)
                    if work:
                        u = work[-1][0]
                        if low[v] < low[u]:
                            low[u] = low[v]

    def _mark_good(self):
        vals, adj, fulfilled = self.vals, self.adj, self.closure.fulfilled
        good = []
        for comp in self.sccs:
            if len(comp) == 1 and comp[0] not in adj[comp[0]]:
                good.append(False)
                continue
            some, every = 0, -1
            for a in comp:
                some |= vals[a]
                every &= vals[a]
            good.append(fulfilled(some, every))
        # Tarjan emits each SCC after all of its successors.
        self.can_reach_good = [False] * len(self.sccs)
        for ci, comp in enumerate(self.sccs):
            if good[ci]:
                self.can_reach_good[ci] = True
                continue
            for v in comp:
                if any(self.can_reach_good[self.scc_of[w]] for w in self.adj[v]):
                    self.can_reach_good[ci] = True
                    break
        self.good = good

    def _accepting_starts(self, si):
        root, vals, scc_of, reach = self.closure.root, self.vals, self.scc_of, self.can_reach_good
        for a in range(self.first[si], self.first[si + 1]):
            if vals[a] & root and reach[scc_of[a]]:
                yield a

    def e_mask(self):
        """Bitmask of states with a path satisfying the formula."""
        mask = 0
        for si in range(self.k.n):
            if next(self._accepting_starts(si), None) is not None:
                mask |= 1 << si
        return mask

    def lasso(self, state_name):
        """A witness (stem, loop) of state names from `state_name`, or None."""
        si = self.k.index(state_name)
        start = next(self._accepting_starts(si), None)
        if start is None:
            return None
        # BFS to any node of a good SCC.
        parent = {start: None}
        frontier = [start]
        entry = None
        while frontier and entry is None:
            nxt = []
            for v in frontier:
                if self.good[self.scc_of[v]]:
                    entry = v
                    break
                for w in self.adj[v]:
                    if w not in parent:
                        parent[w] = v
                        nxt.append(w)
            frontier = nxt
        stem_nodes = []
        v = entry
        while v is not None:
            stem_nodes.append(v)
            v = parent[v]
        stem_nodes.reverse()
        # The loop visits one atom discharging each obligation pending in the
        # SCC, then closes at entry; visiting every atom would be quadratic.
        comp = self.sccs[self.scc_of[entry]]
        vals, obligations = self.vals, self.closure.obligations
        pending = dict.fromkeys(ob for a in comp for ob in obligations(vals[a]))
        walk = [entry]
        for target, needed in pending:
            stop = next(b for b in comp if bool(vals[b] & target) == needed)
            if stop != walk[-1]:
                walk.extend(self._scc_path(comp, walk[-1], stop))
        walk.extend(self._scc_path(comp, walk[-1], entry))
        loop_nodes = walk[:-1]
        states = self.k.states
        stem = [states[self.atoms[v]] for v in stem_nodes[:-1]]
        loop = [states[self.atoms[v]] for v in loop_nodes]
        return stem, loop

    def _scc_path(self, comp, src, dst):
        """Nodes after src up to and including dst inside the SCC; a cycle if src == dst."""
        members = set(comp)
        parent = {}
        frontier = [src]
        while frontier and dst not in parent:
            nxt = []
            for v in frontier:
                for w in self.adj[v]:
                    if w in members and w not in parent:
                        parent[w] = v
                        nxt.append(w)
            frontier = nxt
        path = [dst]
        while parent[path[-1]] != src:
            path.append(parent[path[-1]])
        path.reverse()
        return path


def _ctl_operands(c):
    """The state operands of a CTL-shaped path formula c, or None."""
    if isinstance(c, (F.Next, F.Future, F.Globally)):
        return (c.child,) if F.is_state_formula(c.child) else None
    if isinstance(c, (F.Until, F.Release)):
        return (c.left, c.right) if F.is_state_formula(c.left) and F.is_state_formula(c.right) else None
    return (c,) if F.is_state_formula(c) else None


class _Duality:
    """CTL path quantifiers over the labels of a subclass (state masks, or
    lanes), from its _neg, _const, _ex, _eu and _er."""

    def _fixpoint(self, phi, operands):
        """A-forms by duality: AX r = ~EX ~r, A[l U r] = ~E[~l R ~r], A[l R r] = ~E[~l U ~r]."""
        c = phi.child
        if not isinstance(c, _TEMPORAL):
            return operands[0]
        neg = self._neg
        existential = isinstance(phi, F.PathE)
        if isinstance(c, F.Next):
            r = operands[0]
            return self._ex(r) if existential else neg(self._ex(neg(r)))
        if isinstance(c, (F.Until, F.Release)):
            l, r = operands
        else:
            l, r = self._const(isinstance(c, F.Future)), operands[0]
        until = isinstance(c, (F.Future, F.Until))
        if existential:
            return (self._eu if until else self._er)(l, r)
        return neg((self._er if until else self._eu)(neg(l), neg(r)))


class _Evaluator(_Duality):
    """Memoized bottom-up labelling of state formulas with state bitmasks.

    definite=True admits a 3-valued k for NNF formulas: literal p reads "p
    definitely true" and !p "p definitely false", so states(phi) is where phi
    is definitely true.  On a classical k both readings coincide.
    """

    def __init__(self, k, env=None, force_tableau=False, definite=False):
        if not (k.is_classical or definite):
            raise EvalError(f"{k.name} is 3-valued; use three_valued.eval_compositional3")
        self.k = k
        self.full = k.full_mask
        self.env = dict(env or {})
        self.env.setdefault(k.name, k)
        self.force_tableau = force_tableau
        self.memo = {}
        self._foreign = {}
        self._tableau = set()  # path formulas that _operands sent to the tableau
        self._closures = {}  # path quantifier -> its _Closure, kept for every labeling of a sweep
        self._graphs = {}

    def states(self, phi):
        """phi's state mask: a fold over its state subformulas, in self.memo."""
        return F.fold(phi, self._operands, self._states, self.memo)

    def _operands(self, phi):
        """The operands of a connective, or the state subformulas under a path
        quantifier (the maximal ones on the tableau route): the masks that
        _states(phi) is given."""
        if isinstance(phi, F.Not):
            return (phi.child,)
        if isinstance(phi, (F.And, F.Or, F.Implies)):
            return (phi.left, phi.right)
        if not isinstance(phi, (F.PathA, F.PathE)):
            return ()
        operands = _ctl_operands(phi.child)
        if operands is not None and not self.force_tableau:
            return operands
        self._tableau.add(phi)
        return self._closure(phi).leaves

    def _states(self, phi, operands):
        """Mask of phi from the masks of its _operands, in order."""
        k, full = self.k, self.full
        if isinstance(phi, F.Atom):
            if phi.name not in k.props:
                raise EvalError(f"proposition {phi.name!r} not in structure {k.name!r}")
            return k.true_mask(phi.name)
        if isinstance(phi, (F.PathA, F.PathE)):
            return self._quantified_path(phi, operands)
        if isinstance(phi, F.TrueConst):
            return full
        if isinstance(phi, F.FalseConst):
            return 0
        if isinstance(phi, F.SetAtom):
            return self._setatom(phi)
        if isinstance(phi, F.Not):
            mask = operands[0]
            if isinstance(phi.child, F.Atom):
                mask |= k.maybe_mask(phi.child.name)
            return full ^ mask
        if isinstance(phi, F.And):
            return operands[0] & operands[1]
        if isinstance(phi, F.Or):
            return operands[0] | operands[1]
        if isinstance(phi, F.Implies):
            return (full ^ operands[0]) | operands[1]
        if isinstance(phi, F.QUANTIFIED):
            raise EvalError("propositional quantifiers are handled by the qctl module")
        raise EvalError(f"not a state formula: {F.render_formula(phi)}")

    def _setatom(self, atom):
        k = self.k
        if atom.structure == k.name:
            return k.mask_of(atom.states)
        home = atom.ref if atom.ref is not None else self.env.get(atom.structure)
        if home is None:
            raise EvalError(f"set atom over unknown structure {atom.structure!r}")
        rows = self._foreign.get(atom.structure)
        if rows is None:
            from .bisim import bisimilar_over

            common = tuple(p for p in home.props if p in k.props)
            rel = bisimilar_over(k, home, common)
            if rel is None:
                raise EvalError(
                    f"set atom of {atom.structure!r} on {k.name!r}: no bisimulation over {common}"
                )
            # rows[i]: the states of k in the block of home state i
            rows = self._foreign[atom.structure] = rel.rows
        bad = [s for s in atom.states if s not in home.states]
        if bad:
            raise EvalError(f"set atom state {bad[0]!r} not in structure {atom.structure!r}")
        mask = 0
        for s in atom.states:
            mask |= rows[home.index(s)]
        return mask

    # -- CTL labelling -------------------------------------------------------

    def _neg(self, mask):
        return self.full ^ mask

    def _const(self, value):
        return self.full if value else 0

    def _ex(self, mask):
        return self.k.pre(mask)

    def _eu(self, l, r):
        """E[l U r]: a backward search from r through the states of l & ~r,
        each entered once, over the predecessor lists."""
        k = self.k
        open_ = l & ~r
        if not (open_ and r):
            return r
        flags = mask_flags(open_, k.n)
        pred = k.predecessors()
        todo = mask_members(r)
        for j in todo:
            for i in pred[j]:
                if flags[i]:
                    flags[i] = 0
                    todo.append(i)
        return r | open_ ^ flags_mask(flags)

    def _er(self, l, r):
        """E[l R r]: drop the states of r & ~l whose successors have all been
        dropped, starting from ~r; each keeps a count of successors not yet
        dropped, and each dropped state is expanded once."""
        k = self.k
        weak = r & ~l
        if not weak or r == self.full:
            return r
        live = mask_flags(weak, k.n)
        count = list(map(len, k.succ))
        pred = k.predecessors()
        todo = mask_members(self.full ^ r)
        for j in todo:
            for i in pred[j]:
                if live[i]:
                    count[i] -= 1
                    if not count[i]:
                        live[i] = 0
                        todo.append(i)
        return r ^ weak ^ flags_mask(live)

    def _quantified_path(self, phi, operands):
        if phi not in self._tableau:
            return self._fixpoint(phi, operands)
        mask = self.graph(phi).e_mask()
        return mask if isinstance(phi, F.PathE) else self.full ^ mask

    def _closure(self, phi):
        """The closure automaton of E c for phi = E c, or of E !c for phi = A c.
        It does not depend on k's labels, so a sweep keeps it."""
        got = self._closures.get(phi)
        if got is None:
            c = phi.child if isinstance(phi, F.PathE) else F.Not(phi.child)
            got = self._closures[phi] = _Closure(c)
        return got

    def graph(self, phi):
        """The AtomGraph of phi's closure automaton with k; built once per
        evaluator and labeling, so a check and its witness share it."""
        got = self._graphs.get(phi)
        if got is None:
            closure = self._closure(phi)
            leaves = [self.states(f) for f in closure.leaves]
            got = self._graphs[phi] = AtomGraph(self.k, closure.pathform, leaves, closure)
        return got


_CHUNK_CAP = 1 << 14  # labelings in the widest lane pass


def _chunks(n):
    """(base, width) of the chunks that cover labelings 0 .. 2^n-1 in order:
    min(64, 2^n) first, then each as wide as all before it, up to _CHUNK_CAP.
    base is a multiple of width, and an early exit stays cheap."""
    total = 1 << n
    base, width = 0, min(64, total)
    while base < total:
        yield base, width
        base += width
        width = min(base, _CHUNK_CAP)


class _LaneSweep(_Duality):
    """The labels of a formula under a chunk of the labelings of a fresh
    atom at once, one bit per labeling.

    Labeling m puts the atom on the states of the bits of m.  In the chunk
    of labelings base .. base+width-1 each node that contains the atom gets
    one lane per state: a width-bit int whose bit j says whether the node
    holds there under labeling base+j.  Those nodes are kept in post-order
    with their operands; the evaluator `ev` labels the others once, when
    ev.states would reach them, and their masks are broadcast to lanes.
    Connectives work lane by lane, and CTL operators by worklists over the
    lanes.  A genuine path quantifier decides the chunk from one product of
    the closure automaton that ev keeps with k, by the same worklists over
    the product's successor and predecessor lists.  `sweep` ANDs the
    root's lanes at the initial states into the chunk's verdicts.
    """

    def __init__(self, ev, phi, atom):
        k = ev.k
        if atom.name in k.props:
            raise EvalError(f"cannot assign {atom.name!r}: a proposition of {k.name!r}")
        self.ev, self.k, self.phi, self.atom = ev, k, phi, atom
        self.nodes = []
        operands = {}

        def expand(f):  # once per node: the fold combines it before it can come up again
            return operands.setdefault(f, () if f in ev.memo else ev._operands(f))

        def depends(f, parts):
            if any(parts):
                self.nodes.append((f, operands[f]))
                return True
            ev.states(f)
            return False

        F.fold(phi, expand, depends, {atom: True})

    def lanes(self, base, width):
        """The root's lanes in the chunk of labelings base .. base+width-1."""
        n, memo = self.k.n, self.ev.memo
        self.width = width
        self.ones = ones = (1 << width) - 1
        # bit j of the atom's lane at s is bit s of base+j: runs of 2^s zeros
        # and ones while 2^s < width, else bit s of base throughout
        hole = []
        for s in range(n):
            run = 1 << s
            hole.append(ones // ((1 << run) + 1) << run if run < width else ones * (base >> s & 1))
        lanes = {self.atom: hole}

        def lane(f):
            got = lanes.get(f)
            if got is None:
                mask = memo[f]
                got = lanes[f] = [ones * (mask >> s & 1) for s in range(n)]
            return got

        for f, operands in self.nodes:
            lanes[f] = self._node(f, [lane(o) for o in operands])
        return lane(self.phi)

    def _node(self, f, args):
        ones = self.ones
        if isinstance(f, F.Not):
            return self._neg(args[0])
        if isinstance(f, F.And):
            return list(map(int.__and__, *args))
        if isinstance(f, F.Or):
            return list(map(int.__or__, *args))
        if isinstance(f, F.Implies):
            return [(ones ^ a) | b for a, b in zip(*args)]
        if f in self.ev._tableau:
            return self._path(f, args)
        return self._fixpoint(f, args)

    def _path(self, phi, args):
        """A genuine path quantifier over the whole chunk: one product of its
        closure automaton with k.  At each state the lanes split by leaf
        signature, and the atoms of each signature's table become nodes
        enabled on its lanes; edges follow the tables' successor lists, which
        do not depend on the labeling.  E c holds on lane j where a root
        atom's node is in the fair EG of the enabled nodes (Emerson-Lei), the
        greatest z <= en & EX E[z U (z & F_i)] for each obligation's F_i "not
        owed or discharged": the laws keep an undischarged U/F and an unset
        R/G uniform across an SCC, so this is AtomGraph's test."""
        k, ones = self.k, self.ones
        closure = _bounded(self.ev._closure(phi))
        groups, at, vals, en = [], [], [], []  # groups[s]: (table, first node, lanes) per signature
        for s in range(k.n):
            split = [(0, ones)]
            for i, leaf in enumerate(args):
                on = leaf[s]
                split = [g for sig, lane in split for g in ((sig | 1 << i, lane & on), (sig, lane & ~on)) if g[1]]
            groups.append([])
            for sig, lane in split:
                tab = closure.table(sig)
                groups[s].append((tab, len(vals), lane))
                at += [s] * len(tab.vals)
                vals += tab.vals
                en += [lane] * len(tab.vals)
        succ = [[] for _ in vals]
        for s, row in enumerate(groups):
            for t in k.succ[s]:
                for tab, first, lane in row:
                    for tab_t, first_t, lane_t in groups[t]:
                        if lane & lane_t:
                            for u, bs in enumerate(tab_t.successors(tab), first):
                                succ[u] += map(first_t.__add__, bs)
        pred = _predecessor_lists(succ)
        fair = [[bool(v & p) != eventual or bool(v & target) == eventual for v in vals]
                for p, target, eventual in closure._owed] or [[True] * len(vals)]
        z, new = None, en
        while new != z:
            z = new
            for f in fair:
                reach = self._eu(z, [a if ok else 0 for a, ok in zip(z, f)], pred)
                new = list(map(int.__and__, new, self._ex(reach, succ)))
        e = [0] * k.n
        for s, v, lane in zip(at, vals, z):
            if v & closure.root:
                e[s] |= lane
        return e if isinstance(phi, F.PathE) else self._neg(e)

    def _neg(self, z):
        ones = self.ones
        return [ones ^ a for a in z]

    def _const(self, value):
        return [self.ones * value] * self.k.n

    def _ex(self, z, succ=None):
        """EX over k, or over the graph of the successor lists succ."""
        out = []
        for row in succ or self.k.succ:
            acc = 0
            for t in row:
                acc |= z[t]
            out.append(acc)
        return out

    def _eu(self, l, r, pred=None):
        """E[l U r], the least z with z >= r | (l & EX z): from z = r, each
        changed t ORs l[s] & z[t] into its predecessors s (k's, or pred)."""
        z = list(r)
        pred = pred or self.k.predecessors()
        queued = list(map(bool, z))
        todo = [t for t, v in enumerate(z) if v]
        for t in todo:
            queued[t] = False
            zt = z[t]
            for s in pred[t]:
                new = z[s] | l[s] & zt
                if new != z[s]:
                    z[s] = new
                    if not queued[s]:
                        queued[s] = True
                        todo.append(s)
        return z

    def _er(self, l, r):
        """E[l R r], the greatest z with z <= r & (l | EX z): from z = r, each
        state recomputes z[s] &= l[s] | OR(z[t] for its successors t), and a
        change queues its predecessors."""
        k = self.k
        z = list(r)
        succ, pred = k.succ, k.predecessors()
        todo = list(range(k.n))
        queued = [True] * k.n
        for s in todo:
            queued[s] = False
            acc = l[s]
            for t in succ[s]:
                acc |= z[t]
            new = z[s] & acc
            if new != z[s]:
                z[s] = new
                for u in pred[s]:
                    if not queued[u]:
                        queued[u] = True
                        todo.append(u)
        return z


def eval_states(k, phi, env=None, force_tableau=False):
    """Exact set of states of k satisfying the quantifier-free state formula."""
    ev = _Evaluator(k, env, force_tableau)
    mask = ev.states(phi)
    return StateSet(k.name, k.names_of(mask))


def eval_mask(k, phi, env=None, force_tableau=False):
    return _Evaluator(k, env, force_tableau).states(phi)


def check_ctl_star(k, phi, env=None, force_tableau=False):
    """K |= phi: every initial state satisfies phi."""
    return k.init_mask & _Evaluator(k, env, force_tableau).states(phi) == k.init_mask


def sweep(k, phi, atom, env=None):
    """(base, width, bits) for each chunk of the labelings 0 .. 2^|S|-1 of
    `atom` in turn: bit j of bits is set iff K |= phi with atom labelled true
    exactly on the states of base+j, the AND of phi's lanes over k's initial
    states.  Each chunk is one lane pass; what does not contain atom is
    labelled once."""
    lanes = _LaneSweep(_Evaluator(k, env), phi, atom)
    init = mask_members(k.init_mask)
    for base, width in _chunks(k.n):
        root, bits = lanes.lanes(base, width), lanes.ones
        for s in init:
            bits &= root[s]
        yield base, width, bits


def explain_path(k, phi, env=None, evaluator=None):
    """Witness lasso for a top-level path quantifier, if one is relevant.

    For E psi true somewhere initial: a satisfying lasso.  For A psi false:
    a falsifying lasso (a witness of E !psi).  Otherwise None.  `evaluator`,
    an _Evaluator of k, lends its labels and tableau graphs.
    """
    if not isinstance(phi, (F.PathA, F.PathE)):
        return None
    ag = (evaluator or _Evaluator(k, env)).graph(phi)
    mask = ag.e_mask()
    for s in k.init:
        if mask >> k.index(s) & 1:
            got = ag.lasso(s)
            if got is not None:
                stem, loop = got
                kind = "witness" if isinstance(phi, F.PathE) else "counterexample"
                return {"kind": kind, "state": s, "stem": stem, "loop": loop}
    return None


def check_and_explain(k, phi, env=None):
    """(K |= phi, witness) from one evaluator: the witness is explain_path's
    lasso when it backs the verdict (a satisfying lasso for E psi holding, a
    falsifying one for A psi failing), else None."""
    ev = _Evaluator(k, env)
    value = k.init_mask & ev.states(phi) == k.init_mask
    witness = explain_path(k, phi, env, ev)
    if witness is not None and witness["kind"] != ("witness" if value else "counterexample"):
        witness = None
    return value, witness
