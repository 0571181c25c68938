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
there, so they are built once per signature and formula.  The automaton is
compiled once per process: `_closure_cache`, bounded in atoms, hands it and
its tables to every check, sweep and witness of an equal formula, on any
structure.  `AtomGraph` is the automaton's product with one structure, built
on the fly by Couvreur's SCC search for a cycle that covers every acceptance
set (a generalized Buchi emptiness check), with a state's table and nodes
made when the search gets to it.  A nested quantifier gets the product from
every state, searched to completion; a check asks a root quantifier only at
the initial states, and its search stops at the first accepting cycle; the
witness reads the same graph.  Set atoms of a foreign structure are resolved
through a bisimulation computed on demand.

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

import itertools
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
    """The atoms of one leaf signature: their valuations in sigma order, their
    acceptance marks and their compiled (care, want) laws."""

    __slots__ = ("vals", "marks", "laws", "_succ", "_by_care")

    def __init__(self, vals, marks, laws):
        self.vals, self.marks, self.laws, self._succ, self._by_care = vals, marks, laws, {}, {}

    def successors(self, source):
        """For each atom a of the table `source`, the indices of the atoms b of
        this one with vals[b] & care_a == want_a; kept per source.  The atoms
        are bucketed by vals & care once per distinct care, and the lists are
        shared: atoms with one law get one list, and none is to be changed."""
        got = self._succ.get(source)
        if got is None:
            got = self._succ[source] = []
            for care, want in source.laws:
                buckets = self._by_care.get(care)
                if buckets is None:
                    buckets = self._by_care[care] = {}
                    for b, v in enumerate(self.vals):
                        buckets.setdefault(v & care, []).append(b)
                got.append(buckets.get(want, ()))
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
    Each atom also carries its acceptance marks (`_marks`), one generalized
    Buchi set per U, F, R or G position.  Atoms, laws, marks and successor
    lists are built per signature on first use.
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
        # An equal formula's leaves may hold set atoms of other structures (ref).
        self.set_atoms = any(isinstance(g, F.SetAtom) for f in self.leaves for g in F.subformulas(f))
        self.npos = len(self._leaf_pos) + len(self._ops)
        # (code, position bit, left bit, right bit) of each temporal position in
        # order; a unary operator's child is both its left and its right.
        self._steps = [(code, 1 << p, 1 << a[0], 1 << a[-1]) for code, p, *a in self._ops if code >= _X]
        # An atom owes the target (right, or child) true while an eventual
        # (U, F) position is set, and false while an invariant (R, G) one is unset.
        self._owed = [(bit, r, code in (_U, _F)) for code, bit, l, r in self._steps if code != _X]
        self._tables = {}
        self.size = 1  # its tables' atoms, and one for itself

    def table(self, sig):
        """The _Table of leaf signature sig, built on first use."""
        got = self._tables.get(sig)
        if got is None:
            got = self._tables[sig] = self._build_table(sig)
            self.size += len(got.vals)
            _closure_cache.grew(self, len(got.vals))
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
        return _Table(vals, [self._marks(v) for v in vals], [self._law(v) for v in vals])

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

    def _marks(self, v):
        """The acceptance sets of an atom valued v: bit i for the i-th owed
        entry not owed or discharged there, not p or target for U/F and p or
        not target for R/G.  A cycle is accepting when its atoms' marks OR to
        every bit."""
        marks = 0
        for i, (p, target, eventual) in enumerate(self._owed):
            if bool(v & p) != eventual or bool(v & target) == eventual:
                marks |= 1 << i
        return marks


class _ClosureCache:
    """The closure automata of the process by formula, least recently used
    first: a formula equal to a cached one gets its closure, with the tables
    and successor lists that earlier checks built.  While the cached
    closures' sizes (atoms, plus one per closure) add up to more than
    `limit`, the least recently used are dropped.  Equality ignores a
    SetAtom's ref, so a cached closure's leaves may be another query's nodes
    (see _Evaluator._closure)."""

    def __init__(self, limit):
        self.limit, self.size, self._by_formula = limit, 0, {}

    def get(self, c):
        got = self._by_formula.pop(c, None)
        if got is None:
            got = _Closure(c)
            self.size += got.size
        self._by_formula[got.pathform] = got  # the key that grew() looks up
        self._evict()
        return got

    def grew(self, closure, atoms):
        """closure built a table of `atoms` atoms."""
        if self._by_formula.get(closure.pathform) is closure:
            self.size += atoms
            self._evict()

    def _evict(self):
        by_formula = self._by_formula
        while self.size > self.limit:
            self.size -= by_formula.pop(next(iter(by_formula))).size

    def clear(self):
        self._by_formula.clear()
        self.size = 0


# The closure cache's bound: an atom takes about 0.2 KB, and up to a few KB
# with the successor lists into other tables.
_CLOSURE_ATOMS = 1 << 12
_closure_cache = _ClosureCache(_CLOSURE_ATOMS)


def _bounded(closure):
    """closure, refused before any of its tables is built when it has more
    than AtomGraph.MAX_TEMPORAL temporal operators (2^T atoms per table)."""
    if len(closure.temporal) > AtomGraph.MAX_TEMPORAL:
        raise EvalError(f"path formula closure too large ({len(closure.temporal)} temporal operators)")
    return closure


class AtomGraph:
    """Product of a path formula's closure automaton with one structure, built
    forward from root atoms and searched on the fly for accepting cycles.

    `leaves` are the state masks on k of the closure's leaves, in order; the
    closure is `pathform`'s cached one unless given.  A state's table is built,
    and its atoms get node ids (`atoms[a]` is node a's state, `vals[a]` its
    valuation), when the search first gets to the state.  The search lists a
    node's successors in `adj[a]` one successor state at a time, in
    state-then-atom order, as it goes through them; all of them once the
    node's SCC is complete, none if it never entered the node.  It is
    Couvreur's (1999) generalized Buchi emptiness check: a depth-first search
    over partial SCCs whose acceptance marks are OR-ed as cycles merge them.
    A cycle whose marks cover every acceptance set is accepting, and E
    pathform holds at a state iff one of its atoms with the root set reaches
    one.

    `starts` None searches from every state's root atoms to completion: every
    SCC reached is completed (`sccs`, `good`), the graph that a state mask
    reads.  Otherwise `starts` is a tuple of state masks, searched in turn,
    each only up to its first accepting cycle; a node whose SCC completed is
    then known to reach none.  `e_mask` and `lasso` answer for the states a
    search credited.
    """

    MAX_TEMPORAL = 14

    def __init__(self, k, pathform, leaves, closure=None, starts=None):
        self.k = k
        self.closure = closure = _bounded(closure or _closure_cache.get(pathform))
        self.temporal = closure.temporal
        self._sig = sig = [0] * k.n
        for i, mask in enumerate(leaves):
            for si in mask_members(mask):
                sig[si] |= 1 << i
        self._first = [None] * k.n   # per state: its first node id, once it has nodes
        self._tables = [None] * k.n
        self._out = [None] * k.n     # per state: the successor lists into each successor state's table
        self.atoms, self.vals, self.marks, self.adj = [], [], [], []
        self._num, self.scc_of, self.reach = [], [], []  # visit number, SCC, reaches an accepting cycle
        self.sccs, self.good = [], []
        self._fragment = {}          # node -> the accepting (partial) SCC it was found in
        self._visits = itertools.count()
        if starts is None:
            self.starts = k.full_mask
            for _ in self._search(self._roots(k.full_mask)):
                pass
        else:
            self.starts = 0
            for mask in starts:
                self.starts |= mask
                next(self._search(self._roots(mask)), None)

    def _state(self, si):
        """State si's first node id; its table and nodes are made on first use."""
        first = self._first[si]
        if first is None:
            tab = self._tables[si] = self.closure.table(self._sig[si])
            first = self._first[si] = len(self.vals)
            count = len(tab.vals)
            self.atoms += [si] * count
            self.vals += tab.vals
            self.marks += tab.marks
            self.adj += [()] * count
            self._num += [-1] * count
            self.scc_of += [-1] * count
            self.reach += [False] * count
        return first

    def _roots(self, mask):
        """The atoms with the root set of the states of mask, state by state."""
        root, vals = self.closure.root, self.vals
        for si in mask_members(mask):
            first = self._state(si)
            for a in range(first, first + len(self._tables[si].vals)):
                if vals[a] & root:
                    yield a

    def _successors(self, a, j):
        """The nodes of atom a's j-th successor state that may follow it, in
        atom order, appended to adj[a]; None past the last successor state.
        The search asks for them one state at a time, so a state is reached
        only when the search gets to it."""
        si = self.atoms[a]
        succ = self.k.succ[si]
        if j == len(succ):
            return None
        ti = succ[j]
        first = self._state(ti)
        out = self._out[si]
        if out is None:
            out = self._out[si] = [None] * len(succ)
        lists = out[j]
        if lists is None:
            lists = out[j] = self._tables[ti].successors(self._tables[si])
        got = list(map(first.__add__, lists[a - self._first[si]]))
        self.adj[a] = self.adj[a] + got if j else got
        return got

    def _search(self, roots):
        """Couvreur's SCC search from the nodes `roots`, as a generator.

        `stack` holds the visited nodes whose SCC is not complete.  Each entry
        of the root stack (`at`, `acc`, `hit`) is a partial SCC on it: its
        first position, the OR of its members' marks, and whether it reaches
        an accepting cycle.  The search yields when an entry first does: a
        back edge merges it into a cycle whose marks cover every set, or an
        edge leads to a node already known to reach one.  Every node on the
        stack then reaches one and is marked in `reach`; a caller that stops
        there leaves them so, and a later search counts them as reached
        (their visit numbers are below its own).  Run to completion, it
        completes every SCC it reaches."""
        num, scc_of, reach, marks, adj = self._num, self.scc_of, self.reach, self.marks, self.adj
        sccs, good, fragment, successors = self.sccs, self.good, self._fragment, self._successors
        full = (1 << len(self.closure._owed)) - 1
        visits = self._visits
        low = next(visits)
        stack, at, acc, hit = [], [], [], []  # the node stack; the root stack's entries

        def reached():
            for v in reversed(stack):  # the nodes marked so far are a prefix of the stack
                if reach[v]:
                    break
                reach[v] = True

        for r in roots:
            if num[r] >= 0:
                if reach[r]:
                    yield r
                continue
            num[r] = next(visits)
            at.append(len(stack))
            acc.append(marks[r])
            hit.append(False)
            stack.append(r)
            work = [(r, iter(successors(r, 0)), 1)]
            while work:
                v, it, j = work[-1]
                for w in it:
                    nw = num[w]
                    if nw < 0:
                        num[w] = next(visits)
                        at.append(len(stack))
                        acc.append(marks[w])
                        hit.append(False)
                        stack.append(w)
                        work.append((w, iter(successors(w, 0)), 1))
                        break
                    if nw < low or scc_of[w] >= 0:  # not on this search's stack
                        if reach[w] and not hit[-1]:
                            hit[-1] = True
                            reached()
                            yield w
                        continue
                    # a cycle through w: merge the entries entered after it
                    i, m, h = at.pop(), acc.pop(), hit.pop()
                    while num[stack[i]] > nw:
                        i = at.pop()
                        m |= acc.pop()
                        h |= hit.pop()
                    at.append(i)
                    acc.append(m)
                    hit.append(h or m == full)
                    if m == full and not h:
                        part = stack[i:]
                        for x in part:
                            fragment[x] = part
                        reached()
                        yield w
                else:
                    more = successors(v, j)
                    if more is not None:
                        work[-1] = v, iter(more), j + 1
                        continue
                    work.pop()
                    i = at[-1]
                    if stack[i] != v:
                        continue
                    # v roots a complete SCC
                    at.pop()
                    m, h = acc.pop(), hit.pop()
                    comp = stack[i:]
                    del stack[i:]
                    comp.reverse()
                    ci = len(sccs)
                    for x in comp:
                        scc_of[x] = ci
                    ok = m == full and (len(comp) > 1 or v in adj[v])
                    if h:
                        for x in comp:
                            reach[x] = True
                            if ok:
                                fragment[x] = comp
                        if work:
                            hit[-1] = True
                    sccs.append(comp)
                    good.append(ok)

    def _accepting_starts(self, si):
        first = self._first[si]
        if not self.starts >> si & 1 or first is None:
            return
        root, vals, reach = self.closure.root, self.vals, self.reach
        for a in range(first, first + len(self._tables[si].vals)):
            if vals[a] & root and reach[a]:
                yield a

    def e_mask(self):
        """Bitmask of the start states credited with a path satisfying the
        formula: all of them when the search ran to completion."""
        mask = 0
        for si in mask_members(self.starts):
            if next(self._accepting_starts(si), None) is not None:
                mask |= 1 << si
        return mask

    def lasso(self, state_name):
        """A witness (stem, loop) of state names from `state_name`, or None
        (also when the state was not credited): a breadth-first stem over the
        nodes listed so far to an accepting (partial) SCC, and a loop in it."""
        si = self.k.index(state_name)
        start = next(self._accepting_starts(si), None)
        if start is None:
            return None
        fragment = self._fragment
        parent = {start: None}
        frontier = [start]
        entry = None
        while frontier and entry is None:
            nxt = []
            for v in frontier:
                if v in fragment:
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
        # Members go in state-then-sigma order, which does not depend on the
        # order the search met them in.
        atoms = self.atoms
        comp = sorted(fragment[entry], key=lambda a: (atoms[a], a))
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
        stem = [states[atoms[v]] for v in stem_nodes[:-1]]
        loop = [states[atoms[v]] for v in loop_nodes]
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
        self._closures = {}  # path quantifier -> (_Closure, leaves), kept for every labeling of a sweep
        self._graphs = {}

    def states(self, phi):
        """phi's state mask: a fold over its state subformulas, in self.memo."""
        return F.fold(phi, self._operands, self._states, self.memo)

    def holds(self, phi):
        """K |= phi: phi at every initial state.  A root quantifier on the
        tableau route is asked only there, on its rooted graph, and its mask
        stays out of memo."""
        init = self.k.init_mask
        if isinstance(phi, (F.PathA, F.PathE)) and phi not in self.memo:
            self._operands(phi)  # sends phi to the tableau, or not
            if phi in self._tableau:
                mask = self.rooted(phi).e_mask()
                return mask == init if isinstance(phi, F.PathE) else not mask
        return init & self.states(phi) == init

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
        return self._closure(phi)[1]

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
        """(closure, leaves): the cached closure automaton of E c for phi =
        E c, or of E !c for phi = A c, and its leaves as this c's own nodes
        when they hold set atoms; a cached closure may be an earlier query's,
        whose equal set atoms name that query's structures.  It does not
        depend on k's labels, so a sweep keeps it."""
        got = self._closures.get(phi)
        if got is None:
            c = phi.child if isinstance(phi, F.PathE) else F.Not(phi.child)
            closure = _closure_cache.get(c)
            leaves = closure.leaves
            if closure.set_atoms:
                own = {}  # each node of c: its first occurrence, as in the closure
                F.fold(c, F.Formula.children, lambda f, parts: f, own)
                leaves = [own[f] for f in leaves]
            got = self._closures[phi] = closure, leaves
        return got

    def graph(self, phi, starts=None):
        """The AtomGraph of phi's closure automaton with k, searched from
        `starts` (AtomGraph's: None for every state to completion, the graph
        that states(phi) reads); built once per evaluator, labeling and
        starts, so a check and its witness share it."""
        key = phi, starts
        got = self._graphs.get(key)
        if got is None:
            closure, leaves = self._closure(phi)
            masks = [self.states(f) for f in leaves]
            got = self._graphs[key] = AtomGraph(self.k, closure.pathform, masks, closure, starts)
        return got

    def rooted(self, phi):
        """The graph that decides root quantifier phi at the initial states.
        E c must hold at each of them, so each is searched in turn up to its
        first accepting cycle; A c fails at the first accepting cycle of E !c
        from any of them, so they are searched together."""
        init = self.k.init_mask
        if isinstance(phi, F.PathE):
            return self.graph(phi, tuple(1 << si for si in mask_members(init)))
        return self.graph(phi, (init,))


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
        greatest z <= en & EX E[z U (z & F_i)] for each acceptance set F_i,
        the atoms whose marks have bit i: the sets that AtomGraph's cycles
        must cover."""
        k, ones = self.k, self.ones
        closure = _bounded(self.ev._closure(phi)[0])
        groups, at, vals, marks, en = [], [], [], [], []  # groups[s]: (table, first node, lanes) per signature
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
                marks += tab.marks
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
        fair = [[m >> i & 1 for m in marks] for i in range(len(closure._owed))] or [[True] * len(vals)]
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
    return _Evaluator(k, env, force_tableau).holds(phi)


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
    a falsifying lasso (a witness of E !psi).  Otherwise None.  The lasso is
    read on the graph that decides phi at the initial states
    (`_Evaluator.rooted`), over the nodes its search went to.  `evaluator`, an
    _Evaluator of k, lends its labels and tableau graphs.
    """
    if not isinstance(phi, (F.PathA, F.PathE)):
        return None
    ag = (evaluator or _Evaluator(k, env)).rooted(phi)
    for s in k.init:
        got = ag.lasso(s)
        if got is not None:
            stem, loop = got
            kind = "witness" if isinstance(phi, F.PathE) else "counterexample"
            return {"kind": kind, "state": s, "stem": stem, "loop": loop}
    return None


def check_and_explain(k, phi, env=None):
    """(K |= phi, witness) from one evaluator: the witness is explain_path's
    lasso when one backs the verdict (a satisfying lasso for E psi holding, a
    falsifying one for A psi failing), else None, and then no product is
    searched for it."""
    ev = _Evaluator(k, env)
    value = ev.holds(phi)
    if value != isinstance(phi, F.PathE):
        return value, None
    return value, explain_path(k, phi, env, ev)
