"""Model checking on classical structures.

CTL-shaped nodes are labelled by backward frontier propagation over state
bitmasks (Clarke-Emerson-Sistla): EX is pre(mask), E[l U r] grows from r by
pre(newly added) & l, E[l R r] drops the states of r & ~l left with no
successor inside, and the A-forms are complements of E-forms.  Subformulas
are evaluated bottom-up from an explicit stack.  Genuine path formulas go
through the closure/atom ("tableau") product with self-fulfilling-SCC
acceptance.  Set atoms of a foreign structure are resolved through a
bisimulation computed on demand.  A sweep over the labelings of one fresh
atom runs on one evaluator, relabelling only the subformulas that contain it.
"""

from dataclasses import dataclass
from itertools import islice

from . import formula as F
from .errors import EvalError
from .kripke import KripkeStructure, mask_members

_TEMPORAL = (F.Next, F.Until, F.Release, F.Future, F.Globally)


@dataclass(frozen=True)
class StateSet:
    """A subset of a named structure's states."""

    structure: str
    names: tuple

    def __contains__(self, state):
        return state in self.names


class _Leaf(F.Formula):
    """Internal tableau leaf: an already-evaluated state set (as a bitmask)."""

    __slots__ = ("mask",)
    _fields = ("mask",)


def _postorder(root):
    out = []
    seen = set()

    def go(f):
        if f in seen:
            return
        seen.add(f)
        for c in f.children():
            go(c)
        out.append(f)

    go(root)
    return out


class AtomGraph:
    """Closure/atom product of one path formula with one structure.

    Atoms pair a state with a guessed valuation of the temporal subformulas;
    edges enforce the one-step expansion laws; acceptance is reachability of
    a nontrivial SCC discharging every pending until-style obligation.
    """

    MAX_TEMPORAL = 14

    def __init__(self, k, pathform):
        self.k = k
        self.root = pathform
        self.order = _postorder(pathform)
        self.temporal = [n for n in self.order if isinstance(n, _TEMPORAL)]
        if len(self.temporal) > self.MAX_TEMPORAL:
            raise EvalError(f"path formula closure too large ({len(self.temporal)} temporal operators)")
        self._build()

    def _vals(self, si, sigma):
        vals = {}
        tix = self.tindex
        for n in self.order:
            if isinstance(n, _Leaf):
                v = bool(n.mask >> si & 1)
            elif isinstance(n, F.TrueConst):
                v = True
            elif isinstance(n, F.FalseConst):
                v = False
            elif isinstance(n, F.Not):
                v = not vals[n.child]
            elif isinstance(n, F.And):
                v = vals[n.left] and vals[n.right]
            elif isinstance(n, F.Or):
                v = vals[n.left] or vals[n.right]
            elif isinstance(n, F.Implies):
                v = (not vals[n.left]) or vals[n.right]
            else:
                v = bool(sigma >> tix[n] & 1)
            vals[n] = v
        return vals

    def _locally_consistent(self, vals):
        for n in self.temporal:
            v = vals[n]
            if isinstance(n, F.Until):
                if v and not (vals[n.right] or vals[n.left]):
                    return False
                if not v and vals[n.right]:
                    return False
            elif isinstance(n, F.Release):
                if v and not vals[n.right]:
                    return False
                if not v and vals[n.right] and vals[n.left]:
                    return False
            elif isinstance(n, F.Future):
                if not v and vals[n.child]:
                    return False
            elif isinstance(n, F.Globally):
                if v and not vals[n.child]:
                    return False
        return True

    def _edge_ok(self, va, vb):
        for n in self.temporal:
            if isinstance(n, F.Next):
                if va[n] != vb[n.child]:
                    return False
            elif isinstance(n, F.Until):
                if va[n] and not va[n.right] and not vb[n]:
                    return False
                if not va[n] and va[n.left] and vb[n]:
                    return False
            elif isinstance(n, F.Release):
                if va[n] and not va[n.left] and not vb[n]:
                    return False
                if not va[n] and va[n.right] and vb[n]:
                    return False
            elif isinstance(n, F.Future):
                if va[n] and not va[n.child] and not vb[n]:
                    return False
                if not va[n] and vb[n]:
                    return False
            elif isinstance(n, F.Globally):
                if va[n] and not vb[n]:
                    return False
                if not va[n] and va[n.child] and vb[n]:
                    return False
        return True

    def _obligations(self, vals):
        out = []
        for n in self.temporal:
            if isinstance(n, F.Until) and vals[n]:
                out.append((n.right, True))
            elif isinstance(n, F.Future) and vals[n]:
                out.append((n.child, True))
            elif isinstance(n, F.Release) and not vals[n]:
                out.append((n.right, False))
            elif isinstance(n, F.Globally) and not vals[n]:
                out.append((n.child, False))
        return out

    def _build(self):
        k = self.k
        self.tindex = {n: i for i, n in enumerate(self.temporal)}
        self.atoms = []        # (state index, sigma)
        self.vals = []         # valuation dict per atom
        self.per_state = per_state = [[] for _ in range(k.n)]  # atoms of each state
        for si in range(k.n):
            for sigma in range(1 << len(self.temporal)):
                vals = self._vals(si, sigma)
                if self._locally_consistent(vals):
                    per_state[si].append(len(self.atoms))
                    self.atoms.append((si, sigma))
                    self.vals.append(vals)
        self.adj = [[] for _ in self.atoms]
        for a, (si, _) in enumerate(self.atoms):
            va = self.vals[a]
            for ti in mask_members(k.succ_masks[si]):
                for b in per_state[ti]:
                    if self._edge_ok(va, self.vals[b]):
                        self.adj[a].append(b)
        self._sccs()
        self._mark_good()

    def _sccs(self):
        n = len(self.atoms)
        index = [0] * n
        low = [0] * n
        on_stack = [False] * n
        visited = [False] * n
        self.scc_of = [-1] * n
        self.sccs = []
        counter = [0]
        stack = []
        for root in range(n):
            if visited[root]:
                continue
            work = [(root, 0)]
            while work:
                v, pi = work.pop()
                if pi == 0:
                    visited[v] = True
                    index[v] = low[v] = counter[0]
                    counter[0] += 1
                    stack.append(v)
                    on_stack[v] = True
                recurse = False
                for j in range(pi, len(self.adj[v])):
                    w = self.adj[v][j]
                    if not visited[w]:
                        work.append((v, j + 1))
                        work.append((w, 0))
                        recurse = True
                        break
                    if on_stack[w]:
                        low[v] = min(low[v], index[w])
                if recurse:
                    continue
                if low[v] == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        self.scc_of[w] = len(self.sccs)
                        comp.append(w)
                        if w == v:
                            break
                    self.sccs.append(comp)
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[v])

    def _mark_good(self):
        good = []
        for comp in self.sccs:
            members = set(comp)
            nontrivial = len(comp) > 1 or any(w in members for w in self.adj[comp[0]])
            if not nontrivial:
                good.append(False)
                continue
            ok = True
            for a in comp:
                for target, needed in self._obligations(self.vals[a]):
                    if not any(self.vals[b][target] == needed for b in comp):
                        ok = False
                        break
                if not ok:
                    break
            good.append(ok)
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
        for a in self.per_state[si]:
            if self.vals[a][self.root] and self.can_reach_good[self.scc_of[a]]:
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
        pending = dict.fromkeys(ob for a in comp for ob in self._obligations(self.vals[a]))
        walk = [entry]
        for target, needed in pending:
            stop = next(b for b in comp if self.vals[b][target] == needed)
            if stop != walk[-1]:
                walk.extend(self._scc_path(comp, walk[-1], stop))
        walk.extend(self._scc_path(comp, walk[-1], entry))
        loop_nodes = walk[:-1]
        states = self.k.states
        stem = [states[self.atoms[v][0]] for v in stem_nodes[:-1]]
        loop = [states[self.atoms[v][0]] for v in loop_nodes]
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


_READY = object()


def _ctl_operands(c):
    """The state operands of a CTL-shaped path formula c, or None."""
    if isinstance(c, (F.Next, F.Future, F.Globally)):
        return (c.child,) if F.is_state_formula(c.child) else None
    if isinstance(c, (F.Until, F.Release)):
        return (c.left, c.right) if F.is_state_formula(c.left) and F.is_state_formula(c.right) else None
    return (c,) if F.is_state_formula(c) else None


class _Dependents:
    """The labelled nodes that depend on one assigned atom, in post-order,
    each with its operands.

    The memo's insertion order is a post-order (a node is stored after its
    operands), so one pass over it finds them; the pass resumes where it
    stopped when more has been labelled since.  Operands are kept as the
    memo's own key objects, so relabelling looks them up by identity.
    """

    def __init__(self, atom):
        self.scanned = 0
        self.keys = {}
        self.dependent = {atom}
        self.nodes = []

    def scan(self, ev):
        memo, keys = ev.memo, self.keys
        if self.scanned == len(memo):
            return
        for f in islice(memo, self.scanned, None):
            keys[f] = f
            operands = ev._operands(f)
            if any(o in self.dependent for o in operands):
                self.dependent.add(f)
                self.nodes.append((f, tuple(keys[o] for o in operands)))
        self.scanned = len(memo)


class _Evaluator:
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
        self._graphs = {}
        self._assigned = {}  # atom -> its _Dependents

    def assign(self, atom, mask):
        """Label `atom`, which is not a proposition of k, with `mask`; relabel
        only the labelled nodes whose subformula contains it.

        A sweep over the labelings of one atom thus labels the rest of the
        formula, tableau graphs and foreign set atoms included, once.
        """
        if atom.name in self.k.props:
            raise EvalError(f"cannot assign {atom.name!r}: a proposition of {self.k.name!r}")
        memo = self.memo
        deps = self._assigned.get(atom)
        if deps is None:
            deps = self._assigned[atom] = _Dependents(atom)
        deps.scan(self)
        memo[atom] = mask
        for f, operands in deps.nodes:
            self._graphs.pop(f, None)
            memo[f] = self._states(f, [memo[o] for o in operands])

    def states(self, phi):
        memo = self.memo
        got = memo.get(phi)
        if got is not None:
            return got
        # Explicit post-order over the state-subformula DAG.  A node goes back
        # on the stack under _READY with its operand count, and is labelled
        # once its operands' masks have collected on top of `masks`.
        stack, masks = [phi], []
        while stack:
            f = stack.pop()
            if f is _READY:
                f, n = stack.pop(), stack.pop()
                mask = memo[f] = self._states(f, masks[-n:])
                del masks[-n:]
            else:
                mask = memo.get(f)
                if mask is None:
                    operands = self._operands(f)
                    if operands:
                        stack += (len(operands), f, _READY)
                        stack += reversed(operands)
                        continue
                    mask = memo[f] = self._states(f, ())
            masks.append(mask)
        return masks[0]

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
        out, todo = [], [phi.child]
        while todo:
            f = todo.pop()
            if F.is_state_formula(f):
                out.append(f)
            else:
                todo += reversed(f.children())
        return out

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
            if isinstance(phi.child, F.Atom) and phi.child not in self._assigned:
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

    def _eu(self, l, r):
        """E[l U r]: grown from r by pre(newly added) & l & ~z."""
        pre = self.k.pre
        z = frontier = r
        while frontier:
            frontier = pre(frontier) & l & ~z
            z |= frontier
        return z

    def _er(self, l, r):
        """E[l R r]: drop states of r & ~l with no successor left in z, re-examining
        only predecessors of the states dropped last round (all of ~r at first)."""
        succ, pre = self.k.succ_masks, self.k.pre
        z, removed = r, self.full ^ r
        while removed:
            candidates = pre(removed) & z & ~l
            removed = 0
            for i in mask_members(candidates):
                if not succ[i] & z:
                    removed |= 1 << i
            z ^= removed
        return z

    def _quantified_path(self, phi, operands):
        if phi not in self._tableau:
            return self._fixpoint(phi, operands)
        mask = self.graph(phi).e_mask()
        return mask if isinstance(phi, F.PathE) else self.full ^ mask

    def graph(self, phi):
        """The AtomGraph of E c for phi = E c, or of E !c for phi = A c; built
        once per evaluator, so a check and its witness share it."""
        got = self._graphs.get(phi)
        if got is None:
            c = phi.child if isinstance(phi, F.PathE) else F.Not(phi.child)
            got = self._graphs[phi] = AtomGraph(self.k, self._pathform(c))
        return got

    def _fixpoint(self, phi, operands):
        """A-forms by duality: AX r = ~EX ~r, A[l U r] = ~E[~l R ~r], A[l R r] = ~E[~l U ~r]."""
        c, full = phi.child, self.full
        if not isinstance(c, _TEMPORAL):
            return operands[0]
        existential = isinstance(phi, F.PathE)
        if isinstance(c, F.Next):
            r = operands[0]
            pre = self.k.pre
            return pre(r) if existential else full ^ pre(full ^ r)
        if isinstance(c, (F.Until, F.Release)):
            l, r = operands
        else:
            l, r = (full if isinstance(c, F.Future) else 0), operands[0]
        until = isinstance(c, (F.Future, F.Until))
        if existential:
            return (self._eu if until else self._er)(l, r)
        return full ^ (self._er if until else self._eu)(full ^ l, full ^ r)

    # -- tableau route -------------------------------------------------------

    def _pathform(self, f):
        if F.is_state_formula(f):
            return _Leaf(self.states(f))
        if isinstance(f, F.Not):
            return F.Not(self._pathform(f.child))
        if isinstance(f, (F.And, F.Or, F.Implies)):
            return type(f)(self._pathform(f.left), self._pathform(f.right))
        if isinstance(f, (F.Next, F.Future, F.Globally)):
            return type(f)(self._pathform(f.child))
        if isinstance(f, (F.Until, F.Release)):
            return type(f)(self._pathform(f.left), self._pathform(f.right))
        raise EvalError(f"not a path formula: {F.render_formula(f)}")


def eval_states(k, phi, env=None, force_tableau=False):
    """Exact set of states of k satisfying the quantifier-free state formula."""
    ev = _Evaluator(k, env, force_tableau)
    mask = ev.states(phi)
    return StateSet(k.name, k.names_of(mask))


def eval_mask(k, phi, env=None, force_tableau=False):
    return _Evaluator(k, env, force_tableau).states(phi)


def check_ctl_star(k, phi, env=None, force_tableau=False, evaluator=None):
    """K |= phi: every initial state satisfies phi.  `evaluator`, an
    _Evaluator of k, lends its labels (and atom assignments) instead."""
    mask = (evaluator or _Evaluator(k, env, force_tableau)).states(phi)
    return k.init_mask & mask == k.init_mask


def sweep(k, phi, atom, env=None):
    """(mask, K |= phi with `atom` labelled true exactly on mask) for mask =
    0 .. 2^|S|-1 in turn, all on one evaluator: what does not contain atom
    is labelled once."""
    ev = _Evaluator(k, env)
    for mask in range(1 << k.n):
        ev.assign(atom, mask)
        yield mask, check_ctl_star(k, phi, evaluator=ev)


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
