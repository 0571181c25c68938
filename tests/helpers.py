"""Shared generators and independent oracles for the test suite."""

import random

from vacmc import formula as F
from vacmc.errors import EnumerationBoundError, EvalError, KripkeError
from vacmc.kleene import F3, M3, T3, and3, info_le
from vacmc.kripke import KripkeStructure, mask_members
from vacmc.mc import _Evaluator, check_ctl_star, eval_mask

# A path formula over x with more temporal operators (16) than AtomGraph.MAX_TEMPORAL.
LARGE_CLOSURE = "E(F x & F X x & F X X x & F X X X x & G F x & F G x & (x U X x) & F (x U p) & X X X p)"

# ---------------------------------------------------------------------------
# Name-level structure oracles: the constructor, parser and constructions
# that index lists replaced


class OracleKripkeStructure(KripkeStructure):
    """A structure built at the name level: transitions deduplicated through a
    set of name pairs and sorted by a key of index pairs, successor bitmasks
    ORed bit by bit, labels ORed bit by bit; predecessors from the pairs."""

    def __init__(self, name, props, states, init, trans, labels):
        self.name = name
        self.props = tuple(props)
        self.states = tuple(states)
        if len(set(self.states)) != len(self.states):
            raise KripkeError(f"{name}: duplicate state names")
        if len(set(self.props)) != len(self.props):
            raise KripkeError(f"{name}: duplicate proposition names")
        self._index = {s: i for i, s in enumerate(self.states)}
        self.n = len(self.states)
        self.full_mask = (1 << self.n) - 1
        self._pred = None

        init = tuple(dict.fromkeys(init))
        if not init:
            raise KripkeError(f"{name}: empty set of initial states")
        for s in init:
            if s not in self._index:
                raise KripkeError(f"{name}: undeclared initial state {s!r}")
        self.init = init
        self.init_mask = 0
        for s in init:
            self.init_mask |= 1 << self._index[s]

        self.succ_masks = [0] * self.n
        seen = set()
        ordered = []
        for s, t in trans:
            if s not in self._index or t not in self._index:
                raise KripkeError(f"{name}: transition on undeclared state ({s!r}, {t!r})")
            if (s, t) in seen:
                continue
            seen.add((s, t))
            ordered.append((s, t))
            self.succ_masks[self._index[s]] |= 1 << self._index[t]
        self.trans = tuple(sorted(ordered, key=lambda e: (self._index[e[0]], self._index[e[1]])))
        for i, s in enumerate(self.states):
            if self.succ_masks[i] == 0:
                raise KripkeError(f"{name}: state {s!r} has no outgoing transition")
        self.succ = [mask_members(m) for m in self.succ_masks]

        self._tmask = {p: 0 for p in self.props}
        self._mmask = {p: 0 for p in self.props}
        for s, assignment in labels.items():
            if s not in self._index:
                raise KripkeError(f"{name}: labels for undeclared state {s!r}")
            for p, v in assignment.items():
                if p not in self._tmask:
                    raise KripkeError(f"{name}: undeclared proposition {p!r} on state {s!r}")
                if isinstance(v, bool):
                    v = T3 if v else F3
                if v is T3:
                    self._tmask[p] |= 1 << self._index[s]
                elif v is M3:
                    self._mmask[p] |= 1 << self._index[s]

    def predecessors(self):
        if self._pred is None:
            pred = [[] for _ in range(self.n)]
            for s, t in self.trans:
                pred[self._index[t]].append(self._index[s])
            self._pred = pred
        return self._pred


def oracle_parse_kripke(text):
    """The .kr parser that tested every directive in file order, building
    one name pair per transition and an OracleKripkeStructure."""
    name = None
    props = []
    init = []
    states = []
    labels = {}
    trans = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("kripke"):
            name = line[len("kripke"):].strip()
            if not name:
                raise KripkeError(f"line {lineno}: missing structure name")
        elif line.startswith("props:"):
            props = line[len("props:"):].split()
        elif line.startswith("init:"):
            init = line[len("init:"):].split()
        elif line.startswith("state"):
            head, _, rest = line[len("state"):].partition(":")
            state = head.strip()
            if not state:
                raise KripkeError(f"line {lineno}: missing state name")
            if state in labels:
                raise KripkeError(f"line {lineno}: duplicate state {state!r}")
            states.append(state)
            assignment = {}
            for item in rest.split():
                if item.endswith("=M"):
                    assignment[item[:-2]] = M3
                elif item.startswith("-"):
                    assignment[item[1:]] = F3
                else:
                    assignment[item] = T3
            labels[state] = assignment
        elif line.startswith("trans:"):
            pair = line[len("trans:"):].split()
            if len(pair) != 2:
                raise KripkeError(f"line {lineno}: expected 'trans: FROM TO'")
            trans.append((pair[0], pair[1]))
        else:
            raise KripkeError(f"line {lineno}: unrecognized directive {line.split()[0]!r}")
    if name is None:
        raise KripkeError("missing 'kripke NAME' header")
    return OracleKripkeStructure(name, props, states, init, trans, labels)


def oracle_compose_sync(k1, k2):
    """compose_sync by name pairs: every product of two transitions."""
    overlap = set(k1.props) & set(k2.props)
    if overlap:
        raise KripkeError(f"composition requires disjoint propositions, shared: {sorted(overlap)}")
    states = [f"({s},{t})" for s in k1.states for t in k2.states]
    init = [f"({s},{t})" for s in k1.init for t in k2.init]
    labels = {}
    for s in k1.states:
        ls = k1.labels_of(s)
        for t in k2.states:
            labels[f"({s},{t})"] = {**ls, **k2.labels_of(t)}
    trans = []
    for s, s2 in k1.trans:
        for t, t2 in k2.trans:
            trans.append((f"({s},{t})", f"({s2},{t2})"))
    return OracleKripkeStructure(f"{k1.name}||{k2.name}", k1.props + k2.props, states, init, trans, labels)


def oracle_duplicate_m(k, m):
    """duplicate_m by name pairs: every transition once per pair of copies."""
    if m < 1:
        raise KripkeError("duplication count must be at least 1")
    states = [f"({s},{i})" for s in k.states for i in range(m)]
    init = [f"({s},{i})" for s in k.init for i in range(m)]
    labels = {f"({s},{i})": k.labels_of(s) for s in k.states for i in range(m)}
    trans = [
        (f"({s},{i})", f"({t},{j})")
        for s, t in k.trans
        for i in range(m)
        for j in range(m)
    ]
    return KripkeStructure(f"{k.name}^({m})", k.props, states, init, trans, labels)


def oracle_restrict_init(k, inits):
    """restrict_init by rebuilding the whole structure."""
    labels = {s: k.labels_of(s) for s in k.states}
    return OracleKripkeStructure(f"{k.name}@{','.join(inits)}", k.props, k.states, inits, k.trans, labels)


class FrontierEvaluator(_Evaluator):
    """The evaluator with the frontier fixpoints that the worklists replaced:
    one pre() image of the last round's states per round, pre() read from
    the successor bitmasks."""

    def _pre(self, mask):
        out = 0
        for i, sm in enumerate(self.k.succ_masks):
            if sm & mask:
                out |= 1 << i
        return out

    def _eu(self, l, r):
        z = frontier = r
        while frontier:
            frontier = self._pre(frontier) & l & ~z
            z |= frontier
        return z

    def _er(self, l, r):
        succ = self.k.succ_masks
        z, removed = r, self.full ^ r
        while removed:
            candidates = self._pre(removed) & z & ~l
            removed = 0
            for i in mask_members(candidates):
                if not succ[i] & z:
                    removed |= 1 << i
            z ^= removed
        return z


# ---------------------------------------------------------------------------
# Random structures


def rand_kripke(rng, max_states=4, props=("p", "q"), name="R", multi_init=True):
    n = rng.randint(1, max_states)
    states = [f"s{i}" for i in range(n)]
    labels = {s: {p: rng.random() < 0.5 for p in props} for s in states}
    trans = []
    for s in states:
        succ = [t for t in states if rng.random() < 0.45]
        if not succ:
            succ = [rng.choice(states)]
        trans.extend((s, t) for t in succ)
    if multi_init:
        init = [s for s in states if rng.random() < 0.4] or [states[0]]
    else:
        init = [states[0]]
    return KripkeStructure(name, props, states, init, trans, labels)


def rand_kripke3(rng, max_states=8, props=("p", "q", "r"), maybe=0.0, name="R"):
    """Random structure of 1..max_states states, few labels, a share `maybe` of them maybe."""
    n = rng.randint(1, max_states)
    states = [f"s{i}" for i in range(n)]
    labels = {s: {p: (M3 if rng.random() < maybe else rng.random() < 0.3) for p in props} for s in states}
    trans = []
    for s in states:
        succ = [t for t in states if rng.random() < 0.3] or [rng.choice(states)]
        trans.extend((s, t) for t in succ)
    init = [s for s in states if rng.random() < 0.3] or [states[0]]
    return KripkeStructure(name, props, states, init, trans, labels)


def shaped_kripke(rng, shape, n, props=("p", "q"), density=0.3, maybe=0.0):
    """Seeded degree-3 random graph, chain, ring or ladder with random labels.

    The chain ends in a self-loop and the ladder has n // 2 rungs, so chains,
    rings and ladders have diameters in the hundreds for n of a few hundred.
    With maybe > 0 that share of the labels is maybe.
    """
    states = [f"s{i}" for i in range(n)]
    if shape == "random":
        trans = [(s, rng.choice(states)) for s in states for _ in range(3)]
    elif shape == "chain":
        trans = [(states[i], states[min(i + 1, n - 1)]) for i in range(n)]
    elif shape == "ring":
        trans = [(states[i], states[(i + 1) % n]) for i in range(n)]
    elif shape == "ladder":
        half = n // 2
        trans = []
        for i in range(half):
            up, down = states[i], states[half + i]
            trans += [(up, down), (down, up)]
            if i + 1 < half:
                trans += [(up, states[i + 1]), (down, states[half + i + 1])]
    else:
        raise ValueError(shape)
    labels = {
        s: {p: (M3 if rng.random() < maybe else rng.random() < density) for p in props} for s in states
    }
    return KripkeStructure(f"{shape}{n}", props, states, [states[0]], trans, labels)


def merge_abstraction(rng, k, name="A"):
    """Existential merging of label-equal states; the result simulates k."""
    groups = {}
    for s in k.states:
        sig = tuple(sorted((p, k.label3(s, p).value) for p in k.props))
        groups.setdefault(sig, []).append(s)
    block_of = {}
    blocks = []
    for members in groups.values():
        pool = members[:]
        rng.shuffle(pool)
        while pool:
            take = pool[: rng.randint(1, len(pool))]
            pool = pool[len(take):]
            for s in take:
                block_of[s] = len(blocks)
            blocks.append(take)
    states = [f"b{i}" for i in range(len(blocks))]
    labels = {f"b{i}": dict(k.labels_of(members[0])) for i, members in enumerate(blocks)}
    trans = sorted({(f"b{block_of[s]}", f"b{block_of[t]}") for s, t in k.trans})
    init = []
    for s in k.init:
        b = f"b{block_of[s]}"
        if b not in init:
            init.append(b)
    return KripkeStructure(name, k.props, states, init, trans, labels), {
        s: f"b{block_of[s]}" for s in k.states
    }


# ---------------------------------------------------------------------------
# Random formulas


def rand_ctl(rng, props, depth):
    if depth == 0 or rng.random() < 0.18:
        r = rng.random()
        if r < 0.8:
            return F.Atom(rng.choice(props))
        return F.TRUE if r < 0.9 else F.FALSE
    c = rng.randrange(9)
    if c == 0:
        return F.Not(rand_ctl(rng, props, depth - 1))
    if c == 1:
        return F.And(rand_ctl(rng, props, depth - 1), rand_ctl(rng, props, depth - 1))
    if c == 2:
        return F.Or(rand_ctl(rng, props, depth - 1), rand_ctl(rng, props, depth - 1))
    if c == 3:
        return F.Implies(rand_ctl(rng, props, depth - 1), rand_ctl(rng, props, depth - 1))
    quant = rng.choice([F.PathA, F.PathE])
    t = rng.randrange(5)
    if t == 0:
        return quant(F.Next(rand_ctl(rng, props, depth - 1)))
    if t == 1:
        return quant(F.Future(rand_ctl(rng, props, depth - 1)))
    if t == 2:
        return quant(F.Globally(rand_ctl(rng, props, depth - 1)))
    left = rand_ctl(rng, props, depth - 1)
    right = rand_ctl(rng, props, depth - 1)
    return quant((F.Until if t == 3 else F.Release)(left, right))


def rand_path(rng, props, depth):
    """A pure path formula in positive form with literal leaves."""
    if depth == 0 or rng.random() < 0.2:
        a = F.Atom(rng.choice(props))
        return F.Not(a) if rng.random() < 0.4 else a
    c = rng.randrange(7)
    if c == 0:
        return F.And(rand_path(rng, props, depth - 1), rand_path(rng, props, depth - 1))
    if c == 1:
        return F.Or(rand_path(rng, props, depth - 1), rand_path(rng, props, depth - 1))
    if c == 2:
        return F.Next(rand_path(rng, props, depth - 1))
    if c == 3:
        return F.Future(rand_path(rng, props, depth - 1))
    if c == 4:
        return F.Globally(rand_path(rng, props, depth - 1))
    left = rand_path(rng, props, depth - 1)
    right = rand_path(rng, props, depth - 1)
    return (F.Until if c == 5 else F.Release)(left, right)


def rand_actl_star(rng, props, depth):
    """NNF formula whose path quantifiers are all universal."""
    if depth == 0 or rng.random() < 0.25:
        a = F.Atom(rng.choice(props))
        return F.Not(a) if rng.random() < 0.4 else a
    c = rng.randrange(4)
    if c == 0:
        return F.And(rand_actl_star(rng, props, depth - 1), rand_actl_star(rng, props, depth - 1))
    if c == 1:
        return F.Or(rand_actl_star(rng, props, depth - 1), rand_actl_star(rng, props, depth - 1))
    t = rng.randrange(5)
    if t == 0:
        return F.PathA(F.Next(rand_actl_star(rng, props, depth - 1)))
    if t == 1:
        return F.PathA(F.Future(rand_actl_star(rng, props, depth - 1)))
    if t == 2:
        return F.PathA(F.Globally(rand_actl_star(rng, props, depth - 1)))
    left = rand_actl_star(rng, props, depth - 1)
    right = rand_actl_star(rng, props, depth - 1)
    return F.PathA((F.Until if t == 3 else F.Release)(left, right))


def proper_subformulas(phi):
    subs = [f for f in F.subformulas(phi) if f != phi]
    return subs or [phi]


# ---------------------------------------------------------------------------
# Lasso oracle: exact LTL evaluation on an ultimately periodic path


def eval_on_lasso(k, path, loop_start, phi, env=None):
    """Evaluate a path formula on path[0..] looping back to loop_start."""
    m = len(path)
    nxt = [i + 1 for i in range(m - 1)] + [loop_start]
    vals = {}

    def compute(f):
        got = vals.get(f)
        if got is not None:
            return got
        if F.is_state_formula(f):
            mask = eval_mask(k, f, env)
            v = [bool(mask >> k.index(path[i]) & 1) for i in range(m)]
        elif isinstance(f, F.Not):
            v = [not b for b in compute(f.child)]
        elif isinstance(f, F.And):
            l, r = compute(f.left), compute(f.right)
            v = [a and b for a, b in zip(l, r)]
        elif isinstance(f, F.Or):
            l, r = compute(f.left), compute(f.right)
            v = [a or b for a, b in zip(l, r)]
        elif isinstance(f, F.Implies):
            l, r = compute(f.left), compute(f.right)
            v = [(not a) or b for a, b in zip(l, r)]
        elif isinstance(f, F.Next):
            c = compute(f.child)
            v = [c[nxt[i]] for i in range(m)]
        elif isinstance(f, (F.Until, F.Future)):
            if isinstance(f, F.Until):
                l, r = compute(f.left), compute(f.right)
            else:
                l, r = [True] * m, compute(f.child)
            v = [False] * m
            changed = True
            while changed:
                changed = False
                for i in range(m):
                    nv = r[i] or (l[i] and v[nxt[i]])
                    if nv and not v[i]:
                        v[i] = True
                        changed = True
        elif isinstance(f, (F.Release, F.Globally)):
            if isinstance(f, F.Release):
                l, r = compute(f.left), compute(f.right)
            else:
                l, r = [False] * m, compute(f.child)
            v = [True] * m
            changed = True
            while changed:
                changed = False
                for i in range(m):
                    nv = r[i] and (l[i] or v[nxt[i]])
                    if not nv and v[i]:
                        v[i] = False
                        changed = True
        else:
            raise TypeError(f"not a path formula: {f!r}")
        vals[f] = v
        return v

    return compute(phi)[0]


def lassos(k, start, max_len):
    """All lasso shapes (path, loop_start) from start with |path| <= max_len."""
    stack = [(start,)]
    while stack:
        path = stack.pop()
        for t in k.successors(path[-1]):
            for l, s in enumerate(path):
                if s == t:
                    yield path, l
            if len(path) < max_len:
                stack.append(path + (t,))


def oracle_e_path(k, start, phi, max_len, env=None):
    """Exhaustive ultimately-periodic-path search for E phi at start."""
    return any(eval_on_lasso(k, path, l, phi, env) for path, l in lassos(k, start, max_len))


# ---------------------------------------------------------------------------
# Kleene oracle: compositional 3-valued CTL by Kleene fixpoint iteration


def kleene_compositional3(k, phi):
    """3-valued CTL value by iterating (true-mask, false-mask) pairs to a fixpoint.

    An independent reference for three_valued.eval_compositional3: every
    operator is applied in Kleene logic state by state, with no NNF step.
    """
    if not F.is_ctl(phi):
        raise EvalError("3-valued compositional checking is restricted to CTL")
    full = k.full_mask

    def ex(v):
        t = f = 0
        for i, sm in enumerate(k.succ_masks):
            if sm & v[0]:
                t |= 1 << i
            if sm & ~v[1] == 0:
                f |= 1 << i
        return t, f

    def ax(v):
        t = f = 0
        for i, sm in enumerate(k.succ_masks):
            if sm & ~v[0] == 0:
                t |= 1 << i
            if sm & v[1]:
                f |= 1 << i
        return t, f

    def disj(a, b):
        return a[0] | b[0], a[1] & b[1]

    def conj(a, b):
        return a[0] & b[0], a[1] | b[1]

    def fix(step, z):
        while True:
            nz = step(z)
            if nz == z:
                return z
            z = nz

    def go(node):
        if isinstance(node, F.Atom):
            t = k.true_mask(node.name)
            return t, full ^ (t | k.maybe_mask(node.name))
        if isinstance(node, F.TrueConst):
            return full, 0
        if isinstance(node, F.FalseConst):
            return 0, full
        if isinstance(node, F.SetAtom):
            if node.structure != k.name:
                raise EvalError("foreign set atoms are not supported in 3-valued checking")
            t = k.mask_of(node.states)
            return t, full ^ t
        if isinstance(node, F.Not):
            t, f = go(node.child)
            return f, t
        if isinstance(node, F.And):
            return conj(go(node.left), go(node.right))
        if isinstance(node, F.Or):
            return disj(go(node.left), go(node.right))
        if isinstance(node, F.Implies):
            t, f = go(node.left)
            return disj((f, t), go(node.right))
        quant = ax if isinstance(node, F.PathA) else ex
        c = node.child
        if isinstance(c, F.Next):
            return quant(go(c.child))
        if isinstance(c, F.Future):
            r = go(c.child)
            return fix(lambda z: disj(r, quant(z)), (0, full))
        if isinstance(c, F.Globally):
            r = go(c.child)
            return fix(lambda z: conj(r, quant(z)), (full, 0))
        l, r = go(c.left), go(c.right)
        if isinstance(c, F.Until):
            return fix(lambda z: disj(r, conj(l, quant(z))), (0, full))
        return fix(lambda z: conj(r, disj(l, quant(z))), (full, 0))

    t, f = go(phi)
    verdict = T3
    for s in k.init:
        i = k.index(s)
        if f >> i & 1:
            verdict = and3(verdict, F3)
        elif not t >> i & 1:
            verdict = and3(verdict, M3)
    return verdict


# ---------------------------------------------------------------------------
# Relation oracles: naive pair elimination and whole-union signature refinement


def naive_greatest_bisimulation(k1, k2, over):
    """Pairs equated by signature refinement that re-signs every state of the
    disjoint union each round, until the renamed blocks repeat."""
    union = [(0, s) for s in k1.states] + [(1, t) for t in k2.states]
    structs = (k1, k2)
    block = {(tag, s): tuple(structs[tag].label3(s, p) for p in over) for tag, s in union}
    while True:
        fresh = {}
        renamed = {}
        for tag, s in union:
            key = (block[(tag, s)], frozenset(block[(tag, t)] for t in structs[tag].successors(s)))
            renamed[(tag, s)] = fresh.setdefault(key, len(fresh))
        if renamed == block:
            break
        block = renamed
    return {(s, t) for s in k1.states for t in k2.states if block[(0, s)] == block[(1, t)]}


def naive_greatest_simulation(k1, k2, over):
    """Pairs (s, t), s in k1 simulating t in k2, by repeated pair elimination."""
    pairs = {
        (s, t)
        for s in k1.states
        for t in k2.states
        if all(k1.label3(s, p) == k2.label3(t, p) for p in over)
    }
    changed = True
    while changed:
        changed = False
        for s, t in list(pairs):
            for t2 in k2.successors(t):
                if not any((s2, t2) in pairs for s2 in k1.successors(s)):
                    pairs.discard((s, t))
                    changed = True
                    break
    return pairs


def naive_refinement(kless, kmore):
    """Greatest mixed (two-sided) refinement pairs by repeated pair
    elimination, or None when it misses an initial state on either side."""
    pairs = {
        (s, t)
        for s in kless.states
        for t in kmore.states
        if all(info_le(kless.label3(s, p), kmore.label3(t, p)) for p in kless.props)
    }
    changed = True
    while changed:
        changed = False
        for s, t in list(pairs):
            ok = all(
                any((s2, t2) in pairs for t2 in kmore.successors(t)) for s2 in kless.successors(s)
            ) and all(
                any((s2, t2) in pairs for s2 in kless.successors(s)) for t2 in kmore.successors(t)
            )
            if not ok:
                pairs.discard((s, t))
                changed = True
    fwd = all(any((s, t) in pairs for t in kmore.init) for s in kless.init)
    bwd = all(any((s, t) in pairs for s in kless.init) for t in kmore.init)
    return pairs if fwd and bwd else None


# ---------------------------------------------------------------------------
# Sweep oracles: one substitution, one structure and one fresh check per labeling


def oracle_x_variants(k, prop):
    """Every x-variant of k built eagerly, named k.name^(mask+1)."""
    out = []
    for mask in range(1 << k.n):
        labels = {}
        for i, s in enumerate(k.states):
            ls = dict(k.labels_of(s))
            ls[prop] = bool(mask >> i & 1)
            labels[s] = ls
        out.append(OracleKripkeStructure(f"{k.name}^{mask + 1}", k.props + (prop,), k.states, k.init, k.trans, labels))
    return out


def oracle_structure_vacuous(phi, psi, k, bound=20, env=None):
    """vacuity.structure_vacuous by a SetAtom substitution per state set."""
    if k.n > bound:
        raise EnumerationBoundError(f"2^{k.n} substitutions exceed the bound 2^{bound}")
    env = dict(env or {})
    env.setdefault(k.name, k)
    sat_y = fal_y = None
    for mask in range(1 << k.n):
        names = k.names_of(mask)
        sub = F.substitute(phi, psi, F.SetAtom(k.name, names, ref=k))
        if check_ctl_star(k, sub, env):
            if sat_y is None:
                sat_y = names
        elif fal_y is None:
            fal_y = names
        if sat_y is not None and fal_y is not None:
            return False, (sat_y, fal_y)
    return True, None


def oracle_eval_structural(k, q, bound=20, env=None):
    """qctl.eval_structural by a SetAtom substitution per labeling."""
    kind, var, body = F.strip_quantifier(q)
    if var in k.props:
        raise EvalError(f"quantified variable {var!r} is already a proposition of {k.name}")
    if k.n > bound:
        raise EnumerationBoundError(f"2^{k.n} labelings exceed the bound 2^{bound}")
    for mask in range(1 << k.n):
        names = k.names_of(mask)
        holds = check_ctl_star(k, F.substitute(body, F.Atom(var), F.SetAtom(k.name, names, ref=k)), env)
        if kind == "forall" and not holds:
            return False, names
        if kind == "exists" and holds:
            return True, names
    return (True, None) if kind == "forall" else (False, None)


def oracle_sweep(k, phi, atom, env=None):
    """mc.sweep by a SetAtom substitution per mask, in chunks of width 1."""
    for mask in range(1 << k.n):
        yield mask, 1, check_ctl_star(k, F.substitute(phi, atom, F.SetAtom(k.name, k.names_of(mask), ref=k)), env)


def per_mask(chunks):
    """(mask, verdict) for each labeling of a sweep's (base, width, bits) chunks."""
    return [(base + j, bool(bits >> j & 1)) for base, width, bits in chunks for j in range(width)]


def transpose(rows, width):
    """The bit matrix rows by columns: for c = 0 .. width-1, the int whose
    bit r is bit c of rows[r]."""
    return [sum((row >> c & 1) << r for r, row in enumerate(rows)) for c in range(width)]


def oracle_variant_disagreement(base_structs, phix, x, reference, bound, env=None):
    """vacuity._variant_disagreement by a fresh check of every built x-variant."""
    for ks in base_structs:
        if ks.n > bound:
            continue
        for variant in oracle_x_variants(ks, x):
            if check_ctl_star(variant, phix, env) != reference:
                return variant
    return None


# ---------------------------------------------------------------------------
# Tableau oracle: the closure/atom product built per state and guess, with a
# valuation dict per atom and the edge laws checked per pair of atoms


class _OracleLeaf(F.Formula):
    """A maximal state subformula with its state mask.  Leaves are told apart
    by formula, as the closure automaton tells them apart."""

    __slots__ = ("formula", "mask")
    _fields = ("formula", "mask")

    def children(self):
        return ()


_TEMPORAL = (F.Next, F.Until, F.Release, F.Future, F.Globally)


def oracle_atom_graph(k, phi, env=None):
    """The per-state product of E c for phi = E c, or of E !c for phi = A c."""
    c = phi.child if isinstance(phi, F.PathE) else F.Not(phi.child)
    return OracleAtomGraph(k, _oracle_pathform(k, c, env))


def _oracle_pathform(k, f, env):
    if F.is_state_formula(f):
        return _OracleLeaf(f, eval_mask(k, f, env))
    return type(f)(*(_oracle_pathform(k, c, env) for c in f.children()))


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


class OracleAtomGraph:
    """Atoms pair a state with a guessed valuation of the temporal subformulas;
    edges enforce the one-step expansion laws; acceptance is reachability of
    a nontrivial SCC discharging every pending until-style obligation."""

    def __init__(self, k, pathform):
        self.k = k
        self.root = pathform
        self.order = _postorder(pathform)
        self.temporal = [n for n in self.order if isinstance(n, _TEMPORAL)]
        self.tindex = {n: i for i, n in enumerate(self.temporal)}
        self.atoms = []        # (state index, sigma)
        self.vals = []         # valuation dict per atom
        self.per_state = [[] for _ in range(k.n)]
        for si in range(k.n):
            for sigma in range(1 << len(self.temporal)):
                vals = self._vals(si, sigma)
                if self._locally_consistent(vals):
                    self.per_state[si].append(len(self.atoms))
                    self.atoms.append((si, sigma))
                    self.vals.append(vals)
        self.adj = [[] for _ in self.atoms]
        for a, (si, _) in enumerate(self.atoms):
            for ti in mask_members(k.succ_masks[si]):
                for b in self.per_state[ti]:
                    if self._edge_ok(self.vals[a], self.vals[b]):
                        self.adj[a].append(b)
        self._sccs()
        self._mark_good()

    def _vals(self, si, sigma):
        vals = {}
        for n in self.order:
            if isinstance(n, _OracleLeaf):
                v = bool(n.mask >> si & 1)
            elif isinstance(n, F.Not):
                v = not vals[n.child]
            elif isinstance(n, F.And):
                v = vals[n.left] and vals[n.right]
            elif isinstance(n, F.Or):
                v = vals[n.left] or vals[n.right]
            elif isinstance(n, F.Implies):
                v = (not vals[n.left]) or vals[n.right]
            else:
                v = bool(sigma >> self.tindex[n] & 1)
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

    def _sccs(self):
        n = len(self.atoms)
        index, low = [0] * n, [0] * n
        on_stack, visited = [False] * n, [False] * n
        self.scc_of = [-1] * n
        self.sccs = []
        counter = 0
        stack = []
        for root in range(n):
            if visited[root]:
                continue
            work = [(root, 0)]
            while work:
                v, pi = work.pop()
                if pi == 0:
                    visited[v] = True
                    index[v] = low[v] = counter
                    counter += 1
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
        self.good = []
        for comp in self.sccs:
            members = set(comp)
            if not (len(comp) > 1 or any(w in members for w in self.adj[comp[0]])):
                self.good.append(False)
                continue
            self.good.append(all(any(self.vals[b][target] == needed for b in comp)
                                 for a in comp for target, needed in self._obligations(self.vals[a])))
        # Tarjan emits each SCC after all of its successors.
        self.can_reach_good = [False] * len(self.sccs)
        for ci, comp in enumerate(self.sccs):
            self.can_reach_good[ci] = self.good[ci] or any(
                self.can_reach_good[self.scc_of[w]] for v in comp for w in self.adj[v])

    def _accepting_starts(self, si):
        for a in self.per_state[si]:
            if self.vals[a][self.root] and self.can_reach_good[self.scc_of[a]]:
                yield a

    def e_mask(self):
        return sum(1 << si for si in range(self.k.n) if next(self._accepting_starts(si), None) is not None)

    def lasso(self, state_name):
        si = self.k.index(state_name)
        start = next(self._accepting_starts(si), None)
        if start is None:
            return None
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
        comp = self.sccs[self.scc_of[entry]]
        pending = dict.fromkeys(ob for a in comp for ob in self._obligations(self.vals[a]))
        walk = [entry]
        for target, needed in pending:
            stop = next(b for b in comp if self.vals[b][target] == needed)
            if stop != walk[-1]:
                walk.extend(self._scc_path(comp, walk[-1], stop))
        walk.extend(self._scc_path(comp, walk[-1], entry))
        states = self.k.states
        return [states[self.atoms[v][0]] for v in stem_nodes[:-1]], [states[self.atoms[v][0]] for v in walk[:-1]]

    def _scc_path(self, comp, src, dst):
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
