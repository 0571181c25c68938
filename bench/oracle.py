"""Independent answers for the benchmark's queries.

Nothing here imports vacmc.  Models are the generator's own adjacency lists,
formulas are the generator's own tuples, and every checker is written for
the benchmark: a worklist CTL labeller that evaluates a formula for many
labelings of one proposition at once (bit-sliced over integers), SCC and
BFS checks for the CTL* families, the K||chi product, and signature
refinement for bisimulation classes.  They are slow where vacmc is fast and
fast where it is slow, which is the point: a shared bug cannot hide.
"""

UNARY = ("EX", "AX", "EF", "AF", "EG", "AG")
BOOL = {"and": "&", "or": "|", "imp": "->"}


class Model:
    """A pointed Kripke structure as adjacency lists over states 0..n-1.

    `labels` maps each proposition to a list with one of "T", "F", "M" per
    state; state i is written as `s<i>` unless `names` says otherwise.
    """

    def __init__(self, name, succ, labels, init=(0,), names=None):
        self.name = name
        self.succ = [sorted(set(s)) for s in succ]
        self.n = len(self.succ)
        self.labels = labels
        self.props = tuple(labels)
        self.init = tuple(init)
        self.names = names or [f"s{i}" for i in range(self.n)]
        self._pred = None

    @property
    def pred(self):
        if self._pred is None:
            pred = [[] for _ in range(self.n)]
            for i, out in enumerate(self.succ):
                for j in out:
                    pred[j].append(i)
            self._pred = pred
        return self._pred

    def true_set(self, prop):
        return [v == "T" for v in self.labels[prop]]

    def render(self):
        lines = [f"kripke {self.name}", "props: " + " ".join(self.props),
                 "init: " + " ".join(self.names[i] for i in self.init)]
        for i, name in enumerate(self.names):
            items = []
            for p in self.props:
                v = self.labels[p][i]
                if v == "T":
                    items.append(p)
                elif v == "M":
                    items.append(f"{p}=M")
            lines.append(f"state {name}:" + "".join(" " + it for it in items))
        for i, out in enumerate(self.succ):
            lines.extend(f"trans: {self.names[i]} {self.names[j]}" for j in out)
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Formulas: ("ap", p), ("true",), ("false",), ("not", f), ("and"|"or"|"imp", f, g),
# (UNARY op, f), ("EU"|"AU"|"ER"|"AR", f, g).


def ap(p):
    return ("ap", p)


def render(f):
    tag = f[0]
    if tag == "ap":
        return f[1]
    if tag in ("true", "false"):
        return tag
    if tag == "not":
        return "!" + render(f[1])
    if tag in BOOL:
        return f"({render(f[1])} {BOOL[tag]} {render(f[2])})"
    if tag in UNARY:
        return f"{tag} {render(f[1])}"
    return f"{tag[0]}[{render(f[1])} {tag[1]} {render(f[2])}]"


def substitute(f, old, new):
    if f == old:
        return new
    if f[0] in ("ap", "true", "false"):
        return f
    return (f[0],) + tuple(substitute(c, old, new) for c in f[1:])


_DUAL = {"EX": "AX", "AX": "EX", "EF": "AG", "AG": "EF", "AF": "EG", "EG": "AF",
         "EU": "AR", "AR": "EU", "AU": "ER", "ER": "AU"}


def nnf(f, negate=False):
    """Negation normal form; negated atoms become ("not", ("ap", p))."""
    tag = f[0]
    if tag == "ap":
        return ("not", f) if negate else f
    if tag in ("true", "false"):
        return (("false",) if tag == "true" else ("true",)) if negate else f
    if tag == "not":
        return nnf(f[1], not negate)
    if tag == "imp":
        return nnf(("or", ("not", f[1]), f[2]), negate)
    if tag in ("and", "or"):
        op = {"and": "or", "or": "and"}[tag] if negate else tag
        return (op, nnf(f[1], negate), nnf(f[2], negate))
    op = _DUAL[tag] if negate else tag
    return (op,) + tuple(nnf(c, negate) for c in f[1:])


def split_literals(f):
    """Rename literal p to p't and literal !p to p'f in an NNF formula."""
    if f[0] == "ap":
        return ("ap", f[1] + "'t")
    if f[0] == "not":
        return ("ap", f[1][1] + "'f")
    if f[0] in ("true", "false"):
        return f
    return (f[0],) + tuple(split_literals(c) for c in f[1:])


# ---------------------------------------------------------------------------
# Bit-sliced CTL labelling.  A value is one integer per state; bit m of it is
# the truth under labeling m.  With width 1 this is ordinary CTL checking.


def _fix(m, exists, least, l, r, full):
    succ, pred = m.succ, m.pred
    z = list(r)
    work = list(range(m.n))
    queued = [True] * m.n
    while work:
        j = work.pop()
        queued[j] = False
        for i in pred[j]:
            if exists:
                acc = 0
                for k in succ[i]:
                    acc |= z[k]
            else:
                acc = full
                for k in succ[i]:
                    acc &= z[k]
            new = (r[i] | (l[i] & acc)) if least else (r[i] & (l[i] | acc))
            if new != z[i]:
                z[i] = new
                if not queued[i]:
                    queued[i] = True
                    work.append(i)
    return z


def label(m, f, env, full=1):
    """Per-state values of CTL formula f; env maps atom names to value lists."""
    n, succ = m.n, m.succ
    memo = {}
    stack = [(f, False)]
    while stack:
        node, ready = stack.pop()
        if id(node) in memo:
            continue
        kids = node[1:] if node[0] not in ("ap", "true", "false") else ()
        if not ready:
            stack.append((node, True))
            stack.extend((c, False) for c in kids)
            continue
        v = [memo[id(c)] for c in kids]
        tag = node[0]
        if tag == "ap":
            out = env[node[1]]
        elif tag == "true":
            out = [full] * n
        elif tag == "false":
            out = [0] * n
        elif tag == "not":
            out = [full ^ a for a in v[0]]
        elif tag == "and":
            out = [a & b for a, b in zip(*v)]
        elif tag == "or":
            out = [a | b for a, b in zip(*v)]
        elif tag == "imp":
            out = [(full ^ a) | b for a, b in zip(*v)]
        elif tag == "EX":
            out = []
            for i in range(n):
                acc = 0
                for j in succ[i]:
                    acc |= v[0][j]
                out.append(acc)
        elif tag == "AX":
            out = []
            for i in range(n):
                acc = full
                for j in succ[i]:
                    acc &= v[0][j]
                out.append(acc)
        elif tag in ("EF", "AF"):
            out = _fix(m, tag == "EF", True, [full] * n, v[0], full)
        elif tag in ("EG", "AG"):
            out = _fix(m, tag == "EG", False, [0] * n, v[0], full)
        else:
            out = _fix(m, tag[0] == "E", tag[1] == "U", v[0], v[1], full)
        memo[id(node)] = out
    return memo[id(f)]


def classical_env(m):
    return {p: [1 if v == "T" else 0 for v in m.labels[p]] for p in m.props}


def holds(m, f, env=None):
    """m |= f for a classical model: every initial state satisfies f."""
    vals = label(m, f, env or classical_env(m))
    return all(vals[i] for i in m.init)


def holds3(m, f):
    """Compositional 3-valued value ("T", "M", "F") as two classical checks.

    Transitions are 2-valued, so "definitely true" is the classical check of
    NNF(f) with literal p read as "p is T" and !p as "p is F"; "definitely
    false" is the same check of NNF(!f).  An initial state that is
    definitely false makes the meet F; one that is not definitely true, M.
    """
    env = {}
    for p in m.props:
        env[p + "'t"] = [1 if v == "T" else 0 for v in m.labels[p]]
        env[p + "'f"] = [1 if v == "F" else 0 for v in m.labels[p]]
    dt = label(m, split_literals(nnf(f)), env)
    df = label(m, split_literals(nnf(f, negate=True)), env)
    if any(df[i] for i in m.init):
        return "F"
    return "T" if all(dt[i] for i in m.init) else "M"


def sweep_verdicts(m, f, x):
    """Set of verdicts of f over all 2^n labelings of the fresh atom x."""
    width = 1 << m.n
    full = (1 << width) - 1
    env = {p: [full if v == "T" else 0 for v in m.labels[p]] for p in m.props}
    env[x] = [_bit_column(i, width) for i in range(m.n)]
    vals = label(m, f, env, full)
    agree = full
    for i in m.init:
        agree &= vals[i]
    if agree == 0:
        return {False}
    return {True} if agree == full else {True, False}


def _bit_column(i, width):
    """Integer whose bit m is bit i of m, for m < width."""
    period = 1 << (i + 1)
    col = ((1 << (1 << i)) - 1) << (1 << i)
    while period < width:
        col |= col << period
        period <<= 1
    return col


# ---------------------------------------------------------------------------
# CTL* families by graph search.


def sccs(m, allowed):
    """Strongly connected components of the subgraph on `allowed` states."""
    index = {}
    low = {}
    on_stack = set()
    stack = []
    out = []
    counter = 0
    for root in range(m.n):
        if not allowed[root] or root in index:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work.pop()
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack.add(v)
            succ = [w for w in m.succ[v] if allowed[w]]
            for j in range(pi, len(succ)):
                w = succ[j]
                if w not in index:
                    work.append((v, j + 1))
                    work.append((w, 0))
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            else:
                if low[v] == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        comp.append(w)
                        if w == v:
                            break
                    out.append(comp)
                if work:
                    low[work[-1][0]] = min(low[work[-1][0]], low[v])
    return out


def reachable(m, start):
    seen = set(start)
    frontier = list(start)
    while frontier:
        v = frontier.pop()
        for w in m.succ[v]:
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return seen


def e_fair(m, infinitely, always_eventually=None):
    """Initial state has a path visiting each set in `infinitely` infinitely
    often and, from some point on, staying inside `always_eventually`."""
    allowed = always_eventually or [True] * m.n
    good = set()
    for comp in sccs(m, allowed):
        members = set(comp)
        if len(comp) == 1 and comp[0] not in m.succ[comp[0]]:
            continue
        if all(any(s[v] for v in comp) for s in infinitely):
            good |= members
    return all(reachable(m, [i]) & good for i in m.init)


def e_next_k_and_eventually(m, k, a, b):
    """E(X^k a & F b) at every initial state."""
    ef_b = set(i for i in range(m.n) if b[i])
    frontier = list(ef_b)
    while frontier:
        v = frontier.pop()
        for u in m.pred[v]:
            if u not in ef_b:
                ef_b.add(u)
                frontier.append(u)
    for i0 in m.init:
        layer = {(i0, b[i0])}
        for _ in range(k):
            layer = {(j, seen or b[j]) for i, seen in layer for j in m.succ[i]}
        if not any(a[j] and (seen or j in ef_b) for j, seen in layer):
            return False
    return True


# ---------------------------------------------------------------------------
# Constructions and bisimulation classes.


def chi_product(m, x, name=None):
    """K||chi: every state paired with x false (even index) and x true (odd)."""
    succ = [[2 * j + c for j in m.succ[i] for c in (0, 1)] for i in range(m.n) for _ in (0, 1)]
    labels = {p: [v for v in vals for _ in (0, 1)] for p, vals in m.labels.items()}
    labels[x] = ["F", "T"] * m.n
    init = [2 * i + c for i in m.init for c in (0, 1)]
    return Model(name or f"{m.name}x", succ, labels, init)


def duplicate(m, name):
    """m with every state doubled; copies of a state share its successors."""
    succ = [[2 * j + d for j in m.succ[i] for d in (0, 1)] for i in range(m.n) for _ in (0, 1)]
    labels = {p: [v for v in vals for _ in (0, 1)] for p, vals in m.labels.items()}
    init = [2 * i + c for i in m.init for c in (0, 1)]
    names = [f"s{i}_{c}" for i in range(m.n) for c in (0, 1)]
    return Model(name, succ, labels, init, names)


def bisim_classes(m, props=None):
    """Class id per state of the coarsest bisimulation (signature refinement)."""
    props = m.props if props is None else props
    block = [tuple(m.labels[p][i] for p in props) for i in range(m.n)]
    count = -1
    while True:
        sig = [(block[i], frozenset(block[j] for j in m.succ[i])) for i in range(m.n)]
        ids = {}
        block = [ids.setdefault(s, len(ids)) for s in sig]
        if len(ids) == count:
            return block
        count = len(ids)


def quotient(m, name):
    cls = bisim_classes(m)
    k = max(cls) + 1
    rep = [None] * k
    succ = [set() for _ in range(k)]
    for i in range(m.n):
        if rep[cls[i]] is None:
            rep[cls[i]] = i
        succ[cls[i]].update(cls[j] for j in m.succ[i])
    labels = {p: [m.labels[p][rep[c]] for c in range(k)] for p in m.props}
    init = sorted({cls[i] for i in m.init})
    return Model(name, [sorted(s) for s in succ], labels, init, [f"q{c}" for c in range(k)])
