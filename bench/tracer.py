"""Outside-in tracing of vacmc's layers, installed from the benchmark's files.

vacmc's modules bind each other's functions with from-imports (`vacuity`,
`qctl`, `three_valued` and `cli` each hold their own `check_ctl_star`), so a
function is wrapped at every loaded `vacmc` module that binds it.  Classes are
traced by wrapping their methods.  Spans (name, start, end, parent, query id)
are kept in memory; self time and counts are aggregated when a span closes.
A target that no longer exists, or a count whose attribute is gone, is
recorded as missing with a note instead of aborting the run.
"""

import sys
import time
from collections import defaultdict

MISSING = object()


def _atomgraph_counts(graph):
    return {
        "candidate_atoms": lambda: graph.k.n << len(graph.temporal),
        "atoms": lambda: len(graph.atoms),
        "edges": lambda: sum(map(len, graph.adj)),
        "sccs": lambda: len(graph.sccs),
    }


# (module, attribute, method or None, counts(args, result, self) -> {quantity: thunk})
TARGETS = [
    ("formula", "parse_formula", None, None),
    ("formula", "render_formula", None, None),
    ("formula", "substitute", None, None),
    ("formula", "analyze", None, None),
    ("formula", "nnf", None, None),
    ("kripke", "parse_kripke", None, None),
    ("kripke", "render_kripke", None, None),
    ("kripke", "KripkeStructure", "__init__", lambda a, r, s: {"states": lambda: s.n}),
    ("kripke", "compose_sync", None, None),
    ("kripke", "duplicate_m", None, None),
    ("kripke", "x_variants", None, lambda a, r, s: {"structures": lambda: len(r)}),
    ("kripke", "restrict_init", None, None),
    ("kripke", "load_fixture", None, None),
    ("mc", "check_ctl_star", None, None),
    ("mc", "eval_states", None, None),
    ("mc", "eval_mask", None, None),
    ("mc", "explain_path", None, None),
    ("mc", "AtomGraph", "__init__", lambda a, r, s: _atomgraph_counts(s)),
    ("mc", "AtomGraph", "e_mask", None),
    ("mc", "AtomGraph", "lasso", None),
    ("bisim", "greatest_bisimulation", None, lambda a, r, s: {"pairs": lambda: len(r)}),
    ("bisim", "bisimilar_over", None, None),
    ("bisim", "greatest_simulation", None, lambda a, r, s: {"pairs": lambda: len(r)}),
    ("bisim", "simulates_over", None, None),
    ("bisim", "quotient_bisim", None, lambda a, r, s: {"blocks": lambda: r.n}),
    ("vacuity", "decide_bisim_vacuity", None, None),
    ("vacuity", "structure_vacuous", None, lambda a, r, s: {"space": lambda: 1 << a[2].n}),
    ("vacuity", "constant_vacuous", None, None),
    ("vacuity", "is_mon_vacuous", None, None),
    ("vacuity", "is_sat_vacuous", None, None),
    ("vacuity", "is_fal_vacuous", None, None),
    ("vacuity", "enumerate_structures", None, None),
    ("qctl", "eval_structural", None, None),
    ("qctl", "eval_tree", None, None),
    ("qctl", "eval_bisimulation", None, None),
    ("three_valued", "eval_compositional3", None, None),
    ("three_valued", "is_refinement", None, lambda a, r, s: {"pairs": lambda: len(r.pairs) if r else 0}),
    ("three_valued", "lift_kx", None, None),
    ("three_valued", "labeling_completions", None, lambda a, r, s: {"structures": lambda: len(r)}),
    ("three_valued", "thorough_kx", None, None),
    ("three_valued", "vacuity_via_thorough", None, None),
    ("cli", "main", None, None),
]

# Spans of these names count their direct mc.check_ctl_star children.
CHILD_CHECKS = {"vacuity.structure_vacuous": "masks", "qctl.eval_structural": "labelings"}
GENERATORS = {"vacuity.enumerate_structures": "structures"}
REFUSALS = {"mc.AtomGraph": "refused"}


def span_name(module, attr, method):
    if method in (None, "__init__"):
        return f"{module}.{attr}"
    return f"{module}.{attr}.{method}"


class Tracer:
    """Wraps vacmc's layer boundaries; `install` and `uninstall` are exact inverses."""

    def __init__(self):
        self.patches = []        # (owner, attribute, original)
        self.notes = []
        self.missing = set()     # span names whose target is gone
        self.reset()

    def reset(self):
        self.spans = []          # (name, start, end, parent index, query id)
        self.keep_spans = True
        self.stack = []          # open frames: [name, start, child time, index]
        self.qid = None
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(lambda: defaultdict(int))
        self.null_counts = set()
        self.first_calls = {}
        self.first_counts = {}

    def snapshot(self):
        """Keep the calls and counts so far: those of the first traced round."""
        self.first_calls = dict(self.calls)
        self.first_counts = {k: dict(v) for k, v in self.counts.items()}

    # -- installation --------------------------------------------------------

    def install(self):
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "vacmc" or name.startswith("vacmc.")}
        for module, attr, method, counts in TARGETS:
            name = span_name(module, attr, method)
            mod = modules.get(f"vacmc.{module}")
            owner = getattr(mod, attr, MISSING) if mod is not None else MISSING
            if method is not None:
                original = owner.__dict__.get(method, MISSING) if isinstance(owner, type) else MISSING
                if original is MISSING:
                    self._note_missing(name, f"{module}.{attr}.{method} not found")
                    continue
                setattr(owner, method, self._wrap(original, name, counts))
                self.patches.append((owner, method, original))
                continue
            if owner is MISSING:
                self._note_missing(name, f"{module}.{attr} not found")
                continue
            wrapper = self._wrap(owner, name, counts)
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is owner:
                        setattr(mod, key, wrapper)
                        self.patches.append((mod, key, owner))

    def uninstall(self):
        for owner, key, original in reversed(self.patches):
            setattr(owner, key, original)
        self.patches = []

    def _note_missing(self, name, why):
        if name not in self.missing:
            self.missing.add(name)
            self.notes.append(f"{name}: {why}; its metrics are null")

    # -- spans ---------------------------------------------------------------

    def _wrap(self, fn, name, counts):
        tracer = self
        generator = GENERATORS.get(name)
        refusal = REFUSALS.get(name)

        def wrapper(*args, **kwargs):
            frame = tracer._open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if refusal:
                    tracer.counts[name][refusal] += 1
                raise
            finally:
                tracer._close(frame)
            if counts is not None:
                tracer._count(name, counts(args, result, args[0] if args else None))
            if generator:
                return tracer._counting(result, name, generator)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__bench_wrapper__ = True
        return wrapper

    def _counting(self, items, name, quantity):
        for item in items:
            self.counts[name][quantity] += 1
            yield item

    def _count(self, name, thunks):
        for quantity, thunk in thunks.items():
            try:
                self.counts[name][quantity] += thunk()
            except AttributeError as e:
                if (name, quantity) not in self.null_counts:
                    self.null_counts.add((name, quantity))
                    self.notes.append(f"{name}.{quantity}: {e}; recorded as null")

    def _open(self, name):
        index = len(self.spans) if self.keep_spans else -1
        frame = [name, time.perf_counter(), 0.0, index]
        if self.keep_spans:
            parent = self.stack[-1][3] if self.stack else -1
            self.spans.append([name, frame[1], None, parent, self.qid])
        self.stack.append(frame)
        return frame

    def _close(self, frame):
        end = time.perf_counter()
        popped = self.stack.pop()
        assert popped is frame, "spans must nest"
        name, start, child, index = frame
        duration = end - start
        self.calls[name] += 1
        self.self_s[name] += duration - child
        if self.stack:
            parent = self.stack[-1]
            parent[2] += duration
            quantity = CHILD_CHECKS.get(parent[0])
            if quantity and name == "mc.check_ctl_star":
                self.counts[parent[0]][quantity] += 1
        if index >= 0:
            self.spans[index][2] = end
