"""vacmc benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload large-ctl --seed 1 --seconds 20 --trace 0

Each workload is a closed loop with one client: its queries run back to back,
in this one process and thread, through `vacmc.cli.main(argv)` with
`--format json` (two query families without a subcommand call the library).
Whole rounds of the query list repeat while the time measured so far plus
half a round stays under `--seconds`, so a run measures `--seconds` give or
take half a round.  After
the timed region every outcome is checked against the oracle's answer.

Times are scaled to a reference host speed by a calibration loop timed just
before each measurement (see `at_reference_speed`).

`--trace 0` prints the end-to-end metrics; `--trace 1` alternates untraced
and traced rounds and prints per-layer metrics.  The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
See bench/README.md for the workloads and the metric definitions.
"""

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import workloads as W  # noqa: E402
from tracer import Tracer  # noqa: E402

SETUP_REPEATS = 21
# Times are reported at a reference host speed: the speed at which `calibrate`
# takes CAL_REFERENCE_S.  Each time is scaled by the median of the calibrations
# made within CAL_WINDOW measurements of it.
CAL_REFERENCE_S = 0.001
CAL_WINDOW = 4
MODULES = ("formula", "kripke", "mc", "bisim", "vacuity", "qctl", "three_valued", "cli")


class Vacmc:
    """The vacmc modules as currently imported; attributes are read per call,
    so wrappers installed by the tracer are seen."""

    def __init__(self):
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"vacmc.{name}"))


def formula_texts(q):
    argv = q.argv or []
    texts = [argv[2]] if argv and argv[0] in ("check", "vacuity", "qctl") else []
    if "--sub" in argv:
        texts.append(argv[argv.index("--sub") + 1])
    if q.direct and q.direct[0] == "foreign":
        texts.append(q.direct[3])
    return texts


def _calibration_graph(n=250, degree=3):
    rng = random.Random(0)
    pred = [[] for _ in range(n)]
    for s in range(n):
        for _ in range(degree):
            pred[rng.randrange(n)].append(s)
    return pred


CAL_PRED = _calibration_graph()


def calibrate():
    """Seconds a fixed, vacmc-free backward-reachability loop takes now.  It
    does the set and list work of an explicit-state checker, so it slows with
    the host as vacmc does."""
    start = time.perf_counter()
    for target in range(15):
        seen, work = {target}, [target]
        while work:
            for s in CAL_PRED[work.pop()]:
                if s not in seen:
                    seen.add(s)
                    work.append(s)
    frozenset((s, t) for t, preds in enumerate(CAL_PRED[::5]) for s in preds)
    return time.perf_counter() - start


def at_reference_speed(timings):
    """(seconds, calibration) pairs -> seconds at the reference host speed."""
    cals = [c for _, c in timings]
    return [t * CAL_REFERENCE_S / statistics.median(cals[max(0, i - CAL_WINDOW):i + CAL_WINDOW + 1])
            for i, (t, _) in enumerate(timings)]


def setup(work):
    """Import vacmc and parse every generated model and formula once; seconds."""
    for name in [m for m in sys.modules if m == "vacmc" or m.startswith("vacmc.")]:
        del sys.modules[name]
    gc.collect()
    start = time.perf_counter()
    vac = Vacmc()
    for text in work.files.values():
        vac.kripke.parse_kripke(text)
    for q in work.queries:
        for text in formula_texts(q):
            vac.formula.parse_formula(text)
    return time.perf_counter() - start, vac


def _read(path):
    with open(path) as fh:
        return fh.read()


def invoke(vac, q):
    if q.argv is not None:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = vac.cli.main(q.argv)
        return code, out.getvalue()
    kind, *args = q.direct
    if kind == "foreign":
        home, there, text = args
        k = vac.kripke.parse_kripke(_read(home))
        k2 = vac.kripke.parse_kripke(_read(there))
        return vac.mc.check_ctl_star(k2, vac.formula.parse_formula(text), env={k.name: k})
    less, more = (vac.kripke.parse_kripke(_read(p)) for p in args)
    return vac.three_valued.is_refinement(less, more)


def summarize(q, raw, golden):
    """The fields of an outcome that the expected answer is matched against."""
    if q.direct is not None:
        if q.direct[0] == "foreign":
            return {"value": raw}
        return {"value": raw is not None, "replay": q.replay(raw.pairs if raw is not None else frozenset())}
    code, out = raw
    if q.argv[0] == "table1":
        return {"exit": code, "golden": out == golden}
    summary = {"exit": code}
    if code == 1:
        return summary
    result = json.loads(out)["result"]
    for key in ("value", "status", "route", "states"):
        if key in result:
            summary[key] = result[key]
    if "relation" in result:
        summary["pairs"] = len(result["relation"])
        summary["pairs_sha"] = W.digest(result["relation"])
    if q.replay is not None:
        summary["replay"] = q.replay(result)
    return summary


def run_round(vac, work, golden, tracer=None, subset=None):
    """One pass over the queries; returns (timings, summaries, wall seconds),
    a timing being (seconds to verdict, calibration seconds just before)."""
    timings, summaries = [], []
    started = time.perf_counter()
    for qid, q in enumerate(work.queries):
        if subset is not None and qid not in subset:
            continue
        if tracer is not None:
            tracer.qid = qid
        gc.collect()  # start every query from the same heap, outside the timed region
        cal = calibrate()
        t0 = time.perf_counter()
        try:
            raw = invoke(vac, q)
        except Exception as exc:  # an escaped exception is a failed query
            timings.append((time.perf_counter() - t0, cal))
            summaries.append((qid, {"error": type(exc).__name__}))
            continue
        timings.append((time.perf_counter() - t0, cal))
        summaries.append((qid, summarize(q, raw, golden)))
    return timings, summaries, time.perf_counter() - started


def judge(q, expected, summary):
    """'ok', 'known' (the failure recorded for this query) or 'wrong'."""
    if q.known_failure is not None and summary == {"error": q.known_failure}:
        return "known"
    if all(summary.get(k, "<absent>") == v for k, v in expected.items()):
        return "ok"
    return "wrong"


def decided(summary):
    return "error" not in summary and summary.get("exit", 0) == 0


def route_histogram(work, summaries):
    hist = {}
    for qid, s in summaries:
        cmd = (work.queries[qid].argv or ["direct"])[0]
        if cmd in ("vacuity", "qctl") and "route" in s:
            key = f"{cmd}.route.{s['route']}"
            hist[key] = hist.get(key, 0) + 1
    return dict(sorted(hist.items()))


def percentile(values, p):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def verify(work, rounds):
    """Judge every outcome of every round; returns (verdicts, problems)."""
    expected = {}
    verdicts, problems = [], []
    first = dict(rounds[0])
    for summaries in rounds:
        for qid, s in summaries:
            q = work.queries[qid]
            if qid not in expected:
                expected[qid] = q.expect()
            verdict = judge(q, expected[qid], s)
            if s != first[qid]:
                verdict = "wrong"
            if verdict == "wrong" and len(problems) < 20:
                problems.append(f"query {qid} ({q.family}): expected {expected[qid]}, got {s}"
                                + (f" after {first[qid]}" if s != first[qid] else ""))
            verdicts.append((qid, s, verdict))
    return verdicts, problems


def layer_metrics(names, tracer, traced_rounds, overhead, work, first_summaries):
    """Per-layer metrics by name: self seconds per traced round, calls and
    counts of the first traced round, routes, shares and the trace overhead."""
    routes = route_histogram(work, first_summaries)
    total = sum(tracer.self_s.values())

    def spans(layer):  # a class's methods are spans named <class>.<method>
        return [n for n in tracer.self_s if n == layer or n.startswith(layer + ".")]

    def value(name):
        if name == "trace.overhead_ratio":
            return overhead
        if name in SHARES:
            return sum(tracer.self_s[n] for n in tracer.self_s if SHARES[name](n)) / total if total else 0.0
        if ".route." in name:
            return routes.get(name, 0)
        if name in RATIOS:
            top, bottom = (value(n) for n in RATIOS[name])
            return None if top is None or bottom is None else (top / bottom if bottom else 0.0)
        layer, quantity = name.rsplit(".", 1)
        if any(n == layer or n.startswith(layer + ".") for n in tracer.missing):
            return None
        if quantity == "self_s":
            return sum(tracer.self_s[n] for n in spans(layer)) / max(1, traced_rounds)
        if quantity == "calls":
            return tracer.first_calls.get(layer, 0)
        if (layer, quantity) in tracer.null_counts:
            return None
        return tracer.first_counts.get(layer, {}).get(quantity, 0)

    return {name: value(name) for name in names}


RATIOS = {
    "mc.AtomGraph.atom_yield": ("mc.AtomGraph.atoms", "mc.AtomGraph.candidate_atoms"),
    "vacuity.structure_vacuous.mask_ratio": ("vacuity.structure_vacuous.masks", "vacuity.structure_vacuous.space"),
}

# The layer each workload was chosen to stress, as a share of its traced self time.
SHARES = {
    "share.mc_fixpoints": lambda n: n == "mc.check_ctl_star",
    "share.mc_atomgraph": lambda n: n.startswith("mc.AtomGraph"),
    "share.sweep_layers": lambda n: n in ("formula.substitute", "kripke.KripkeStructure",
                                          "kripke.x_variants", "mc.check_ctl_star"),
    "share.bisim": lambda n: n.startswith("bisim."),
}
STRESSED_SHARE = {
    "large-ctl": "share.mc_fixpoints",
    "ctlstar-tableau": "share.mc_atomgraph",
    "vacuity-sweep": "share.sweep_layers",
    "bisim-reduce": "share.bisim",
}


# The per-layer metrics each workload is meant to exercise; each must be measured
# (non-null and non-zero) on its workload.  See bench/README.md for what they move.
LAYER_WORKLOADS = {
    "large-ctl": [
        "formula.parse_formula.self_s", "kripke.parse_kripke.self_s", "kripke.KripkeStructure.calls",
        "kripke.KripkeStructure.states", "kripke.KripkeStructure.self_s", "kripke.compose_sync.self_s",
        "mc.check_ctl_star.calls", "mc.check_ctl_star.self_s", "three_valued.eval_compositional3.self_s",
        "vacuity.route.monotone", "vacuity.route.satx", "vacuity.route.falx", "trace.overhead_ratio",
    ],
    "ctlstar-tableau": [
        "formula.parse_formula.self_s", "kripke.parse_kripke.self_s", "mc.explain_path.self_s",
        "mc.AtomGraph.calls", "mc.AtomGraph.self_s", "mc.AtomGraph.candidate_atoms", "mc.AtomGraph.atoms",
        "mc.AtomGraph.atom_yield", "mc.AtomGraph.edges", "mc.AtomGraph.sccs", "mc.AtomGraph.refused",
        "trace.overhead_ratio",
    ],
    "vacuity-sweep": [
        "formula.parse_formula.self_s", "kripke.parse_kripke.self_s", "formula.substitute.calls",
        "formula.substitute.self_s", "formula.analyze.self_s", "kripke.KripkeStructure.calls",
        "kripke.KripkeStructure.states", "kripke.KripkeStructure.self_s", "kripke.x_variants.structures",
        "kripke.x_variants.self_s", "kripke.duplicate_m.self_s", "mc.check_ctl_star.calls",
        "mc.check_ctl_star.self_s", "mc.AtomGraph.calls", "mc.AtomGraph.self_s",
        "vacuity.decide_bisim_vacuity.self_s", "vacuity.structure_vacuous.self_s",
        "vacuity.structure_vacuous.masks", "vacuity.structure_vacuous.mask_ratio",
        "vacuity.enumerate_structures.structures", "qctl.eval_structural.self_s",
        "qctl.eval_structural.labelings", "qctl.eval_tree.self_s", "qctl.eval_bisimulation.self_s",
        "three_valued.labeling_completions.structures", "three_valued.vacuity_via_thorough.self_s",
        "vacuity.route.structure-witness", "vacuity.route.variant-witness", "vacuity.route.bounded-validity",
        "vacuity.route.thorough", "vacuity.route.unknown", "qctl.route.BruteForceY", "qctl.route.KParallelX",
        "qctl.route.Duality", "qctl.route.DeterministicCollapse", "qctl.route.ChainImplication",
        "trace.overhead_ratio",
    ],
    "bisim-reduce": [
        "formula.parse_formula.self_s", "kripke.parse_kripke.self_s", "kripke.x_variants.structures",
        "kripke.x_variants.self_s", "kripke.duplicate_m.self_s", "bisim.greatest_bisimulation.calls",
        "bisim.greatest_bisimulation.self_s", "bisim.greatest_bisimulation.pairs",
        "bisim.greatest_simulation.self_s", "bisim.greatest_simulation.pairs", "bisim.quotient_bisim.self_s",
        "bisim.quotient_bisim.blocks", "three_valued.is_refinement.self_s", "three_valued.is_refinement.pairs",
        "cli.main.self_s", "qctl.route.Unknown", "trace.overhead_ratio",
    ],
}


def run_traced(vac, work, golden, seconds, subset=None):
    """Alternate untraced and traced rounds; returns (tracer, rounds, overhead)."""
    tracer = Tracer()
    untraced, traced, rounds = [], [], []
    while not traced or sum(untraced + traced) + (untraced[-1] + traced[-1]) / 2 < seconds:
        _, summaries, wall = run_round(vac, work, golden, subset=subset)
        untraced.append(wall)
        rounds.append(summaries)
        tracer.keep_spans = not traced
        tracer.install()
        try:
            _, summaries, wall = run_round(vac, work, golden, tracer, subset)
        finally:
            tracer.uninstall()
        if not traced:
            tracer.snapshot()
        traced.append(wall)
        rounds.append(summaries)
    overhead = statistics.median(traced) / statistics.median(untraced)
    return tracer, rounds, overhead, len(traced)


def write_trace(path, tracer, extra):
    names = sorted({s[0] for s in tracer.spans})
    ids = {n: i for i, n in enumerate(names)}
    with open(path, "w") as fh:
        json.dump({**extra, "notes": tracer.notes, "span_names": names,
                   "spans_fields": ["name", "start", "end", "parent", "query"],
                   "spans": [[ids[n], round(a, 7), round(b, 7), p, q] for n, a, b, p, q in tracer.spans]}, fh)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=W.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "vacmc", "__init__.py")):
        print(f"error: no vacmc sources under {ROOT}/src", file=sys.stderr)
        return 2
    golden_path = os.path.join(ROOT, "tests", "golden", "table1.txt")
    if not os.path.isfile(golden_path):
        print(f"error: golden file {golden_path} is missing", file=sys.stderr)
        return 2
    golden = _read(golden_path)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    sys.path.insert(0, os.path.join(ROOT, "src"))

    out_dir = os.path.join(ROOT, ".bench_work")
    workdir = os.path.join(out_dir, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        return _run(args, spec, golden, workdir, out_dir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, spec, golden, workdir, out_dir):
    work = W.generate(args.workload, args.seed, workdir)
    for path, text in work.files.items():
        with open(path, "w") as fh:
            fh.write(text)
    setups = []
    for _ in range(SETUP_REPEATS):
        cal = calibrate()
        seconds, vac = setup(work)
        setups.append((seconds, cal))
    info = {"workload": args.workload, "seed": args.seed, "queries_per_round": len(work.queries),
            "input_sha256": work.input_hash(workdir)}

    if args.trace:
        tracer, rounds, overhead, traced = run_traced(vac, work, golden, args.seconds)
    else:
        rounds, timings, elapsed, wall = [], [], 0.0, 0.0
        while not rounds or elapsed + wall / 2 < args.seconds:
            timed, summaries, wall = run_round(vac, work, golden)
            timings += timed
            rounds.append(summaries)
            elapsed += wall
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    verdicts, problems = verify(work, rounds)
    attempted = len(verdicts)
    ok = sum(v == "ok" for _, _, v in verdicts)
    known = sorted({(qid, work.queries[qid].family, s["error"]) for qid, s, v in verdicts if v == "known"})
    wrong = sum(v == "wrong" for _, _, v in verdicts)
    info["routes"] = route_histogram(work, rounds[0])
    info["rounds"] = len(rounds)
    info["known_failures"] = [f"query {qid} ({fam}): {err}" for qid, fam, err in known]
    info["problems"] = problems

    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = layer_metrics(units, tracer, traced, overhead, work, rounds[0])
        info["stressed_layer"] = STRESSED_SHARE[args.workload]
        info["stressed_share"] = metrics[STRESSED_SHARE[args.workload]]
        info["notes"] = tracer.notes
        write_trace(os.path.join(out_dir, f"trace-{args.workload}-{args.seed}.json"), tracer, info)
    else:
        latencies = at_reference_speed(timings)
        measured = {
            "query_p50_ms": percentile(latencies, 50) * 1000,
            "query_p90_ms": percentile(latencies, 90) * 1000,
            "throughput_qps": len(latencies) / sum(latencies),
            "decided_ratio": sum(decided(s) for _, s, _ in verdicts) / attempted,
            "verified_ratio": ok / attempted,
            "setup_s": statistics.median(at_reference_speed(setups)),
            "peak_rss_mb": peak_rss_mb,
        }
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        metrics = {name: measured[name] for name in units}
        info["samples"] = len(latencies)
        info["beyond_p90"] = sum(x * 1000 > metrics["query_p90_ms"] for x in latencies)
        info["failed_ratio"] = 1 - metrics["verified_ratio"]
        wall_latencies = [t for t, _ in timings]
        info["calibration_ms"] = statistics.median(c for _, c in timings) * 1000
        info["wall_clock"] = {"query_p50_ms": percentile(wall_latencies, 50) * 1000,
                              "query_p90_ms": percentile(wall_latencies, 90) * 1000,
                              "throughput_qps": len(wall_latencies) / sum(wall_latencies),
                              "setup_s": statistics.median(t for t, _ in setups)}

    for key, value in info.items():
        print(f"# {key}: {json.dumps(value)}")
    for key, value in metrics.items():
        print(f"{key:48} {'null' if value is None else f'{value:.6g}'} {units[key]}")
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": attempted - ok,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
