"""Tests of the benchmark itself: layer coverage, unwrapping, verdict checking.

They run one query per family of each workload, in this process, against
the vacmc modules already imported (the benchmark's own set-up re-imports
vacmc, which a shared test process must not do).
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run as R  # noqa: E402
import tracer as T  # noqa: E402
import workloads as W  # noqa: E402


@pytest.fixture(scope="module")
def vac():
    return R.Vacmc()


@pytest.fixture(scope="module")
def golden():
    with open(os.path.join(os.path.dirname(HERE), "tests", "golden", "table1.txt")) as fh:
        return fh.read()


def generate(name, seed, workdir):
    work = W.generate(name, seed, str(workdir))
    for path, text in work.files.items():
        with open(path, "w") as fh:
            fh.write(text)
    return work


def one_per_family(work):
    first = {}
    for qid, q in enumerate(work.queries):
        first.setdefault(q.family, qid)
    return set(first.values())


def wrapped_attributes():
    found = []
    for name, mod in list(sys.modules.items()):
        if name == "vacmc" or name.startswith("vacmc."):
            for key, value in vars(mod).items():
                if getattr(value, "__bench_wrapper__", False):
                    found.append(f"{name}.{key}")
                if isinstance(value, type):
                    found += [f"{name}.{key}.{m}" for m, f in vars(value).items()
                              if getattr(f, "__bench_wrapper__", False)]
    return found


@pytest.mark.parametrize("name", W.WORKLOADS)
def test_layer_metrics_measured_on_their_workload(name, vac, golden, tmp_path):
    work = generate(name, 7, tmp_path)
    tracer, rounds, overhead, traced = R.run_traced(vac, work, golden, 0, one_per_family(work))
    assert wrapped_attributes() == []
    verdicts, problems = R.verify(work, rounds)
    assert problems == []
    metrics = R.layer_metrics(R.LAYER_WORKLOADS[name], tracer, traced, overhead, work, rounds[0])
    unmeasured = [m for m in R.LAYER_WORKLOADS[name] if not metrics.get(m)]
    assert unmeasured == []
    assert tracer.notes == []


UNTRACED_RUN = """
import sys
sys.path.insert(0, {here!r})
import run as R
import test_bench as TB
import tracer as T
import workloads as W

installs = []
install = T.Tracer.install
T.Tracer.install = lambda self: (installs.append(self), install(self))
generate = W.generate

def one_query_per_family(name, seed, workdir):
    work = generate(name, seed, workdir)
    work.queries = [work.queries[i] for i in sorted(TB.one_per_family(work))]
    return work

W.generate = one_query_per_family
R.SETUP_REPEATS = 1
assert R.main(["--workload", "bisim-reduce", "--seed", "3", "--seconds", "0", "--trace", "0"]) == 0
import vacmc.cli, vacmc.mc, vacmc.vacuity
assert installs == [], "the untraced run installed the tracer"
assert TB.wrapped_attributes() == [], TB.wrapped_attributes()
assert vacmc.vacuity.check_ctl_star is vacmc.mc.check_ctl_star
"""


def test_untraced_run_leaves_the_original_functions():
    # A whole `--trace 0` run, in a fresh process: its set-up re-imports vacmc.
    done = subprocess.run([sys.executable, "-c", UNTRACED_RUN.format(here=HERE)],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1])["correct"] is True


def test_verdict_checker_flags_a_wrong_expected_answer(vac, golden, tmp_path):
    work = generate("ctlstar-tableau", 5, tmp_path)
    qid = next(i for i, q in enumerate(work.queries) if q.family == "nested-until")
    q = work.queries[qid]
    right = q.expect()
    _, summaries, _ = R.run_round(vac, work, golden, subset={qid})
    assert R.judge(q, right, summaries[0][1]) == "ok"
    q.expect = lambda: dict(right, value=not right["value"])
    verdicts, problems = R.verify(work, [summaries])
    assert [v for _, _, v in verdicts] == ["wrong"] and problems


def test_known_failure_is_counted_but_not_wrong():
    q = W.Query("ctl-deep", argv=["check"], known_failure="RecursionError")
    assert R.judge(q, {"exit": 0, "value": True}, {"error": "RecursionError"}) == "known"
    assert R.judge(q, {"exit": 0, "value": True}, {"error": "ValueError"}) == "wrong"


def test_same_seed_same_inputs(tmp_path):
    a = W.generate("vacuity-sweep", 11, str(tmp_path))
    b = W.generate("vacuity-sweep", 11, str(tmp_path))
    c = W.generate("vacuity-sweep", 12, str(tmp_path))
    assert a.input_hash(str(tmp_path)) == b.input_hash(str(tmp_path)) != c.input_hash(str(tmp_path))


def test_missing_target_gives_null_metrics_not_an_abort(vac, monkeypatch):
    monkeypatch.setattr(T, "TARGETS", T.TARGETS + [("mc", "NoSuchLayer", None, None),
                                                   ("mc", "AtomGraph", "no_such_method", None)])
    tracer = T.Tracer()
    tracer.install()
    try:
        vac.mc.check_ctl_star(vac.kripke.load_fixture("L"), vac.formula.parse_formula("EF p"))
    finally:
        tracer.uninstall()
    tracer.snapshot()
    metrics = R.layer_metrics(["mc.NoSuchLayer.self_s", "mc.AtomGraph.self_s", "mc.check_ctl_star.calls"],
                              tracer, 1, 1.0, W.Workload("none"), [])
    assert metrics == {"mc.NoSuchLayer.self_s": None, "mc.AtomGraph.self_s": None, "mc.check_ctl_star.calls": 1}
    assert len(tracer.notes) == 2
    assert wrapped_attributes() == []


def test_reference_speed_cancels_a_uniform_host_slowdown():
    fast = [(0.010, 0.001), (0.030, 0.001)] * 5
    slow = [(0.020, 0.002), (0.060, 0.002)] * 5
    assert R.at_reference_speed(slow) == pytest.approx(R.at_reference_speed(fast))
    assert R.at_reference_speed(fast)[:2] == pytest.approx([0.010 * R.CAL_REFERENCE_S / 0.001,
                                                           0.030 * R.CAL_REFERENCE_S / 0.001])
