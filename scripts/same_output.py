"""Compare the outputs of every bench CLI query between two vacmc source trees.

    python3 scripts/same_output.py BASE_SRC HEAD_SRC [--seed 1] [--workload NAME ...]

The queries are the `vacmc.cli.main` argument lists of the bench workloads
(bench/workloads.py, generated once for the given seed); the two library
calls without a subcommand are left out.  One more row runs a fixed list of
queries on the fixtures (FIXTURE_QUERIES): on Q and chi, whose several
initial states no bench structure has, vacuity (auto and --via thorough) and
qctl under bisimulation semantics; bodies with a set atom of the model,
which K_x, K||X and the bounded-validity probe must read; the --via mono
route on a mixed occurrence; auto and thorough on O, where the compositional
bound decides, and on Valpha with a path subformula, where the two
semantics part; a parse error; a root-quantified formula, which auto and
thorough refuse; and usage errors and option spellings that only argparse
reads.  For each row, each tree
runs in one Python process of its own, with its directory first on sys.path,
which calls `vacmc.cli.main` for the row's queries one after another, as the
bench does.  So what vacmc keeps from one call to the next is exercised: the
closure cache, and the last models `parse_kripke` built.  An
output is the exit code (or the code of a SystemExit, as argparse raises on
a usage error), standard output with `meta.elapsed_ms` blanked, and standard
error.  A last `batch` row sends every argument list of the rows above, in
order, through one `python -m vacmc.cli batch` process of the HEAD tree, and
compares each record with that tree's call of `cli.main` on the list.
Prints a Markdown report with the number of queries whose
outputs differ, per row and in total over the bench rows, and names up to
ten of them.
Each difference is named: `exit`, `stderr`, or the dotted paths of standard
output's JSON where the two differ (`result.witness.stem`; `stdout` when it
is not JSON on both sides).  It reports and does not judge: the exit status
is 0 whatever the count.
"""

import argparse
import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("large-ctl", "ctlstar-tableau", "vacuity-sweep", "bisim-reduce")
ELAPSED = re.compile(r'"elapsed_ms": [0-9.e-]+')
ABSENT = object()  # a key on one side only

# Multi-initial fixtures: bodies with set atoms of the model, hole under CTL
# and CTL* path quantifiers; the thorough route asks each initial state alone.
FIXTURE_QUERIES = [
    ["vacuity", "Q", "EF (p & {d1}@Q) & EF (!p & {d0}@Q)", "--sub", "p"],
    ["vacuity", "Q", "AG (p -> {d1}@Q) & EX !p", "--sub", "p", "--via", "thorough"],
    ["vacuity", "Q", "EF (x & {d3}@Q) & AG (q | !{d3}@Q)", "--sub", "x", "--via", "thorough"],
    ["vacuity", "Q", "EX p & EX !p", "--sub", "p"],
    ["vacuity", "Q", "EX p & EX !p", "--sub", "p", "--via", "thorough"],
    ["vacuity", "Q", "AG (q -> AX q) & EF !q", "--sub", "q"],
    ["vacuity", "Q", "AG (q -> AX q) & EF !q", "--sub", "q", "--via", "thorough"],
    ["vacuity", "Q", "E (G F p & F !p) | A (F x)", "--sub", "p"],
    ["vacuity", "Q", "E (G F p & F !p) | A (F x)", "--sub", "p", "--via", "thorough"],
    ["vacuity", "Q", "AG (p -> AX !p) & EX p", "--sub", "p"],
    ["vacuity", "Q", "AG (p -> AX !p) & EX p", "--sub", "p", "--via", "thorough"],
    ["vacuity", "chi", "EX x & EX !x", "--sub", "x"],
    ["vacuity", "chi", "EX x & EX !x", "--sub", "x", "--via", "thorough"],
    ["vacuity", "chi", "AG (x -> AX x) | EF !x", "--sub", "x"],
    ["vacuity", "chi", "AG (x -> AX x) | EF !x", "--sub", "x", "--via", "thorough"],
    ["vacuity", "chi", "E (G F x & F !x)", "--sub", "x", "--via", "thorough"],
    ["vacuity", "chi", "EF (x & {x1}@chi) & AX (x | !x)", "--sub", "x"],
    ["vacuity", "chi", "EF (x & {x1}@chi) & EF !x", "--sub", "x", "--via", "thorough"],
    ["qctl", "Q", "forall y . AG (y -> AX y) | EF p", "--semantics", "bisim"],
    ["qctl", "Q", "exists y . EX y & EX !y & AG (y -> q)", "--semantics", "bisim"],
    ["qctl", "Q", "forall y . E (G F y) | A (F !y)", "--semantics", "bisim"],
    ["qctl", "chi", "forall y . AG ((AX y) | (AX !y))", "--semantics", "bisim"],
    ["qctl", "chi", "forall y . EF (y & {x0}@chi) | AG !y", "--semantics", "bisim"],
    ["qctl", "Q", "forall y . AG (y -> {d1,d3}@Q)", "--semantics", "bisim"],
    ["qctl", "Q", "forall y . AG (y -> {d1,d3}@Q)", "--semantics", "tree"],
    ["vacuity", "M", "AG ((AX p) | (EX !p)) | {b1}@M", "--sub", "p"],
    ["vacuity", "M", "AG ((AX p) | (EX !p)) | {b1}@M", "--sub", "p", "--via", "thorough"],
    ["vacuity", "L", "EX {a0}@L | AX p", "--sub", "p", "--via", "thorough"],
    ["vacuity", "M", "AG ((AX p) | (EX !p)) | {b1}@M", "--sub", "p", "--bounded-validity", "2"],
    ["vacuity", "L", "(EX p) | (AX !p)", "--sub", "p", "--via", "mono"],
    # a definite compositional bound under auto and thorough; a path psi on
    # which the two semantics part
    ["vacuity", "O", "EX (q | p | !p)", "--sub", "p"],
    ["vacuity", "O", "EX (q | p | !p)", "--sub", "p", "--via", "thorough"],
    ["vacuity", "Valpha", "(EX !p) & !(AX !p)", "--sub", "X !p"],
    ["vacuity", "Valpha", "(EX !p) & !(AX !p)", "--sub", "X !p", "--via", "thorough"],
    ["check", "L", "p q"],
    # a root-quantified formula: refused by auto and thorough with the qctl message
    ["vacuity", "L", "forall y . AG (y | p)", "--sub", "p"],
    ["vacuity", "L", "forall y . AG (y | p)", "--sub", "p", "--via", "thorough"],
    # usage errors and shapes only argparse reads: a missing positional, an
    # abbreviated option, '--opt=value', and a negative count
    ["check", "L"],
    ["check", "L", "AG p", "--form", "json"],
    ["check", "L", "AG p", "--format=json"],
    ["vacuity", "L", "p", "--sub", "p", "--bound", "-1"],
]


def run_queries(argvs):
    """[exit code, stdout, stderr] of each argument list, in this process."""
    from vacmc import cli

    outputs = []
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # a usage error: its code, and argparse's message on stderr
                code = f"SystemExit {exc.code}"
            except Exception as exc:  # an escaped exception is an output too
                code, err = "raised", io.StringIO(f"{type(exc).__name__}: {exc}")
        outputs.append([code, ELAPSED.sub('"elapsed_ms": null', out.getvalue()), err.getvalue()])
    return outputs


def differences(a, b):
    """The names of what differs between two outputs [exit code, stdout, stderr]."""
    found = ["exit"] if a[0] != b[0] else []
    if a[1] != b[1]:
        try:
            found += json_paths(json.loads(a[1]), json.loads(b[1])) or ["stdout"]
        except ValueError:
            found.append("stdout")
    if a[2] != b[2]:
        found.append("stderr")
    return found


def json_paths(x, y, path=""):
    """The dotted paths at which two JSON values differ, down through objects."""
    if x == y:
        return []
    if not (isinstance(x, dict) and isinstance(y, dict)):
        return [path or "stdout"]
    found = []
    for key in list(x) + [key for key in y if key not in x]:
        found += json_paths(x.get(key, ABSENT), y.get(key, ABSENT), f"{path}.{key}" if path else key)
    return found


def outputs_of(src, queries_path):
    done = subprocess.run([sys.executable, os.path.abspath(__file__), "--emit", src, queries_path],
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def batch_outputs_of(src, argvs, workdir):
    """The outputs of the argument lists run by one `vacmc batch` process,
    an exit code written as run_queries writes it."""
    path = [os.path.abspath(src), *filter(None, [os.environ.get("PYTHONPATH")])]
    done = subprocess.run([sys.executable, "-m", "vacmc.cli", "batch"],
                          input="".join(json.dumps(argv) + "\n" for argv in argvs), capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(path)}, cwd=workdir)
    records = map(json.loads, done.stdout.splitlines())
    return [[r["exit"], ELAPSED.sub('"elapsed_ms": null', r["stdout"]), r["stderr"]] for r in records]


def exit_code(code):
    """A run_queries exit code as batch records it: argparse's SystemExit by its code."""
    return int(code.split()[-1]) if isinstance(code, str) and code.startswith("SystemExit") else code


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base_src")
    parser.add_argument("head_src")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "bench"))
    import workloads as W

    lines, total, count, names = [], 0, 0, []
    every_argv, every_head = [], []  # the lists of all rows, and HEAD's outputs of them, for the batch row
    with tempfile.TemporaryDirectory() as workdir:

        def report(name, argvs, base, head):
            differ = {i: differences(a, b) for i, (a, b) in enumerate(zip(base, head)) if a != b}
            names.extend(f"{name} #{i} `{' '.join(argvs[i])}`: {', '.join(what)}" for i, what in differ.items())
            fields = sorted({field for what in differ.values() for field in what})
            lines.append(f"| {name} | {len(argvs)} | {len(differ)} | {', '.join(fields)} |")
            return len(differ)

        def compare(name, argvs):
            queries_path = os.path.join(workdir, f"{name}.json")
            with open(queries_path, "w") as fh:
                json.dump(argvs, fh)
            base, head = (outputs_of(src, queries_path) for src in (args.base_src, args.head_src))
            every_argv.extend(argvs)
            every_head.extend(head)
            return report(name, argvs, base, head)

        for name in args.workload or WORKLOADS:
            home = os.path.join(workdir, name)  # one directory per workload: the batch row reads every model
            os.mkdir(home)
            work = W.generate(name, args.seed, home)
            for path, text in work.files.items():
                with open(path, "w") as fh:
                    fh.write(text)
            argvs = [q.argv for q in work.queries if q.argv is not None]
            total, count = total + len(argvs), count + compare(name, argvs)
        compare("fixtures", [argv + ["--format", "json"] for argv in FIXTURE_QUERIES])
        calls = [[exit_code(code), out, err] for code, out, err in every_head]
        report("batch (HEAD: one process against a cli.main call each)", every_argv, calls,
               batch_outputs_of(args.head_src, every_argv, workdir))
    print(f"### Same output (seed {args.seed}): {count} of {total} bench CLI queries differ\n")
    print("| queries of | queries | differing | what differs |\n|---|---|---|---|")
    print("\n".join(lines))
    for line in names[:10]:
        print(f"- {line.replace(workdir, '.')}")
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--emit"]:
        sys.path.insert(0, os.path.abspath(sys.argv[2]))
        with open(sys.argv[3]) as fh:
            print(json.dumps(run_queries(json.load(fh))))
    else:
        sys.exit(main())
