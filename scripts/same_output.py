"""Compare the outputs of every bench CLI query between two vacmc source trees.

    python3 scripts/same_output.py BASE_SRC HEAD_SRC [--seed 1] [--workload NAME ...]

The queries are the `vacmc.cli.main` argument lists of the bench workloads
(bench/workloads.py, generated once for the given seed); the two library
calls without a subcommand are left out.  Each tree runs every query in a
fresh Python process of its own, with its directory first on sys.path.  An
output is the exit code, standard output with `meta.elapsed_ms` blanked, and
standard error.  Prints a Markdown report with the number of queries whose
outputs differ, per workload and in total, and names up to ten of them.  It
reports and does not judge: the exit status is 0 whatever the count.
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


def run_queries(argvs):
    """[exit code, stdout, stderr] of each argument list, in this process."""
    from vacmc import cli

    outputs = []
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except Exception as exc:  # an escaped exception is an output too
                code, err = "raised", io.StringIO(f"{type(exc).__name__}: {exc}")
        outputs.append([code, ELAPSED.sub('"elapsed_ms": null', out.getvalue()), err.getvalue()])
    return outputs


def outputs_of(src, queries_path):
    done = subprocess.run([sys.executable, os.path.abspath(__file__), "--emit", src, queries_path],
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


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
    with tempfile.TemporaryDirectory() as workdir:
        for name in args.workload or WORKLOADS:
            work = W.generate(name, args.seed, workdir)
            for path, text in work.files.items():
                with open(path, "w") as fh:
                    fh.write(text)
            queries = [q for q in work.queries if q.argv is not None]
            queries_path = os.path.join(workdir, f"{name}.json")
            with open(queries_path, "w") as fh:
                json.dump([q.argv for q in queries], fh)
            base, head = (outputs_of(src, queries_path) for src in (args.base_src, args.head_src))
            differ = [i for i, (a, b) in enumerate(zip(base, head)) if a != b]
            names += [f"{name} #{i} `{' '.join(queries[i].argv)}`" for i in differ]
            lines.append(f"| {name} | {len(queries)} | {len(differ)} |")
            total, count = total + len(queries), count + len(differ)
    print(f"### Same output (seed {args.seed}): {count} of {total} bench CLI queries differ\n")
    print("| workload | queries | differing |\n|---|---|---|")
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
