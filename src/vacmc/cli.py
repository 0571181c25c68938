"""Command-line front end: vacmc check|vacuity|bisim|simulates|quotient|qctl|translate|table1|batch.

Exit codes: 0 for a successful evaluation (the verdict is in the report),
2 for Unknown or a refused setting (a usage error, or a VACMC_SEED that is
not an integer), 1 for any other error.
"""

import argparse
import collections
import contextlib
import functools
import io
import json
import math
import os
import sys
import time
from json.encoder import encode_basestring_ascii as _quote

from . import formula as F
from . import qctl, three_valued, vacuity
from .bisim import bisimilar_over, quotient_bisim, simulates_over
from .errors import KripkeError, OrderingError, VacmcError
from .kripke import load_fixture, parse_kripke, render_kripke
from .mc import check_and_explain
from .reductions import PropOrdering, decode_single_prop, ez_encode, f_translate_ctl, g_translate_ctl_star
from .vacuity import VacuityStatus


def _load_model(target):
    """The structure in the file `target`, else the fixture of that name.  The
    file is opened and its bytes read and decoded as UTF-8 first, less a
    leading byte-order mark; the path is tested only when that fails, so a
    path that exists but cannot be read is reported and any other goes to the
    fixtures."""
    try:
        fd = os.open(target, os.O_RDONLY)
        try:
            chunks = []
            while chunk := os.read(fd, 1 << 20):
                chunks.append(chunk)
        finally:
            os.close(fd)
        text = b"".join(chunks).decode().removeprefix("\ufeff")
    except (OSError, ValueError) as e:  # ValueError: a NUL byte in the path, or bytes that are not UTF-8
        if not os.path.exists(target):
            return load_fixture(target)
        raise KripkeError(f"cannot read model {target!r}: {getattr(e, 'strerror', None) or e}") from None
    return parse_kripke(text)


def _count(text):
    """An option value that must be a non-negative int; argparse reports a
    refusal as a usage error, exit 2."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative: {text!r}")
    return value


def _parse_props(text):
    return tuple(p for chunk in text.split(",") for p in chunk.split() if p)


def _parse_order(text):
    """'p,q' (indices in list order) or 'p=1,q=2'; a proposition given twice is an error."""
    items = _parse_props(text)
    explicit = any("=" in item for item in items)
    mapping = {}
    for n, item in enumerate(items, 1):
        p, _, i = item.partition("=")
        if p in mapping:
            raise OrderingError(f"proposition {p!r} given twice in ordering")
        try:
            mapping[p] = int(i) if explicit else n
        except ValueError as e:
            raise OrderingError(str(e)) from None
    return PropOrdering(mapping)


class _Pairs:
    """A relation's sorted [s, t] name pairs, held as Relation.grouped() and
    written as json.dumps writes the list of pairs, with no list or format
    argument per pair: each left name is quoted once, each shared list of
    right names once, and the items of one left state come from one str.join
    over its quoted right names."""

    def __init__(self, groups):
        self.groups = groups

    def dumps(self, indent=None):
        """json.dumps(pairs, indent=2) for a list opened at `indent` (a newline
        and its spaces), or json.dumps(pairs) with no indent."""
        if not self.groups:
            return "[]"
        if indent is None:
            indent = inner = cell = ""
            sep = mid = ", "
        else:
            inner = indent + "  "
            cell = inner + "  "
            sep, mid = "," + inner, "," + cell
        close = inner + "]"
        quoted = {}  # id of a list of right names -> the names quoted; self.groups keeps each list alive
        parts, before = [], "[" + inner
        for s, ts in self.groups:
            names = quoted.get(id(ts))
            if names is None:
                names = quoted[id(ts)] = list(map(_quote, ts))
            head = "[" + cell + _quote(s) + mid
            parts += (before, head, (close + sep + head).join(names), close)
            before = sep
        parts.append(indent + "]")
        return "".join(parts)


def _scalar(obj):
    """json.dumps(obj) for a scalar: null, true, false, an int and a finite
    float written as json writes them, with no encoder built per call; NaN,
    the infinities and subclasses still go through json.dumps."""
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if type(obj) is int:
        return int.__repr__(obj)
    if type(obj) is float and math.isfinite(obj):
        return float.__repr__(obj)
    return json.dumps(obj)


def _dumps(obj, indent="\n"):
    """json.dumps(obj, indent=2), byte for byte, for str-keyed trees.

    With an indent, json falls back to its pure-Python encoder; here strings
    go through its C quoting, a list of strings is one join, and a relation's
    _Pairs writes itself.
    """
    inner = indent + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = []  # one join: a large value (a relation) is copied once per level
        for key, value in obj.items():
            parts += (",", inner, _quote(key), ": ", _dumps(value, inner))
        parts[0] = "{"
        parts.append(indent + "}")
        return "".join(parts)
    if isinstance(obj, _Pairs):
        return obj.dumps(indent)
    if not isinstance(obj, (list, tuple)):
        return _quote(obj) if isinstance(obj, str) else _scalar(obj)
    if not obj:
        return "[]"
    sep = "," + inner
    if set(map(type, obj)) == {str}:
        body = sep.join(map(_quote, obj))
    else:
        body = sep.join([_dumps(item, inner) for item in obj])
    return "[" + inner + body + indent + "]"


class _Refused(VacmcError):
    """An environment setting refused: exit 2, as a usage error."""


def _seed():
    """The int in VACMC_SEED, 0 when it is unset."""
    text = os.environ.get("VACMC_SEED", "0")
    try:
        return int(text)
    except ValueError:
        raise _Refused(f"VACMC_SEED is not an integer: {text!r}") from None


class _Report:
    def __init__(self, args, inputs):
        self.started = time.monotonic()
        self.data = {
            "command": args.command,
            "inputs": inputs,
            "result": {},
            "meta": {"seed": _seed(), "elapsed_ms": None},
        }

    def finish(self, result, fmt):
        self.data["result"] = result
        self.data["meta"]["elapsed_ms"] = round((time.monotonic() - self.started) * 1000, 3)
        if fmt == "json":
            print(_dumps(self.data))
        else:
            for key, value in result.items():
                if isinstance(value, _Pairs):
                    value = value.dumps()
                elif isinstance(value, (dict, list)):
                    value = json.dumps(value)
                print(f"{key}: {value}")


def _cmd_check(args):
    k = _load_model(args.model)
    phi = F.parse_formula(args.formula)
    report = _Report(args, {"model": args.model, "formula": args.formula})
    if isinstance(phi, F.QUANTIFIED):
        raise VacmcError("quantified formulas go through the qctl subcommand")
    if k.is_classical:
        value, witness = check_and_explain(k, phi)
        result = {"value": value}
        if witness is not None:
            result["witness"] = witness
    else:
        v = three_valued.eval_compositional3(k, phi)
        result = {"value": {"true": "T", "maybe": "M", "false": "F"}[v.value]}
    report.finish(result, args.format)
    return 0


def _bound(args):
    """The --bound keyword of a library call: none when the option is not
    given, so that the library's default holds."""
    return {} if args.bound is None else {"bound": args.bound}


# The --via routes that read each option of vacuity; any other route refuses it.
_READ_BY = (("--bounded-validity", "bounded_validity", ("auto",)),
            ("--bound", "bound", ("auto", "thorough", "structure")))


def _cmd_vacuity(args):
    for option, dest, routes in _READ_BY:
        if getattr(args, dest) is not None and args.via not in routes:
            _parsers()[1]["vacuity"].error(f"argument {option}: not read by --via {args.via}")
    k = _load_model(args.model)
    phi = F.parse_formula(args.formula)
    psi = F.parse_formula(args.sub)
    report = _Report(args, {"model": args.model, "formula": args.formula, "sub": args.sub})
    via = args.via
    if via in ("auto", "thorough"):
        if via == "auto":
            verdict = vacuity.decide_bisim_vacuity(phi, psi, k, bounded_validity=args.bounded_validity,
                                                   **_bound(args))
        else:
            verdict = three_valued.vacuity_via_thorough(phi, psi, k, **_bound(args))
        report.finish(verdict.to_dict(), args.format)
        return 2 if verdict.status is VacuityStatus.UNKNOWN else 0
    if via == "mono":
        value = vacuity.constant_vacuous(phi, psi, k)
        result = {"status": "vacuous" if value else "non-vacuous", "route": "monotone",
                  "gated": vacuity.syntactic_monotone(phi, psi)}
    elif via == "satx":
        value = vacuity.is_sat_vacuous(phi, psi, k)
        result = {"status": "vacuous" if value else "non-vacuous", "route": "satx"}
    else:  # structure
        flag, witness = vacuity.structure_vacuous(phi, psi, k, **_bound(args))
        result = {"status": "vacuous-by-structure" if flag else "non-vacuous", "route": "structure"}
        if witness is not None:
            result["witness"] = {"satisfying_set": list(witness[0]), "falsifying_set": list(witness[1])}
    report.finish(result, args.format)
    return 0


def _cmd_relation(args):
    k1 = _load_model(args.left)
    k2 = _load_model(args.right)
    over = _parse_props(args.props)
    report = _Report(args, {"model": args.left, "other": args.right, "props": list(over)})
    rel = (bisimilar_over if args.command == "bisim" else simulates_over)(k1, k2, over)
    result = {"value": rel is not None}
    if rel is not None:
        result["relation"] = _Pairs(rel.grouped())
    report.finish(result, args.format)
    return 0


def _cmd_quotient(args):
    k = _load_model(args.model)
    over = _parse_props(args.props) if args.props else None
    report = _Report(args, {"model": args.model, "props": list(over) if over else None})
    q = quotient_bisim(k, over)
    report.finish({"states": q.n, "kripke": render_kripke(q)}, args.format)
    return 0


def _cmd_qctl(args):
    k = _load_model(args.model)
    q = F.parse_formula(args.formula)
    if not isinstance(q, F.QUANTIFIED):
        raise VacmcError("qctl expects a root-quantified formula (forall x . ... / exists x . ...)")
    report = _Report(args, {"model": args.model, "formula": args.formula, "semantics": args.semantics})
    if args.semantics == "structure":
        value, labeling = qctl.eval_structural(k, q, **_bound(args))
        result = {"value": value, "route": qctl.BRUTE_FORCE_Y}
        if labeling is not None:
            result["witness"] = {"labeling": list(labeling)}
        report.finish(result, args.format)
        return 0
    fn = qctl.eval_tree if args.semantics == "tree" else qctl.eval_bisimulation
    r = fn(k, q, **_bound(args))
    result = {"value": r.value, "route": r.route}
    if r.witness is not None:
        result["witness"] = r.witness
    report.finish(result, args.format)
    return 2 if r.value is None else 0


def _cmd_translate(args):
    report = _Report(args, {"what": args.what, "input": args.input})
    o = _parse_order(args.order)
    if args.what == "ez":
        k = _load_model(args.input)
        report.finish({"kripke": render_kripke(ez_encode(k, o, args.z))}, args.format)
    elif args.what in ("f", "g"):
        phi = F.parse_formula(args.input)
        fn = f_translate_ctl if args.what == "f" else g_translate_ctl_star
        report.finish({"formula": F.render_formula(fn(phi, o, args.z))}, args.format)
    else:  # decode
        m = _load_model(args.input)
        if not args.props:
            raise VacmcError("decode requires --props")
        k = decode_single_prop(m, _parse_props(args.props), o, args.z)
        report.finish({"kripke": render_kripke(k)}, args.format)
    return 0


def _table1_lines():
    models = [load_fixture("L"), load_fixture("M")]
    properties = [
        "forall x . AG (x -> AX x)",
        "forall x . AG ((AX x) | (AX !x))",
        "forall x . A ((X x) | (X !x))",
    ]
    header = f"{'model':<6} {'property':<33} {'structure':<18} {'tree':<29} {'bisimulation'}"
    lines = [header, "-" * len(header)]
    for text in properties:
        q = F.parse_formula(text)
        for k in models:
            sv, _ = qctl.eval_structural(k, q)
            tr = qctl.eval_tree(k, q)
            br = qctl.eval_bisimulation(k, q)
            cells = (
                f"{str(sv).lower()}/{qctl.BRUTE_FORCE_Y}",
                f"{str(tr.value).lower()}/{tr.route}",
                f"{str(br.value).lower()}/{br.route}",
            )
            lines.append(f"{k.name:<6} {text:<33} {cells[0]:<18} {cells[1]:<29} {cells[2]}")
    return lines


def _cmd_table1(args):
    for line in _table1_lines():
        print(line)
    return 0


def _cmd_batch(args):
    """Runs each non-blank input line, a JSON array of strings, as one
    argument list, in this process, and writes one JSON line per list:
    {"exit", "stdout", "stderr"} of what main gives for it.  A usage error or
    --help is a record with argparse's exit code; so is a line that is not
    such an array, or that runs batch."""
    if args.file == "-":
        source = contextlib.nullcontext(sys.stdin.buffer)
    else:
        try:
            source = open(args.file, "rb")
        except OSError as e:
            raise VacmcError(f"cannot read batch input {args.file!r}: {e.strerror or e}") from None
    with source as lines:
        for lineno, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = _batch_line(lineno, line)
                except SystemExit as e:
                    code = e.code
            print(json.dumps({"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}), flush=True)
    return 0


def _batch_line(lineno, line):
    """main on the argument list of one input line; a line batch cannot run
    is a usage error of batch (argparse is built only then)."""
    try:
        argv = json.loads(line)
    except ValueError:  # not JSON, or bytes that are not UTF-8
        argv = None
    if not isinstance(argv, list) or not all(isinstance(token, str) for token in argv):
        _parsers()[1]["batch"].error(f"line {lineno}: not a JSON array of strings")
    args = _args(argv)
    if args.command == "batch":
        _parsers()[1]["batch"].error(f"line {lineno}: batch does not run inside batch")
    return _run(args)


_Arg = collections.namedtuple("_Arg", "name dest type choices default required help metavar nargs")


def _arg(name, type=None, choices=None, default=None, required=False, help=None, metavar=None, nargs=None):
    """One argument of a subcommand: an option when `name` starts with '-',
    else a positional (optional with nargs="?"); `dest` is the namespace
    attribute argparse gives it."""
    return _Arg(name, name.lstrip("-").replace("-", "_"), type, choices, default, required, help, metavar, nargs)


class _Command:
    """A subcommand: its help line, its handler, and its arguments in the
    order argparse adds them; the rest is what _read looks up per token."""

    def __init__(self, help_text, fn, *arguments):
        self.help, self.fn, self.arguments = help_text, fn, arguments
        self.positionals = [a for a in self.arguments if a.name[0] != "-"]
        self.options = {a.name: a for a in self.arguments if a.name[0] == "-"}
        self.defaults = {a.dest: a.default for a in self.arguments if a.name[0] == "-" or a.nargs == "?"}
        self.defaults["fn"] = fn
        self.required = {a.dest for a in self.options.values() if a.required}


_FORMAT = _arg("--format", choices=("text", "json"), default="text")
_BOUND = _arg("--bound", type=_count,
              help="sweep K's 2^|S| labelings only if |S| <= this; past it the sweep is skipped, "
                   "or refused where it is the only route")
_RELATION = (_arg("left"), _arg("right"), _arg("--props", required=True), _FORMAT)
_COMMANDS = {
    "check": _Command("model-check a formula (2- or 3-valued)", _cmd_check, _arg("model"), _arg("formula"), _FORMAT),
    "vacuity": _Command(
        "decide vacuity of a subformula", _cmd_vacuity, _arg("model"), _arg("formula"),
        _arg("--sub", required=True),
        _arg("--via", choices=("auto", "mono", "satx", "thorough", "structure"), default="auto"),
        _arg("--bounded-validity", type=_count, metavar="N"), _FORMAT, _BOUND,
    ),
    "bisim": _Command("greatest bisimulation", _cmd_relation, *_RELATION),
    "simulates": _Command("does A simulate B", _cmd_relation, *_RELATION),
    "quotient": _Command("bisimulation quotient", _cmd_quotient, _arg("model"), _arg("--props"), _FORMAT),
    "qctl": _Command(
        "evaluate a quantified formula", _cmd_qctl, _arg("model"), _arg("formula"),
        _arg("--semantics", choices=("structure", "tree", "bisim"), required=True), _FORMAT, _BOUND,
    ),
    "translate": _Command(
        "hardness-reduction encodings", _cmd_translate, _arg("what", choices=("ez", "f", "g", "decode")),
        _arg("input"), _arg("--order", required=True, help="comma list: 'p,q' or 'p=1,q=2'"),
        _arg("--props", help="decoded propositions (decode only)"), _arg("--z", default="z"), _FORMAT,
    ),
    "table1": _Command("reproduce the three-semantics comparison grid", _cmd_table1),
    "batch": _Command(
        "run one argument list per line (a JSON array of strings), writing one JSON record per list",
        _cmd_batch, _arg("file", nargs="?", default="-", help="the lines to run; standard input when absent or '-'"),
    ),
}


@functools.cache
def _parsers():
    """The argument parser built from _COMMANDS, once per process, and each
    command's subparser by name (whose error() reports a refusal made after
    parsing); parse_args fills a fresh namespace on every call, so nothing
    carries over between calls."""
    parser = argparse.ArgumentParser(prog="vacmc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    subparsers = {}
    for name, command in _COMMANDS.items():
        p = subparsers[name] = sub.add_parser(name, help=command.help)
        for a in command.arguments:
            if a.name[0] != "-":
                p.add_argument(a.name, choices=a.choices, nargs=a.nargs, default=a.default, help=a.help)
            else:
                p.add_argument(a.name, type=a.type, choices=a.choices, default=a.default, required=a.required,
                               help=a.help, metavar=a.metavar)
        p.set_defaults(fn=command.fn)
    return parser, subparsers


def _parser():
    return _parsers()[0]


def _read(argv):
    """The namespace _parser().parse_args(argv) returns, read in one pass, for
    the plain shape: a subcommand, its positionals in order (an optional one
    may be left out), and exact option names each followed by a value that
    does not start with '-', passes its converter and is among its choices,
    every required option given.  None for anything else (help, an
    abbreviation, '--opt=value', '--', a value such as '-1', a refusal),
    which argparse then reads and reports."""
    command = _COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return None
    values = {"command": argv[0], **command.defaults}
    positionals, missing = iter(command.positionals), set(command.required)
    tokens = iter(argv[1:])
    for token in tokens:
        if token[:1] == "-":
            a = command.options.get(token)
            token = next(tokens, "-")  # no value left: declined as a value starting with '-' is
            if a is None or token[:1] == "-":
                return None
            missing.discard(a.dest)
        else:
            a = next(positionals, None)
            if a is None:
                return None
        if a.type is not None:
            try:
                token = a.type(token)
            except (argparse.ArgumentTypeError, TypeError, ValueError):
                return None
        if a.choices is not None and token not in a.choices:
            return None
        values[a.dest] = token
    if missing or any(a.nargs != "?" for a in positionals):
        return None
    return argparse.Namespace(**values)


def _args(argv):
    args = _read(argv)
    return _parser().parse_args(argv) if args is None else args


def main(argv=None):
    return _run(_args(sys.argv[1:] if argv is None else list(argv)))


def _run(args):
    try:
        return args.fn(args)
    except VacmcError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2 if isinstance(e, _Refused) else 1
    except Exception as e:  # a fault of vacmc itself: still one line, no traceback
        message = " ".join(str(e).split())
        print(f"error: internal {type(e).__name__}" + (f": {message}" if message else ""), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
