"""Batch command-line interface with machine-readable output.

Every command emits a single JSON object

    {schema_version, command, inputs, results, provenance}

on stdout; scatter --format csv prints the normalized matrix alone,
without the record.  Numbers are IEEE doubles in shortest round-trip
decimal.  A command takes one flag per setting it reads and no other,
and its provenance lists those settings.  Exit codes: 0 success or every
check passed at its own tolerance, 1 usage error, 2 numeric-check
failure, 3 internal error.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import io
import json
import math
import sys
import time
from dataclasses import asdict
from fractions import Fraction

from .eisenstein import (
    DEFAULT_TRUNCATION,
    TruncationSpec,
    eisenstein_direct,
    fourier_eval,
    fourier_limit_eval,
    phi_coefficient,
)
from .fermat import GAMMA1, classify_cusp, cusp_reps, gamma_n
from .qseries import FormLabel, OrderTooSmall, expansion
from .scattering import scattering_matrix
from .sl2 import Cusp, decompose_gamma2
from .special import BESSEL_QUADRATURE_NODES
from .verify import run_suite

SCHEMA_VERSION = "1"


class UsageError(ValueError):
    pass


def parse_complex(text: str) -> complex:
    """Parse 'x+yi' with decimal literals, e.g. '1+2i', '-0.5i', '2'.
    nan and inf parts are usage errors."""
    t = text.strip().replace(" ", "").replace("j", "i")
    if not t:
        raise UsageError("empty complex literal")
    try:
        if t.endswith("i"):
            v = complex(t[:-1] + "j" if t[:-1] not in ("", "+", "-") else t[:-1] + "1j")
        else:
            v = complex(t)
    except ValueError as exc:
        raise UsageError(f"cannot parse complex number {text!r}") from exc
    if not cmath.isfinite(v):
        raise UsageError(f"complex number {text!r} is not finite")
    return v


def parse_cusp(text: str) -> Cusp:
    t = text.strip().lower()
    if t in ("inf", "infinity", "oo"):
        return Cusp(1, 0)
    p, slash, q = t.partition("/")
    try:
        return Cusp(int(p), int(q) if slash else 1)
    except ValueError as exc:
        raise UsageError(f"cannot parse cusp {text!r}: {exc}") from exc


def parse_form_label(text: str) -> FormLabel:
    """Labels: theta2 | lambda | one_minus_lambda | g0 | g1 | ginf |
    x:N | y:N | f:KIND:J:N."""
    parts = text.strip().split(":")
    name = parts[0].lower()
    if len(parts) != (4 if name == "f" else 2 if name in ("x", "y") else 1):
        raise UsageError(f"label {text!r} must be a level-2 name, x:N, y:N or f:KIND:J:N")
    try:
        if name in ("x", "y"):
            return FormLabel(name, int(parts[1]))
        if name == "f":
            return FormLabel("f", int(parts[3]), parts[1].upper(), int(parts[2]))
        return FormLabel(name)
    except ValueError as exc:
        raise UsageError(f"bad form label {text!r}: {exc}") from exc


def _level(args) -> int:
    if args.n is None or args.n < 1:
        raise UsageError("--n must be a positive integer")
    return args.n


def _group_of(args) -> tuple:
    if args.group != "gamma1":
        return gamma_n(_level(args))
    if args.n is not None:
        raise UsageError("--group gamma1 takes no --n")
    return GAMMA1


def _provenance(trunc: TruncationSpec, args) -> dict:
    values = {**asdict(trunc), "bessel_quadrature_nodes": BESSEL_QUADRATURE_NODES}
    out = {name: values[name] for name in args.settings if name in values}
    if not args.no_timestamp:
        out["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    return out


def _emit(args, command: str, inputs: dict, results, trunc) -> None:
    record = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "inputs": {k: str(v) for k, v in sorted(inputs.items())},
        "results": results,
        "provenance": _provenance(trunc, args),
    }
    json.dump(record, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def _config_from(args) -> TruncationSpec:
    """The truncation of a command: the defaults, overridden by the flags
    of the fields the command reads, each a field's name without its
    underscore."""
    t = asdict(DEFAULT_TRUNCATION)
    for name in t.keys() & args.settings:
        flag = getattr(args, name.replace("_", ""))
        if flag is not None:
            t[name] = flag
    try:
        return TruncationSpec(**t)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def cmd_cusps(args, trunc: TruncationSpec) -> int:
    n = _level(args)
    group = gamma_n(n)
    rows = [{
        "rep": str(fc.rep),
        "kind": fc.kind,
        "index": fc.index,
        "width": group.width,
        "ramification_point": fc.coords(),
        "beta_image": str(fc.beta_image),
    } for fc in cusp_reps(n)]
    _emit(args, "cusps", {"n": n}, {"cusps": rows}, trunc)
    return 0


def cmd_classify(args, trunc: TruncationSpec) -> int:
    n = _level(args)
    c = parse_cusp(args.cusp)
    fc, witness = classify_cusp(c, n)
    _emit(args, "classify", {"cusp": c, "n": n}, {
        "representative": str(fc.rep),
        "kind": fc.kind,
        "index": fc.index,
        "witness_word": str(decompose_gamma2(witness)),
        "witness_matrix": [witness.a, witness.b, witness.c, witness.d],
    }, trunc)
    return 0


def cmd_scatter(args, trunc: TruncationSpec) -> int:
    n = _level(args)
    mat = scattering_matrix(n)
    reps = [str(fc.rep) for fc in cusp_reps(n)]
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\r\n")
        writer.writerow(["rep"] + reps)
        for i, row in enumerate(mat):
            writer.writerow([reps[i]] + [repr(e.normalized) for e in row])
        sys.stdout.write(buf.getvalue())
        return 0
    entries = [[{"normalized": e.normalized, "natural": e.natural,
                 "case": e.case_tag} for e in row] for row in mat]
    _emit(args, "scatter", {"n": n}, {"reps": reps, "entries": entries},
          trunc)
    return 0


def cmd_eisenstein(args, trunc: TruncationSpec) -> int:
    group = _group_of(args)
    j = parse_cusp(args.cusp)
    z = parse_complex(args.z)
    if z.imag <= 0:
        raise UsageError("z must lie in the upper half plane")
    if args.limit and args.s is not None:
        raise UsageError("--limit is the value at s = 1 and takes no --s")
    s = parse_complex(args.s) if args.s is not None else complex(1 if args.limit else 2)
    if s.imag == 0:
        s = s.real
    results: dict = {}
    # E_j(z + b) = E_j(z) for the width b: the sums reduce x to |x| <= b/2
    x = math.remainder(z.real, group.width)
    if x != z.real:
        results["z_reduced"] = [x, z.imag]
    if args.limit:
        val = fourier_limit_eval(group, j, Cusp(1, 0), z, trunc)
        results["limit_4pi"] = [val.real, val.imag]
    else:
        if complex(s).real <= 1:
            raise UsageError("Re s must exceed 1 unless --limit is given")
        direct, tail = eisenstein_direct(group, j, z, s, trunc)
        four = fourier_eval(group, j, Cusp(1, 0), z, s, trunc)
        phi0, phi0_tail = phi_coefficient(group, j, Cusp(1, 0), 0, s, trunc)
        results["direct"] = [direct.real, direct.imag]
        results["direct_tail"] = tail
        results["fourier_inf_chart"] = [four.real, four.imag]
        results["phi0"] = [phi0.real, phi0.imag]
        results["phi0_tail"] = phi0_tail
    _emit(args, "eisenstein", {"group": group, "cusp": j, "z": z, "s": s},
          results, trunc)
    return 0


def cmd_verify(args, trunc: TruncationSpec) -> int:
    try:
        ns = tuple(int(x) for x in args.ns.split(","))
    except ValueError as exc:
        raise UsageError(f"--ns takes comma-separated levels, got {args.ns!r}") from exc
    if min(ns) < 1:
        raise UsageError("--ns levels must be positive integers")
    if args.workers < 1:
        raise UsageError("--workers must be a positive integer")
    reports = run_suite(args.suite, trunc, ns=ns, workers=args.workers,
                        check_id=args.check_id or None)
    if args.check_id and not reports:
        raise UsageError(f"--check-id {args.check_id!r} names no check of the "
                         f"{args.suite} suite at --ns {','.join(map(str, ns))}")
    payload = [r.to_json_dict(with_runtime=not args.no_timestamp) for r in reports]
    all_passed = all(r.passed for r in reports)
    _emit(args, "verify", {"suite": args.suite, "ns": ns},
          {"reports": payload, "all_passed": all_passed}, trunc)
    return 0 if all_passed else 2


def cmd_qexp(args, trunc: TruncationSpec) -> int:
    label = parse_form_label(args.label)
    order = Fraction(trunc.order)
    try:
        exp = expansion(label, order)
    except OrderTooSmall as exc:
        raise UsageError(str(exc)) from exc
    dump = exp.dump()
    _emit(args, "qexp", {"label": label, "order": order},
          {"denom": exp.denom, "terms": dump.split("\n") if dump else []}, trunc)
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="fermatkl", description=__doc__, allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, about, fn, *settings):
        """The parser of a command run by fn, with a flag per setting it
        reads, --no-timestamp, and no flag read as the prefix of another."""
        p = sub.add_parser(name, help=about, allow_abbrev=False)
        p.set_defaults(fn=fn, settings=settings)
        if "n" in settings:
            p.add_argument("--n", type=int, default=None, help="Fermat level N")
        for field in asdict(DEFAULT_TRUNCATION):
            if field in settings:
                p.add_argument("--" + field.replace("_", ""), type=int, default=None)
        p.add_argument("--no-timestamp", action="store_true")
        return p

    command("cusps", "list the cusp system of Gamma_N", cmd_cusps, "n")

    p = command("classify", "classify a cusp with witness", cmd_classify, "n")
    p.add_argument("--cusp", required=True,
                   help="cusp as p/q or inf; --cusp=-7/3 for a leading minus")

    p = command("scatter", "scattering matrix of Gamma_N", cmd_scatter, "n")
    p.add_argument("--format", choices=("json", "csv"), default="json",
                   help="csv: the normalized matrix only, no provenance")

    p = command("eisenstein", "Eisenstein series values", cmd_eisenstein,
                "n", "c_max", "m_max", "bessel_quadrature_nodes")
    p.add_argument("--group", choices=("gamma1", "gammaN"), default="gammaN")
    p.add_argument("--cusp", required=True, help="p/q or inf; --cusp=-1/2 for a leading minus")
    p.add_argument("--z", required=True, help="x+yi, y > 0; --z=-0.2+0.9i for a leading minus")
    p.add_argument("--s", help="x+yi, x > 1, 2 by default; --s=... for a leading minus")
    p.add_argument("--limit", action="store_true",
                   help="regularized value at s = 1 (4 pi scale)")

    p = command("verify", "run the verification suite", cmd_verify,
                "c_max", "m_max", "bessel_quadrature_nodes")
    p.add_argument("--suite", choices=("fast", "full"), default="fast")
    p.add_argument("--ns", type=str, default="1,2", help="levels, e.g. 1,2,3")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--check-id", type=str, default=None,
                   help="restrict the report to one check id")

    p = command("qexp", "dump a q-expansion", cmd_qexp, "order")
    p.add_argument("--label", type=str, required=True)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args, _config_from(args))
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        return 0
    except Exception as exc:  # internal error
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
