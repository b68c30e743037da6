"""Batch command-line interface with machine-readable output.

Every command emits a single JSON object

    {schema_version, command, inputs, results, provenance}

on stdout (CSV for the scatter command on request).  Numbers are IEEE
doubles in shortest round-trip decimal.  Exit codes: 0 success or all
checks passed, 1 usage error, 2 numeric-check failure, 3 internal
error.
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
from .special import BESSEL_QUADRATURE_NODES, EULER_MACLAURIN_TERMS
from .verify import CheckReport, run_suite

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
    if name in ("x", "y") and len(parts) != 2:
        raise UsageError(f"label {text!r} needs a level, e.g. x:3")
    if name == "f" and len(parts) != 4:
        raise UsageError(f"label {text!r} must be f:KIND:J:N")
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
    return GAMMA1 if getattr(args, "group", None) == "gamma1" else gamma_n(_level(args))


def _provenance(trunc: TruncationSpec, args) -> dict:
    out = {
        "c_max": trunc.c_max,
        "m_max": trunc.m_max,
        "order": trunc.order,
        "euler_maclaurin_terms": EULER_MACLAURIN_TERMS,
        "bessel_quadrature_nodes": BESSEL_QUADRATURE_NODES,
    }
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


def _read_config(path: str, keys) -> dict:
    """The truncation section of a --config file.  Anything else in the
    file (another section, an unknown key, a value that is not an
    integer) is a usage error, as is a file that is not readable JSON."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read config file {path!r}: {exc}") from exc
    section = data.get("truncation", {}) if isinstance(data, dict) else None
    if not isinstance(section, dict) or set(data) - {"truncation"}:
        raise UsageError(f"config file {path!r} must hold one 'truncation' object")
    bad = {k: v for k, v in section.items() if k not in keys or type(v) is not int}
    if bad:
        raise UsageError(f"config file {path!r}: unknown key or non-integer value {bad}")
    return section


def _config_from(args) -> TruncationSpec:
    t = dict(c_max=DEFAULT_TRUNCATION.c_max, m_max=DEFAULT_TRUNCATION.m_max,
             order=DEFAULT_TRUNCATION.order)
    if args.config:
        t.update(_read_config(args.config, t))
    if args.cmax is not None:
        t["c_max"] = args.cmax
    if args.mmax is not None:
        t["m_max"] = args.mmax
    if args.order is not None:
        t["order"] = args.order
    try:
        return TruncationSpec(**t)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def cmd_cusps(args) -> int:
    trunc = _config_from(args)
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


def cmd_classify(args) -> int:
    trunc = _config_from(args)
    n = _level(args)
    if (args.p is None) != (args.q is None) or (args.p is None and args.cusp is None):
        raise UsageError("classify needs --cusp, or --p and --q together")
    c = parse_cusp(args.cusp if args.p is None else f"{args.p}/{args.q}")
    fc, witness = classify_cusp(c, n)
    _emit(args, "classify", {"cusp": c, "n": n}, {
        "representative": str(fc.rep),
        "kind": fc.kind,
        "index": fc.index,
        "witness_word": str(decompose_gamma2(witness)),
        "witness_matrix": [witness.a, witness.b, witness.c, witness.d],
    }, trunc)
    return 0


def cmd_scatter(args) -> int:
    trunc = _config_from(args)
    n = _level(args)
    mat = scattering_matrix(n)
    reps = [str(fc.rep) for fc in cusp_reps(n)]
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\r\n")
        which = args.matrix
        writer.writerow(["rep"] + reps)
        for i, row in enumerate(mat):
            writer.writerow([reps[i]] + [
                repr(getattr(e, which)) for e in row])
        sys.stdout.write(buf.getvalue())
        return 0
    entries = [[{"normalized": e.normalized, "natural": e.natural,
                 "case": e.case_tag} for e in row] for row in mat]
    _emit(args, "scatter", {"n": n}, {"reps": reps, "entries": entries},
          trunc)
    return 0


def cmd_eisenstein(args) -> int:
    trunc = _config_from(args)
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


def cmd_verify(args) -> int:
    trunc = _config_from(args)
    try:
        ns = tuple(int(x) for x in args.ns.split(",")) if args.ns else (1, 2)
    except ValueError as exc:
        raise UsageError(f"--ns takes comma-separated levels, got {args.ns!r}") from exc
    if min(ns) < 1:
        raise UsageError("--ns levels must be positive integers")
    if args.workers < 1:
        raise UsageError("--workers must be a positive integer")
    if args.check_tol is not None and not 0 <= args.check_tol < math.inf:
        raise UsageError("--check-tol must be a finite number >= 0")
    reports = run_suite(args.suite, trunc, ns=ns, workers=args.workers)
    if args.check_id:
        reports = [r for r in reports if r.check_id == args.check_id]
    if args.check_tol is not None:
        reports = [CheckReport(r.check_id, r.parameters, r.residual,
                               args.check_tol, r.residual <= args.check_tol,
                               r.runtime_ms) for r in reports]
    payload = [r.to_json_dict(with_runtime=not args.no_timestamp) for r in reports]
    all_passed = all(r.passed for r in reports)
    _emit(args, "verify", {"suite": args.suite, "ns": ns},
          {"reports": payload, "all_passed": all_passed}, trunc)
    return 0 if all_passed else 2


def cmd_qexp(args) -> int:
    trunc = _config_from(args)
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
    parser = _Parser(prog="fermatkl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--n", type=int, default=None, help="Fermat level N")
        p.add_argument("--cmax", type=int, default=None)
        p.add_argument("--mmax", type=int, default=None)
        p.add_argument("--order", type=int, default=None)
        p.add_argument("--config", type=str, default=None,
                       help="JSON file with truncation defaults")
        p.add_argument("--no-timestamp", action="store_true")

    p = sub.add_parser("cusps", help="list the cusp system of Gamma_N")
    common(p)
    p.set_defaults(fn=cmd_cusps)

    p = sub.add_parser("classify", help="classify a cusp with witness")
    common(p)
    p.add_argument("--cusp", help="cusp as p/q or inf; --cusp=-7/3 for a leading minus")
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--q", type=int, default=None)
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("scatter", help="scattering matrix of Gamma_N")
    common(p)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--matrix", choices=("normalized", "natural"),
                   default="normalized", help="which matrix to print as CSV")
    p.set_defaults(fn=cmd_scatter)

    p = sub.add_parser("eisenstein", help="Eisenstein series values")
    common(p)
    p.add_argument("--group", choices=("gamma1", "gammaN"), default="gammaN")
    p.add_argument("--cusp", required=True, help="p/q or inf; --cusp=-1/2 for a leading minus")
    p.add_argument("--z", required=True, help="x+yi, y > 0; --z=-0.2+0.9i for a leading minus")
    p.add_argument("--s", help="x+yi, x > 1, 2 by default; --s=... for a leading minus")
    p.add_argument("--limit", action="store_true",
                   help="regularized value at s = 1 (4 pi scale)")
    p.set_defaults(fn=cmd_eisenstein)

    p = sub.add_parser("verify", help="run the verification suite")
    common(p)
    p.add_argument("--suite", choices=("fast", "full"), default="fast")
    p.add_argument("--ns", type=str, default=None, help="levels, e.g. 1,2,3")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--check-id", type=str, default=None,
                   help="restrict the report to one check id")
    p.add_argument("--check-tol", type=float, default=None,
                   help="override the pass tolerance for the selected checks")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("qexp", help="dump a q-expansion")
    common(p)
    p.add_argument("--label", type=str, required=True)
    p.set_defaults(fn=cmd_qexp)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
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
