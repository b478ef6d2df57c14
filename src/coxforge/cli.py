"""Batch command-line front end.

One process, one verb, deterministic output: identical argv and seed
produce byte-identical JSON (sorted keys, fixed separators).  Exit codes
separate the failure families: 1 for violated preconditions, 2 for
exhausted search caps, 64 for unusable argv.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from math import comb

from .blowup_divisors import (
    BlowupContext,
    classify_minimal_projection,
    decompose_degree1,
    eff_membership,
    effective_decompose,
    enumerate_minimal,
    project_class,
)
from .budget import effective_cap
from .errors import CapExceeded, CoxforgeError, PreconditionError
from .nagata_invariants import (
    NagataParams,
    build_F,
    divisor_class_of,
    is_invariant,
    odd_index_sets,
)
from .picard_lattice import DivisorClass, LatticeContext, format_curve, format_divisor
from .root_system import (
    _finite_system,
    degree_one_divisors,
    dynkin_label,
    is_finite_type,
    simple_roots,
    weight_coords,
    weights_of_irrep,
    weyl_orbit,
    weyl_orbit_weights,
)
from .section_spaces import (
    PointConfig,
    generation_test,
    h0,
    mult_along_curve,
    mult_at_point,
    section_of,
)
from .verify import render_report, run_all

__all__ = ["build_parser", "main", "entry"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _csv(conv, what):
    def parse(text: str):
        try:
            return tuple(conv(part) for part in text.split(","))
        except (ValueError, ZeroDivisionError):
            raise argparse.ArgumentTypeError(f"expected comma-separated {what}: {text!r}")
    return parse


_int_list = _csv(int, "integers")
_fraction_list = _csv(Fraction, "rationals")


def _triple(text: str):
    values = _int_list(text)
    if len(values) != 3:
        raise argparse.ArgumentTypeError(f"expected a,b,c: {text!r}")
    return values


def _emit(args, payload, table: str) -> int:
    if args.format == "table":
        print(table)
    else:
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    return 0


def _class_lines(classes) -> str:
    return "\n".join(format_divisor(d) for d in classes)


def _listing(args, key: str, classes) -> int:
    payload = {"count": len(classes), key: [d.to_json() for d in classes]}
    return _emit(args, payload, f"{_class_lines(classes)}\ncount: {len(classes)}")


def _ctx_of(args) -> LatticeContext:
    return LatticeContext(*args.ctx)


def _divisor(args, ctx: LatticeContext) -> DivisorClass:
    if getattr(args, "h", None) is not None:
        h = args.h
    elif getattr(args, "d", None) is not None:
        h = (args.d,)
    else:
        raise PreconditionError("class", "give the H coefficients (--h or --d)")
    if args.m is None:
        raise PreconditionError("class", "the multiplicity list --m is required")
    return DivisorClass(ctx, h, args.m)


def _blowup_divisor(args) -> tuple:
    bc = BlowupContext(args.n, args.r)
    return DivisorClass(bc.lattice_context(), (args.d,), args.m), bc


def _config(args) -> PointConfig:
    if args.params is not None:
        return PointConfig(args.n, args.r, args.params)
    return PointConfig.default(args.n, args.r)


def _cmd_classify(args) -> int:
    a, b, c = args.ctx
    label = dynkin_label(a, b, c)
    payload = {"a": a, "b": b, "c": c, "finite": is_finite_type(a, b, c),
               "label": label}
    return _emit(args, payload, label)


def _cmd_roots(args) -> int:
    rs = simple_roots(_ctx_of(args))
    payload = {"label": rs.dynkin_label,
               "roots": [alpha.to_json() for alpha in rs.simple_roots]}
    return _emit(args, payload, _class_lines(rs.simple_roots))


def _cmd_orbit(args) -> int:
    ctx = _ctx_of(args)
    if args.h is None and args.m is None:
        start = DivisorClass.exceptional(ctx, ctx.r)
    else:
        start = _divisor(args, ctx)
    return _listing(args, "orbit", weyl_orbit(start, simple_roots(ctx), cap=args.cap))


def _cmd_degree_one(args) -> int:
    return _listing(args, "classes", degree_one_divisors(_ctx_of(args), cap=args.cap))


def _cmd_minuscule(args) -> int:
    ctx = _ctx_of(args)
    rs = _finite_system(ctx)
    lam = weight_coords(DivisorClass.exceptional(ctx, ctx.r))
    weights = len(weights_of_irrep(lam, rs, cap=args.cap))
    orbit = len(weyl_orbit_weights(lam, rs, cap=args.cap))
    payload = {"minuscule": weights == orbit, "orbit": orbit, "weights": weights}
    return _emit(args, payload,
                 f"minuscule: {str(weights == orbit).lower()} "
                 f"({weights} weights, {orbit} in the orbit)")


def _cmd_minimal(args) -> int:
    return _listing(args, "classes", enumerate_minimal(BlowupContext(args.n, args.r)))


def _cmd_project(args) -> int:
    d, bc = _blowup_divisor(args)
    image = project_class(d, bc)
    payload = {"class": image.to_json(),
               "target": {"n": args.n - 1, "r": args.r - 1}}
    table = format_divisor(image)
    if args.classify:
        res = classify_minimal_projection(d, bc)
        payload["case"] = res.case
        payload["e_q_coefficient"] = res.e_q_coefficient
        table += f"\ncase: {res.case} (e_q coefficient {res.e_q_coefficient})"
    return _emit(args, payload, table)


def _cmd_decompose(args) -> int:
    if args.ctx is not None:
        ctx = _ctx_of(args)
        d = _divisor(args, ctx)
    else:
        if args.n is None:
            raise PreconditionError("ctx", "give either a context triple or n")
        if args.d is None:
            raise PreconditionError("d", "the degree --d is required with --n")
        # table filling needs no general position, so r = n + 2 points is allowed here
        if args.n < 2:
            raise PreconditionError("n", f"need n >= 2, got {args.n}")
        if len(args.m) < args.n + 2:
            raise PreconditionError(
                "r", f"need r >= n + 2 = {args.n + 2} points, got {len(args.m)} multiplicities")
        ctx = LatticeContext(2, len(args.m) - args.n - 1, args.n + 1)
        d = DivisorClass(ctx, (args.d,), args.m)
    if args.degree_one:
        parts = decompose_degree1(d, cap=args.cap)
    else:
        parts = effective_decompose(d)
    if parts is None:
        return _emit(args, {"parts": None}, "no decomposition")
    return _emit(args, {"parts": [p.to_json() for p in parts]}, _class_lines(parts))


def _cmd_member(args) -> int:
    d = _divisor(args, _ctx_of(args))
    res = eff_membership(d, cap=args.cap)
    cert = None if res.certificate is None else res.certificate.to_json()
    payload = {"certificate": cert, "member": res.member}
    if res.member:
        table = "member"
    else:
        table = f"not a member; violated by the curve {format_curve(res.certificate)}"
    return _emit(args, payload, table)


def _cmd_h0(args) -> int:
    d, _ = _blowup_divisor(args)
    value = h0(d, _config(args))
    return _emit(args, {"h0": value}, f"h0 = {value}")


def _cmd_section(args) -> int:
    d, _ = _blowup_divisor(args)
    f = section_of(d, _config(args))
    return _emit(args, f.to_json(), str(f))


def _cmd_mult(args) -> int:
    d, _ = _blowup_divisor(args)
    cfg = _config(args)
    f = section_of(d, cfg)
    at_points = [mult_at_point(f, p) for p in cfg.points()]
    along = mult_along_curve(f, cfg)
    payload = {"along_curve": along, "at_points": at_points}
    return _emit(args, payload,
                 f"at points: {' '.join(str(v) for v in at_points)}\nalong curve: {along}")


def _cmd_check_generation(args) -> int:
    d, _ = _blowup_divisor(args)
    rep = generation_test(d, _config(args), cap=args.cap)
    payload = {"generated": rep.generated, "h0": rep.h0, "span_dim": rep.span_dim}
    return _emit(args, payload,
                 f"h0 = {rep.h0}, span = {rep.span_dim}, generated: "
                 f"{str(rep.generated).lower()}")


def _nagata_params(args) -> NagataParams:
    if args.r is not None:
        r = args.r
    elif args.n is not None:
        if args.n < 2:
            raise PreconditionError("n", f"need an integer n >= 2, got {args.n}")
        r = args.n + 3
    elif args.indices:
        r = max(5, max(args.indices))
    else:
        raise PreconditionError("r", "give r, n, or an index set")
    if args.params is not None:
        return NagataParams(r, args.params)
    return NagataParams.default(r)


def _cmd_invariant(args) -> int:
    np = _nagata_params(args)
    if args.action == "check" and (args.all or not args.indices):
        cap = effective_cap(args.cap)
        # F_I has C(|I|, (|I| + 1) / 2) terms; bound their total over every
        # odd I before building any
        if sum(comb(np.r, s) * comb(s, (s + 1) // 2) for s in range(1, np.r + 1, 2)) > cap:
            raise CapExceeded("determinant terms", cap)
        good = all(is_invariant(build_F(idx, np, cap), np) for idx in odd_index_sets(np.r))
        checked = 2 ** (np.r - 1)
        return _emit(args, {"checked": checked, "invariant": good},
                     f"{checked} invariants verified" if good
                     else f"FAILURE among the {checked} determinants")
    if not args.indices:
        raise PreconditionError("I", "an index set is required")
    # build_F checks the index set, then its own term count against --cap
    f = build_F(args.indices, np, args.cap)
    if args.action == "build":
        return _emit(args, f.to_json(), str(f))
    if args.action == "class":
        d = divisor_class_of(f, args.n if args.n is not None else np.r - 3)
        return _emit(args, d.to_json(), format_divisor(d))
    verdict = is_invariant(f, np)
    return _emit(args, {"checked": 1, "invariant": verdict},
                 "invariant" if verdict else "NOT invariant")


def _cmd_verify(args) -> int:
    report = run_all(profile=args.profile, seed=args.seed)
    _emit(args, report.to_json(), render_report(report))
    # wall-clock times go to stderr so that stdout stays byte-deterministic
    per_criterion = {}
    for res in report.results:
        per_criterion[res.criterion] = per_criterion.get(res.criterion, 0.0) + res.seconds
    print(json.dumps({"seconds": round(report.seconds, 3),
                      "seconds_per_criterion": {str(k): round(v, 3)
                                                for k, v in per_criterion.items()}},
                     separators=(",", ":")), file=sys.stderr)
    return 0 if report.passed else 1


def build_parser() -> _Parser:
    parser = _Parser(prog="coxforge", description=__doc__)
    common = _Parser(add_help=False)
    common.add_argument("--format", choices=("json", "table"), default="json")
    capped = _Parser(add_help=False)
    capped.add_argument("--cap", type=int, default=None)
    ctx = _Parser(add_help=False)
    ctx.add_argument("--ctx", type=_triple, required=True)
    blowup = _Parser(add_help=False)
    blowup.add_argument("--n", type=int, required=True)
    blowup.add_argument("--r", type=int, required=True)
    divisor = _Parser(add_help=False)
    divisor.add_argument("--d", type=int, required=True)
    divisor.add_argument("--m", type=_int_list, required=True)
    sub = parser.add_subparsers(dest="verb")

    def verb(name, run, *shapes):
        p = sub.add_parser(name, parents=[common, *shapes])
        p.set_defaults(run=run)
        return p

    for name, run, *shapes in (("classify", _cmd_classify), ("roots", _cmd_roots),
                               ("degree-one", _cmd_degree_one, capped),
                               ("minuscule", _cmd_minuscule, capped)):
        verb(name, run, *shapes, ctx)

    p = verb("orbit", _cmd_orbit, capped, ctx)
    p.add_argument("--h", type=_int_list, default=None)
    p.add_argument("--m", type=_int_list, default=None)

    verb("minimal", _cmd_minimal, blowup)

    p = verb("project", _cmd_project, blowup, divisor)
    p.add_argument("--classify", action="store_true")

    p = verb("decompose", _cmd_decompose, capped)
    p.add_argument("--ctx", type=_triple, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--h", type=_int_list, default=None)
    p.add_argument("--m", type=_int_list, required=True)
    p.add_argument("--degree-one", dest="degree_one", action="store_true")

    p = verb("member", _cmd_member, capped, ctx)
    p.add_argument("--h", type=_int_list, default=None)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--m", type=_int_list, required=True)

    for name, run, *shapes in (("h0", _cmd_h0), ("section", _cmd_section), ("mult", _cmd_mult),
                               ("check-generation", _cmd_check_generation, capped)):
        p = verb(name, run, *shapes, blowup, divisor)
        p.add_argument("--params", type=_fraction_list, default=None)

    p = verb("invariant", _cmd_invariant, capped)
    p.add_argument("action", choices=("build", "check", "class"))
    p.add_argument("-I", "--indices", type=_int_list, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--params", type=_fraction_list, default=None)
    p.add_argument("--all", action="store_true")

    p = verb("verify", _cmd_verify)
    p.add_argument("--profile", choices=("quick", "full"), default="quick")
    p.add_argument("--seed", type=int, default=0)
    return parser


def _error_payload(exc) -> dict:
    if isinstance(exc, PreconditionError):
        return {"error": {"detail": exc.detail, "field": exc.field,
                          "type": "precondition"}}
    if isinstance(exc, CapExceeded):
        return {"error": {"cap": exc.cap, "type": "cap", "what": exc.what}}
    return {"error": {"message": str(exc), "type": "error"}}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as usage:
        print(f"usage error: {usage}", file=sys.stderr)
        return 64
    if args.verb is None:
        parser.print_usage(sys.stderr)
        return 64
    try:
        return args.run(args)
    except CoxforgeError as exc:
        print(json.dumps(_error_payload(exc), sort_keys=True,
                         separators=(",", ":")), file=sys.stderr)
        return 2 if isinstance(exc, CapExceeded) else 1


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
