"""Batch driver: character ingestion, command dispatch, JSON/CSV reports.

Exit codes: 0 = all checks passed / invariants certified, 2 = honest
indeterminacy (escalation budget exhausted), 1 = failure, bad input or a
resource refusal.
Reports are deterministic for a fixed configuration and seed.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import random
import sys

from .padic import PadicInt, is_odd_prime, require_precision, require_ring_size
from .ring import RingElem, op_derivative, op_isotypic, op_unit_part
from .characters import (
    DirichletCharacter,
    ResourceGuardError,
    ThetaCharacter,
    character_from_omega_exponents,
    trivial_character,
)
from . import lfunc

SCHEMA = 1


def _padic_json(x: PadicInt) -> dict:
    return {"mod": f"{x.p}^{x.precision}", "value": str(x.value)}


def _emit(doc: dict, args) -> None:
    doc = {"schema": SCHEMA, **doc}
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")

        def flatten(prefix, obj):
            if isinstance(obj, dict):
                for k in sorted(obj):
                    flatten(f"{prefix}.{k}" if prefix else str(k), obj[k])
            elif isinstance(obj, (list, tuple)):
                for i, v in enumerate(obj):
                    flatten(f"{prefix}[{i}]", v)
            else:
                writer.writerow([prefix, str(obj)])

        flatten("", doc)
        text = buf.getvalue()
    else:
        text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _file_int(x, what: str) -> int:
    """An integer of a character file: a JSON integer or a string of one;
    `what` names the entry in the refusal."""
    if isinstance(x, str):
        try:
            return int(x)
        except ValueError:
            pass
    elif isinstance(x, int) and not isinstance(x, bool):
        return x
    raise ValueError(f"character file: {what} must be an integer, got {json.dumps(x)}")


def _load_character(args) -> DirichletCharacter:
    if args.character_file:
        with open(args.character_file) as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ValueError("character file must hold a JSON object")
        for key in ("p", "d", "values"):
            if key not in doc:
                raise ValueError(f'character file: missing key "{key}"')
        if _file_int(doc["p"], "p") != args.p:
            raise ValueError(f"character file is for p={doc['p']}, not {args.p}")
        d = _file_int(doc["d"], "d")
        values = doc["values"]
        if not isinstance(values, dict):
            raise ValueError("character file: values must be an object")
        return character_from_omega_exponents(
            d, {_file_int(a, "key of values"): _file_int(e, f"value of {a}")
                for a, e in values.items()}, args.p)
    return trivial_character(args.p)


def _theta(args) -> ThetaCharacter:
    chi = _load_character(args)
    if chi.d == 1:
        if args.theta_omega is None:
            raise ValueError("d = 1 needs --theta-omega J for theta = omega^J")
        return ThetaCharacter(chi, (args.theta_omega - 1) % (args.p - 1))
    if args.delta is None:
        raise ValueError("a character file needs --delta")
    return ThetaCharacter(chi, args.delta)


def cmd_bounds(args) -> int:
    b = lfunc.bounds(args.p, args.d)
    _emit({"command": "bounds", "inputs": {"p": args.p, "d": args.d},
           "results": {k: str(v) for k, v in b.items()}}, args)
    return 0


def cmd_invariants(args) -> int:
    theta = _theta(args)
    rep = lfunc.iwasawa_invariants(theta, m_max=args.m_max, n=args.n,
                                   check_precision=args.check_precision)
    inv = rep.invariants
    doc = {
        "command": "invariants",
        "inputs": {"p": args.p, "theta": theta.label(), "n": args.n,
                   "m_max": args.m_max, "kappa": rep.kappa},
        "results": {
            "verdict": inv.verdict,
            "mu": inv.mu_certified,
            "lambda": inv.lambda_certified,
            "level": list(inv.level),
            "bound_new": str(rep.bound_new),
            "bound_rosenberg": str(rep.bound_rosenberg),
        },
        "checks": [{"k": c.k, "lhs": _padic_json(c.lhs), "rhs": _padic_json(c.rhs),
                    "ok": c.ok} for c in rep.checks],
    }
    _emit(doc, args)
    if not inv.certified:
        return 2
    return 0 if all(c.ok for c in rep.checks) else 1


def cmd_series(args) -> int:
    theta = _theta(args)
    f = lfunc.iwasawa_series(theta, args.n, args.m)
    doc = {
        "command": "series",
        "inputs": {"p": args.p, "theta": theta.label(), "n": args.n, "m": args.m},
        "results": {
            "modulus": f"{args.p}^{args.n}",
            "omega_level": args.m,
            "coefficients": [str(c) for c in f.coeffs],
        },
    }
    _emit(doc, args)
    return 0


def cmd_interp_check(args) -> int:
    theta = _theta(args)
    ks = [int(k) for k in args.ks.split(",")] if args.ks else \
        lfunc.default_check_exponents(theta)
    checks = lfunc.interpolation_selfcheck(theta, ks, args.n)
    doc = {
        "command": "interp-check",
        "inputs": {"p": args.p, "theta": theta.label(), "n": args.n, "ks": ks},
        "checks": [{"k": c.k, "lhs": _padic_json(c.lhs), "rhs": _padic_json(c.rhs),
                    "ok": c.ok} for c in checks],
    }
    _emit(doc, args)
    return 0 if all(c.ok for c in checks) else 1


def cmd_lambda_sum(args) -> int:
    rep = lfunc.lambda_sum_cyclotomic(args.p, m_max=args.m_max, n=args.n)
    doc = {
        "command": "lambda-sum",
        "inputs": {"p": args.p, "d": 1, "m_max": args.m_max},
        "results": {
            "per_theta": [{"theta": lbl, "lambda": lam} for lbl, lam in rep.entries],
            "total": rep.total,
            "indeterminate": list(rep.indeterminate),
        },
    }
    _emit(doc, args)
    return 0 if rep.total is not None else 2


def cmd_pseudo_rational(args) -> int:
    chi = _load_character(args)
    delta = args.delta if args.delta is not None else 1
    if args.theta_omega is not None:
        delta = (args.theta_omega - 1) % (args.p - 1)
        if args.delta is not None and args.delta % (args.p - 1) != delta:
            raise ValueError(f"--delta {args.delta} disagrees with --theta-omega "
                             f"{args.theta_omega}, which gives delta = {delta}")
    rep = lfunc.not_pseudorational_report(chi, delta)
    doc = {
        "command": "pseudo-rational-check",
        "inputs": {"p": args.p, "source": rep.label, "delta": rep.delta},
        "results": {
            "denominator_matches": rep.denominator_matches,
            "reduced_denominator": list(rep.reduced_denominator),
            "expected_denominator": list(rep.expected_denominator),
            "criterion_holds": rep.criterion.holds,
            "witness_factor": list(rep.criterion.witness or ()),
            "not_pseudorational": rep.not_pseudorational,
        },
    }
    _emit(doc, args)
    return 0 if rep.not_pseudorational else 1


def _selftest_identities(p: int, seed: int, n: int, m: int, cases: int):
    rng = random.Random(seed)
    q = p**m
    pn = p**n

    def rand_elem() -> RingElem:
        return RingElem.from_binomial(
            p, n, m, [rng.randrange(pn) for _ in range(q)])

    results = []

    def check(name, fn):
        ok = all(fn(rand_elem()) for _ in range(cases))
        results.append((name, ok))

    deltas = list(range(p - 1))
    check("U.U == U", lambda f: op_unit_part(op_unit_part(f)) == op_unit_part(f))
    check("D.U == U.D", lambda f: op_derivative(op_unit_part(f))
          == op_unit_part(op_derivative(f)))
    check("gamma_d.gamma_d == gamma_d", lambda f: all(
        op_isotypic(op_isotypic(f, d), d) == op_isotypic(f, d) for d in deltas))
    check("gamma_d.gamma_e == 0 (d != e)", lambda f: all(
        op_isotypic(g, e).is_zero()
        for d, g in ((d, op_isotypic(f, d)) for d in deltas) for e in deltas if d != e))
    check("sum_d gamma_d == id", lambda f: _sum_gammas(f, deltas) == f)
    check("gamma_d.U == U.gamma_d", lambda f: all(
        op_isotypic(op_unit_part(f), d) == op_unit_part(op_isotypic(f, d))
        for d in deltas))
    check("D.gamma_d == gamma_{d+1}.D", lambda f: all(
        op_derivative(op_isotypic(f, d)) == op_isotypic(op_derivative(f), d + 1)
        for d in deltas))
    return results


def _sum_gammas(f: RingElem, deltas) -> RingElem:
    total = op_isotypic(f, deltas[0])
    for d in deltas[1:]:
        total = total + op_isotypic(f, d)
    return total


def cmd_selftest(args) -> int:
    if args.cases < 1:  # no cases would hold every identity vacuously
        raise ValueError(f"--cases must be at least 1, got {args.cases}")
    require_ring_size(args.p, args.m)
    require_precision(args.p, args.n)
    results = _selftest_identities(args.p, args.seed, args.n, args.m, args.cases)
    doc = {
        "command": "selftest",
        "inputs": {"p": args.p, "seed": args.seed, "n": args.n, "m": args.m,
                   "cases": args.cases},
        "checks": [{"identity": name, "ok": ok} for name, ok in results],
    }
    _emit(doc, args)
    return 0 if all(ok for _, ok in results) else 1


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="leopoldt",
        description="Exact p-adic workbench for Iwasawa power series")
    sub = top.add_subparsers(dest="command", required=True)

    def common(sp, d_flag=True):
        sp.add_argument("--p", type=int, required=True, help="odd prime")
        if d_flag:
            sp.add_argument("--d", type=int, default=1, help="conductor (prime to p)")
        sp.add_argument("--format", choices=["json", "csv"], default="json")
        sp.add_argument("--out", default=None, help="write the report to a file")

    def theta_flags(sp):
        sp.add_argument("--theta-omega", type=int, default=None,
                        help="J for theta = omega^J (d = 1)")
        sp.add_argument("--character-file", default=None,
                        help="JSON character table for d >= 2")
        sp.add_argument("--delta", type=int, default=None,
                        help="delta for theta = chi * omega^(delta+1)")

    sp = sub.add_parser("bounds", help="the lambda bounds as exact integers")
    common(sp)
    sp.set_defaults(fn=cmd_bounds)

    sp = sub.add_parser("invariants", help="certify (mu, lambda) of f(T, theta)")
    common(sp, d_flag=False)
    theta_flags(sp)
    sp.add_argument("--n", type=int, default=2)
    sp.add_argument("--m-max", type=int, default=4)
    sp.add_argument("--check-precision", type=int, default=None,
                    help="also run interpolation checks mod p^this")
    sp.set_defaults(fn=cmd_invariants)

    sp = sub.add_parser("series", help="coefficients of f(T, theta) in R(n, m)")
    common(sp, d_flag=False)
    theta_flags(sp)
    sp.add_argument("--n", type=int, default=2)
    sp.add_argument("--m", type=int, default=2)
    sp.set_defaults(fn=cmd_series)

    sp = sub.add_parser("interp-check",
                        help="compare f(kappa^-k - 1) with Bernoulli L-values")
    common(sp, d_flag=False)
    theta_flags(sp)
    sp.add_argument("--n", type=int, default=3)
    sp.add_argument("--ks", default=None, help="comma-separated exponents")
    sp.set_defaults(fn=cmd_interp_check)

    sp = sub.add_parser("lambda-sum",
                        help="sum of lambda(theta) over even theta, d = 1")
    common(sp, d_flag=False)
    sp.add_argument("--n", type=int, default=2)
    sp.add_argument("--m-max", type=int, default=4)
    sp.set_defaults(fn=cmd_lambda_sum)

    sp = sub.add_parser("pseudo-rational-check",
                        help="denominator and symmetrized-polynomial criterion")
    common(sp, d_flag=False)
    theta_flags(sp)
    sp.set_defaults(fn=cmd_pseudo_rational)

    sp = sub.add_parser("selftest", help="operator identity suite")
    common(sp, d_flag=False)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--n", type=int, default=2)
    sp.add_argument("--m", type=int, default=2)
    sp.add_argument("--cases", type=int, default=15)
    sp.set_defaults(fn=cmd_selftest)

    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if not is_odd_prime(args.p):
            raise ValueError(f"p = {args.p} is not an odd prime")
        return args.fn(args)
    except (ValueError, ArithmeticError, OSError, KeyError,
            ResourceGuardError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
