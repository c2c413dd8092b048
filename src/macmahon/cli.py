"""Command-line front end.

Subcommands
-----------
series    print exact q-expansion coefficients of A_r, C_r, G_k, Go_k, g, go
verify    run an identity verifier (or every one with --all)
express   solve for a polynomial in (odd) Eisenstein series matching A_r/C_r
numeric   floating-point checks: lattice sums, ratio tests, q -> 1 limits

Exit codes: 0 success/verified, 1 usage or parameter error (including
parameters whose floats overflow), 2 mathematical mismatch or infeasibility.
Every parameter error, the CLI's own ``UsageError`` or a library
``ValueError``, prints one ``error:`` line and exits 1.  :func:`main` may
be called many times in one process, on the one parser that
:func:`build_parser` builds on first use.
Exact payloads serialize rationals as strings like "3/640" or "7"; floats
appear only in numeric reports.  Output goes to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys

from . import __version__
from .identities import (
    NoRepresentationError,
    _candidate_monomials,
    _ordered_monomials,
    express_in_generators,
    format_generator_poly,
    generator_names,
    lemma_combinatorial_check,
    verify_exp_quasi_shuffle,
    verify_geng22,
    verify_main_a,
    verify_main_c,
)
from .numerics import (
    NonConvergenceError,
    _monotangent_cutoff,
    limit_check,
    lipschitz_value,
    monotangent,
    multitangent,
)
from .qseries import (
    RouteMismatchError,
    eisenstein,
    eisenstein_odd,
    macmahon_a,
    macmahon_c,
    multiple_divisor_series,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MISMATCH = 2


class UsageError(ValueError):
    pass


def _emit(args, command: str, parameters: dict, payload: dict, text: str) -> None:
    if args.format == "json":
        envelope = {
            "version": __version__,
            "command": command,
            "parameters": parameters,
            "payload": payload,
        }
        print(json.dumps(envelope))
    else:
        print(text)


def _parse_index(raw: str) -> tuple:
    try:
        parts = tuple([int(p) for p in raw.split(",")])
    except ValueError:
        raise UsageError(f"cannot parse index {raw!r}; expected e.g. 2,2")
    if not parts or any(p < 1 for p in parts):
        raise UsageError("index parts must be integers >= 1")
    return parts


def _parse_tau(raw: str) -> complex:
    try:
        re_part, im_part = (float(x) for x in raw.split(","))
    except ValueError:
        raise UsageError(f"cannot parse tau {raw!r}; expected re,im")
    if not im_part > 0:
        raise UsageError("tau must have positive imaginary part")
    return complex(re_part, im_part)


# ---------------------------------------------------------------------------
# series
# ---------------------------------------------------------------------------


def _cmd_series(args) -> int:
    order = args.order
    if order < 0:
        raise UsageError("order must be >= 0")
    name = args.name
    if name in ("A", "C"):
        if args.r is None or args.r < 1:
            raise UsageError(f"series {name} needs --r >= 1")
        param = {"r": args.r}
        series = (macmahon_a if name == "A" else macmahon_c)(args.r, order)
        label = f"{name}_{args.r}"
    elif name in ("G", "Go"):
        if args.k is None or args.k < 2 or args.k % 2:
            raise UsageError(f"series {name} needs an even --k >= 2")
        param = {"k": args.k}
        series = (eisenstein if name == "G" else eisenstein_odd)(args.k, order)
        label = f"{name}{args.k}"
    else:  # g or go; argparse restricts the choices
        if args.index is None:
            raise UsageError(f"series {name} needs --index, e.g. --index 2,2")
        parts = _parse_index(args.index)
        param = {"index": list(parts)}
        series = multiple_divisor_series(parts, order, odd=name == "go")
        label = f"{name}({args.index})"

    coeffs = [str(c) for c in series.coeffs]
    payload = {"name": name, **param, "order": order, "coefficients": coeffs}
    text = f"{label} to order {order}\ncoefficients: " + " ".join(coeffs)
    _emit(args, "series", {"name": name, **param, "order": order}, payload, text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


# every identity's runner, in the order of ``verify --all``
_IDENTITIES = {
    "main-a": lambda args: verify_main_a(args.q_order, args.x_order),
    "main-c": lambda args: verify_main_c(args.q_order, args.x_order),
    "geng22": lambda args: verify_geng22(args.t_order, args.q_order),
    "exp-qsh": lambda args: verify_exp_quasi_shuffle(_parse_index(args.letters),
                                                     5 if args.n_max is None else args.n_max),
    "lemma": lambda args: lemma_combinatorial_check(50 if args.n_max is None else args.n_max),
}


def _verdict_text(report) -> str:
    head = f"{report.identity}: {report.status} " \
           f"({', '.join(f'{k}={v}' for k, v in report.params.items())})"
    if report.mismatch is None:
        return head
    m = report.mismatch
    coords = ", ".join(f"{k}={v}" for k, v in m.coords.items())
    extra = f" [{m.note}]" if m.note else ""
    return f"{head}\n  first difference at {coords}: lhs={m.lhs} rhs={m.rhs}{extra}"


def _cmd_verify(args) -> int:
    identities = list(_IDENTITIES) if args.all else [args.identity]
    if identities == [None]:
        raise UsageError("verify needs --identity or --all")
    reports = [_IDENTITIES[name](args) for name in identities]
    payload = {"reports": [r.to_dict() for r in reports]}
    text = "\n".join(_verdict_text(r) for r in reports)
    params = {"identities": identities, "q_order": args.q_order,
              "x_order": args.x_order, "t_order": args.t_order}
    _emit(args, "verify", params, payload, text)
    return EXIT_OK if all(r.ok for r in reports) else EXIT_MISMATCH


# ---------------------------------------------------------------------------
# express
# ---------------------------------------------------------------------------

# names and indices are written without leading zeros, so each has one spelling
_GEN_NAME = re.compile(r"Go?([1-9]\d*)")


def _cmd_express(args) -> int:
    m = re.fullmatch(r"([AC]):([1-9]\d*)", args.target)
    if not m:
        raise UsageError(f"cannot parse target {args.target!r}; expected A:r or C:r")
    side, r = m.group(1), int(m.group(2))
    weight_bound = 2 * r if args.weight_bound is None else args.weight_bound
    if weight_bound < 0:
        raise UsageError("--weight-bound must be >= 0")

    if args.generators == "auto":
        pairs = generator_names(side, r)
        names, weights = [n for n, _ in pairs], [w for _, w in pairs]
    else:
        names = [n.strip() for n in args.generators.split(",") if n.strip()]
        if not names:
            raise UsageError("no generators given")
        weights = [int(m.group(1)) if (m := _GEN_NAME.fullmatch(n)) else 0 for n in names]
        if any(w < 2 for w in weights):
            raise UsageError("generators must look like G2, G4, Go2, ...")
        odd = next((n for n, w in zip(names, weights) if w % 2), None)
        if odd:
            raise UsageError(f"generator {odd!r} needs an even weight >= 2")

    # a --q-order below the solve window is refused before any series is built
    _, min_order = _candidate_monomials(weights, weight_bound, args.q_order)
    q_order = max(30, min_order) if args.q_order is None else args.q_order
    full_order = 2 * q_order

    generators = [(n, w, (eisenstein_odd if n.startswith("Go") else eisenstein)(w, full_order))
                  for n, w in zip(names, weights)]
    target = (macmahon_a if side == "A" else macmahon_c)(r, full_order)

    params = {"target": args.target, "generators": names,
              "weight_bound": weight_bound, "q_order": q_order}
    try:
        rep = express_in_generators(target, generators, weight_bound, q_order)
    except NoRepresentationError as exc:
        payload = {"status": "no-representation", "reason": str(exc),
                   "weight_bound": weight_bound}
        _emit(args, "express", params, payload,
              f"no representation of {args.target} at weight bound {weight_bound}: {exc}")
        return EXIT_MISMATCH

    weight_of = dict(zip(names, weights))
    rendered = format_generator_poly(rep.poly, names, weight_of)
    terms = [{"monomial": {n: mon.count(n) for n in names if n in mon},
              "coefficient": str(rep.poly.terms[mon])}
             for mon in _ordered_monomials(rep.poly, names, weight_of)]
    payload = {
        "status": "ok",
        "polynomial": rendered,
        "terms": terms,
        "constant": str(rep.poly.constant),
        "underdetermined": rep.underdetermined,
        "verified_to_order": rep.verify_order,
    }
    note = "  (solution space has positive dimension)" if rep.underdetermined else ""
    _emit(args, "express", params, payload, rendered + note)
    return EXIT_OK


# ---------------------------------------------------------------------------
# numeric
# ---------------------------------------------------------------------------


def _lemma_ratio_target(depth: int) -> float:
    return math.pi ** (2 * depth - 2) * 2 ** (2 * depth - 1) / math.factorial(2 * depth)


def _cmd_numeric(args) -> int:
    if args.tol is not None and not 0 <= args.tol < math.inf:
        raise UsageError("--tol must be a finite number >= 0")
    if args.check == "monotangent":
        if args.k is None or args.k < 2:
            raise UsageError("monotangent needs --k >= 2")
        tau = _parse_tau(args.tau)
        cutoff = _monotangent_cutoff(args.k, tau) if args.cutoff is None else args.cutoff
        tol = 1e-8 if args.tol is None else args.tol
        lattice = monotangent(args.k, tau, cutoff)
        qside = lipschitz_value(args.k, tau)
        rel = abs(lattice.value - qside) / abs(qside)
        payload = {
            "check": "monotangent", "k": args.k, "tau": [tau.real, tau.imag],
            "cutoff": cutoff,
            "lattice": [lattice.value.real, lattice.value.imag],
            "q_side": [qside.real, qside.imag],
            "rel_error": rel, "tail_bound": lattice.tail_bound,
            "neglected_bound": lattice.neglected_bound, "tolerance": tol,
        }
        text = (f"monotangent k={args.k} tau={tau}: lattice={lattice.value:.12g} "
                f"q-side={qside:.12g} rel_error={rel:.3e} (tol {tol:g})")
        params = {"k": args.k, "tau": args.tau, "cutoff": cutoff}
        _emit(args, "numeric", params, payload, text)
        return EXIT_OK if rel <= tol else EXIT_MISMATCH

    if args.check == "multitangent":
        if args.ks is None:
            raise UsageError("multitangent needs --ks, e.g. --ks 2,2")
        ks = _parse_index(args.ks)
        if any(k < 2 for k in ks):
            raise UsageError("all multitangent exponents must be >= 2")
        tau = _parse_tau(args.tau)
        cutoff = 10_000 if args.cutoff is None else args.cutoff
        value = multitangent(ks, tau, cutoff)
        payload = {
            "check": "multitangent", "ks": list(ks), "tau": [tau.real, tau.imag],
            "cutoff": cutoff, "value": [value.value.real, value.value.imag],
            "tail_bound": value.tail_bound, "neglected_bound": value.neglected_bound,
        }
        text = f"multitangent ks={','.join(map(str, ks))} tau={tau}: {value.value:.12g}"
        code = EXIT_OK
        if all(k == 2 for k in ks):
            depth = len(ks)
            tol = args.tol
            if tol is None:
                tol = 1e-8 if depth == 1 else 1e-6 if depth == 2 else 1e-5
            # Psi_2 from the same lattice pass: the corrected value of k_1 alone
            ratio = value.value / value.leading[0]
            target = _lemma_ratio_target(depth)
            rel = abs(ratio - target) / target
            payload.update({"ratio_to_monotangent": [ratio.real, ratio.imag],
                            "ratio_target": target, "rel_error": rel, "tolerance": tol})
            text += (f"\n  ratio to Psi_2 = {ratio:.12g}, target {target:.12g}, "
                     f"rel_error={rel:.3e} (tol {tol:g})")
            code = EXIT_OK if rel <= tol else EXIT_MISMATCH
        params = {"ks": list(ks), "tau": args.tau, "cutoff": cutoff}
        _emit(args, "numeric", params, payload, text)
        return code

    # limit; argparse restricts the choices
    if args.r is None or args.r < 1:
        raise UsageError("limit needs --r >= 1")
    m = re.match(r"^(\d+)\.\.(\d+)$", args.grid_k)
    if not m:
        raise UsageError(f"cannot parse grid {args.grid_k!r}; expected e.g. 4..10")
    k_lo, k_hi = int(m.group(1)), int(m.group(2))
    if k_lo > k_hi or k_lo < 1:
        raise UsageError("grid bounds must satisfy 1 <= lo <= hi")
    grid = [1 - 2.0 ** (-k) for k in range(k_lo, k_hi + 1)]
    tol = (1e-3 if args.r == 1 else 1e-2) if args.tol is None else args.tol
    report = limit_check(args.r, grid)
    payload = {
        "check": "limit", "r": args.r, "grid": list(report.grid),
        "scaled_values": list(report.scaled_values),
        "extrapolated": report.extrapolated, "target": report.target,
        "rel_error": report.rel_error, "tolerance": tol,
    }
    text = (f"limit r={args.r}: extrapolated {report.extrapolated:.10g}, "
            f"target {report.target:.10g}, rel_error={report.rel_error:.3e} (tol {tol:g})")
    params = {"r": args.r, "grid_k": args.grid_k}
    _emit(args, "numeric", params, payload, text)
    return EXIT_OK if report.rel_error <= tol else EXIT_MISMATCH


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="macmahon",
        description="Exact q-series computations and identity verification "
                    "for generalized sums of divisors.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("series", help="print exact q-expansion coefficients")
    p.add_argument("--name", required=True, choices=["A", "C", "G", "Go", "g", "go"])
    p.add_argument("--r", type=int, help="index for A/C")
    p.add_argument("--k", type=int, help="weight for G/Go")
    p.add_argument("--index", help="comma-separated index for g/go, e.g. 2,2")
    p.add_argument("--order", type=int, default=30)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=_cmd_series)

    p = sub.add_parser("verify", help="verify the generating-series identities")
    p.add_argument("--identity", choices=list(_IDENTITIES))
    p.add_argument("--all", action="store_true",
                   help=f"run every identity ({', '.join(_IDENTITIES)})")
    p.add_argument("--q-order", dest="q_order", type=int, default=30)
    p.add_argument("--x-order", dest="x_order", type=int, default=12)
    p.add_argument("--t-order", dest="t_order", type=int, default=9)
    p.add_argument("--n-max", dest="n_max", type=int)
    p.add_argument("--letters", default="2,3", help="letters for exp-qsh, e.g. 2,3")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("express", help="express A_r/C_r as a polynomial in Eisenstein series")
    p.add_argument("--target", required=True, help="A:r or C:r")
    p.add_argument("--generators", default="auto",
                   help='"auto" or comma-separated names like G2,G4')
    p.add_argument("--weight-bound", dest="weight_bound", type=int)
    p.add_argument("--q-order", dest="q_order", type=int)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=_cmd_express)

    p = sub.add_parser("numeric", help="floating-point lattice and limit checks")
    p.add_argument("--check", required=True, choices=["monotangent", "multitangent", "limit"])
    p.add_argument("--k", type=int)
    p.add_argument("--ks", help="comma-separated exponents, e.g. 2,2")
    p.add_argument("--r", type=int)
    p.add_argument("--tau", default="0,1", help="tau as re,im with im > 0")
    p.add_argument("--cutoff", type=int,
                   help="lattice box |n| <= cutoff; default: monotangent the least one whose "
                        "Euler-Maclaurin remainder is below double-precision rounding "
                        "(at most 100000), multitangent 10000")
    p.add_argument("--grid-k", dest="grid_k", default="4..10",
                   help="q = 1 - 2^-k for k in lo..hi")
    p.add_argument("--tol", type=float)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=_cmd_numeric)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help/--version and 2 for usage problems;
        # our contract reserves 2 for mathematical mismatches
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    try:
        return args.func(args)
    except RouteMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except RecursionError as exc:
        print(f"error: recursion too deep: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (NonConvergenceError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ArithmeticError as exc:
        # OverflowError, ZeroDivisionError, numpy's FloatingPointError: parameters
        # beyond the float range
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
