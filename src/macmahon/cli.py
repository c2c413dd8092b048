"""Command-line front end.

Subcommands
-----------
series    print exact q-expansion coefficients of A_r, C_r, G_k, Go_k, g, go
verify    run an identity verifier (or all five suites with --all)
express   solve for a polynomial in (odd) Eisenstein series matching A_r/C_r
numeric   floating-point checks: lattice sums, ratio tests, q -> 1 limits

Exit codes: 0 success/verified, 1 usage or parameter error (including
parameters whose floats overflow), 2 mathematical mismatch or infeasibility.
Exact payloads serialize rationals as strings like "3/640" or "7"; floats
appear only in numeric reports.  Output goes to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys

from . import __version__
from .identities import (
    NoRepresentationError,
    _monomials_up_to_weight,
    express_in_generators,
    format_generator_poly,
    lemma_combinatorial_check,
    verify_exp_quasi_shuffle,
    verify_geng22,
    verify_main_a,
    verify_main_c,
)
from .numerics import (
    DivergenceError,
    NonConvergenceError,
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
        parts = tuple(int(p) for p in raw.split(","))
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
    elif name in ("g", "go"):
        if args.index is None:
            raise UsageError(f"series {name} needs --index, e.g. --index 2,2")
        parts = _parse_index(args.index)
        param = {"index": list(parts)}
        series = multiple_divisor_series(parts, order, odd=name == "go")
        label = f"{name}({args.index})"
    else:  # pragma: no cover - argparse restricts choices
        raise UsageError(f"unknown series name {name!r}")

    coeffs = [str(c) for c in series.coeffs]
    payload = {"name": name, **param, "order": order, "coefficients": coeffs}
    text = f"{label} to order {order}\ncoefficients: " + " ".join(coeffs)
    _emit(args, "series", {"name": name, **param, "order": order}, payload, text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _run_identity(identity: str, args):
    if identity == "main-a":
        return verify_main_a(args.q_order, args.x_order)
    if identity == "main-c":
        return verify_main_c(args.q_order, args.x_order)
    if identity == "geng22":
        return verify_geng22(args.t_order, args.q_order)
    if identity == "exp-qsh":
        letters = _parse_index(args.letters)
        return verify_exp_quasi_shuffle(letters, args.n_max if args.n_max else 5)
    if identity == "lemma":
        return lemma_combinatorial_check(args.n_max if args.n_max else 50)
    raise UsageError(f"unknown identity {identity!r}")


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
    identities = (["main-a", "main-c", "geng22", "exp-qsh", "lemma"]
                  if args.all else [args.identity])
    if identities == [None]:
        raise UsageError("verify needs --identity or --all")
    try:
        reports = [_run_identity(name, args) for name in identities]
    except ValueError as exc:
        raise UsageError(str(exc))
    payload = {"reports": [r.to_dict() for r in reports]}
    text = "\n".join(_verdict_text(r) for r in reports)
    params = {"identities": identities, "q_order": args.q_order,
              "x_order": args.x_order, "t_order": args.t_order}
    _emit(args, "verify", params, payload, text)
    return EXIT_OK if all(r.ok for r in reports) else EXIT_MISMATCH


# ---------------------------------------------------------------------------
# express
# ---------------------------------------------------------------------------

_GEN_NAME = re.compile(r"^G(o?)(\d+)$")


def _generator_from_name(name: str, order: int):
    m = _GEN_NAME.match(name)
    if not m:
        raise UsageError(f"unknown generator {name!r}; expected e.g. G2 or Go4")
    weight = int(m.group(2))
    if weight < 2 or weight % 2:
        raise UsageError(f"generator {name!r} needs an even weight >= 2")
    series = (eisenstein_odd if m.group(1) else eisenstein)(weight, order)
    return (name, weight, series)


def _cmd_express(args) -> int:
    m = re.match(r"^([AC]):(\d+)$", args.target)
    if not m:
        raise UsageError(f"cannot parse target {args.target!r}; expected A:r or C:r")
    side, r = m.group(1), int(m.group(2))
    if r < 1:
        raise UsageError("target index r must be >= 1")
    weight_bound = args.weight_bound if args.weight_bound else 2 * r

    if args.generators == "auto":
        prefix = "G" if side == "A" else "Go"
        names = [f"{prefix}{2 * j}" for j in range(1, r + 1)]
    else:
        names = [n.strip() for n in args.generators.split(",") if n.strip()]
        if not names:
            raise UsageError("no generators given")

    # the monomial count fixes the minimal solve window
    probe = [(_GEN_NAME.match(n) and int(_GEN_NAME.match(n).group(2))) or 0 for n in names]
    if any(w < 2 for w in probe):
        raise UsageError("generators must look like G2, G4, Go2, ...")
    n_monomials = len(_monomials_up_to_weight(probe, weight_bound))
    q_order = args.q_order if args.q_order else max(30, n_monomials + 10)
    full_order = 2 * q_order

    generators = [_generator_from_name(n, full_order) for n in names]
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

    weights = {n: w for n, w, _ in generators}
    rendered = format_generator_poly(rep.poly, names, weights)
    terms = []
    for mon in sorted(rep.poly.terms, key=lambda m: (sum(weights[n] for n in m),
                                                     tuple(-m.count(n) for n in names))):
        if not mon:
            continue
        terms.append({
            "monomial": {n: mon.count(n) for n in names if n in mon},
            "coefficient": str(rep.poly.terms[mon]),
        })
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
    if args.check == "monotangent":
        if args.k is None or args.k < 2:
            raise UsageError("monotangent needs --k >= 2")
        tau = _parse_tau(args.tau)
        cutoff = args.cutoff if args.cutoff else 100_000
        tol = args.tol if args.tol else 1e-8
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
        cutoff = args.cutoff if args.cutoff else 10_000
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
            tol = args.tol if args.tol else (1e-8 if depth == 1 else 1e-6 if depth == 2 else 1e-5)
            mono = monotangent(2, tau, cutoff)
            ratio = value.value / mono.value
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

    if args.check == "limit":
        if args.r is None or args.r < 1:
            raise UsageError("limit needs --r >= 1")
        m = re.match(r"^(\d+)\.\.(\d+)$", args.grid_k)
        if not m:
            raise UsageError(f"cannot parse grid {args.grid_k!r}; expected e.g. 4..10")
        k_lo, k_hi = int(m.group(1)), int(m.group(2))
        if k_lo > k_hi or k_lo < 1:
            raise UsageError("grid bounds must satisfy 1 <= lo <= hi")
        grid = [1 - 2.0 ** (-k) for k in range(k_lo, k_hi + 1)]
        tol = args.tol if args.tol else (1e-3 if args.r == 1 else 1e-2)
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

    raise UsageError(f"unknown numeric check {args.check!r}")


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


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
    p.add_argument("--identity", choices=["main-a", "main-c", "geng22", "exp-qsh", "lemma"])
    p.add_argument("--all", action="store_true", help="run all five identity suites")
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
    p.add_argument("--cutoff", type=int)
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
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RouteMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except RecursionError as exc:
        print(f"error: recursion too deep: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DivergenceError, NonConvergenceError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ArithmeticError as exc:
        # OverflowError, ZeroDivisionError: parameters beyond the float range
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
