"""Output checks that live in the benchmark, with their own oracles.

Nothing here imports the library or relies on its ``assert`` statements.
The exact oracles (divisor sieve, Bernoulli numbers, Eisenstein
expansions, MacMahon's A_r/C_r by product DP) are written out again from
their definitions, and the numeric closed forms are recomputed from
``math``.  A check returns ``None`` when the output is right, and a short
reason otherwise.
"""

from __future__ import annotations

import cmath
import json
import math
import re
from fractions import Fraction

# Tolerances the CLI documents when no --tol is given; a looser reported
# tolerance fails the check.
_MULTITANGENT_TOL = {1: 1e-8, 2: 1e-6, 3: 1e-5}
_MONOTANGENT_TOL = 1e-8


def _limit_tol(r: int) -> float:
    return 1e-3 if r == 1 else 1e-2


def bernoulli_numbers(n: int) -> list:
    """B_0..B_n by the Akiyama-Tanigawa algorithm (B_1 = +1/2; even ones agree)."""
    out, row = [], []
    for m in range(n + 1):
        row.append(Fraction(1, m + 1))
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
        out.append(row[0])
    return out


def _convolve(a: list, b: list, order: int) -> list:
    return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(order + 1)]


class ExactOracle:
    """Independent q-expansions, memoized per truncation order."""

    def __init__(self):
        self._gens = {}
        self._monomials = {}
        self._macmahon = {}

    def generator(self, name: str, order: int) -> list:
        """Coefficients of G_k ("Gk") or of the odd G^o_k ("Gok") to ``order``."""
        key = (name, order)
        if key not in self._gens:
            m = re.fullmatch(r"G(o?)(\d+)", name)
            if not m or int(m.group(2)) < 2 or int(m.group(2)) % 2:
                raise ValueError(f"unknown generator {name!r}")
            odd, k = bool(m.group(1)), int(m.group(2))
            sums = [0] * (order + 1)
            for d in range(1, order + 1):
                w = d ** (k - 1)
                # d divides n with cofactor n/d; G^o keeps odd cofactors only
                for n in range(d, order + 1, 2 * d if odd else d):
                    sums[n] += w
            fk = math.factorial(k - 1)
            coeffs = [Fraction(s, fk) for s in sums]
            coeffs[0] = Fraction(0) if odd else -bernoulli_numbers(k)[k] / (2 * math.factorial(k))
            self._gens[key] = coeffs
        return self._gens[key]

    def monomial(self, powers: tuple, order: int) -> list:
        """Expansion of prod name^e for ``powers`` = sorted ((name, e), ...)."""
        key = (powers, order)
        if key not in self._monomials:
            if not powers:
                value = [Fraction(1)] + [Fraction(0)] * order
            else:
                (name, e), rest = powers[-1], powers[:-1]
                lower = rest + (((name, e - 1),) if e > 1 else ())
                value = _convolve(self.monomial(lower, order), self.generator(name, order), order)
            self._monomials[key] = value
        return self._monomials[key]

    def macmahon(self, side: str, r: int, order: int) -> list:
        """A_r (side "A") or C_r (side "C") as coefficients of
        prod_m (1 + x sum_n n q^(mn)) at x^r, m over all (or odd) parts."""
        key = (side, r, order)
        if key not in self._macmahon:
            # by_count[j][d]: weight of j distinct part sizes with total degree d
            by_count = [[1] + [0] * order] + [[0] * (order + 1) for _ in range(r)]
            for m in range(1, order + 1, 2 if side == "C" else 1):
                for j in range(r, 0, -1):
                    src, dst = by_count[j - 1], by_count[j]
                    for d in range(order - m, -1, -1):
                        if src[d]:
                            for n, e in enumerate(range(d + m, order + 1, m), start=1):
                                dst[e] += n * src[d]
            self._macmahon[key] = by_count[r]
        return self._macmahon[key]


def check_window(op: dict, report) -> str | None:
    """A ``verify_main_a``/``verify_main_c`` report must be verified for the asked window."""
    identity = "main-a" if op["api"] == "verify_main_a" else "main-c"
    if report.identity != identity:
        return f"identity {report.identity!r}, expected {identity!r}"
    if report.status != "verified":
        return f"status {report.status!r}"
    if dict(report.params) != {"q_order": op["q_order"], "x_order": op["x_order"]}:
        return f"params {report.params!r} do not match the request"
    return None


def _option(argv: list, flag: str):
    """Value of ``flag`` given as ``flag value`` or ``flag=value``, else None."""
    for i, arg in enumerate(argv):
        if arg == flag:
            return argv[i + 1]
        if arg.startswith(flag + "="):
            return arg[len(flag) + 1:]
    return None


def check_cli(op: dict, output, oracle: ExactOracle) -> str | None:
    """Check a CLI op from its exit code and JSON envelope."""
    argv = op["cli"]
    code, stdout = output
    if code != 0:
        return f"exit code {code}"
    try:
        envelope = json.loads(stdout)
        payload = envelope["payload"]
        if envelope["command"] != argv[0]:
            return f"envelope command {envelope['command']!r}"
        if argv[0] == "express":
            return _check_express(argv, payload, oracle)
        if argv[0] == "verify":
            return _check_verify(argv, payload)
        return _check_numeric(argv, payload)
    except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"


def _check_express(argv: list, payload: dict, oracle: ExactOracle) -> str | None:
    if payload["status"] != "ok":
        return f"express status {payload['status']!r}"
    side, r = _option(argv, "--target").split(":")
    r = int(r)
    order = int(payload["verified_to_order"])
    q_order = _option(argv, "--q-order")
    if q_order is not None and order < 2 * int(q_order):
        return f"verified only to q^{order}, asked for 2 * {q_order}"
    total = [Fraction(payload["constant"])] + [Fraction(0)] * order
    for term in payload["terms"]:
        powers = tuple(sorted((str(n), int(e)) for n, e in term["monomial"].items()))
        if any(e < 1 for _, e in powers):
            return f"bad exponent in {term!r}"
        c = Fraction(term["coefficient"])
        total = [t + c * v for t, v in zip(total, oracle.monomial(powers, order))]
    expected = oracle.macmahon(side, r, order)
    for n, (got, want) in enumerate(zip(total, expected)):
        if got != want:
            return f"polynomial gives {got} at q^{n}, {side}_{r} has {want}"
    return None


def _check_verify(argv: list, payload: dict) -> str | None:
    identity = _option(argv, "--identity")
    reports = payload["reports"]
    if len(reports) != 1 or reports[0]["identity"] != identity:
        return f"expected one {identity!r} report"
    report = reports[0]
    if report["status"] != "verified":
        return f"status {report['status']!r}"
    for flag, key in (("--t-order", "t_order"), ("--q-order", "q_order"), ("--n-max", "n_max")):
        asked = _option(argv, flag)
        if asked is not None and report["params"].get(key) != int(asked):
            return f"{key} {report['params'].get(key)!r}, asked for {asked}"
    return None


def _rel(a: complex, b: complex) -> float:
    return abs(a - b) / abs(b)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-12 * abs(b)


def lipschitz_side(k: int, tau: complex, terms: int = 2000) -> complex:
    """(-2 pi i)^k/(k-1)! * sum_{d>0} d^(k-1) q^d with q = exp(2 pi i tau), summed to ``terms``."""
    q = cmath.exp(2j * math.pi * tau)
    acc, qd = 0j, 1
    for d in range(1, terms + 1):
        qd *= q
        acc += d ** (k - 1) * qd
    return (-2j * math.pi) ** k / math.factorial(k - 1) * acc


def _check_numeric(argv: list, payload: dict) -> str | None:
    check = _option(argv, "--check")
    if payload["check"] != check:
        return f"report for {payload['check']!r}"
    if not payload["rel_error"] <= payload["tolerance"]:
        return f"rel_error {payload['rel_error']} above tolerance {payload['tolerance']}"
    if check == "limit":
        r = int(_option(argv, "--r"))
        target = math.pi ** (2 * r) / math.factorial(2 * r + 1)
        if not _close(payload["target"], target):
            return f"limit target {payload['target']}, closed form {target}"
        if payload["tolerance"] > _limit_tol(r):
            return f"tolerance {payload['tolerance']} looser than {_limit_tol(r)}"
        if not _rel(payload["extrapolated"], target) <= payload["tolerance"]:
            return "extrapolated value misses the closed form"
        return None
    if check == "multitangent":
        depth = len(_option(argv, "--ks").split(","))
        target = math.pi ** (2 * depth - 2) * 2 ** (2 * depth - 1) / math.factorial(2 * depth)
        if not _close(payload["ratio_target"], target):
            return f"ratio target {payload['ratio_target']}, closed form {target}"
        if payload["tolerance"] > _MULTITANGENT_TOL[depth]:
            return f"tolerance {payload['tolerance']} looser than {_MULTITANGENT_TOL[depth]}"
        if not _rel(complex(*payload["ratio_to_monotangent"]), target) <= payload["tolerance"]:
            return "ratio to the monotangent misses the closed form"
        return None
    # monotangent: the lattice value against this module's own q-expansion
    k = int(_option(argv, "--k"))
    tau = complex(*(float(x) for x in _option(argv, "--tau").split(",")))
    if payload["tolerance"] > _MONOTANGENT_TOL:
        return f"tolerance {payload['tolerance']} looser than {_MONOTANGENT_TOL}"
    if not _rel(complex(*payload["lattice"]), lipschitz_side(k, tau)) <= payload["tolerance"]:
        return "lattice value misses the q-expansion"
    return None


def check(op: dict, output, oracle: ExactOracle) -> str | None:
    """Check the output of any op."""
    if "api" in op:
        return check_window(op, output)
    return check_cli(op, output, oracle)
