"""Cutoff test functions, energy-estimate evaluation, and the exponential
volume-bound machinery.

The distance cutoffs come in two shapes: a plateau ramp h_n (1 inside the
n-ball, linear down to 0 across the annulus n..2n) and the averaged stack
phi_i = (1/i) sum_{k=i-1}^{2i-2} h_{2^k}, which is 1 on the 2^(i-1)-ball
and vanishes outside the 2^(2i-1)-ball.  Both are pure functions of the
graph distance and take exact rational values.

estimate_sides evaluates both sides of the two energy estimates obtained
by testing the inequality against phi^s u^(-t).  The estimate is only a
theorem under a list of hypotheses (positivity, the inequality itself on
the domain, the ratio bound, boundary monotonicity, the (s, t)
admissibility system); the evaluation re-checks all of them and marks the
report hypotheses-not-met instead of producing a meaningless verdict.

The first estimate is evaluated with the exponents produced by its
derivation: prefactor C (2s)^a t^(1-a) with a = (2p+q+t(q-2))/(p+q-t),
and the second with prefactor C' = C^((p+q-t)/(p+q-1)).  Chaining the
first through `middle <= left-hand side` then reproduces the second
exactly, which the test suite asserts.  The first estimate is only
evaluated for t < 1; the middle factor's exponent (1-t)/(p+q-t) makes it
useless for t > 1, and such draws are routed to the second estimate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from .errors import HypothesisNotMetError, InputError
from .counterexamples import term_kernel
from .graphs import (GraphFunction, WeightedGraph, harnack_check, site_classes,
                     site_operators, vertex_measure)
from .numerics import check_le, memo, rel_tol, to_mpf
from .radial import RadialFunction, RadialTree, layer_operators
from .regions import PQPoint, st_condition


# ---------------------------------------------------------------------------
# Cutoff functions of the distance


def h_value(n: int, d: int) -> Fraction:
    """Plateau ramp: 1 for d <= n, 2 - d/n across n < d < 2n, 0 beyond."""
    if n < 1:
        raise InputError("h_n needs n >= 1")
    if d < 0:
        raise InputError("distance must be nonnegative")
    if d <= n:
        return Fraction(1)
    if d >= 2 * n:
        return Fraction(0)
    return 2 - Fraction(d, n)


def phi_value(i: int, d: int) -> Fraction:
    """Averaged ramp stack (1/i) sum of h_{2^k}, k = i-1 .. 2i-2."""
    if i < 1:
        raise InputError("phi_i needs i >= 1")
    return sum(h_value(2 ** k, d) for k in range(i - 1, 2 * i - 1)) / Fraction(i)


@dataclass(frozen=True)
class TestFunction:
    """A named distance cutoff: kind "h" with ramp width n, or "phi" with index i."""

    kind: str
    param: int

    def __post_init__(self):
        if self.kind not in ("h", "phi"):
            raise InputError(f"unknown test function kind {self.kind!r}")
        if self.param < 1:
            raise InputError("test function parameter must be >= 1")

    def value(self, d: int) -> Fraction:
        if self.kind == "h":
            return h_value(self.param, d)
        return phi_value(self.param, d)

    def support_radius(self) -> int:
        """Largest distance with a nonzero value."""
        if self.kind == "h":
            return 2 * self.param - 1
        return 2 ** (2 * self.param - 1) - 1

    def plateau_radius(self) -> int:
        """Largest distance up to which the value is identically 1."""
        if self.kind == "h":
            return self.param
        return 2 ** (self.param - 1)

    @classmethod
    def parse(cls, text: str) -> "TestFunction":
        """Accepts "h:8" or "phi:3"."""
        try:
            kind, raw = text.split(":")
            return cls(kind=kind, param=int(raw))
        except (ValueError, TypeError):
            raise InputError(f"cannot parse test function {text!r}; expected kind:param")


def test_function_value(tf: TestFunction, g: WeightedGraph, x: int, o: int) -> Fraction:
    """Evaluate the cutoff at a vertex from its BFS distance to the base o."""
    d = g.distances_from(o)[x]
    if d < 0:
        raise InputError(f"vertex {x} is unreachable from the base vertex {o}")
    return tf.value(d)


# ---------------------------------------------------------------------------
# Estimate constants


@dataclass(frozen=True)
class CConstants:
    C: mp.mpf
    C_prime: mp.mpf


def c_constant(p0, t, point: PQPoint) -> CConstants:
    """The energy-estimate prefactor and its chained power.

    C = (sqrt(2 p0) (1 + p0^t))^(theta + 1) (p0^(t+1))^theta / 4 with
    theta = (p + t(q-1))/(p + q - t), and C' = C^((p+q-t)/(p+q-1)).
    """
    p_frac, q_frac, t_frac = point.p, point.q, Fraction(t)
    if p_frac + q_frac == t_frac:
        raise InputError("c_constant undefined: p + q - t vanishes")
    if p_frac + q_frac == 1:
        raise InputError("c_constant undefined: p + q - 1 vanishes")
    p0 = to_mpf(p0)
    if p0 < 1:
        raise InputError("p0 must be at least 1")
    p, q, t = to_mpf(p_frac), to_mpf(q_frac), to_mpf(t_frac)
    theta = (p + t * (q - 1)) / (p + q - t)
    base = mp.sqrt(2 * p0) * (1 + p0 ** t)
    C = base ** (theta + 1) * (p0 ** (t + 1)) ** theta / 4
    rho = (p + q - t) / (p + q - 1)
    return CConstants(C=C, C_prime=mp.power(C, rho))


# ---------------------------------------------------------------------------
# Estimate evaluation


@dataclass(frozen=True)
class EstimateReport:
    variant: str
    lhs: mp.mpf
    rhs: mp.mpf
    holds: bool
    hypotheses_ok: bool
    hypothesis_failures: tuple[str, ...]
    constants: CConstants
    s: Fraction
    t: Fraction
    p0: mp.mpf
    omega: str
    middle_factor: mp.mpf | None = None
    edge_sum: mp.mpf | None = None


def _estimate_exponents(point: PQPoint, s, t):
    p, q = to_mpf(point.p), to_mpf(point.q)
    t_m = to_mpf(t)
    a = (2 * p + q + t_m * (q - 2)) / (p + q - t_m)
    rho = (p + q - t_m) / (p + q - 1)
    theta = (p + t_m * (q - 1)) / (p + q - t_m)
    return a, rho, theta


def _rhs_value(variant, point, s, t, consts, middle, edge_sum):
    p, q = to_mpf(point.p), to_mpf(point.q)
    s_m, t_m = to_mpf(s), to_mpf(t)
    a, rho, theta = _estimate_exponents(point, s, t)
    if variant == "est1":
        mid_exp = (1 - t_m) / (p + q - t_m)
        edge_exp = (p + q - 1) / (p + q - t_m)
        return (consts.C * mp.power(2 * s_m, a) * mp.power(t_m, -theta)
                * mp.power(middle, mid_exp) * mp.power(edge_sum, edge_exp))
    return (consts.C_prime * mp.power(2 * s_m, a * rho) * mp.power(t_m, -theta * rho)
            * edge_sum)


def _finish_report(variant, point, s, t, p0, omega_desc, lhs, middle, edge_sum,
                   failures) -> EstimateReport:
    consts = c_constant(p0, t, point)
    if variant == "est1" and Fraction(t) >= 1:
        failures = failures + ["est-1 is only evaluated for t < 1; use est-2"]
        rhs = mp.nan
        holds = False
    else:
        rhs = _rhs_value(variant, point, s, t, consts, middle, edge_sum)
        holds = bool(check_le(lhs, rhs).holds)
    return EstimateReport(
        variant=variant, lhs=lhs, rhs=rhs, holds=holds,
        hypotheses_ok=not failures, hypothesis_failures=tuple(failures),
        constants=consts, s=Fraction(s), t=Fraction(t), p0=to_mpf(p0),
        omega=omega_desc,
        middle_factor=middle if variant == "est1" else None,
        edge_sum=edge_sum,
    )


def estimate_sides(g: WeightedGraph, u: GraphFunction, o: int, tf: TestFunction,
                   s, t, point: PQPoint, p0, variant: str = "est2",
                   omega=None) -> EstimateReport:
    """Evaluate one energy estimate on an explicit graph by direct summation.

    omega = None means the whole vertex set.  Sums over pairs are over
    ordered pairs, so each edge contributes both directions.  The cutoff,
    phi^s, u^(p-t) and |grad u|^q are tabulated once per call and shared by
    the left-hand side and the middle sum.
    """
    if variant not in ("est1", "est2"):
        raise InputError(f"unknown estimate variant {variant!r}")
    s, t = Fraction(s), Fraction(t)
    failures = []
    omega_set = set(g.vertices()) if omega is None else set(omega)
    if not omega_set.issubset(g.vertices()):
        raise InputError(f"omega holds ids that are not vertices 0..{g.n_vertices - 1}")
    omega_desc = "all" if omega is None else f"{len(omega_set)} vertices"
    full = len(omega_set) == g.n_vertices
    if not u.is_positive():
        failures.append("u is not strictly positive")
    if not st_condition(point, s, t):
        failures.append("(s, t) violates the admissibility system")
    if not harnack_check(g, u, p0).holds:
        failures.append("adjacent-ratio bound fails for the given p0")
    # The cutoff lives on omega: values outside the domain never enter a sum,
    # and on a finite graph compact support is automatic.
    dist = g.distances_from(o)
    tol = rel_tol()
    ops = site_operators(g, u)
    term_of = term_kernel(point.p, point.q)
    p_t = term_of.p - to_mpf(t)
    s_m = to_mpf(s)
    phi_of = memo(tf.value)
    phi_pow = memo(lambda phi: to_mpf(phi) ** s_m)
    domain = sorted(omega_set)  # fixed reduction order, bit-reproducible sums
    class_of, reps = site_classes(g, u, domain)
    # Per class, evaluated at the first vertex that needs it, so values and
    # raised errors come in the order of a loop over every vertex.
    site_at = memo(lambda c: term_of.site(*ops(reps[c]), tol))
    u_pt_at = memo(lambda c: mp.power(u[reps[c]], p_t))
    weight_at = memo(lambda c: u_pt_at(c) * site_at(c)[0])
    ineq_bad = 0
    lhs_terms = []
    for x, c in zip(domain, class_of):
        phi_x = phi_of(dist[x])
        site = site_at(c)
        if site is None:
            failures.append(f"zero gradient with q < 0 at vertex {x}")
            continue
        if not site[1]:
            ineq_bad += 1
        if phi_x == 0:
            continue
        lhs_terms.append(vertex_measure(g, x) * weight_at(c) * phi_pow(phi_x))
    if ineq_bad:
        failures.append(f"the inequality fails at {ineq_bad} domain vertices")
    if not full:
        for x in domain:
            for y, _ in g.neighbors(x):
                if y not in omega_set and u[y] < u[x]:
                    failures.append("boundary monotonicity u(y) >= u(x) fails")
                    break
            else:
                continue
            break
    lhs = mp.fsum(lhs_terms)
    a, rho, _ = _estimate_exponents(point, s, t)
    a_rho = a * rho
    edge_pow = memo(lambda dphi: mp.power(abs(to_mpf(dphi)), a_rho))
    edge_terms = []
    middle_terms = []
    for x, c in zip(domain, class_of):
        phi_x = phi_of(dist[x])
        site = site_at(c)
        for y, w in g.neighbors(x):
            if y not in omega_set:
                continue
            dphi = phi_of(dist[y]) - phi_x
            if dphi == 0:
                continue
            edge_terms.append(w * edge_pow(dphi))
            if phi_x != 0 and site is not None:
                middle_terms.append(w * phi_pow(phi_x) * u_pt_at(c) * site[0])
    edge_sum = mp.fsum(edge_terms)
    middle = mp.fsum(middle_terms)
    return _finish_report(variant, point, s, t, p0, omega_desc, lhs, middle,
                          edge_sum, failures)


def estimate_sides_radial(tree: RadialTree, u: RadialFunction, tf: TestFunction,
                          s, t, point: PQPoint, p0=None,
                          variant: str = "est2") -> EstimateReport:
    """Layer-compressed estimate evaluation on a radial tree, domain = all.

    The cutoff is a function of the layer, so every sum collapses to shell
    sums: layer measures are N w_0 and N (w_{k-1} + w_k), and the shell
    E_n contributes total edge weight N w_n per direction.  Equals the
    explicit-graph evaluation on a materialized ball containing the
    cutoff's support (asserted in the test suite at small radius).
    """
    if variant not in ("est1", "est2"):
        raise InputError(f"unknown estimate variant {variant!r}")
    s, t = Fraction(s), Fraction(t)
    R = tf.support_radius()
    if tree.horizon < R + 1:
        raise InputError(
            f"tree horizon {tree.horizon} too small for support radius {R} (needs R+1)"
        )
    if p0 is None:
        p0 = tree.p0()
    failures = []
    if not u.is_positive():
        failures.append("u is not strictly positive")
    if not st_condition(point, s, t):
        failures.append("(s, t) violates the admissibility system")
    if not tree.harnack_check(u, p0).holds:
        failures.append("adjacent-ratio bound fails for the given p0")
    tol = rel_tol()
    term_of = term_kernel(point.p, point.q)
    p_t = term_of.p - to_mpf(t)
    phi = [tf.value(n) for n in range(R + 2)]       # phi vanishes at R + 1
    s_m = to_mpf(s)
    phi_pow = memo(lambda phi: to_mpf(phi) ** s_m)
    ineq_bad = 0
    lhs_terms = []
    gq, u_pt = {}, {}
    layers = range(0, R + 1)
    for n, (u_n, lap, grad_sq) in zip(layers, map(layer_operators(tree, u), layers)):
        site = term_of.site(u_n, lap, grad_sq, tol)
        if site is None:
            failures.append(f"zero gradient with q < 0 at layer {n}")
            continue
        gq[n], solves = site
        if not solves:
            ineq_bad += 1
        if phi[n] == 0:
            continue
        u_pt[n] = mp.power(u_n, p_t)
        lhs_terms.append(tree.layer_measure(n) * u_pt[n] * gq[n] * phi_pow(phi[n]))
    if ineq_bad:
        failures.append(f"the inequality fails at {ineq_bad} layers inside the support")
    lhs = mp.fsum(lhs_terms)
    a, rho, _ = _estimate_exponents(point, s, t)
    a_rho = a * rho
    edge_pow = memo(lambda dphi: mp.power(abs(to_mpf(dphi)), a_rho))
    edge_terms = []
    middle_terms = []
    for n in layers:
        dphi = phi[n + 1] - phi[n]
        if dphi == 0:
            continue
        shell = tree.N * tree.weight(n)
        edge_terms.append(2 * shell * edge_pow(dphi))
        for end in (n, n + 1):
            if phi[end] != 0 and end in gq:
                middle_terms.append(shell * phi_pow(phi[end]) * u_pt[end] * gq[end])
    edge_sum = mp.fsum(edge_terms)
    middle = mp.fsum(middle_terms)
    return _finish_report(variant, point, s, t, p0, "all", lhs, middle,
                          edge_sum, failures)


def require_hypotheses(report: EstimateReport) -> EstimateReport:
    """Raise when the report's hypotheses failed; convenience for callers."""
    if not report.hypotheses_ok:
        raise HypothesisNotMetError("; ".join(report.hypothesis_failures))
    return report


# ---------------------------------------------------------------------------
# Exponential volume bound machinery


@dataclass(frozen=True)
class ExpVolumeBound:
    value: mp.mpf
    log_value: mp.mpf


_LOG_HUGE = mp.mpf("1e9")


def exp_volume_bound(p0, z, n, vol2n) -> ExpVolumeBound:
    """(sqrt(2 p0) z / n)^z * vol2n, accumulated in log space.

    When the logarithm exceeds a huge cap the value field is the +inf
    sentinel and the log field keeps the exact exponent.
    """
    p0, z, n, vol2n = to_mpf(p0), to_mpf(z), to_mpf(n), to_mpf(vol2n)
    if z < 1 or n < 1:
        raise InputError("exp_volume_bound needs z >= 1 and n >= 1")
    if not vol2n > 0:
        raise InputError("vol2n must be positive")
    log_value = z * (mp.ln(mp.sqrt(2 * p0)) + mp.ln(z) - mp.ln(n)) + mp.ln(vol2n)
    value = mp.inf if log_value > _LOG_HUGE else mp.exp(log_value)
    return ExpVolumeBound(value=value, log_value=log_value)


def kappa0(p0, variant: str, q=None) -> mp.mpf:
    """Critical exponential volume rate below which nonexistence holds.

    variant "V1": 1 / (2 sqrt(2 p0) e).  variant "V2" (needs q < 0):
    1 / ((e sqrt(2 p0) (1 + p0))^(2-q) (p0^2)^(1-q)).
    """
    p0 = to_mpf(p0)
    if p0 < 1:
        raise InputError("p0 must be at least 1")
    if variant == "V1":
        return 1 / (2 * mp.sqrt(2 * p0) * mp.e)
    if variant == "V2":
        if q is None or not Fraction(q) < 0:
            raise InputError("variant V2 needs an exponent q < 0")
        q = to_mpf(q)
        return 1 / ((mp.e * mp.sqrt(2 * p0) * (1 + p0)) ** (2 - q) * (p0 ** 2) ** (1 - q))
    raise InputError(f"unknown kappa0 variant {variant!r}")


def holder_conjugate(lam: Fraction) -> Fraction:
    """z = lam / (lam - 1); satisfies (lam - 1)/lam * z = 1 exactly."""
    lam = Fraction(lam)
    if lam <= 1:
        raise InputError("conjugate exponent needs lam > 1")
    return lam / (lam - 1)
