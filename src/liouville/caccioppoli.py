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
from mpmath.libmp import mpf_mul, mpf_mul_int, mpf_pow, mpf_sum

from .errors import HypothesisNotMetError, InputError
from .counterexamples import term_kernel
from .graphs import (GraphFunction, WeightedGraph, checked_p0, harnack_check, site_classes,
                     site_operators, vertex_measure)
from .numerics import check_le, memo, parse_index, raw_positive, to_mpf
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
    """Averaged ramp stack (1/i) sum of h_{2^k}, k = i-1 .. 2i-2, summed in integers
    over the denominator i 2^(2i-2): 2^(2i-2) h_n(d) = clip(2n - d, 0, n) 2^(2i-2) / n."""
    if i < 1 or d < 0:
        raise InputError("phi_i needs i >= 1" if i < 1 else "distance must be nonnegative")
    return Fraction(sum(min(max(2 ** (k + 1) - d, 0), 2 ** k) << 2 * i - 2 - k
                        for k in range(i - 1, 2 * i - 1)), i << 2 * i - 2)


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

    def denominator(self) -> int:
        """The common denominator of the values: n for h_n, i 2^(2i-2) for phi_i."""
        return self.param if self.kind == "h" else self.param << 2 * self.param - 2

    def scaled(self, d: int) -> int:
        """value(d) times `denominator()`, an integer."""
        value = self.value(d)
        return value.numerator * (self.denominator() // value.denominator)

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
        """Accepts "h:8" or "phi:3"; a kind or param the constructor refuses
        raises its own error."""
        try:
            kind, raw = text.split(":")
            param = parse_index(raw)
        except ValueError:
            raise InputError(f"cannot parse test function {text!r}; expected kind:param")
        return cls(kind=kind, param=param)


def test_function_value(tf: TestFunction, g: WeightedGraph, x: int, o: int) -> Fraction:
    """Evaluate the cutoff at a vertex from its BFS distance to the base o;
    it is 0 at a vertex the base cannot reach."""
    d = g.distances_from(o)[x]
    return tf.value(d) if d >= 0 else Fraction(0)


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
    return _c_constant(p0, t, _estimate_exponents(point, t))


def _c_constant(p0, t, exponents) -> CConstants:
    """`c_constant` given the `_estimate_exponents` (a, rho, theta) at t."""
    _, rho, theta = exponents
    p0 = checked_p0(p0)
    t = to_mpf(Fraction(t))
    base = mp.sqrt(2 * p0) * (1 + p0 ** t)
    C = base ** (theta + 1) * (p0 ** (t + 1)) ** theta / 4
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


def _estimate_exponents(point: PQPoint, t):
    """(a, rho, theta) of the estimates at t; where p + q - t or p + q - 1
    vanishes they are undefined, an input error raised before any division."""
    t = Fraction(t)
    if point.p + point.q == t:
        raise InputError("c_constant undefined: p + q - t vanishes")
    if point.p + point.q == 1:
        raise InputError("c_constant undefined: p + q - 1 vanishes")
    p, q = to_mpf(point.p), to_mpf(point.q)
    t_m = to_mpf(t)
    a = (2 * p + q + t_m * (q - 2)) / (p + q - t_m)
    rho = (p + q - t_m) / (p + q - 1)
    theta = (p + t_m * (q - 1)) / (p + q - t_m)
    return a, rho, theta


def _rhs_value(variant, point, s, t, exponents, consts, middle, edge_sum):
    p, q = to_mpf(point.p), to_mpf(point.q)
    s_m, t_m = to_mpf(s), to_mpf(t)
    a, rho, theta = exponents
    if variant == "est1":
        mid_exp = (1 - t_m) / (p + q - t_m)
        edge_exp = (p + q - 1) / (p + q - t_m)
        if middle == 0 and mid_exp < 0 or edge_sum == 0 and edge_exp < 0:
            return None                 # a vanishing sum to a negative power
        return (consts.C * mp.power(2 * s_m, a) * mp.power(t_m, -theta)
                * mp.power(middle, mid_exp) * mp.power(edge_sum, edge_exp))
    return (consts.C_prime * mp.power(2 * s_m, a * rho) * mp.power(t_m, -theta * rho)
            * edge_sum)


def _finish_report(variant, point, s, t, exponents, p0, omega_desc, lhs, middle, edge_sum,
                   failures) -> EstimateReport:
    """The report of an estimate from its sums, with exponents the
    `_estimate_exponents` (a, rho, theta) at t."""
    consts = _c_constant(p0, t, exponents)
    rhs = None
    if variant == "est1" and Fraction(t) >= 1:
        failures = failures + ["est-1 is only evaluated for t < 1; use est-2"]
    elif (rhs := _rhs_value(variant, point, s, t, exponents, consts, middle,
                            edge_sum)) is None:
        failures = failures + ["est-1's right-hand side raises a zero sum to a negative power"]
    holds = rhs is not None and bool(check_le(lhs, rhs).holds)
    return EstimateReport(
        variant=variant, lhs=lhs, rhs=mp.nan if rhs is None else rhs, holds=holds,
        hypotheses_ok=not failures, hypothesis_failures=tuple(failures),
        constants=consts, s=Fraction(s), t=Fraction(t), p0=to_mpf(p0),
        omega=omega_desc,
        middle_factor=middle if variant == "est1" else None,
        edge_sum=edge_sum,
    )


def _estimate(variant, s, t, point: PQPoint, p0, u, harnack, where, sites, ops, measure,
              phi, den, edges, boundary=(), omega_desc="all") -> EstimateReport:
    """Evaluate one energy estimate over sites and undirected edges.

    `sites` maps each site of the domain, in summation order, to its stencil
    class, and `ops(c)` gives a class's (u, lap, grad^2); `measure(x)` is a
    site's measure and `phi(x)` its cutoff value times den, an integer (the
    memos and tests key on integers; a value becomes a Fraction once), and
    `edges` holds the (x, y, w) with both ends in the domain.  Each edge with
    phi(y) != phi(x) adds w |dphi|^(a rho) once per direction, and for est-1
    a middle term from each end where phi is nonzero and the term is defined.  `where` names a
    site and the domain in failure messages, `boundary` a domain's boundary
    failures.  Values are raw, in the libmp calls of mpf's operators and fsum.
    """
    if variant not in ("est1", "est2"):
        raise InputError(f"unknown estimate variant {variant!r}")
    s, t = Fraction(s), Fraction(t)
    if not (s > 0 and t > 0):
        raise InputError("the estimates test against phi^s u^(-t) with s > 0 and t > 0")
    exponents = _estimate_exponents(point, t)
    a, rho, _ = exponents
    failures = []
    if not u.is_positive():
        failures.append("u is not strictly positive")
    if not st_condition(point, s, t):
        failures.append("(s, t) violates the admissibility system")
    if not harnack(u, p0).holds:
        failures.append("adjacent-ratio bound fails for the given p0")
    term_of = term_kernel(point.p, point.q)
    prec, rnd = mp.mp._prec_rounding
    p_t = (term_of.p - to_mpf(t))._mpf_
    s_m = to_mpf(s)._mpf_
    phi_pow = memo(lambda k: mpf_pow(to_mpf(Fraction(k, den))._mpf_, s_m, prec, rnd))
    phis = [phi(x) for x in sites]
    cut = {c for c, phi_x in zip(sites.values(), phis) if phi_x != 0}
    # Each class once, in class order (the order of first use): its site, and
    # u^(p-t) where a sum reads it.
    at = {}
    for c in dict.fromkeys(sites.values()):
        ux, lap, grad_sq = [v._mpf_ for v in ops(c)]
        site = term_of.site(ux, lap, grad_sq)
        at[c] = site, mpf_pow(ux, p_t, prec, rnd) if site is not None and c in cut else None
    ineq_bad = 0
    lhs_terms = []
    for (x, c), phi_x in zip(sites.items(), phis):
        site, u_pt = at[c]
        if site is None:
            failures.append(f"zero gradient with q < 0 at {where[0]} {x}")
            continue
        if not site[1]:
            ineq_bad += 1
        if phi_x != 0:      # ((mu u^(p-t)) |grad u|^q) phi^s
            lhs_terms.append(mpf_mul(mpf_mul(mpf_mul(measure(x), u_pt, prec, rnd), site[0],
                                             prec, rnd), phi_pow(phi_x), prec, rnd))
    if ineq_bad:
        failures.append(f"the inequality fails at {ineq_bad} {where[1]}")
    failures += boundary
    a_rho = (a * rho)._mpf_
    edge_pow = memo(lambda k: mpf_pow(abs(to_mpf(Fraction(k, den)))._mpf_, a_rho, prec, rnd))
    edge_terms = []
    middle_terms = [] if variant == "est1" else None
    for x, y, w in edges:
        dphi = phi(y) - phi(x)
        if dphi == 0:
            continue
        edge_terms.append(mpf_mul(mpf_mul_int(w._mpf_, 2, prec, rnd), edge_pow(dphi), prec, rnd))
        for end in (x, y) if middle_terms is not None else ():     # est-1 only
            phi_e = phi(end)
            if phi_e == 0:
                continue
            site, u_pt = at[sites[end]]
            if site is not None:
                middle_terms.append(mpf_mul(mpf_mul(mpf_mul(w._mpf_, phi_pow(phi_e), prec, rnd),
                                                    u_pt, prec, rnd), site[0], prec, rnd))
    lhs, middle, edge_sum = (terms if terms is None else mp.make_mpf(mpf_sum(terms, prec, rnd))
                             for terms in (lhs_terms, middle_terms, edge_terms))
    return _finish_report(variant, point, s, t, exponents, p0, omega_desc, lhs, middle,
                          edge_sum, failures)


def estimate_sides(g: WeightedGraph, u: GraphFunction, o: int, tf: TestFunction,
                   s, t, point: PQPoint, p0, variant: str = "est2",
                   omega=None) -> EstimateReport:
    """Evaluate one energy estimate on an explicit graph by direct summation.

    omega = None means the whole vertex set.  The sites are omega's vertices
    in id order, grouped by `site_classes`, and the edges are g's inside
    omega, so every pair sum runs over both directions of each edge.
    """
    omega_set = set(g.vertices()) if omega is None else set(omega)
    if not omega_set.issubset(g.vertices()):
        raise InputError(f"omega holds ids that are not vertices 0..{g.n_vertices - 1}")
    domain = sorted(omega_set)  # fixed reduction order, bit-reproducible sums
    class_of, reps = site_classes(g, u, domain)
    ops = site_operators(g, u)
    boundary = []
    if len(omega_set) < g.n_vertices and any(
            y not in omega_set and u[y] < u[x] for x in domain for y, _ in g.neighbors(x)):
        boundary.append("boundary monotonicity u(y) >= u(x) fails")
    # The cutoff lives on omega: values outside the domain never enter a sum,
    # and on a finite graph compact support is automatic.
    dist = g.distances_from(o)
    phi_of = memo(lambda d: tf.scaled(d) if d >= 0 else 0)     # 0 where o cannot reach
    return _estimate(variant, s, t, point, p0, u, lambda u, p0: harnack_check(g, u, p0),
                     ("vertex", "domain vertices"), dict(zip(domain, class_of)),
                     lambda c: ops(reps[c]), lambda x: vertex_measure(g, x)._mpf_,
                     lambda x: phi_of(dist[x]), tf.denominator(),
                     [(x, y, w) for (x, y), w in g.edges() if x in omega_set and y in omega_set],
                     boundary, "all" if omega is None else f"{len(omega_set)} vertices")


def estimate_sides_radial(tree: RadialTree, u: RadialFunction, tf: TestFunction,
                          s, t, point: PQPoint, p0=None,
                          variant: str = "est2") -> EstimateReport:
    """Layer-compressed estimate evaluation on a one-sided radial tree, domain = all.

    The cutoff is a function of the layer, so the sites are the layers
    0..R of the cutoff's support, each its own class, with the layer
    measures N w_0 and N (w_{k-1} + w_k), and the edges are the shells E_n
    across which the cutoff changes, of total weight N w_n.  Equals the
    explicit-graph evaluation on a materialized ball containing the support
    (asserted in the test suite).
    """
    R = tf.support_radius()
    if not tree.one_sided:
        raise InputError("the radial estimate needs a one-sided radial tree")
    if tree.layer_hi < R + 1:
        raise InputError(
            f"tree horizon {tree.layer_hi} too small for support radius {R} (needs R+1)"
        )
    layers = range(R + 1)
    phi = [tf.scaled(n) for n in range(R + 2)]      # phi vanishes at R + 1
    measures = [raw_positive(*m) for m in tree._measures(layers, mp.mp.prec)]
    return _estimate(variant, s, t, point, tree.p0() if p0 is None else p0, u,
                     tree.harnack_check, ("layer", "layers inside the support"),
                     dict(zip(layers, layers)), layer_operators(tree, u), measures.__getitem__,
                     phi.__getitem__, tf.denominator(),
                     [(n, n + 1, tree.N * tree.weight(n)) for n in layers if phi[n + 1] != phi[n]])


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
    p0 = checked_p0(p0)
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
