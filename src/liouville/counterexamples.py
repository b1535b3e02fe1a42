"""Radially symmetric positive solutions on homogeneous trees.

Each admissible exponent region has a recipe: shell weights and layerwise
values on T_N making u a positive solution of

    Delta u + u^p |grad u|^q <= 0

while the ball volumes realize the growth rate that the nonexistence
theory shows to be critical.  Six families are implemented:

    I   polynomial-log weights, decaying u            (region G1)
    II  n (ln n)^(1+eps) weights, u -> 1 from above   (region G2)
    III polynomial-log weights, u -> 1 from above     (region G3)
    IV  exponential weights, u -> delta from above    (region G4)
    V1  exponential weights, exponentially decaying u (p+q=1, p>=0, q>0)
    V2  two-sided tree, u decaying one way and        (p+q=1, q<0)
        growing the other

Whether a recipe solves the inequality at a layer reduces to a per-layer
calibration function: the interior inequality at layer n is equivalent to
`threshold <= Lambda(n + n0)` where the threshold is a power of delta
(families I, III, IV), the constant 1 (family II), or a rate-dependent
closed form (family V).  Calibration searches n0 (or the rate lambda)
until the pointwise check passes on the requested horizon, then
re-verifies every layer margin directly from the tree.

A verified report is a *finite-horizon certificate*: margins are checked
pointwise up to the horizon and the calibration function must clear twice
the calibrated threshold on the tail half of the window.  It is evidence,
not a proof for all n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable

import mpmath as mp
from mpmath.libmp import (fone, from_int, fzero, mpf_abs, mpf_add, mpf_div, mpf_exp, mpf_gt,
                          mpf_le, mpf_mul, mpf_pow, mpf_rdiv_int, mpf_sqrt, normalize,
                          round_nearest)

from . import screen
from .errors import CalibrationError, InputError
from .graphs import GraphFunction, WeightedGraph, site_classes, site_operators
from .numerics import (check_nonpositive, exact_sum, exp_run, exp_steps, log_run, memo,
                       power_log, power_run, precision, quotient_cmp, rel_tol, to_mpf)
from .radial import RadialFunction, RadialTree, TwoSidedRadialTree, layer_operators
from .regions import PQPoint, exponents, in_g_region, pq

# Acceptance factor for the rate search in family V: the closed-form layer
# conditions must clear 1 with five percent to spare.
V_COND_MARGIN = Fraction(21, 20)

_N0_CAP = 2 ** 34
_LAMBDA_CAP = 64
_MAX_PRECISION_BUMPS = 2
_MAX_FAILURES = 20          # failing layers a margin report lists


@dataclass(frozen=True)
class RegimeSpec:
    """A fully pinned construction: regime, exponents, and parameters.

    horizon is the number of certified layers: margins are checked for
    0 <= n <= horizon (both arms for V2).  The fields a regime reads are
    its `RECIPES` entry's; the others are ignored.
    """

    regime: str
    p: Fraction
    q: Fraction
    N: int
    horizon: int
    eps: Fraction | None = None
    lam: mp.mpf | None = None
    n0: int = 2
    delta: mp.mpf | None = None

    @property
    def point(self) -> PQPoint:
        return pq(self.p, self.q)


@dataclass(frozen=True)
class Recipe:
    """One family's facts and closed forms, stated once for all readers.

    region(point): (p, q) is in its exponent region.  param: the spec field
    its closed forms read, eps or the rate lam.  searched: the fields
    `certify` picks, in `validate_spec`'s order, the pin last (given the
    pin, `construct` certifies the spec as given and reads the others only
    beside it); a family searching n0 is read at m = n + n0, else m = n.
    power(p, q): e of the threshold delta^e, in its operands' arithmetic
    (None: it is 1).  least_m: the least m of Lambda (I-III: ln(m-1) > 0;
    V1's one-sided tree: its root layer 0).
    exps(point, eps): (a, b, c, d) of the rows (W, g) = (m^a (ln m)^b, m^c
    (ln m)^d), W the weights (else lam e^(lam m); IV's rows: (m, 1/m)).
    value(spec, xs): the deviations v (mpfs) of u = v + base(spec), base
    exact, at the raw g of the rows (II: f) or the int m.  Then Lambda's
    kernel (combine, at), V's layer conditions, Lambda's limit and delta_0.
    """

    region: Callable[[PQPoint], bool]
    param: str
    searched: tuple[str, ...]
    power: Callable | None = None
    least_m: int | None = None
    exps: Callable | None = None
    value: Callable | None = None
    base: Callable = lambda spec: 0
    kernel: Callable | None = None
    conditions: Callable | None = None
    limit: Callable | None = None
    delta0: Callable | None = None
    two_sided: bool = False


class _Table(dict):
    def __missing__(self, regime):      # the one lookup: an unknown regime raises, named
        raise InputError(f"unknown regime {regime!r}")


def _check_params(regime: str, point: PQPoint, N: int, horizon: int, eps, lam) -> Recipe:
    """The recipe, past the checks a pinned spec and a search share: a known
    regime, (p, q) in its region, N, horizon >= 2, param > 0 unless searched."""
    recipe = RECIPES[regime]
    if not recipe.region(point):
        raise InputError(f"(p,q)=({point.p},{point.q}) is not in the exponent region "
                         f"of regime {regime}")
    if N < 2:
        raise InputError("tree degree N must be at least 2")
    if horizon < 2:
        raise InputError("horizon must be at least 2")
    given = {"eps": eps, "lam": lam}[recipe.param]
    if recipe.param not in recipe.searched and (given is None or not to_mpf(given) > 0):
        raise InputError(f"regime {regime} needs a positive {recipe.param}")
    return recipe


def validate_spec(spec: RegimeSpec) -> Recipe:
    recipe = _check_params(spec.regime, spec.point, spec.N, spec.horizon, spec.eps, spec.lam)
    for name in recipe.searched:
        if name == "n0" and spec.n0 < 2:
            raise InputError("n0 must be at least 2 (logarithms need n + n0 >= 2)")
        if name != "n0" and (getattr(spec, name) is None or not to_mpf(getattr(spec, name)) > 0):
            raise InputError(f"regime {spec.regime} needs a positive {name}")
    return recipe


# ---------------------------------------------------------------------------
# Closed-form profiles and construction


class _Profile:
    """The closed-form profile of a regime: run(ms) gives its rows at
    increasing m in one pass; a single m is a run of one."""

    def __init__(self, run):
        self.run = run

    def __call__(self, m: int) -> tuple:
        return self.run(range(m, m + 1))[0]


def _profile(regime: str, point: PQPoint, param) -> _Profile:
    """The raw closed-form profile of regimes I-IV at m = n + n0, which
    `build`, the Lambda kernel and delta_0 read: the recipe's power-log rows
    (W, g) (II: (W, f)), or (m, 1/m) for IV.

    Each value has the bits of its mpf expression (`mp.mpf(m) ** sigma *
    mp.ln(m) ** beta`, ...) at the precision read here.  The power-log rows
    are mpf_mul(m^a, (ln m)^b) and mpf_mul(m^c, (ln m)^d) (II: a, c = 1, 0,
    and m^0 f is f), each power on mpf_pow's own branch: `numerics.power_run`,
    or exp(y c) from `exp_steps` on c = mpf_log(x, prec + 10).  ln m and
    those logs come from `log_run`; each run of either starts afresh.
    """
    prec, rnd = mp.mp._prec_rounding
    recipe = RECIPES[regime]
    if recipe.exps is None:
        return _Profile(lambda ms: [(m, mpf_rdiv_int(1, m, prec, rnd))
                                    for m in (from_int(k, prec, rnd) for k in ms)])
    ys = [to_mpf(y)._mpf_ for y in recipe.exps(point, to_mpf(param))]
    exps = [y[2] < -1 for y in ys]      # m^y or (ln m)^y through exp(y c)
    precs = prec, *[prec + 10] * (exps[0] or exps[2])                # logs[-1]: m^y's c

    def mul(x, z):                  # mpf_mul of positive x and z
        man = x[1] * z[1]
        return normalize(0, man, x[2] + z[2], man.bit_length(), prec, rnd)

    def run(ms):
        if len(ms) > 256:               # chunks bound the lists alive
            return [row for i in range(0, len(ms), 256) for row in run(ms[i:i + 256])]
        mfs = [normalize(0, m, 0, m.bit_length(), prec, rnd) for m in ms]     # from_int
        logs = log_run(mfs, *precs)
        lns = logs[0]
        (a, c), (b, d) = power_run(mfs, ys[0::2], prec), power_run(lns, ys[1::2], prec)
        cs = logs[-1], log_run(lns, prec + 10)[0] if exps[1] or exps[3] else None
        a, b, c, d = [exp_steps(y, cs[i % 2], prec) if exp else pw
                      for i, (pw, y, exp) in enumerate(zip((a, b, c, d), ys, exps))]
        return list(zip(map(mul, a, b), d if ys[2] == fzero else map(mul, c, d)))

    return _Profile(run)


def _e_powers(rate: mp.mpf, ns: range, scale: mp.mpf | None = None) -> list[mp.mpf]:
    """[scale * ExpLaw(rate)(n) for n in ns] (scale None: 1), bit for bit.

    Every exponential `build` stores is made here, from one `ExpLaw.run`:
    rate n formed exactly and exp rounded once, so no value carries the
    rounding error of a rounded e raised to the power rate n.
    """
    powers = ExpLaw(rate).run(ns)
    if scale is not None:
        prec, rnd = mp.mp._prec_rounding
        s = scale._mpf_
        powers = (mpf_mul(s, x, prec, rnd) for x in powers)
    return [mp.make_mpf(x) for x in powers]


@dataclass(frozen=True)
class BuiltCounterexample:
    tree: RadialTree | TwoSidedRadialTree
    u: RadialFunction
    spec: RegimeSpec


def build(spec: RegimeSpec, *, table=None) -> BuiltCounterexample:
    """Realize the recipe with stored layers one past the certified horizon.

    Layer n (both arms where two-sided) reads the recipe at m = n + n0: W and
    g from `table`, a memo of `_profile` that a certify call shares (a fresh
    profile when None), or the weights lam e^(lam m).  u is stored as its
    recipe's deviations v, on the raw rows, and its exact base.
    """
    recipe = validate_spec(spec)
    M = spec.horizon + 1
    n0 = spec.n0 if "n0" in recipe.searched else 0
    ms = range(n0 - M * recipe.two_sided, n0 + M + 1)
    if recipe.exps:
        if table is None:               # (an empty memo is falsy: test for None)
            table = _profile(spec.regime, spec.point, spec.eps)
        rows = table.run(ms)
        weights, xs = [mp.make_mpf(w) for w, _ in rows], (g for _, g in rows)
    else:
        lam = to_mpf(spec.lam)
        weights, xs = _e_powers(lam, ms, lam), ms
    tree = (TwoSidedRadialTree(spec.N, weights[M:-1], weights[M - 1::-1]) if recipe.two_sided
            else RadialTree(spec.N, weights))
    return BuiltCounterexample(tree, RadialFunction(recipe.value(spec, xs), lo=ms.start - n0,
                                                    base=recipe.base(spec)), spec)


# ---------------------------------------------------------------------------
# Margin verification


@dataclass(frozen=True)
class MarginReport:
    """Pointwise margins F(n) = lap + u^p grad^q over the checked layers."""

    verified: bool
    max_margin: mp.mpf
    worst_layer: int
    layers: tuple[int, int]
    n_layers: int
    precision_bits: int
    tol: mp.mpf
    failures: tuple[tuple[int, mp.mpf], ...]
    undefined_layers: tuple[int, ...]
    label: str = "finite-horizon certificate"


class _TermKernel:
    """u^p |grad u|^q with p, q, q/2 and the relative tolerance converted
    once, at construction.

    Calling it on (u, grad^2) gives the nonlinear term, with the q = 0
    convention |grad u|^0 = 1; a value that is not positive, or a zero
    gradient with q < 0, is undefined and raises.  `check` is the verdict
    of the inequality at a site, `grad_power` the factor |grad u|^q from the
    gradient norm itself, `site` one site of the energy estimates, and
    `half_q` the exponent of grad^2 in the term (0 when q = 0), which the
    float64 screens read.
    """

    __slots__ = ("p", "q", "_q", "half_q", "_sign", "tol")

    def __init__(self, p, q):
        self.q = Fraction(q)
        self.p = to_mpf(p)
        self._q = to_mpf(self.q)
        self.half_q = self._q / 2
        self._sign = (self.q > 0) - (self.q < 0)
        self.tol = rel_tol()

    def __call__(self, u_value: mp.mpf, grad_sq: mp.mpf) -> mp.mpf:
        if not u_value > 0:
            raise InputError("solution value must be positive")
        if not self._sign:
            return mp.power(u_value, self.p)
        if grad_sq == 0:
            if self._sign > 0:
                return mp.mpf(0)
            raise InputError("zero gradient with q < 0: u^p |grad u|^q undefined")
        return mp.power(u_value, self.p) * mp.power(grad_sq, self.half_q)

    def check(self, u_value, lap, grad_sq):
        """`check_nonpositive` of lap + u^p |grad u|^q at a site, against the
        tolerance of its dominant term, with the term from grad^2; None where
        the term is undefined."""
        try:
            term = self(u_value, grad_sq)
        except InputError:
            return None
        return check_nonpositive(lap + term, max(abs(lap), term), self.tol)

    def grad_power(self, grad: mp.mpf) -> mp.mpf:
        """|grad u|^q from the gradient norm, 1 when q = 0."""
        return mp.power(grad, self._q) if self._sign else mp.mpf(1)

    def site(self, u_value, lap, grad_sq):
        """(|grad u|^q, whether lap + u^p |grad u|^q <= 0 holds) at a site of u > 0,
        with |grad u| = sqrt(grad^2), on raw values (the libmp calls of mpf's operators
        and `check_nonpositive`); None for a zero gradient with q < 0.  The estimate's
        sums need |grad u|^q itself, so its verdict forms the term from it."""
        prec, rnd = mp.mp._prec_rounding
        grad = mpf_sqrt(grad_sq, prec, rnd)
        if grad == fzero and self._sign < 0:
            return None
        gq = mpf_pow(grad, self._q._mpf_, prec, rnd) if self._sign else fone
        term = mpf_mul(mpf_pow(u_value, self.p._mpf_, prec, rnd), gq, prec, rnd)
        # max(|lap|, term) scales the tolerance; term >= 0 is its own abs
        scale = term if mpf_gt(term, lap_abs := mpf_abs(lap, prec, rnd)) else lap_abs
        return gq, mpf_le(mpf_add(lap, term, prec, rnd), mpf_mul(self.tol._mpf_, scale, prec, rnd))


def term_kernel(p, q) -> _TermKernel:
    """The nonlinear term's kernel for exponents (p, q), for per-site loops."""
    return _TermKernel(p, q)


def nonlinear_term(u_value, grad_sq, p, q) -> mp.mpf:
    """u^p |grad u|^q with the q = 0 convention |grad u|^0 = 1.

    A zero gradient with q < 0 is undefined and raises; it is never a pass.
    """
    return term_kernel(p, q)(to_mpf(u_value), to_mpf(grad_sq))


def margin_at(tree, u: RadialFunction, p, q, n: int) -> mp.mpf:
    """F(n) for one layer; raises on a zero gradient with q < 0."""
    un, lap, grad_sq = layer_operators(tree, u)(n)
    return lap + term_kernel(p, q)(un, grad_sq)


def _screen(tree, u, layers, term_of) -> tuple[list, list]:
    """Float64 bounds per layer, (passes, fails): passes[i] bounds (lo, hi) on
    log2|margin| of a layer proved to pass, fails[i] on log2 margin of one
    proved to fail; None in each where that is not proved.

    A layer gets pass bounds only when they prove, about the values the mpf
    stream computes at the working precision, that u_n > 0, lap < 0 and
    that `screen.solution_check` passes lap + term: it is then negative and
    neither fails nor is borderline.  It gets fail bounds where u_n > 0 and
    lap > 0, or the check proves lap + term > 0 far above tol: a failure,
    not borderline, bounded by `screen.failure_bounds` (a second budget call,
    made only when some layer is proved to fail).  This is the check's input
    stage.
    The differences d_out, d_in and S = a d_out + b d_in,
    P = |a d_out| + |b d_in|, G = a d_out^2 + b d_in^2 and A = a + b (d_in
    = 0 where b = 0) are formed exactly from the integer mantissas of u's
    deviations, which the stream differences, and `conductances(n)` (None
    where two nonzero terms of a sum lie over 2^14 binary places apart, or
    the two differences over 2^15); log2|lap| = log2(|S|/A) and log2 grad^2
    = log2(G/2A) are read from the top 53 bits of each, within 5 units plus
    half a unit of the result, and the stream's grad^2 is within 10 more
    (the differences rounded once each, then 7 roundings).  The one error
    outside the shared budget is the mpf Laplacian's: the differences,
    a d_out, b d_in, their sum, a + b and the quotient are rounded, so
    |lap_mpf - lap| <= 5.1 2^-prec kappa |lap|, kappa = P/|S|.  With
    r = 5.2 2^-prec kappa_float <= 2^-8 (else None; 2^-1000 stands in for
    2^-prec beyond 1000 bits), log2|lap_mpf| is within 1.45 r of log2|lap|,
    and has its sign, and the check is widened by that.  u covers the tree
    (`_verify_pass`).
    """
    floats = screen.exponent_floats(term_of.p, term_of.half_q)
    if floats is None:
        return [None] * len(layers), [None] * len(layers)
    unit_bits = min(mp.mp.prec, 1000)   # 2^-unit_bits >= 2^-prec, and a normal float
    r_unit = 5.2 * math.ldexp(1.0, -unit_bits)
    kappa_bits = unit_bits - 12         # kappa beyond 2^kappa_bits cannot give r <= 2^-8
    log2, top53, cap = math.log2, screen.top53, screen._EXP_CAP
    values, devs, lo_u = u.values(), u.deviations(), u.lo
    first = layers.start - lo_u
    rows, d_out, nxt = [], None, devs[max(first - 1, 0)]._mpf_
    for i in range(max(first - 1, 0), layers.stop - lo_u):
        (s, m, x, _), nxt = nxt, devs[i + 1]._mpf_
        s1, m1, x1, _ = nxt
        d_in, d_out = d_out, exact_sum(-m1 if s1 else m1, x1, m if s else -m, x)   # v_{i+1} - v_i
        if i < first:
            continue
        if devs is not values:
            s, m, x, _ = values[i]._mpf_
        a, b = tree.conductances(i + lo_u)
        _, ma, xa, _ = a._mpf_
        _, mb, xb, _ = b._mpf_
        if s or not m or d_out is None or mb and d_in is None:
            rows.append(None)
            continue
        (do, xo), (di, xi) = d_out, d_in if mb else (0, d_out[1])     # -d_in
        fu, eu = top53(m, x)
        k, j = xa - xb if ma and mb else 0, xo - xi   # |j| <= 2^15 where v_i != 0
        if not (-cap < eu < cap and -16384 <= k <= 16384) or (
                not (-16384 <= k + j <= 16384 and -16384 <= k + 2 * j <= 16384)
                if ma and do and mb and di else not -32768 <= j <= 32768):
            rows.append(None)
            continue
        a, b = (ma << k, mb) if k >= 0 else (ma, mb << -k)
        do, di, e = (do << j, di, xi) if j >= 0 else (do, di << -j, xo)
        t1, t2 = a * do, b * di         # a d_out and -b d_in, over a common exponent
        S, P = t2 - t1, abs(t1) + abs(t2)     # S = -(a d_out + b d_in): lap < 0 where S > 0
        negative, S = S > 0, abs(S)
        if not S or P.bit_length() - S.bit_length() > kappa_bits \
                or not (r := r_unit * (P / S)) <= 0.00390625:
            rows.append(None)
            continue
        fA, eA = top53(a + b, 0)
        fS, eS = top53(S, e)
        fG, eG = top53(t1 * do + t2 * di, 2 * e)
        rows.append((log2(fu) + eu, (negative, log2(fS / fA) + (eS - eA)),
                     log2(fG / fA) + (eG - eA - 1), 1.45 * r))
    verdicts = screen.solution_check(*floats, rows)
    fails = [None] * len(rows)
    if False in verdicts:           # bounds are tuples, undecided None
        fails = screen.failure_bounds(*floats, [row if verdict is False else None
                                                for row, verdict in zip(rows, verdicts)])
    return [verdict or None for verdict in verdicts], fails


def _verify_pass(tree, u, p, q, layers, bits, force) -> MarginReport | None:
    """One pass over the checked layers; None on a borderline margin unless forced.

    `_screen` excuses, in float64, the layers whose margin is provably
    negative, not borderline and below some other layer's margin, so that
    none of them can fail, ask for precision or hold the maximum, and the
    layers proved to fail (not borderline either) past the first
    `_MAX_FAILURES` of them whose margin is provably below another's.
    Every other layer, undecided, one of those failures or a candidate for
    the maximum, goes in layer order through `_site_checks`: a failing layer
    before the last of the failures kept is among them or undecided, so
    the report equals that of a loop over the reference functions bit for
    bit.
    """
    term_of = term_kernel(p, q)
    ops = layer_operators(tree, u)      # checks the cover that `_screen` reads
    passes, fails = _screen(tree, u, layers, term_of)
    failed = [i for i, bound in enumerate(fails) if bound]
    kept = set(screen.extremes(passes, low=True)).difference(failed)
    kept.update(failed[:_MAX_FAILURES],
                (failed[i] for i in screen.extremes([fails[i] for i in failed], high=True)))
    sites = [layers[i] for i in sorted(kept)]
    checks = _site_checks(ops, sites, term_of, force)
    return None if checks is None else _margin_report(sites, checks,
                                                      (layers.start, layers.stop - 1), bits)


def _site_checks(ops, sites, term_of, force) -> list | None:
    """Per site, `term_of.check` of the inequality, None where the term is
    undefined; None for the whole list on a borderline margin (a nonzero
    one within ten tolerances of zero) unless forced."""
    checks = []
    for x in sites:
        check = term_of.check(*ops(x))
        if check and check.borderline and not force:
            return None
        checks.append(check)
    return checks


def _margin_report(sites, checks, span, bits) -> MarginReport:
    """The report of per-site checks, None where the term is undefined,
    read in site order over the sites span[0]..span[1].

    The sites given may be a subset of the span (the ones the screen leaves
    to mpf); the worst site starts at span[0] and the count of checked sites
    is the span's size less the undefined ones.
    """
    max_margin = mp.mpf("-inf")
    worst = span[0]
    failures = []
    undefined = []
    for x, check in zip(sites, checks):
        if check is None:
            undefined.append(x)
            continue
        if check.margin > max_margin:
            max_margin = check.margin
            worst = x
        if not check.holds and len(failures) < _MAX_FAILURES:
            failures.append((x, check.margin))
    return MarginReport(
        verified=not failures and not undefined,
        max_margin=max_margin,
        worst_layer=worst,
        layers=span,
        n_layers=span[1] - span[0] + 1 - len(undefined),
        precision_bits=bits,
        tol=rel_tol(),
        failures=tuple(failures),
        undefined_layers=tuple(undefined),
    )


def verify_radial(tree, u: RadialFunction, p, q, horizon: int | None = None,
                  rebuild_spec: RegimeSpec | None = None) -> MarginReport:
    """Check F(n) <= 0 at every layer within the horizon.

    Margins are compared against the relative tolerance of their dominant
    term.  If any nonzero margin lands within ten tolerances of zero, the
    pass is redone at doubled precision (rebuilding from closed forms when
    a spec is available) so borderline signs cannot be rounding artifacts.
    """
    bits = mp.mp.prec
    for bump in range(_MAX_PRECISION_BUMPS + 1):
        force = bump == _MAX_PRECISION_BUMPS
        with precision(bits):
            if bump > 0 and rebuild_spec is not None:
                rebuilt = build(rebuild_spec)
                tree, u = rebuilt.tree, rebuilt.u
            layers = tree.checked_layers(horizon)
            report = _verify_pass(tree, u, p, q, layers, bits, force)
        if report is not None:
            return report
        bits *= 2
    raise AssertionError("unreachable: final verification pass is forced")


def verify(built: BuiltCounterexample, horizon: int | None = None) -> MarginReport:
    return verify_radial(built.tree, built.u, built.spec.p, built.spec.q,
                         horizon=horizon, rebuild_spec=built.spec)


def verify_graph(g: WeightedGraph, u: GraphFunction, p, q) -> MarginReport:
    """Vertexwise margin check on an explicit finite graph, in one forced pass.

    A vertex's margin and verdict are functions of its stencil, so they are
    computed once per class of `site_classes`, at its first vertex; the
    report is then read off vertex by vertex in id order, as a loop over
    every vertex would write it.
    """
    ops, term_of = site_operators(g, u), term_kernel(p, q)
    class_of, reps = site_classes(g, u)
    checks = _site_checks(ops, reps, term_of, force=True)
    return _margin_report(range(g.n_vertices), map(checks.__getitem__, class_of),
                          (0, g.n_vertices - 1), mp.mp.prec)


# ---------------------------------------------------------------------------
# Calibration functions Lambda and their reported limits


def _lambda_kernel(regime: str, point: PQPoint, param):
    """(profile, combine, screened) for regimes I-IV.

    Lambda(m) = combine(profile(m-1), profile(m), profile(m+1)) on the raw
    pairs of `_profile`, made mpf: combine is its recipe's kernel's mpf
    expression, kernel(p, q, unit, c_g, c_x, c_q, param) with c the float64
    exponents of p - 1, -p and -q/2; callers keep the precision read here.

    screened(rows), on the profiles rows = [profile(lo - 1), ..., profile(hi + 1)]
    of a window, gives one list, per m = lo..hi: float64 bounds (lo, hi) on
    log2 of combine's value at m where that value is proved positive, False
    where it is proved negative and None where neither is proved: the
    float64 screen's input stage (`liouville.screen`), in the manner of
    `_screen`.
    - Each kernel's one cancelling quantity (I, III: the drift's numerator;
      II: neg_lap's; IV: the drift's, with the mpf r and 1 + r taken as
      exact) is formed exactly from the integer mantissas of the rows and of
      their first differences, which `_window_bounds` makes once per row
      and pair.
    - Every factor of the value (the drift, quad, the base of the power of
      -p, gn) is read as log2 of its value on exact inputs: at most 13 units
      (a unit is 2^-52) of 53-bit cuts, a unit each, and float sums,
      products and quotients, half a unit each, then libm's log2 on
      [1/2, 1) and a sum (`screen._log2`).  That is within 20 units plus half a
      unit of the result, inside `screen.log2_bound`'s allowance per input.
    - combine's roundings before its final products and powers move each
      factor by a relative rho: the drift by c 2^-prec (kappa + 1), kappa the
      condition number of its cancelling sum (c = 5.1, 4.1, 3.1 for I/III,
      II, IV as its roundings count; 5.2, 4.2, 3.2 cover kappa's floats);
      quad by 2.1 2^-prec (kappa_q + 4) (I, III: kappa_q that of a
      difference of two inverses, doubled by the square) or 7.2 2^-prec
      (II, IV); the base of the power by 2.1 (I, III) or 1.1 (II, IV)
      2^-prec.  With each rho <= 2^-8 (else None; 2^-1000 stands in for
      2^-prec beyond 1000 bits), log2 of a factor moves by at most 1.45 rho,
      and the bound is widened by 1.45 times the sum of |C| rho over the
      factors, C a factor's exponent in the value.
    - The cancelling quantity's sign is exact.  Where the drift's numerator
      (I, III, IV) is negative and every rho <= 2^-8, combine's drift keeps
      that sign and quad is positive, so combine's value is negative: the m
      is proved negative (False).  II's Lambda is not probed, so
      its kernel proves no m negative.
    An m whose cancelling quantity is zero (II: not positive), whose
    difference of profiles is zero, whose rho exceeds 2^-8 or whose values
    a float cannot carry stays undecided, so combine runs there when its
    value is needed.
    """
    p, q = to_mpf(point.p), to_mpf(point.q)
    unit = math.ldexp(1.0, -min(mp.mp.prec, 1000))      # >= 2^-prec, and a normal float
    floats = screen.exponent_floats(p - 1, -p, -q / 2)
    combine, at = RECIPES[regime].kernel(p, q, unit, *floats or (0.0, 0.0, 0.0), param)
    return (_profile(regime, point, param), combine,
            lambda rows: _window_bounds(rows, floats and at))


def _drift_kernel(plus_one: bool, p, q, unit, c_g, c_x, c_q, param):
    """combine and at of u = delta/g (I), or of delta/g + 1 (III, plus_one)."""

    def combine(prev, cur, nxt):
        Wm, g_dn, Wn, gn, g_up = map(mp.make_mpf, (*prev, *cur, nxt[1]))
        w = Wn + Wm
        drift = 1 - gn * (Wn / g_up + Wm / g_dn) / w
        inv_n = 1 / gn
        quad = (Wn * (inv_n - 1 / g_up) ** 2 + Wm * (1 / g_dn - inv_n) ** 2) / (w * 2)
        value = drift * (inv_n + 1) ** -p / gn if plus_one else gn ** (p - 1) * drift
        return value * quad ** (-q / 2)

    def at(i, W, g, rW, rg, dn, up):
        # drift = D / ((Wn + Wm) g_up g_dn), D = Wn g_dn d_up - Wm g_up d_dn with the
        # differences d_up = g_up - gn, d_dn = gn - g_dn, and kappa = gn (Wn g_dn +
        # Wm g_up) / D; quad = (Wn (d_up / (gn g_up))^2 + Wm (d_dn / (g_dn gn))^2) /
        # (2 (Wn + Wm)), and 1/g - 1/g' has kappa_q = (g + g') / |g' - g|
        (mWm, xWm), (mWn, xWn), (mgd, xgd), (mgu, xgu) = W[i - 1], W[i], g[i - 1], g[i + 1]
        D = dn and up and exact_sum(mWn * mgd * up[0], xWn + xgd + up[1],
                                    -mWm * mgu * dn[0], xWm + xgu + dn[1])
        if not D:
            return None
        fD, eD = screen.top53(abs(D[0]), D[1])
        (fWm, eWm), (fWn, eWn) = rW[i - 1], rW[i]
        (fgd, egd), (fgn, egn), (fgu, egu) = rg[i - 1], rg[i], rg[i + 1]
        fP, eP = screen._fsum(fWn * fgd, eWn + egd, fWm * fgu, eWm + egu)
        rho_d = 5.2 * unit * (screen._ratio(fP * fgn, eP + egn, fD, eD) + 1)
        k_q = max(screen._ratio(*screen._fsum(fgd, egd, fgn, egn), dn[2], dn[3]),
                  screen._ratio(*screen._fsum(fgn, egn, fgu, egu), up[2], up[3]))
        rho_q = 2.1 * unit * (k_q + 4)
        if not max(rho_d, rho_q) <= 0.00390625:
            return None
        if D[0] < 0:
            return False
        fw, ew = screen._fsum(fWm, eWm, fWn, eWn)
        t_up, t_dn = up[2] / (fgn * fgu), dn[2] / (fgd * fgn)
        fs, es = screen._fsum(fWn * t_up * t_up, eWn + 2 * (up[3] - egn - egu),
                              fWm * t_dn * t_dn, eWm + 2 * (dn[3] - egd - egn))
        drift = screen._log2(fD / (fw * fgd * fgu), eD - ew - egd - egu)
        quad = screen._log2(fs / fw, es - ew - 1)
        rho = rho_d + abs(c_q) * rho_q
        if not plus_one:
            return ((c_g, math.log2(fgn) + egn), (1.0, drift), (c_q, quad)), rho
        fx, ex = screen.top53(*exact_sum(*g[i], 1, 0))                         # gn + 1
        return (((1.0, drift), (c_x, screen._log2(fx / fgn, ex - egn)),
                 (-1.0, math.log2(fgn) + egn), (c_q, quad)), rho + abs(c_x) * 2.1 * unit)

    return combine, at


def _log_kernel(p, q, unit, c_g, c_x, c_q, param):
    """combine and at of u = f + 1 (II)."""

    def combine(prev, cur, nxt):
        Wm, f_dn, Wn, fn, f_up = map(mp.make_mpf, (*prev, *cur, nxt[1]))
        w = Wn + Wm
        neg_lap = fn - (Wn * f_up + Wm * f_dn) / w
        quad = (Wn * (f_up - fn) ** 2 + Wm * (f_dn - fn) ** 2) / (w * 2)
        if quad == 0 and q > 0:
            raise InputError(f"regime II: eps is too small for the working precision "
                             f"({mp.mp.prec} bits): (ln m)^(-eps/2) is flat")
        return neg_lap * (fn + 1) ** -p * quad ** (-q / 2)

    def at(i, W, f, rW, rf, dn, up):
        # neg_lap = L / (Wn + Wm), L = Wm d_dn - Wn d_up with the differences
        # d_up = f_up - fn, d_dn = fn - f_dn, and kappa = (Wn f_up + Wm f_dn) / L;
        # quad = (Wn d_up^2 + Wm d_dn^2) / (2 (Wn + Wm))
        (mWm, xWm), (mWn, xWn) = W[i - 1], W[i]
        L = dn and up and exact_sum(mWm * dn[0], xWm + dn[1], -mWn * up[0], xWn + up[1])
        if not L or L[0] <= 0:
            return None
        fL, eL = screen.top53(*L)
        (fWm, eWm), (fWn, eWn), (fu, eu), (fd, ed) = rW[i - 1], rW[i], rf[i + 1], rf[i - 1]
        rho_d = 4.2 * unit * (screen._ratio(*screen._fsum(fWn * fu, eWn + eu, fWm * fd,
                                                          eWm + ed), fL, eL) + 1)
        if not rho_d <= 0.00390625:
            return None
        fw, ew = screen._fsum(fWm, eWm, fWn, eWn)
        fs, es = screen._fsum(fWn * up[2] * up[2], eWn + 2 * up[3], fWm * dn[2] * dn[2],
                              eWm + 2 * dn[3])
        fx, ex = screen.top53(*exact_sum(*f[i], 1, 0))                         # fn + 1
        return (((1.0, screen._log2(fL / fw, eL - ew)), (c_x, math.log2(fx) + ex),
                 (c_q, screen._log2(fs / fw, es - ew - 1))),
                rho_d + (1.1 * abs(c_x) + 7.2 * abs(c_q)) * unit)

    return combine, at


def _reciprocal_kernel(p, q, unit, c_g, c_x, c_q, lam):
    """combine and at of u = delta (1/m + 1) (IV), r = e^(-lam)."""
    r = mp.e ** (-to_mpf(lam))
    one_r, two_one_r = 1 + r, 2 * (1 + r)

    def combine(prev, cur, nxt):
        m_dn, inv_dn, _, inv_n, _, inv_up = map(mp.make_mpf, (*prev, *cur, *nxt))
        drift = inv_n - (inv_up + r / m_dn) / one_r
        quad = ((inv_up - inv_n) ** 2 + r * (inv_dn - inv_n) ** 2) / two_one_r
        return drift * (inv_n + 1) ** -p * quad ** -0.5

    (_, m_r, x_r, _), (_, m_o, x_o, _) = r._mpf_, one_r._mpf_
    (fr, er), (fo, eo), (ft, et) = (screen.top53(*x._mpf_[1:3]) for x in (r, one_r, two_one_r))

    def at(i, M, V, rM, rV, dn, up):
        # drift = T / ((1 + r) m_dn), T = m_dn inv_n (1 + r) - m_dn inv_up - r, and
        # kappa = (m_dn inv_up + r) / T; quad = (d_up^2 + r d_dn^2) / (2 (1 + r)), d_up
        # and d_dn the differences of 1/m
        (m_dn, x_dn), (m_n, x_n), (m_up, x_up) = M[i - 1], V[i], V[i + 1]
        T = dn and up and exact_sum(m_dn * m_n * m_o, x_dn + x_n + x_o, -m_dn * m_up,
                                    x_dn + x_up)
        T = T and exact_sum(*T, -m_r, x_r)
        if not T:
            return None
        fT, eT = screen.top53(abs(T[0]), T[1])
        (fm, em), (fu, eu) = rM[i - 1], rV[i + 1]
        rho_d = 3.2 * unit * (screen._ratio(*screen._fsum(fm * fu, em + eu, fr, er), fT, eT) + 1)
        if not rho_d <= 0.00390625:
            return None
        if T[0] < 0:
            return False
        fs, es = screen._fsum(up[2] * up[2], 2 * up[3], fr * dn[2] * dn[2], er + 2 * dn[3])
        fx, ex = screen.top53(*exact_sum(m_n, x_n, 1, 0))                      # inv_n + 1
        return (((1.0, screen._log2(fT / (fo * fm), eT - eo - em)), (c_x, math.log2(fx) + ex),
                 (-0.5, screen._log2(fs / ft, es - et))), rho_d + (1.1 * abs(c_x) + 3.6) * unit)

    return combine, at


def _window_bounds(rows, at) -> list:
    """at(m, A, B, rA, rB, dn, up) for each inner row m of the profile rows,
    as one list: at gives (terms of log2 Lambda(m), rho), False (Lambda(m)
    proved negative) or None, one `screen.log2_bound` call bounds the
    terms, with no widen, and each bound (lo, hi) becomes
    (lo - 1.45 rho, hi + 1.45 rho); a False or None stays as it is.  A and
    B hold each row's values (A, B) as (mantissa, exponent), exactly, rA and
    rB their `screen.top53`, and dn and up are the differences of the pairs
    of rows below and above m, (D, e, f, E) with D 2^e = B_{k+1} - B_k
    exactly and (f, E) the top53 of |D|, or None where that is zero (or its
    exponents lie far apart); all are read once.
    Undecided at every m where at is None (an exponent floats cannot carry)
    or a value is not positive or has a binary exponent beyond 2^40 in
    size, which keeps sums of a few exponents exact as floats."""
    cap = screen._EXP_CAP
    if not at or not all(not x[0] and x[1] and -cap < x[2] < cap for row in rows for x in row):
        return [None] * (len(rows) - 2)
    top53 = screen.top53
    A = [(a[1], a[2]) for a, _ in rows]
    B = [(b[1], b[2]) for _, b in rows]
    diffs = []
    for (m1, x1), (m0, x0) in zip(B[1:], B):
        d = exact_sum(m1, x1, -m0, x0)
        diffs.append(d and d[0] and (*d, *top53(abs(d[0]), d[1])))
    reads = A, B, [top53(*a) for a in A], [top53(*b) for b in B]
    verdicts = [at(i, *reads, diffs[i - 1], diffs[i]) for i in range(1, len(rows) - 1)]
    bounds = screen.log2_bound(v and (0.0, v[0], 0.0) or None for v in verdicts)
    return [b and (b[0] - 1.45 * v[1], b[1] + 1.45 * v[1]) if v else v
            for b, v in zip(bounds, verdicts)]


def _lambda_window(regime: str, point: PQPoint, param, lo: int, hi: int) -> list[mp.mpf]:
    """Lambda(m) for m = lo..hi (regimes I-IV), each profile read once;
    `lambda_fn` at m (I-IV) is this window at m alone."""
    _check_lambda_index(regime, lo)
    profile, combine, _ = _lambda_kernel(regime, point, param)
    rows = profile.run(range(lo - 1, hi + 2))
    return [combine(*rows[i - 1:i + 2]) for i in range(1, len(rows) - 1)]


def _v1_layer_rhs(point: PQPoint, lam, n: int) -> mp.mpf:
    """Closed-form right-hand sides whose value >= 1 makes layer n work."""
    q = to_mpf(point.q)
    lam = to_mpf(lam)
    root = 2 ** (q / 2) * (1 - mp.e ** (-lam / 4)) ** (1 - q)
    if n == 0:
        return root
    r = mp.e ** (-lam)
    return (root * ((1 + r) / (1 + mp.e ** (-lam / 2))) ** (q / 2)
            * (1 - mp.e ** (-3 * lam / 4)) / (1 + r))


def _v2_layer_rhs(point: PQPoint, lam, n: int) -> mp.mpf:
    q = to_mpf(point.q)
    lam = to_mpf(lam)
    if lam <= 1:
        return mp.mpf(0)
    r = mp.e ** (-lam)
    return ((1 - mp.e ** (-(lam - 1))) ** (1 - q)
            * (2 * (1 + r) / (1 + mp.e ** (lam - 2))) ** (q / 2)
            * (1 - mp.e ** (-1)) / (1 + r))


def lambda_fn(regime: str, point: PQPoint, param, n: int) -> mp.mpf:
    """Per-layer calibration value for the given regime at absolute index n.

    For V1, n = 0 selects the root condition and any n >= 1 the
    (n-independent) interior one; for V2 the closed form does not depend on n.
    """
    _check_lambda_index(regime, n)
    conditions = RECIPES[regime].conditions     # V's, else Lambda from its kernel
    return (conditions(point, param, n) if conditions
            else _lambda_window(regime, point, param, n, n)[0])


def _check_lambda_index(regime: str, n: int) -> None:
    least = RECIPES[regime].least_m
    if least is not None and n < least:
        raise InputError(f"regime {regime} calibration needs n >= {least}, got {n}")


def lambda_limit(regime: str, point: PQPoint, param) -> mp.mpf:
    """Reported large-n limit of the calibration function (+inf for II)."""
    limit = RECIPES[regime].limit
    if limit is None:
        raise InputError(f"regime {regime} has no closed-form limit; use lambda_fn directly")
    return limit(point, param)


def _g_limit(family: str, point: PQPoint, eps) -> mp.mpf:
    sigma = to_mpf(exponents(point, family).sigma)
    return (2 / sigma) ** (to_mpf(point.q) / 2 - 1) * to_mpf(eps)


# ---------------------------------------------------------------------------
# delta_0 thresholds from the root condition


@dataclass(frozen=True)
class DeltaBound:
    value: mp.mpf
    direction: str  # "upper" or "lower"


def _delta0_value(regime: str, point: PQPoint, n0: int, table=None) -> DeltaBound:
    """delta_0 at n0, an upper bound on delta unless e < 0, from the profile
    rows of `table` (a memo of `_profile`; a fresh one when None: g does not
    need eps)."""
    recipe = RECIPES[regime]
    if recipe.delta0 is None:
        raise InputError(f"regime {regime} has no delta_0 formula")
    if table is None:
        table = _profile(regime, point, 0)
    p, q = to_mpf(point.p), to_mpf(point.q)
    e = recipe.power(p, q)
    return DeltaBound(recipe.delta0(p, q, e, n0, table), "lower" if e < 0 else "upper")


def _g_root(plus_one: bool, p, q, e, n0: int, table) -> mp.mpf:
    """delta_0 of u = delta/g (I) or delta/g + 1 (III, plus_one)."""
    g0, g1 = (mp.make_mpf(row[1]) for row in table.run(range(n0, n0 + 2)))
    factor = (1 / g0 + 1) ** (-p / e) if plus_one else g0 ** (p / e)
    return 2 ** (q / (2 * e)) * factor * (1 / g0 - 1 / g1) ** ((1 - q) / e)


def delta0(spec: RegimeSpec) -> DeltaBound:
    """Closed-form root-layer bound on delta for regimes I, III, IV.

    For I and III delta must stay below the bound, for IV above it (p < 0
    flips the power).  The IV formula reduces to 2^(1/2p) (1/n0 + 1)^(-1):
    its root inequality does not involve the shell weights at all.
    """
    return _delta0_value(spec.regime, spec.point, spec.n0)


def interior_threshold(spec: RegimeSpec) -> mp.mpf:
    """The quantity that must stay below Lambda at every interior layer:
    delta^e, e the recipe's power of the exact p and q, or 1."""
    power = RECIPES[spec.regime].power
    return mp.mpf(1) if power is None else mp.power(to_mpf(spec.delta),
                                                    to_mpf(power(spec.p, spec.q)))


# ---------------------------------------------------------------------------
# The regime table


def _g_exponents(family: str, point: PQPoint, eps) -> tuple:
    """(lam, beta + eps, sigma, beta) of `exponents(point, family)`."""
    ex = exponents(point, family)
    return ex.lam, to_mpf(ex.beta) + eps, ex.sigma, to_mpf(ex.beta)


def _delta_over(spec: RegimeSpec, xs):
    """delta / x for the raw x (I, III: g) or int x (IV: m), each the bits of mpf's /."""
    prec, rnd = mp.mp._prec_rounding
    delta, make = to_mpf(spec.delta)._mpf_, mp.make_mpf
    return (make(mpf_div(delta, from_int(x) if type(x) is int else x, prec, rnd)) for x in xs)


RECIPES = _Table({
    "I": Recipe(partial(in_g_region, "G1"), "eps", ("n0", "delta"), lambda p, q: p + q - 1, 3,
                exps=partial(_g_exponents, "I"), limit=partial(_g_limit, "I"), value=_delta_over,
                kernel=partial(_drift_kernel, False), delta0=partial(_g_root, False)),
    "II": Recipe(partial(in_g_region, "G2"), "eps", ("n0",), least_m=3,
                 exps=lambda pt, eps: (1, 1 + eps, 0, -eps / 2),
                 value=lambda spec, fs: map(mp.make_mpf, fs),
                 base=lambda spec: 1, kernel=_log_kernel, limit=lambda pt, eps: mp.inf),
    "III": Recipe(partial(in_g_region, "G3"), "eps", ("n0", "delta"), lambda p, q: q - 1, 3,
                  exps=partial(_g_exponents, "III"), value=_delta_over, base=lambda spec: 1,
                  kernel=partial(_drift_kernel, True), limit=partial(_g_limit, "III"),
                  delta0=partial(_g_root, True)),
    "IV": Recipe(partial(in_g_region, "G4"), "lam", ("n0", "delta"), lambda p, q: p, 2,
                 value=_delta_over, base=lambda spec: to_mpf(spec.delta),  # not delta (1/m + 1)
                 kernel=_reciprocal_kernel,
                 limit=lambda pt, lam: (mp.sqrt(2) * (1 - mp.e ** -to_mpf(lam))
                                        / (1 + mp.e ** -to_mpf(lam))),
                 delta0=lambda p, q, e, n0, table: 2 ** (1 / (2 * p)) / (1 / mp.mpf(n0) + 1)),
    "V1": Recipe(lambda pt: in_g_region("G5", pt) and pt.q > 0, "lam", ("lam",), least_m=0,
                 value=lambda spec, ms: _e_powers(-to_mpf(spec.lam) / 4, ms),  # /4 is exact
                 conditions=_v1_layer_rhs),
    "V2": Recipe(lambda pt: in_g_region("G5", pt) and pt.q < 0, "lam", ("lam",),
                 value=lambda spec, ms: _e_powers(-(to_mpf(spec.lam) - 1), ms),
                 conditions=_v2_layer_rhs, two_sided=True),    # one shell law on both arms
})
REGIMES = tuple(RECIPES)


# ---------------------------------------------------------------------------
# Tail margin


@dataclass(frozen=True)
class TailReport:
    """Calibration-function clearance on the outer half of the horizon.

    A passing verify() plus a passing tail is still only a finite-horizon
    certificate with an empirical tail margin, never a proof for all n.
    """

    ok: bool
    window: tuple[int, int]
    min_value: mp.mpf
    threshold: mp.mpf
    required: mp.mpf
    label: str = "finite-horizon certificate + tail margin"


def tail_check(spec: RegimeSpec, *, table=None) -> TailReport:
    """Lambda against twice the threshold on the tail window (I-IV read
    their profiles from `table`, as `build` does), or V's closed forms."""
    recipe = RECIPES[spec.regime]
    param = getattr(spec, recipe.param)
    if "n0" in recipe.searched:
        min_value = _window_min(spec.regime, spec.point, param, spec.n0, spec.horizon, table)
    else:
        min_value = min(lambda_fn(spec.regime, spec.point, param, n) for n in (0, 1))
    return _interior_tail(spec, min_value)


def _tail_window(H: int) -> tuple[int, int]:
    return max(1, math.ceil(H / 2)), H


def _window_min(regime, point, param, n0, H, table=None) -> mp.mpf:
    """min Lambda(n + n0) over the tail window of horizon H, that of
    `_lambda_window` bit for bit: the kernel's float64 bounds pick the m
    whose Lambda could be the smallest (`screen.extremes`, which keeps an m
    proved negative, its False, as it keeps an undecided one), and combine
    runs only there, on the same rows."""
    lo, hi = (n + n0 for n in _tail_window(H))
    _check_lambda_index(regime, lo)
    profile, combine, screened = _lambda_kernel(regime, point, param)
    rows = (profile if table is None else table).run(range(lo - 1, hi + 2))
    return min(combine(*rows[i:i + 3])
               for i in screen.extremes(screened(rows), low=True))


def _interior_tail(spec: RegimeSpec, min_value) -> TailReport:
    """The tail report on the spec's horizon, given the least value of Lambda
    that it checks."""
    threshold = interior_threshold(spec)
    required = 2 * threshold if "n0" in RECIPES[spec.regime].searched else to_mpf(V_COND_MARGIN)
    return TailReport(ok=min_value >= required, window=_tail_window(spec.horizon),
                      min_value=min_value, threshold=threshold, required=required)


# ---------------------------------------------------------------------------
# Certification: a pinned spec, or the calibration search


@dataclass(frozen=True)
class Certificate:
    """A construction with the margin report and tail that certify it."""

    built: BuiltCounterexample
    report: MarginReport
    tail: TailReport

    @property
    def spec(self) -> RegimeSpec:
        return self.built.spec

    @property
    def ok(self) -> bool:
        return self.report.verified and self.tail.ok


def certify_spec(spec: RegimeSpec) -> Certificate:
    """Build, verify and tail a fully pinned spec, once each, on one table of
    its profile; one that passes is accepted as the search accepts it."""
    recipe = validate_spec(spec)
    table = memo(_profile(spec.regime, spec.point, getattr(spec, recipe.param))) \
        if "n0" in recipe.searched else None
    built = build(spec, table=table)
    cert = Certificate(built, verify(built), tail_check(spec, table=table))
    return _accepted([cert], f"regime {spec.regime}: pinned spec not certified", 1) if cert.ok \
        else cert


def _probe_offsets(H: int) -> list[int]:
    probes = {1, 2, 3, 5, H // 2, H}
    k = 8
    while k < H:
        probes.add(k)
        k *= 4
    return sorted(n for n in probes if n >= 1)


def _probe_min(ms, table, combine, screened):
    """min Lambda(m) over the probe points ms when Lambda(m) > 0 at every
    one, else None; that of combine at each m, bit for bit.

    ms are taken in their order, and the first m whose Lambda the kernel's
    screen proves negative (False), or whose combine is not positive where
    the screen leaves it undecided (None), ends the search.  Past them all,
    combine runs at the m (not yet evaluated) whose bounds could hold the
    minimum (`screen.extremes`).
    """
    rows, bounds, values = [], [], []
    for m in ms:
        row = table.run(range(m - 1, m + 2))
        bound, = screened(row)
        if bound is False:
            return None
        value = None if bound else combine(*row)
        if value is not None and not value > 0:
            return None
        rows.append(row)
        bounds.append(bound)
        values.append(value)
    return min(combine(*rows[i]) if values[i] is None else values[i]
               for i in screen.extremes(bounds, low=True))


def certify(regime: str, point: PQPoint, *, N: int, horizon: int,
            eps=None, lam=None) -> Certificate:
    """Search the free parameters until build + verify + tail all pass.

    Returns the accepted candidate's build, margin report and tail, so a
    caller never has to recompute them.  Each candidate of `_candidates`
    is built and verified in turn, and its tail checked once the margins
    pass; `_accepted` takes the first to pass, or raises.  One memo of
    `_profile` (I-IV), made here and dropped on return, gives the probes,
    tail windows, delta_0, `build` and `tail_check` each m's profile,
    evaluated once.
    """
    recipe = _check_params(regime, point, N, horizon, eps, lam)
    eps = Fraction(eps) if recipe.param == "eps" else None
    table = memo(_profile(regime, point, eps or lam)) if "n0" in recipe.searched else None

    def certificates():
        for spec, tail in _candidates(regime, point, eps, lam, N, horizon, table):
            built = build(spec, table=table)
            report = verify(built)
            if report.verified and tail is None:
                tail = tail_check(spec, table=table)
            yield Certificate(built, report, tail)      # tail None: the margins failed
    name, cap = ("n0", _N0_CAP) if "n0" in recipe.searched else ("lambda", _LAMBDA_CAP)
    return _accepted(certificates(), f"regime {regime}: no passing {name} up to {cap}",
                     cap.bit_length() - (name == "n0"))     # n0 doubles from 2, lambda from 1


def _accepted(certs, failure: str, tried: int) -> Certificate:
    """The first of certs, in order, to pass with a strictly decreasing stored u
    (a constant u solves the inequality and shows nothing: it is refused); else
    `CalibrationError`, which counts the `tried` candidates by outcome and
    carries the smallest max_margin among those not refused and its spec (both
    None when there is none)."""
    best_margin = best_spec = None
    built_by = [0, 0, 0]        # failed verify, failed the tail, refused
    for cert in certs:
        if cert.ok and _decreasing(cert.built.u):
            return cert
        outcome = 1 + cert.tail.ok if cert.report.verified else 0
        built_by[outcome] += 1
        if outcome < 2 and (best_margin is None or cert.report.max_margin < best_margin):
            best_margin, best_spec = cert.report.max_margin, cert.spec
    raise CalibrationError(
        f"{failure}; {tried - sum(built_by)} of {tried} candidates screened out before build, "
        f"{sum(built_by)} built: {built_by[0]} failed verify, {built_by[1]} failed the tail; "
        f"{built_by[2]} candidates refused: stored u not strictly decreasing",
        best_margin=best_margin, best_spec=best_spec)


def _decreasing(u: RadialFunction) -> bool:
    """u_n > u_(n+1) at every stored layer (both arms), exactly: the deviations
    compared, on signed mantissas aligned per pair (mpf's compare subtracts:
    six times slower)."""
    xs = [(-m if s else m, e) for s, m, e, _ in (v._mpf_ for v in u.deviations())]
    return all((x0 << e0 - e1 > x1) if e0 >= e1 else (x0 > x1 << e1 - e0)
               for (x0, e0), (x1, e1) in zip(xs, xs[1:]))


def calibrate(regime: str, point: PQPoint, *, N: int, horizon: int,
              eps=None, lam=None) -> RegimeSpec:
    """The spec `certify` accepts: the calibrated free parameters."""
    return certify(regime, point, N=N, horizon=horizon, eps=eps, lam=lam).spec


def _candidates(regime, point, eps, lam, N, horizon, table):
    """(spec, tail or None) per candidate that clears its closed-form screen,
    in search order.

    Regimes V1/V2 double the rate lambda from 1 and keep each lambda whose
    closed-form layer conditions clear 1 with five percent to spare (that
    is `tail_check`, so its report comes along).  Regime II walks n0
    through powers of two with no screen.  Regimes I, III and IV walk n0
    the same way; the shift n -> n + n0 is what makes the calibration
    function positive and flat enough on the horizon.  An n0 is kept when
    Lambda is positive at every probe and the smallest probe clears the
    interior threshold of delta, which is fixed from the recipe bounds: the
    root bound delta_0, the limit-based delta_1 = (limit/2)^(1/e), and a
    tail cap (window-minimum/2)^(1/e) that keeps the factor-two tail
    clearance reachable; with e < 0 (regime IV, e = p) the three combine
    through max instead of min; a delta of 0 (a constant u) is passed over.
    The probes, windows and delta_0 read `table`.
    """
    recipe = RECIPES[regime]
    base = dict(regime=regime, p=point.p, q=point.q, N=N, horizon=horizon)
    if "n0" not in recipe.searched:
        rate = mp.mpf(1)
        while rate <= _LAMBDA_CAP:
            spec = RegimeSpec(**base, lam=rate)
            tail = tail_check(spec)
            if tail.ok:
                yield spec, tail
            rate *= 2
        return
    lam = to_mpf(lam) if recipe.param == "lam" else None
    if recipe.power is not None:            # delta is searched: screen each n0
        param = eps if lam is None else lam
        e = to_mpf(recipe.power(point.p, point.q))
        delta1 = mp.power(lambda_limit(regime, point, param) / 2, 1 / e)
        combine = max if e < 0 else min
        # far end first: Lambda of I and III is positive at small n and
        # negative farther out, and as n0 doubles the probes slide into the
        # negative band far end first, so a rejected n0 takes one probe
        probes = _probe_offsets(horizon)[::-1]
        _, lam_of, screened = _lambda_kernel(regime, point, param)  # m >= 3 >= least_m

    n0 = 2
    while n0 <= _N0_CAP:
        for m in [m for m in table if m < n0]:  # every read from here on is at m >= n0
            del table[m]
        if recipe.power is None:
            yield RegimeSpec(**base, eps=eps, n0=n0), None
        elif (least := _probe_min([n + n0 for n in probes], table, lam_of,
                                  screened)) is not None:
            wmin = _window_min(regime, point, param, n0, horizon, table)
            delta = combine(_delta0_value(regime, point, n0, table).value, delta1,
                            mp.power(wmin / 2, 1 / e))
            spec = RegimeSpec(**base, eps=eps, lam=lam, n0=n0, delta=delta)
            if delta > 0 and least >= interior_threshold(spec):
                yield spec, _interior_tail(spec, wmin)
        n0 *= 2


# ---------------------------------------------------------------------------
# Volume growth


@dataclass(frozen=True)
class VolumeBand:
    ratio_min: mp.mpf
    ratio_max: mp.mpf

    @property
    def spread(self) -> mp.mpf:
        return self.ratio_max / self.ratio_min


def _law_parameter(x, what: str) -> mp.mpf:
    """A growth law's parameter as a finite mpf at the working precision."""
    x = to_mpf(x)
    if not mp.isfinite(x):
        raise InputError(f"{what} must be finite, got {x}")
    return x


@dataclass(frozen=True)
class PowerLogLaw:
    """The growth law n^expo (ln n)^logexp: positive and finite for n >= 2.

    The exponents are converted to finite mpfs when the law is built, and
    kept, so that `volume_band` can bound log2 of the law in float64 before
    it evaluates it anywhere.  A call gives exp(expo ln n + logexp ln ln n)
    as three calls round it: t formed at 20 bits above the working precision
    and exp(t) rounded once to it (its error is bounded in `_band_bounds`).
    `numerics.power_log` gives those bits from one fixed-point pass where
    Ziv's test decides them, and from the calls elsewhere.
    """

    expo: mp.mpf
    logexp: mp.mpf

    def __post_init__(self):
        object.__setattr__(self, "expo", _law_parameter(self.expo, "power-log exponent"))
        object.__setattr__(self, "logexp", _law_parameter(self.logexp, "power-log exponent"))

    def __call__(self, n: int) -> mp.mpf:
        return mp.make_mpf(power_log(self.expo._mpf_, self.logexp._mpf_, n, mp.mp.prec))


@dataclass(frozen=True)
class ExpLaw:
    """The growth law exp(lam n): positive and finite for every int n.

    lam is converted to a finite mpf when the law is built.  A call forms
    lam n exactly and rounds only exp(lam n), once, to the working precision:
    mpmath's exp is within 1 ulp there.  (Raising e, itself rounded, to the
    power lam n would multiply e's rounding error by lam n.)
    """

    lam: mp.mpf

    def __post_init__(self):
        object.__setattr__(self, "lam", _law_parameter(self.lam, "exponential rate"))

    def __call__(self, n: int) -> mp.mpf:
        return mp.make_mpf(mpf_exp(mpf_mul(self.lam._mpf_, from_int(n)), mp.mp.prec,
                                   round_nearest))

    def run(self, ns: range):
        """Yield self(n)._mpf_ for n in ns, bit for bit, from one
        `numerics.exp_run`, whose undecided values are that call."""
        prec, lam = mp.mp.prec, self.lam._mpf_
        return exp_run(lam, ns, prec)


def volume_target(spec: RegimeSpec) -> PowerLogLaw | ExpLaw:
    """The growth law the construction is designed to realize: that of its
    weights summed, m^(a+1) (ln m)^b for the weights m^a (ln m)^b of the
    recipe's profile, else exp(lam m)."""
    exps = RECIPES[spec.regime].exps
    if exps is None:
        return ExpLaw(spec.lam)
    a, b, _, _ = exps(spec.point, to_mpf(spec.eps))
    return PowerLogLaw(1 + a, b)


def _band_bounds(vols: list, law: PowerLogLaw, window: range) -> list:
    """Float64 bounds (lo, hi) on log2 of the mpf ratio vols[n] / law(n),
    per n of the window; None where undecided.

    The screen's input stage: the ratio is vols[n] n^-A (ln n)^-B, A and B
    the law's exponents, and `screen.log2_bound` takes log2 vols[n], read
    from the exact running volume, as its constant, and log2 n and
    log2 ln n from libm.  The law,
    exp(A ln n + B ln ln n) at prec + 20 bits, is within 1 + 2^-18 (1 +
    |A ln n| + |B ln ln n| + |B|) ulps: inside the budget's (4 + |C ln x|)
    ulps per power.  An n whose volume is not positive or whose bound
    decides nothing stays a candidate and excuses no other n; so does every
    n of a law with an exponent floats cannot carry, or below 53 bits.
    """
    floats = screen.exponent_floats(law.expo, law.logexp)
    if floats is None:
        return [None] * len(window)
    a, b = -floats[0], -floats[1]
    log2, log = math.log2, math.log
    return screen.log2_bound(
        (lv[1], ((a, log2(n)), (b, log2(log(n)))), 0.0) if lv and not lv[0] else None
        for n, lv in zip(window, map(screen.log2_abs, map(vols.__getitem__, window))))


def volume_band(built: BuiltCounterexample, target: Callable[[int], object],
                n_lo: int, n_hi: int) -> VolumeBand:
    """Min and max of mu(B(o, n)) / target(n) over [n_lo, n_hi].

    A bounded band certifies two-sided comparability at desk scale; a band
    that keeps widening as n_hi grows is how a wrong growth law shows up.

    For a `PowerLogLaw` target, `_band_bounds` excuses in float64 every n
    whose ratio is provably above another n's and below a third's, so that
    it can hold neither extreme; the law is evaluated in mpf only at the
    others, in increasing n, and the band equals that of the loop over every
    n bit for bit.  An `ExpLaw`, whose ratios are flat to rounding, is
    evaluated in one run over the window (`ExpLaw.run`), with the bits of a
    call at every n.  Any other target (a plain callable) is evaluated at
    every n.  The target must be positive and finite at every n.  The
    smallest and largest exact ratios are picked by `quotient_cmp` and each
    divided once: rounding is monotone, so they round to the extremes of the
    rounded ratios.
    """
    window = _band_window(n_lo, n_hi)
    return _volume_band(built.tree.ball_volumes(n_hi), target, window)


def _band_window(n_lo: int, n_hi: int) -> range:
    """The radii n_lo..n_hi of a volume band, checked."""
    if n_lo < 2:
        raise InputError("volume band needs n_lo >= 2 (targets may involve ln n)")
    if n_hi < n_lo:
        raise InputError("need n_hi >= n_lo")
    return range(n_lo, n_hi + 1)


def _volume_band(vols: list, target: Callable[[int], object], window: range) -> VolumeBand:
    """`volume_band` over a checked window, from the running volumes vols[0..n_hi]."""
    if isinstance(target, PowerLogLaw):
        picked = screen.extremes(_band_bounds(vols, target, window), low=True, high=True)
        window = [window[i] for i in picked]
    if isinstance(target, ExpLaw):
        targets = target.run(window)
    else:
        targets = (to_mpf(target(n))._mpf_ for n in window)
    lo = hi = None      # (volume, target) of the smallest and largest exact ratio so far
    for n, raw in zip(window, targets):
        if raw[0] or not raw[1]:    # negative, zero, infinite or nan
            raise InputError(f"target must be positive, got {mp.make_mpf(raw)} at n={n}")
        item = vols[n]._mpf_, raw
        if lo is None:
            lo = hi = item
        elif quotient_cmp(*item, *lo) < 0:
            lo = item
        elif quotient_cmp(*item, *hi) > 0:
            hi = item
    prec = mp.mp.prec
    ratio_min, ratio_max = (mpf_div(*item, prec, round_nearest) for item in (lo, hi))
    return VolumeBand(ratio_min=mp.make_mpf(ratio_min), ratio_max=mp.make_mpf(ratio_max))


def layer_rows(built: BuiltCounterexample, horizon: int | None = None):
    """Yield (layer, w, u, lap, grad, margin) across the checked layers."""
    layers = built.tree.checked_layers(horizon)
    term_of = term_kernel(built.spec.p, built.spec.q)
    for n, (un, lap, grad_sq) in zip(layers, map(layer_operators(built.tree, built.u), layers)):
        check = term_of.check(un, lap, grad_sq)
        try:
            w = built.tree.weight(n)
        except InputError:
            w = mp.nan
        yield (n, w, un, lap, mp.sqrt(grad_sq), mp.nan if check is None else check.margin)
