"""Layer-compressed spherically symmetric trees.

A homogeneous tree T_N (every vertex of degree N) with weights constant on
each edge shell E_n reduces to a one-dimensional recurrence.  Raw shell
weights mu_n would have to fight the (N-1)^n shell growth, so trees store
the normalized weights

    w_n = mu_n * (N-1)^n            (one-sided, and the positive arm)
    w_n = mu_n * (N-1)^(-n-1)       (negative arm of a two-sided tree)

All operator values depend only on ratios w_n : w_{n-1}, so the
normalization is exact.  At an interior layer n,

    lap   = [w_n (u_{n+1}-u_n) + w_{n-1} (u_{n-1}-u_n)] / (w_n + w_{n-1})
    grad^2 = [w_n (u_{n+1}-u_n)^2 + w_{n-1} (u_{n-1}-u_n)^2] / (2 (w_n + w_{n-1}))

so every layer is a site with two conductances, stated once in
`_LayerChain.conductances`; a one-sided root is the site (1, 0), where
lap = u_1 - u_0 and grad^2 = (u_1 - u_0)^2 / 2.  Brute-force equivalence
with materialized balls is part of the test suite.
"""

from __future__ import annotations

import re
from itertools import chain
from typing import Callable, Sequence

import mpmath as mp
from mpmath.libmp import (fone, fzero, mpf_add, mpf_div, mpf_mul, mpf_mul_int, mpf_neg,
                          mpf_pow_int, mpf_sub, repr_dps, round_nearest)

from .errors import InputError
from .graphs import GraphFunction, HarnackReport, WeightedGraph, harnack_scan
from .numerics import (NUMBER, all_finite, all_positive, content_lines, decimal_value,
                       max_quotient_pair, nearest_sum, parse_decimal, parse_index,
                       raw_positive, to_mpf)

_UNIT_ROOT = (mp.mpf(1), mp.mpf(0))    # a one-sided root's conductances


class RadialFunction:
    """Layerwise values u_n, constant on each layer by construction.

    u is stored as an exact base plus deviations v_n (base 0 unless given).
    `values()` are u_n = v_n + base, each rounded once at the precision of
    construction (formed on the first read, so a build no reader asks for
    keeps one tuple); `deviations()` are the v_n as given (u's own tuple when
    the base is 0).  Every difference of u is read from the deviations: the
    base is common to all of them, and where u -> base the sums have rounded
    away the low bits of v that the differences are made of.
    """

    __slots__ = ("_values", "_devs", "_base", "_lo", "_pr")

    def __init__(self, values: Sequence, lo: int = 0, base=0):
        self._devs = tuple(to_mpf(v) for v in values)
        if not self._devs:
            raise InputError("radial function needs at least one layer")
        self._base = base = to_mpf(base)
        if not all_finite((base, *self._devs)):
            raise InputError("radial function values must be finite")
        self._values = None if base else self._devs
        self._pr = tuple(mp.mp._prec_rounding)
        self._lo = lo

    @classmethod
    def from_callable(cls, lo: int, hi: int, fn: Callable[[int], object]) -> "RadialFunction":
        return cls([fn(n) for n in range(lo, hi + 1)], lo=lo)

    @property
    def lo(self) -> int:
        return self._lo

    @property
    def hi(self) -> int:
        return self._lo + len(self._devs) - 1

    @property
    def base(self) -> mp.mpf:
        return self._base

    def value(self, n: int) -> mp.mpf:
        if not (self._lo <= n <= self.hi):
            raise InputError(f"layer {n} outside stored range [{self._lo}, {self.hi}]")
        return self.values()[n - self._lo]

    def values(self) -> tuple[mp.mpf, ...]:
        if self._values is None:
            (prec, rnd), b, make = self._pr, self._base._mpf_, mp.make_mpf
            self._values = tuple(make(mpf_add(v._mpf_, b, prec, rnd)) for v in self._devs)
        return self._values

    def deviations(self) -> tuple[mp.mpf, ...]:
        """v_n = u_n - base, exactly as stored, from layer lo on."""
        return self._devs

    def is_positive(self) -> bool:
        return all_positive(self.values())


def layer_operators(tree, u: RadialFunction) -> Callable[[int], tuple]:
    """The operator stream of u on a radial tree: n -> (u_n, lap, grad^2).

    The cover is checked once, here; nothing else is done per layer until
    a layer is asked for.  Each operation is the `mpmath.libmp` call that
    mpf's own operator makes in `laplacian_at` and `gradient_sq_at`, on
    raw values at the precision and rounding read at call time, so the
    values are theirs bit for bit; all read `conductances(n)`, so layers
    outside `interior_layers()` raise as they do.  The differences are
    those of u's deviations v (`RadialFunction.deviations`).  Per-layer
    loops read `map(ops, layers)`; a walk calls `ops(n)` and reads the last
    layer's differences from `d_out` and `d_in`.

    The stream rolls: when ops(n) follows ops(n - 1) at the same precision
    under round-to-nearest, n is not 1 and b is not 0, the inward products
    at n are the outward ones at n - 1.  The inward conductance at n is the
    outward one w_{n-1} at n - 1 (only a root's outward conductance differs
    from its shell weight: (N - 1) w_0, or 1), and
    d_in(n) = fl(v_{n-1} - v_n) = -fl(v_n - v_{n-1}) = -d_out(n - 1), since
    rounding to nearest is odd.  So b d_in = -(a d_out) at n - 1 and
    b d_in^2 = a d_out^2 there, the same bits.  Any other call order forms
    both differences afresh.
    """
    tree.check_covers(u)
    return _LayerStream(tree, u)


class _LayerStream:
    """`layer_operators`' stream; `d_out` and `d_in` are the raw differences
    v_{n+1} - v_n and v_{n-1} - v_n of the deviations at the last layer n
    (d_in None where the inward conductance is 0)."""

    __slots__ = ("_conductances", "_values", "_devs", "_ulo", "_pr", "_last", "_prec", "_ad",
                 "_ad2", "d_out", "d_in")

    def __init__(self, tree, u: RadialFunction):
        self._conductances = tree.conductances
        self._values, self._devs, self._ulo = u.values(), u.deviations(), u.lo
        self._pr = mp.mp._prec_rounding         # mpmath updates this list in place
        self._last = self._prec = self._ad = self._ad2 = self.d_out = self.d_in = None

    def __call__(self, n):
        a, b = self._conductances(n)
        a, b = a._mpf_, b._mpf_
        prec, rnd = self._pr
        devs = self._devs
        i = n - self._ulo
        vn = devs[i]._mpf_
        d_out = mpf_sub(devs[i + 1]._mpf_, vn, prec, rnd)
        if b == fzero:                  # no inward edge: v_{n-1} is not read
            d_in, bd, bd2 = None, fzero, fzero
        elif n - 1 == self._last and n != 1 and prec == self._prec and rnd == round_nearest:
            d_in = mpf_neg(self.d_out)
            bd, bd2 = mpf_neg(self._ad), self._ad2
        else:
            d_in = mpf_sub(devs[i - 1]._mpf_, vn, prec, rnd)
            bd = mpf_mul(b, d_in, prec, rnd)
            bd2 = mpf_mul(b, mpf_pow_int(d_in, 2, prec, rnd), prec, rnd)
        ad = mpf_mul(a, d_out, prec, rnd)
        ad2 = mpf_mul(a, mpf_pow_int(d_out, 2, prec, rnd), prec, rnd)
        ab = mpf_add(a, b, prec, rnd)
        self._last, self._prec, self._ad, self._ad2 = n, prec, ad, ad2
        self.d_out, self.d_in = d_out, d_in
        return (self._values[i], mp.make_mpf(mpf_div(mpf_add(ad, bd, prec, rnd), ab, prec, rnd)),
                mp.make_mpf(mpf_div(mpf_add(ad2, bd2, prec, rnd), mpf_mul_int(ab, 2, prec, rnd),
                                 prec, rnd)))


class _LayerChain:
    """A radial tree as its quotient: a chain of layers, one weight per shell.

    `_w` holds every normalized shell weight in one tuple, w_n at position
    n - layer_lo.  Every method is written once for both trees; `one_sided`
    is read only where the root differs: a one-sided root has N children
    and no inward edge, a two-sided root N-1 children plus the arm edge
    E_{-1}.  For the operators, that is `conductances`.
    """

    __slots__ = ("_N", "_w", "_lo", "_hi", "_inner", "_p0")
    one_sided: bool

    def __init__(self, N: int, weights: tuple, layer_lo: int, layer_hi: int):
        if not (isinstance(N, int) and N >= 2):
            raise InputError("tree degree N must be an integer >= 2")
        if not all_positive(weights):
            raise InputError("shell weights must be positive and finite")
        self._N = N
        self._w = weights
        self._lo = layer_lo
        self._hi = layer_hi
        self._inner = range(layer_lo if self.one_sided else layer_lo + 1, layer_hi)
        self._p0 = None         # (precision, p0()) once computed; the chain never changes

    @property
    def N(self) -> int:
        return self._N

    @property
    def layer_lo(self) -> int:
        return self._lo

    @property
    def layer_hi(self) -> int:
        return self._hi

    def weight(self, n: int) -> mp.mpf:
        """w_n for the shell E_n joining layers n and n+1."""
        if not 0 <= n - self._lo < len(self._w):
            raise InputError(f"shell index {n} outside stored range "
                             f"[{self._lo}, {self._lo + len(self._w) - 1}]")
        return self._w[n - self._lo]

    def check_covers(self, u: RadialFunction) -> None:
        # a one-sided root reads u_0 and u_1 by position, so u starts at 0
        if u.lo > self._lo or u.hi < self._hi or (self.one_sided and u.lo != 0):
            raise InputError("radial function does not cover the tree's layers")

    def interior_layers(self) -> range:
        """Layers where both operators are defined (need u at n-1, n, n+1);
        a one-sided root needs only u_1."""
        return self._inner

    def checked_layers(self, horizon: int | None) -> range:
        """The interior layers with |n| <= horizon (every one when None),
        which a margin check reads; a horizon past the deepest raises."""
        deepest = self._inner.stop - 1
        if horizon is None and deepest < 0:
            raise InputError("the tree has no checkable layer (it needs u at layer 1)")
        h = deepest if horizon is None else horizon
        if h < 0:
            raise InputError(f"horizon must be at least 0, got {h}")
        if h > deepest:
            raise InputError(f"horizon {h} exceeds checkable layers (needs u at {h + 1})")
        return range(max(self._inner.start, -h), h + 1)

    def conductances(self, n: int) -> tuple[mp.mpf, mp.mpf]:
        """(outward, inward) conductances of layer n in `interior_layers()`: (w_n,
        w_{n-1}), ((N-1) w_0, w_{-1}) at a two-sided root, (1, 0) at a one-sided one."""
        if n not in self._inner:
            raise InputError(f"layer {n} has no stored inward and outward edge")
        i = n - self._lo
        if n:
            return self._w[i], self._w[i - 1]
        if self.one_sided:
            return _UNIT_ROOT
        return (self._N - 1) * self._w[i], self._w[i - 1]

    def _site(self, u: RadialFunction, n: int) -> tuple:
        """(a, b, v_{n+1} - v_n, v_{n-1} - v_n) at layer n, v the deviations of
        u and (a, b) its conductances; where b = 0 the inward difference is 0,
        v_{n-1} unread.  The cover and n's conductances keep the reads inside v."""
        self.check_covers(u)
        a, b = self.conductances(n)
        v, i = u.deviations(), n - u.lo
        return a, b, v[i + 1] - v[i], v[i - 1] - v[i] if b else b

    def laplacian_at(self, u: RadialFunction, n: int) -> mp.mpf:
        """lap at layer n by the formulas of the module docstring (the reference)."""
        a, b, d_out, d_in = self._site(u, n)
        return (a * d_out + b * d_in) / (a + b)

    def gradient_sq_at(self, u: RadialFunction, n: int) -> mp.mpf:
        """grad^2 at layer n by the formulas of the module docstring (the reference)."""
        a, b, d_out, d_in = self._site(u, n)
        return (a * d_out ** 2 + b * d_in ** 2) / (2 * (a + b))

    def gradient_at(self, u: RadialFunction, n: int) -> mp.mpf:
        return mp.sqrt(self.gradient_sq_at(u, n))

    def harnack_check(self, u: RadialFunction, p0) -> HarnackReport:
        """Layerwise Harnack scan; every E_n edge realizes the ratio u_n : u_{n+1}.

        Decided by `graphs.harnack_scan`, as `graphs.harnack_check` is, so a
        tree and its materialized ball agree on the verdict.
        """
        self.check_covers(u)
        values = u.values()[self.layer_lo - u.lo:]
        layers = range(self.layer_lo, self.layer_hi)
        return harnack_scan((((n, n + 1), a, b) for n, a, b in zip(layers, values, values[1:])),
                            p0, "layers {},{}")

    def layer_measure(self, k: int) -> mp.mpf:
        """mu(D_k) of the infinite tree in normalized form: N w_0, then
        N (w_{k-1} + w_k) on a one-sided tree; (N-1) w_0 + w_{-1}, then
        (N-1)(w_{k-1} + w_k) + (w_{-k} + w_{-k-1}) over both arms of a two-sided one."""
        if not 0 <= k < len(self._w) + self._lo:
            raise InputError(f"layer {k} outside the volume-computable range")
        return mp.make_mpf(raw_positive(*next(self._measures(range(k, k + 1), mp.mp.prec))))

    def _measures(self, ks: range, prec: int):
        """Yield `layer_measure(k)` for each checked k of ks as (man, exp),
        man 2^exp: the bits of mpf's + and of int * mpf at prec, rounded to
        nearest, each by `nearest_sum`."""
        w, z, one = self._w, -self._lo, self.one_sided
        fan = self._N if one else self._N - 1
        for k in ks:
            _, m, e, _ = w[z + k]._mpf_
            if k:
                _, a, b, _ = w[z + k - 1]._mpf_
                m, e = nearest_sum(m, e, prec, a, b)
            m, e = nearest_sum(fan * m, e, prec)
            if not one:                 # the negative arm's w_{-k-1}, + w_{-k}
                _, a, b, _ = w[z - k - 1]._mpf_
                if k:
                    _, c, d, _ = w[z - k]._mpf_
                    a, b = nearest_sum(a, b, prec, c, d)
                m, e = nearest_sum(m, e, prec, a, b)
            yield m, e

    def _radii(self, n: int) -> range:
        """0..n, if mu(B(o, n)) is computable from the stored shells."""
        if not 0 <= n < len(self._w) + self._lo:
            raise InputError(f"radius {n} exceeds the volume-computable horizon")
        return range(n + 1)

    def ball_volume(self, n: int) -> mp.mpf:
        return mp.fsum(self.layer_measure(k) for k in self._radii(n))

    def ball_volumes(self, n_max: int) -> list[mp.mpf]:
        """Running volumes mu(B(o, 0..n_max)), summed layer by layer in order,
        in integers: the bits of mpf's +=."""
        prec, make = mp.mp.prec, mp.make_mpf
        vols, acc = [], None
        for m, e in self._measures(self._radii(n_max), prec):
            if acc:
                m, e = nearest_sum(m, e, prec, *acc)
            acc = m, e
            vols.append(make(raw_positive(m, e)))
        return vols

    def p0(self) -> mp.mpf:
        """Smallest admissible p0 of the horizon-truncated tree: the largest
        mu(x) / mu_xy over the directed edges of its ball (a leaf's is 1).

        Off the root, a vertex at layer n has mu(x) proportional to
        w_n + w_{n-1}; its edge away from the root carries the ratio
        (N-1)(w_n + w_{n-1}) / w_out and its edge toward it
        (w_n + w_{n-1}) / w_in.  The value is kept per tree, for the last
        working precision it was asked at.
        """
        prec = mp.mp.prec
        if self._p0 is None or self._p0[0] != prec:
            self._p0 = (prec, self._max_edge_ratio())
        return self._p0[1]

    def _max_edge_ratio(self) -> mp.mpf:
        """The largest exact ratio, `max_quotient_pair`'s, divided once.  The
        numerators are the sums of mpf's + and int * mpf, by `nearest_sum`."""
        w, z, fan, prec = self._w, -self._lo, self._N - 1, mp.mp.prec
        if self.one_sided:
            ratios = [(mp.mpf(self._N)._mpf_, fone)]    # N equal edges at the root
        else:
            root = raw_positive(*next(self._measures(range(1), prec)))
            ratios = [(root, w[z]._mpf_), (root, w[z - 1]._mpf_)]
        for n in range(self._lo + 1, self._hi):
            if n == 0:
                continue
            wn, wm = w[z + n]._mpf_, w[z + n - 1]._mpf_
            w_out, w_in = (wn, wm) if n > 0 else (wm, wn)
            m, e = nearest_sum(wn[1], wn[2], prec, wm[1], wm[2])
            ratios += [(raw_positive(m, e), w_in),
                       (raw_positive(*nearest_sum(fan * m, e, prec)), w_out)]
        return mp.make_mpf(mpf_div(*max_quotient_pair(ratios), prec, round_nearest))

    def materialize(self, radius: int) -> tuple[WeightedGraph, tuple[int, ...]]:
        """Explicit ball of the given radius, plus each vertex's signed layer.

        Vertex ids are breadth-first: the root is 0, and each shell's
        children are appended in parent order, the positive arm's before the
        negative arm's.  Edge weights are the raw mu_n = w_n / (N-1)^n on the
        positive arm and w_n (N-1)^(n+1) on the negative arm.
        """
        if not 1 <= radius <= self._hi:
            raise InputError(f"radius {radius} outside the materializable range [1, {self._hi}]")
        N = self._N
        arms = [(1, N)] if self.one_sided else [(1, N - 1), (-1, 1)]
        shells = {sign: [0] for sign, _ in arms}
        layers = [0]
        edges = []
        for d in range(radius):
            for sign, root_fan in arms:
                n = d if sign > 0 else -d - 1
                w = self.weight(n)
                mu = w / mp.mpf(N - 1) ** n if sign > 0 else w * mp.mpf(N - 1) ** (n + 1)
                shell = []
                for parent in shells[sign]:
                    for _ in range(root_fan if d == 0 else N - 1):
                        edges.append((parent, len(layers), mu))
                        shell.append(len(layers))
                        layers.append(sign * (d + 1))
                shells[sign] = shell
        return WeightedGraph(len(layers), edges), tuple(layers)


class RadialTree(_LayerChain):
    """One-sided radial tree: root layer 0, horizon H, weights w_0..w_H."""

    __slots__ = ()
    one_sided = True        # the root, layer 0, has no inward edge

    def __init__(self, N: int, weights: Sequence):
        w = tuple(to_mpf(w) for w in weights)
        if not w:
            raise InputError("radial tree needs at least one shell weight")
        super().__init__(N, w, 0, len(w) - 1)

    @property
    def horizon(self) -> int:
        return self._hi


class TwoSidedRadialTree(_LayerChain):
    """Radial tree with a distinguished neighbor of the root growing its own arm.

    The root keeps N-1 outward edges (positive layers) and one edge to the
    special vertex at layer -1, below which the negative arm branches with
    degree N-1.  Layers range over [-M, M]; shell weights w_n exist for
    n in [-M, M-1], where E_n joins layer n to layer n+1.
    """

    __slots__ = ()
    one_sided = False

    def __init__(self, N: int, pos_weights: Sequence, neg_weights: Sequence):
        pos = tuple(to_mpf(w) for w in pos_weights)
        neg = tuple(to_mpf(w) for w in neg_weights)      # w_{-1}, w_{-2}, ...
        if len(pos) != len(neg):
            raise InputError("two-sided tree needs equally long arms")
        if not pos:
            raise InputError("two-sided tree needs at least one shell per arm")
        super().__init__(N, neg[::-1] + pos, -len(pos), len(pos))

    @property
    def arm_horizon(self) -> int:
        return self._hi


def induced_graph_function(u: RadialFunction, layers: Sequence[int]) -> GraphFunction:
    """Spread layerwise values onto a materialized ball."""
    return GraphFunction([u.value(n) for n in layers])


# Radial serialization: "radial N=<N> horizon=<H>" then "n w_n" lines;
# two-sided trees add "two-sided" to the header and arm markers.

def format_radial_text(tree, digits: int | None = None) -> str:
    if not isinstance(tree, _LayerChain):
        raise InputError(f"not a radial tree: {type(tree).__name__}")
    digits = repr_dps(mp.mp.prec) if digits is None else digits
    H = tree.layer_hi

    def shells(layers):
        return [f"{n} {mp.nstr(tree.weight(n), digits, strip_zeros=True)}" for n in layers]

    if tree.one_sided:
        lines = [f"radial N={tree.N} horizon={H}", *shells(range(H + 1))]
    else:
        lines = [f"radial N={tree.N} horizon={H} two-sided", "arm +", *shells(range(H)),
                 "arm -", *shells(range(-1, -H - 1, -1))]
    return "\n".join(lines) + "\n"


# A shell line: an ASCII index and a plain decimal, matched at once.  Any
# other line (an arm marker, another spelling, a malformed line) is split.
_SHELL = re.compile(r"([+-]?[0-9]+)\s+" + NUMBER)


def parse_radial_text(text: str):
    lines = content_lines(text)
    head = next(lines, None)
    if head is None:
        raise InputError("empty radial file")
    header = head.split()
    if header[0] != "radial":
        raise InputError(f"bad radial header: {head!r}")
    fields = {}
    two_sided = False
    for tok in header[1:]:
        k, eq, v = tok.partition("=")
        if tok == "two-sided":
            two_sided = True
        elif not eq:
            raise InputError(f"bad header token {tok!r}")
        elif k not in ("N", "horizon"):
            raise InputError(f"radial header has the unknown field {k}=: {head!r}")
        elif k in fields:
            raise InputError(f"radial header repeats the field {k}=: {head!r}")
        else:
            fields[k] = v
    try:
        N = parse_index(fields["N"])
        horizon = parse_index(fields["horizon"])
    except (KeyError, ValueError):
        raise InputError(f"radial header needs integer N= and horizon=: {head!r}")
    shells = range(-horizon, horizon) if two_sided else range(0, horizon + 1)
    entries: dict[int, mp.mpf] = {}
    prec, rnd = mp.mp._prec_rounding
    for ln in lines:
        m = _SHELL.fullmatch(ln)
        if m is None:
            if ln in ("arm +", "arm -"):
                continue
            parts = ln.split()
            if len(parts) != 2:
                raise InputError(f"bad shell line: {ln!r}")
        try:
            if m:
                n, digits, frac, e = m.groups()
                n, w = int(n), decimal_value(digits, frac, e, prec, rnd)
            else:
                n, w = parse_index(parts[0]), parse_decimal(parts[1])
        except ValueError:
            raise InputError(f"bad shell line (needs an integer index and a number): {ln!r}")
        if n not in shells:
            raise InputError(f"shell index {n} outside the header's range "
                             f"[{shells.start}, {shells.stop - 1}]: {ln!r}")
        if n in entries:
            raise InputError(f"duplicate shell index {n}: {ln!r}")
        entries[n] = w
    if len(entries) < shells.stop - shells.start:   # distinct indices; len() overflows
        order = chain(range(shells.stop), range(-1, shells.start - 1, -1))   # 0, 1, .., -1, ..
        first = next(n for n in order if n not in entries)
        raise InputError(f"missing shell weight for layer {first}")
    if two_sided:
        return TwoSidedRadialTree(N, [entries[n] for n in range(horizon)],
                                  [entries[n] for n in range(-1, -horizon - 1, -1)])
    return RadialTree(N, [entries[n] for n in shells])
