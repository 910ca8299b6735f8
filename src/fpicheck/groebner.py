"""Buchberger engine and ideal arithmetic over F_p[x_1..x_n].

Ideals of a quotient ring R = S/I are always handled through their full
preimages in S (generators plus the defining ideal), so every operation in
this module works in the ambient polynomial ring. `RingSpec` takes any I;
its `require_graded` is the one place that refuses an inhomogeneous I, for
the computations that need a grading.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from operator import add, le, neg, sub

from .errors import NonHomogeneousError, ResourceLimitError
from .gfpoly import (
    GREVLEX,
    Polynomial,
    grevlex_rank,
    mono_degree,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
    parse_polynomial,
    poly_to_string,
    require_prime,
)
from .hilbert import (
    HilbertData,
    Numerator,
    hilbert_from_lead_monomials,
    minimal_monomials,
    monomial_quotient,
    standard_monomials,
)

# S-pairs one Groebner computation may form; `groebner_terms` reads it per call
DEFAULT_MAX_PAIRS = 200_000


class PolyRing:
    """F_p[varnames]; its polynomials compute and print under grevlex."""

    def __init__(self, p: int, varnames):
        self.p = require_prime(p)
        self.varnames = tuple(varnames)
        if len(set(self.varnames)) != len(self.varnames):
            raise ValueError("duplicate variable names")
        for name in self.varnames:
            if not name.isidentifier():
                raise ValueError(f"bad variable name {name!r}")
        self.n = len(self.varnames)

    def parse(self, text: str, **kw) -> Polynomial:
        return parse_polynomial(text, list(self.varnames), self.p, **kw)

    def show(self, f: Polynomial) -> str:
        return poly_to_string(f, list(self.varnames))

    def zero(self) -> Polynomial:
        return Polynomial.zero(self.p, self.n)

    def one(self) -> Polynomial:
        return Polynomial.constant(self.p, self.n, 1)

    def gen(self, i: int) -> Polynomial:
        return Polynomial.variable(self.p, self.n, i)

    def gens(self):
        return [self.gen(i) for i in range(self.n)]

    def extended(self, extra_names) -> "PolyRing":
        """New ring with extra variables prepended (the auxiliary variable of
        `in_radical`)."""
        return PolyRing(self.p, tuple(extra_names) + self.varnames)

    def __eq__(self, other):
        return (
            isinstance(other, PolyRing)
            and other.p == self.p
            and other.varnames == self.varnames
        )

    def __hash__(self):
        return hash((self.p, self.varnames))

    def __repr__(self):
        return f"PolyRing(F_{self.p}[{', '.join(self.varnames)}])"


# ---------------------------------------------------------------------------
# the Groebner kernel
#
# One engine serves ideals and submodules of free modules S^r. Its elements
# are term dicts {(component, monomial): coeff}; an ideal is the rank-one
# case, every term in component 0. Terms compare position over term: a lower
# component dominates, ties go to grevlex. The kernel ranks terms in
# reverse (`grevlex_rank`), so the lead term is the one of least rank and a
# min-heap hands out terms largest first.

def _term_rank(t):
    return (t[0], grevlex_rank(t[1]))


def lead_term(terms: dict):
    """The (component, monomial) lead of a nonzero term dict."""
    return min(terms, key=_term_rank)


def _monic(terms: dict, lead, p: int) -> dict:
    c = terms[lead]
    if c == 1:
        return terms
    inv = pow(c, p - 2, p)
    return {t: v * inv % p for t, v in terms.items()}


def _reducers(elems, leads, p: int) -> dict:
    """Component -> [(lead monomial, inverse lead coefficient, tail terms)],
    in basis order: the first entry whose lead divides a term reduces it."""
    out: dict = {}
    for g, lead in zip(elems, leads):
        tail = [(t, c) for t, c in g.items() if t != lead]
        out.setdefault(lead[0], []).append((lead[1], pow(g[lead], p - 2, p), tail))
    return out


def _normal_form(work: dict, reducers: dict, p: int) -> dict:
    """Full normal form of `work` (consumed) modulo `reducers`.

    The monomial helpers of `gfpoly` are inlined here, the innermost loop.
    """
    rank = grevlex_rank
    heap = [(c, rank(m), m) for c, m in work]
    heapify(heap)
    out: dict = {}
    while heap:
        comp, _, mono = heappop(heap)
        t = (comp, mono)
        coef = work.pop(t, 0)
        if not coef:
            continue  # cancelled, or a second heap entry of a finished term
        for lm, inv, tail in reducers.get(comp, ()):
            if all(map(le, lm, mono)):
                break
        else:
            out[t] = coef
            continue
        factor = coef * inv % p
        shift = tuple(map(sub, mono, lm))
        for (c2, m2), cc in tail:
            m3 = tuple(map(add, m2, shift))
            t3 = (c2, m3)
            old = work.get(t3)
            if old is None:
                work[t3] = -factor * cc % p
                heappush(heap, (c2, rank(m3), m3))
            else:
                v = (old - factor * cc) % p
                if v:
                    work[t3] = v
                else:
                    del work[t3]
    return out


class NormalForm:
    """Normal forms modulo one fixed list of nonzero term dicts.

    The reducer table is built once, so a caller that reduces many term dicts
    against the same basis (an ideal's cached Groebner basis, the module basis
    of a presentation) keeps one of these instead of rebuilding it per call.
    """

    __slots__ = ("p", "table")

    def __init__(self, basis, p: int):
        self.p = p
        self.table = _reducers(basis, [lead_term(g) for g in basis], p)

    def __call__(self, terms: dict) -> dict:
        """Full normal form of `terms`; the dict is consumed."""
        return _normal_form(terms, self.table, self.p)


def normal_form_terms(terms: dict, basis, p: int) -> dict:
    """Full normal form of a term dict modulo the nonzero term dicts `basis`."""
    if not terms or not basis:
        return terms
    return NormalForm(basis, p)(dict(terms))


def groebner_terms(elems, p: int, stage: str, syzygy_cutoff=None):
    """Reduced Groebner basis of the submodule spanned by the term dicts `elems`.

    Two elements led in one component form a pair; pairs are treated by
    increasing lcm degree, then increasing lcm term. When h joins component
    c, the Gebauer-Moeller update (Gebauer and Moeller 1988, J. Symbolic
    Comput. 6) prunes the pairs of c, L(a, b) being the lcm of two leads:
    - B_k drops a queued pair (a, b) when lead(h) divides L(a, b) and
      neither L(a, h) nor L(b, h) equals it;
    - M and F visit the new pairs (g, h) by increasing lcm degree and drop
      one when the lcm of a pair kept before it divides its own;
    - a known-zero new pair is kept through M and F, to prune others, and
      never queued: two single terms, whose S-vector is zero (monomial
      ideals, the I*e_j columns of a monomial R), or two elements living in
      c alone with coprime leads. That needs one component: (x, 1) and
      (y, 1) in S^2 have coprime leads, yet (0, x - y) is in their span.
    Proof sketch: when lead(h) divides L = L(a, b), the lead syzygy s_ab is
    (L / L(a, h)) s_ah - (L / L(b, h)) s_bh, and a pair dropped by M or F
    factors in the same way through the other element of the pair kept
    before it. By induction on L (hence B_k's proper divisors, and F's one
    pair per lcm) every dropped syzygy is generated by those of treated and
    known-zero pairs, whose S-vectors reduce to zero. So the elements form a
    Groebner basis, and `_inter_reduce` returns the unique reduced one.

    With `syzygy_cutoff` set, pairs of two elements led at or beyond that
    component are never formed. Elements there are pure combinations of tag
    components; their mutual pairs only rewrite syzygies already generated
    (Schreyer), so the output still generates the same submodule and is a
    full Groebner basis below the cutoff. Past the cutoff it is no Groebner
    basis, so no element there is dropped for a lead that another one
    divides: it need not lie in the span of the rest. Which elements appear
    there depends on the pairs treated.

    `DEFAULT_MAX_PAIRS`, read at call time, bounds the S-vectors formed,
    dropped pairs being free; past it, ResourceLimitError names `stage`.

    All-term input (monomial ideals, the I*e_j columns of a monomial R)
    returns before any set-up: the S-vector of two monic single terms is
    zero, so they already form a Groebner basis, whose reduced form is the
    minimal terms (`_minimal_terms`).
    """
    elems = [g for g in elems if g]
    if all(len(g) == 1 for g in elems):
        return _minimal_terms(elems, syzygy_cutoff)
    led = [(g, lead_term(g)) for g in elems]
    led.sort(key=lambda e: _term_rank(e[1]), reverse=True)
    basis = [_monic(g, lead, p) for g, lead in led]
    leads = [lead for _, lead in led]
    single = [len({c for c, _ in g}) == 1 for g in basis]
    reducers = _reducers(basis, leads, p)
    members: dict = {}  # component -> indices of the elements led there
    queued: dict = {}  # component -> {queued pair (i, j): lcm of its leads}
    pairq: list = []  # heap of queued pairs; an entry no longer queued is stale

    def add(j):
        # the monomial helpers of `gfpoly` are inlined: this runs per element
        comp, mj = leads[j]
        earlier = members.setdefault(comp, [])
        if earlier and (syzygy_cutoff is None or comp < syzygy_cutoff):
            pairs = queued.setdefault(comp, {})
            for ab in [  # B_k
                (a, b) for (a, b), l in pairs.items()
                if all(map(le, mj, l))
                and tuple(map(max, leads[a][1], mj)) != l
                and tuple(map(max, leads[b][1], mj)) != l
            ]:
                del pairs[ab]
            lcms = [tuple(map(max, leads[i][1], mj)) for i in earlier]
            kept = []
            for d, i, l in sorted(zip(map(sum, lcms), earlier, lcms)):  # M and F
                if any(all(map(le, k, l)) for k in kept):
                    continue
                kept.append(l)
                if len(basis[i]) == len(basis[j]) == 1 or (
                    single[i] and single[j] and mono_mul(leads[i][1], mj) == l
                ):
                    continue  # known zero
                pairs[i, j] = l
                # ascending lcm degree, then lcm term (its negated rank)
                heappush(pairq, (d, -comp, tuple(map(neg, grevlex_rank(l))), i, j))
        earlier.append(j)

    for j in range(len(basis)):
        add(j)

    formed = 0
    while pairq:
        *_, i, j = heappop(pairq)
        l = queued[leads[i][0]].pop((i, j), None)
        if l is None:
            continue  # dropped by B_k after it was queued
        formed += 1
        if formed > DEFAULT_MAX_PAIRS:
            raise ResourceLimitError(f"{stage}: S-pair budget of {DEFAULT_MAX_PAIRS} exhausted")
        # S-vector of monic elements: the two leads cancel
        work: dict = {}
        for g, lead, sign in ((basis[i], leads[i], 1), (basis[j], leads[j], -1)):
            shift = mono_div(l, lead[1])
            for (c, m), v in g.items():
                if (c, m) != lead:
                    t = (c, mono_mul(m, shift))
                    w = (work.get(t, 0) + sign * v) % p
                    if w:
                        work[t] = w
                    else:
                        work.pop(t, None)
        s = _normal_form(work, reducers, p)
        if not s:
            continue
        lead = lead_term(s)
        s = _monic(s, lead, p)
        basis.append(s)
        leads.append(lead)
        single.append(len({c for c, _ in s}) == 1)
        tail = [(t, c) for t, c in s.items() if t != lead]
        reducers.setdefault(lead[0], []).append((lead[1], 1, tail))
        add(len(basis) - 1)
    return _inter_reduce(leads, members, reducers, p, syzygy_cutoff)


def _minimal_terms(elems, syzygy_cutoff):
    """Monic {term: 1} for the minimal terms of each component, sorted as
    `_inter_reduce` sorts; past the cutoff every term stays, repeats too."""
    monos: dict = {}  # component -> monomials there
    for g in elems:
        (c, m), = g
        monos.setdefault(c, []).append(m)
    terms = [
        (c, m) for c, ms in monos.items()
        for m in (ms if syzygy_cutoff is not None and c >= syzygy_cutoff else minimal_monomials(ms))
    ]
    return [{t: 1} for t in sorted(terms, key=_term_rank, reverse=True)]


def _inter_reduce(leads, members, reducers, p: int, syzygy_cutoff):
    """Minimalize then inter-reduce; output is the unique reduced basis, sorted.
    Elements led at or past `syzygy_cutoff` (None: no cutoff) are all kept.

    Below the cutoff an element is dropped when another lead divides its
    lead, equal leads keeping the lowest index; visiting a component's leads
    by (degree, index), each is tested against the kept ones alone. Only
    tails are reduced, so a kept element keeps its lead. Each element's tail
    is reduced modulo the earlier elements already reduced and the later
    ones not yet reduced: the reducer lists, taken from the kernel's
    `reducers` (entry k of component c is element members[c][k]), hold all
    of them in basis order, and each entry is replaced by its reduced form
    once that is known.
    """
    table: dict = {}  # component -> reducer entries of the kept elements
    keep = set()
    for c, idx in members.items():
        past = syzygy_cutoff is not None and c >= syzygy_cutoff
        kept = []
        for _, i in sorted((mono_degree(leads[i][1]), i) for i in idx):
            mi = leads[i][1]
            if past or not any(mono_divides(m, mi) for m in kept):
                kept.append(mi)
                keep.add(i)
        table[c] = [entry for i, entry in zip(idx, reducers[c]) if i in keep]
    seen: dict = {}  # component -> position of the last entry visited there
    out = []
    for i in sorted(keep):
        c, m = lead = leads[i]
        k = seen[c] = seen.get(c, -1) + 1
        tail = dict(table[c][k][2])
        if tail:
            tail = _normal_form(tail, table, p)
            table[c][k] = (m, 1, list(tail.items()))
        out.append(({lead: 1, **tail}, lead))
    out.sort(key=lambda e: _term_rank(e[1]), reverse=True)
    return [g for g, _ in out]


# ---------------------------------------------------------------------------
# ideals through the kernel: polynomials are component-0 term dicts

def _terms_of(f: Polynomial) -> dict:
    return {(0, m): c for m, c in f.terms.items()}


def _poly_of(terms: dict, p: int, nvars: int) -> Polynomial:
    return Polynomial._raw(p, nvars, {m: c for (_, m), c in terms.items()})


def reduce_poly(f: Polynomial, basis) -> Polynomial:
    """Full normal form of f modulo the list `basis` (every term reduced)."""
    if f.is_zero() or not basis:
        return f
    elems = [_terms_of(g) for g in basis if not g.is_zero()]
    return _poly_of(normal_form_terms(_terms_of(f), elems, f.p), f.p, f.nvars)


def divide_exact(f: Polynomial, g: Polynomial) -> Polynomial:
    """Quotient f/g for exact division; raises when g does not divide f.
    The remainder's leads come off a min-heap by rank, as in `_normal_form`."""
    p = f.p
    rank = grevlex_rank
    lm, lc = g.lead()
    lc_inv = pow(lc, p - 2, p)
    tail = [(m, c) for m, c in g.terms.items() if m != lm]
    work = dict(f.terms)
    heap = [(rank(m), m) for m in work]
    heapify(heap)
    quot: dict = {}
    while heap:
        _, m = heappop(heap)
        c = work.pop(m)
        if not c:
            continue  # cancelled
        if not mono_divides(lm, m):
            raise ValueError("division is not exact")
        shift = mono_div(m, lm)
        factor = quot[shift] = c * lc_inv % p
        for mm, cc in tail:
            # below the lead, so never a monomial popped already
            m3 = mono_mul(mm, shift)
            if m3 not in work:
                heappush(heap, (rank(m3), m3))
            work[m3] = (work.get(m3, 0) - factor * cc) % p
    return Polynomial(p, f.nvars, quot)


def buchberger(gens):
    """Reduced Groebner basis of the ideal generated by `gens`, sorted by lead."""
    elems = [_terms_of(g) for g in gens if not g.is_zero()]
    if not elems:
        return []
    p, nvars = gens[0].p, gens[0].nvars
    gb = groebner_terms(elems, p, "ideal Buchberger")
    return [_poly_of(g, p, nvars) for g in gb]


# ---------------------------------------------------------------------------
# ideals

# The one key of `Ideal._gb`. The benchmark tracer (`perfbench/tracer.py`)
# tests it against `_gb` to tell a cached basis from a fresh one.
_GB_KEY = (GREVLEX.kind, GREVLEX.block)


class Ideal:
    """An ideal of a PolyRing, with its reduced grevlex Groebner basis and the
    reducer table of that basis, each computed once and cached."""

    def __init__(self, ring: PolyRing, generators):
        self.ring = ring
        gens = []
        for g in generators:
            if isinstance(g, str):
                g = ring.parse(g)
            if g.p != ring.p or g.nvars != ring.n:
                raise ValueError("generator has the wrong ambient ring")
            if not g.is_zero():
                gens.append(g)
        self.generators = tuple(gens)
        self._gb: dict = {}  # {_GB_KEY: basis}, once computed
        self._nf = None  # NormalForm of the basis, once needed

    def groebner_basis(self):
        got = self._gb.get(_GB_KEY)
        if got is None:
            got = tuple(buchberger(list(self.generators)))
            self._gb[_GB_KEY] = got  # idempotent; concurrent recomputation is identical
        return got

    def normal_form(self, f: Polynomial) -> Polynomial:
        """Full normal form of f against the cached reducer table."""
        nf = self._nf
        if nf is None:
            elems = [_terms_of(g) for g in self.groebner_basis()]
            nf = self._nf = NormalForm(elems, self.ring.p)
        if f.is_zero() or not nf.table:
            return f
        return _poly_of(nf(_terms_of(f)), f.p, f.nvars)

    def contains(self, f: Polynomial) -> bool:
        return self.normal_form(f).is_zero()

    def is_zero(self) -> bool:
        return not self.groebner_basis()

    def is_unit(self) -> bool:
        gb = self.groebner_basis()
        return len(gb) == 1 and gb[0].is_constant()

    def lead_monomials(self):
        return tuple(g.lead()[0] for g in self.groebner_basis())

    def hilbert_numerator(self) -> Numerator:
        """N(t) with HS(S/self) = N(t) / (1 - t)^n, from the grevlex lead terms."""
        return monomial_quotient(self.lead_monomials(), self.ring.n)

    def __eq__(self, other):
        if not isinstance(other, Ideal) or other.ring != self.ring:
            return NotImplemented
        return self.groebner_basis() == other.groebner_basis()

    def __hash__(self):
        return hash((self.ring, self.groebner_basis()))

    def is_monomial(self) -> bool:
        return all(g.is_monomial() for g in self.groebner_basis())

    def is_homogeneous_ideal(self) -> bool:
        return all(g.is_homogeneous() for g in self.generators)

    def __repr__(self):
        return "Ideal(" + ", ".join(self.ring.show(g) for g in self.generators) + ")"


def ideal_sum(a: Ideal, b: Ideal) -> Ideal:
    return Ideal(a.ring, list(a.generators) + list(b.generators))

def ideal_product(a: Ideal, b: Ideal) -> Ideal:
    gens = [f * g for f in a.generators for g in b.generators]
    return Ideal(a.ring, gens)

def bracket_power(a: Ideal, e: int) -> Ideal:
    """The ideal generated by q-th powers of the generators, q = p^e."""
    if e < 0:
        raise ValueError("negative bracket power")
    if e == 0:
        return a
    return Ideal(a.ring, [g.frobenius_power(e) for g in a.generators])


def _monomial_gens(a: Ideal):
    """Exponent vectors of the generators of `a` when each is a monomial, else None."""
    if all(g.is_monomial() for g in a.generators):
        return [next(iter(g.terms)) for g in a.generators]
    return None


def _monomial_ideal(ring: PolyRing, monos) -> Ideal:
    return Ideal(ring, [Polynomial.from_monomial(ring.p, m) for m in minimal_monomials(monos)])


def _lcm_intersect(us, vs):
    return [mono_lcm(u, v) for u in us for v in vs]


def ideal_intersect(a: Ideal, b: Ideal) -> Ideal:
    """a ∩ b; in closed form when every generator of a and b is a monomial.

    Monomial case: a monomial ideal is spanned over F_p by the monomials it
    contains, and a monomial w lies in (u_1, ..., u_r) exactly when some u_i
    divides w. So w lies in both ideals exactly when it is divisible by some
    u from a and some v from b, that is by lcm(u, v); the lcms generate
    a ∩ b, which is again monomial, hence spanned by its monomials.
    Otherwise: {h : h*1 ∈ a, h*1 ∈ b} from `_module_colon`.
    """
    us, vs = _monomial_gens(a), _monomial_gens(b)
    if us is None or vs is None:
        one = a.ring.one()
        return _module_colon(a.ring, (one, one), (a, b))
    return _monomial_ideal(a.ring, _lcm_intersect(us, vs))


def ideal_colon(a: Ideal, b: Ideal) -> Ideal:
    """(a : b) = {f : f*b ⊆ a}; in closed form when every generator of a and
    b is a monomial.

    Monomial case: (a : b) is the intersection of the (a : m) over the
    generators m of b, and for a = (u_1, ..., u_r) the colon (a : m) is
    generated by the u_i / gcd(u_i, m). A monomial w has w*m in a exactly
    when some u_i divides w*m, that is when u_i / gcd(u_i, m) divides w; and
    (a : m) is monomial, because a is spanned by its monomials and
    multiplication by m maps distinct monomials to distinct monomials. The
    intersections are lcm sets as in `ideal_intersect`.
    Otherwise: {h : h*g ∈ a for every generator g of b} from `_module_colon`.
    """
    if not b.generators:
        return Ideal(a.ring, [a.ring.one()])
    us, ms = _monomial_gens(a), _monomial_gens(b)
    if us is None or ms is None:
        return _module_colon(a.ring, b.generators, [a] * len(b.generators))
    out = None
    for m in ms:
        # u / gcd(u, m), exponent by exponent
        part = minimal_monomials(
            [tuple(e - f if e > f else 0 for e, f in zip(u, m)) for u in us]
        )
        out = part if out is None else minimal_monomials(_lcm_intersect(out, part))
    return _monomial_ideal(a.ring, out)


def _module_colon(ring: PolyRing, entries, ideals) -> Ideal:
    """{h : h*e_j ∈ A_j for every j}, for polynomials e_1, ..., e_k
    (`entries`) and ideals A_1, ..., A_k of `ring` (`ideals`), read off one
    reduced Groebner basis of a submodule of S^(k+1).

    Number the components 0, ..., k and let M be generated by the tagged
    vector v = e_1*ε_0 + ... + e_k*ε_(k-1) + ε_k and by g*ε_(j-1) for every
    generator g of A_j. Then h*ε_k lies in M exactly when
    h*ε_k = c*v + Σ_j a_j*ε_(j-1) with every a_j ∈ A_j: component k forces
    c = h, and component j-1 then reads h*e_j + a_j = 0, that is
    h*e_j ∈ A_j. So the colon is M ∩ S*ε_k. Under position over term a
    lower component dominates, so a basis element led in component k has no
    term in another component, and those elements form a Groebner basis of
    M ∩ S*ε_k (the elimination property of position-over-term orders,
    Eisenbud, Commutative Algebra, §15.10). Being reduced, they are the
    reduced grevlex basis of the colon, in `buchberger`'s order, so they
    seed the result's grevlex cache.
    """
    p, nvars, k = ring.p, ring.n, len(entries)
    tagged = {(k, (0,) * nvars): 1}
    for j, e in enumerate(entries):
        tagged.update(((j, m), c) for m, c in e.terms.items())
    elems = [tagged] + [
        {(j, m): c for m, c in g.terms.items()}
        for j, a in enumerate(ideals)
        for g in a.generators
    ]
    gb = groebner_terms(elems, p, "colon Buchberger")
    colon = Ideal(ring, [_poly_of(g, p, nvars) for g in gb if lead_term(g)[0] == k])
    colon._gb[_GB_KEY] = colon.generators
    return colon


def ideal_saturation(a: Ideal, b: Ideal, max_steps: int = 64) -> Ideal:
    """(a : b^∞) by iterating colons until stable (capped)."""
    cur = a
    for _ in range(max_steps):
        nxt = ideal_colon(cur, b)
        if nxt == cur:
            return cur
        cur = nxt
    raise ResourceLimitError("saturation did not stabilize within the step budget")


def in_radical(f: Polynomial, a: Ideal) -> bool:
    """f ∈ √a by the auxiliary-variable trick: 1 ∈ a + (1 - t*f)."""
    ring = a.ring
    big = ring.extended(("_t",))
    t = big.gen(0)
    gens = [g.extend(big.n, 1) for g in a.generators]
    gens.append(big.one() - t * f.extend(big.n, 1))
    gb = buchberger(gens)
    return len(gb) == 1 and gb[0].is_constant()


def minimal_primes_monomial(a: Ideal):
    """Minimal primes of a monomial ideal, as sorted tuples of variable indices.

    These are the minimal hitting sets of the generator supports. The zero
    ideal has the single minimal prime () (the zero ideal itself).
    """
    if not a.is_monomial():
        raise ValueError("minimal_primes_monomial needs a monomial ideal")
    supports = [frozenset(i for i, e in enumerate(m) if e) for m in a.lead_monomials()]
    if any(not s for s in supports):
        return []  # unit ideal
    n = a.ring.n
    hitting = []
    for mask in range(1 << n):
        cand = frozenset(i for i in range(n) if mask >> i & 1)
        if all(s & cand for s in supports):
            hitting.append(cand)
    minimal = [
        h for h in hitting if not any(o < h for o in hitting)
    ]
    return sorted(tuple(sorted(h)) for h in minimal)


# ---------------------------------------------------------------------------
# quotient rings

class RingSpec:
    """A quotient R = F_p[vars]/I with cached invariants.

    Any ideal is accepted; the graded computations (resolutions, the
    non-zero-divisor test, every check but F-purity) refuse an inhomogeneous
    one through `require_graded`. For a homogeneous I the irrelevant maximal
    ideal (all variables) plays the role of the maximal ideal of a complete
    local ring; reports note this working convention.
    R keeps what is computed about it: Hilbert data, standard monomials and
    quotients R/(f), filled here; R as a finite-length module, filled by
    `artinian.realize_ring`; its resolution, by `minimal_free_resolution`.
    """

    def __init__(self, p: int, varnames, ideal_gens, label: str = ""):
        self.ring = PolyRing(p, varnames)
        self.p = p
        self.label = label
        # Ideal parses string generators and drops zero ones
        self.ideal = Ideal(self.ring, ideal_gens)
        self._hilbert = self._realized = self._resolution = None
        self._std_cache: dict = {}
        self._quotients: dict = {}  # extra generators -> RingSpec, from quotient_by

    @property
    def n(self) -> int:
        return self.ring.n

    def require_graded(self, stage: str) -> None:
        """The one refusal of inhomogeneous input: NonHomogeneousError naming
        `stage` and the first generator of I that is not homogeneous."""
        bad = next((g for g in self.ideal.generators if not g.is_homogeneous()), None)
        if bad is not None:
            raise NonHomogeneousError(
                f"{stage} needs a homogeneous ideal; its generator "
                f"{self.ring.show(bad)} is not homogeneous"
            )

    def nf(self, f: Polynomial) -> Polynomial:
        return self.ideal.normal_form(f)

    def nf_power(self, g: Polynomial, e: int) -> Polynomial:
        """nf(g^e), by square-and-multiply with a reduction after every
        product: nf(ab) = nf(nf(a)·nf(b)), since a - nf(a) and b - nf(b) lie
        in I. It takes O(log e) products of normal forms and never forms
        g^e itself, whose division would take a step per term: at
        p = 2^31 - 1, g^p is 31 squarings."""
        if e < 0:
            raise ValueError("negative power")
        base = self.nf(g)
        out = self.nf(Polynomial.constant(self.p, self.n, 1))
        for bit in bin(e)[2:]:
            out = self.nf(out * out)
            if bit == "1":
                out = self.nf(out * base)
        return out

    def hilbert(self) -> HilbertData:
        if self._hilbert is None:
            self._hilbert = hilbert_from_lead_monomials(self.ideal.lead_monomials(), self.n)
        return self._hilbert

    @property
    def dimension(self) -> int:
        return self.hilbert().dimension

    def maximal_ideal(self) -> Ideal:
        return Ideal(self.ring, self.ring.gens())

    def is_monomial(self) -> bool:
        return self.ideal.is_monomial()

    def quotient_by(self, extra_gens) -> "RingSpec":
        """R/(extra) over the same ambient ring, built once per tuple of extra
        generators and kept on R, so its caches serve every caller."""
        key = tuple(extra_gens)
        got = self._quotients.get(key)
        if got is None:
            got = self._quotients[key] = RingSpec(
                self.p, self.ring.varnames, list(self.ideal.generators) + list(key)
            )
        return got

    def standard_monomials_of_degree(self, d: int):
        """k-basis monomials of R_d (complement of the lead-term ideal)."""
        got = self._std_cache.get(d)
        if got is None:
            got = self._std_cache[d] = standard_monomials(self.ideal.lead_monomials(), self.n, d)
        return got

    def hf(self, d: int) -> int:
        """Hilbert function value dim_k R_d."""
        if d < 0:
            return 0
        return len(self.standard_monomials_of_degree(d))

    def preimage_ideal(self, gens) -> Ideal:
        """Preimage in S of the R-ideal generated by `gens`."""
        return Ideal(self.ring, list(gens) + list(self.ideal.generators))

    def ideal_eq_in_r(self, gens_a, gens_b) -> bool:
        return self.preimage_ideal(gens_a) == self.preimage_ideal(gens_b)

    def is_nzd(self, f: Polynomial) -> bool:
        """Is the homogeneous f a non-zero-divisor on R?

        R must be graded (`require_graded`), and an inhomogeneous f raises
        ValueError. f vanishing in R is a zero-divisor. Otherwise, f being of
        degree d, the test reads Hilbert series: the exact
        sequence of graded modules 0 -> (0:f)(-d) -> R(-d) -> R -> R/fR -> 0
        gives HS(R/fR) = (1 - t^d) HS(R) + t^d HS(0:f), and the graded module
        (0:f) is zero exactly when its Hilbert series is. Over (1 - t)^n that
        is N(I + (f)) == (1 - t^d) N(I) for the raw numerators, which takes
        one grevlex basis of I + (f).
        """
        self.require_graded("the non-zero-divisor test")
        if not f.is_homogeneous():
            raise ValueError(f"is_nzd needs a homogeneous element, got {self.ring.show(f)}")
        g = self.nf(f)
        if g.is_zero():
            return False
        # nf(f) is homogeneous of degree d and generates the same I + (f)
        plus = Ideal(self.ring, list(self.ideal.groebner_basis()) + [g])
        num = self.ideal.hilbert_numerator()
        return plus.hilbert_numerator() == num - num.shift(f.degree())

    def __repr__(self):
        gens = ", ".join(self.ring.show(g) for g in self.ideal.generators) or "0"
        return f"RingSpec(F_{self.p}[{','.join(self.ring.varnames)}]/({gens}))"
