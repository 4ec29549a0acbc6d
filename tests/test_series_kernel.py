"""`series.sum_of_products`, the one product entry of windowed series
(`Series.__mul__` is its one-term case), and the two kernels it picks
between over a tabled field, the log-domain loop `FF.sum_of_products`
and the packed `FF.packed_sum`, against products and sums computed
coefficient by coefficient through Felt arithmetic.

`felt_product` below is the reference for one product, the Felt loop
that rings without log tables take; `felt_sum` is the reference for a
signed sum of products, one Felt product and one Felt sum or difference
at a time. Every product and every sum must give the same coefficients
and the same window.

Over a local K the coefficients are themselves series, and a sum groups
its coefficient products by output exponent, one `sum_of_products` per
group; `dense_oracle.chained_sum`, which adds one product at a time, is
the reference there, local coefficients' windows included.
"""

import math
import random

import pytest

from taumod.basefield import FF, TABLE_LIMIT, Felt, FieldDescriptor
from taumod.localfield import LocalElem
from taumod.errors import InvariantError
from taumod.series import PACK_DEGREE, PACK_PAIRS, sum_of_products
from taumod.skew import SkewLaurent, SkewPoly
from taumod.zseries import ZSeries

from dense_oracle import chained_sum, random_coeff, tabled

INF = math.inf

# finite bases by label; the p-power Frobenius twists by a steps per exponent
FIELDS = {
    "F2": FieldDescriptor(p=2, a=1, m=1, kind="finite"),
    "F4": FieldDescriptor(p=2, a=2, m=1, kind="finite"),
    "F9": FieldDescriptor(p=3, a=1, m=2, kind="finite"),
    "F64": FieldDescriptor(p=2, a=2, m=3, kind="finite"),
    "F2^16": FieldDescriptor(p=2, a=1, m=16, kind="finite"),
    "F65521": FieldDescriptor(p=65521, a=1, m=1, kind="finite"),
}
UNTABLED = FieldDescriptor(p=3, a=1, m=11, kind="finite")

# (series kind, windowed?): ZSeries is untwisted, SkewPoly twists by +1
# and is built exact, SkewLaurent twists by -1
KINDS = [(ZSeries, True), (ZSeries, False), (SkewPoly, False),
         (SkewLaurent, True), (SkewLaurent, False)]


def felt_product(a, b):
    """a * b for operands over one field, one Felt product and one Felt
    sum per pair of terms."""
    assert a.K is b.K
    va = min(a.co) if a.co else a.hi
    vb = min(b.co) if b.co else b.hi
    hi = min(a.hi + vb, b.hi + va)
    R = a._ring(a.K)
    co = {}
    for e1, c1 in a.co.items():
        for e2, c2 in b.co.items():
            e = e1 + e2
            if e < hi:
                pr = c1 * (R.sigma(c2, a._TWIST * e1) if a._TWIST else c2)
                co[e] = co[e] + pr if e in co else pr
    return type(a)(a.K, co, hi)


def random_series(cls, K, rng, terms, windowed, lo=-4):
    R = cls._ring(K)
    exps = rng.sample(range(lo, lo + 2 * terms + 4), terms)
    co = {e: R.random(rng) for e in exps}
    hi = lo + 2 * terms + rng.randrange(-6, 5) if windowed else INF
    return cls(K, co, hi)


def assert_same(got, want):
    assert type(got) is type(want)
    assert got.hi == want.hi
    assert got.co == want.co
    ff = want._ring(want.K).ff
    assert all(c.ff is ff for c in got.co.values())


def _ids(kinds):
    return [f"{cls.__name__}-{'window' if w else 'exact'}" for cls, w in kinds]


@pytest.mark.parametrize("label", sorted(FIELDS))
@pytest.mark.parametrize("cls, windowed", KINDS, ids=_ids(KINDS))
def test_random_products_match_felt_loop(label, cls, windowed):
    K = tabled(FIELDS[label].field())
    assert K.ff.size <= TABLE_LIMIT
    rng = random.Random(f"series-kernel:{label}:{cls.__name__}:{windowed}")
    # one-term factors too, where each exponent's sum has one term
    terms = [(1, 1), (1, 13)] + [(rng.randrange(1, 14), rng.randrange(1, 14))
                                 for _ in range(6)]
    for ta, tb in terms:
        a = random_series(cls, K, rng, ta, windowed)
        b = random_series(cls, K, rng, tb, windowed)
        for x, y in ((a, b), (b, a)):
            want = felt_product(x, y)
            assert_same(x * y, want)
            # the kernel itself keeps only the exponents below the window
            assert log_loop([(x, y, False)]) == want.co


def test_one_slot_table_per_field_widened_on_demand():
    # a field of its own, so its table starts empty
    ff = tabled(FF(3, 2))
    rng = random.Random("series-kernel-widen")

    def rand(m):
        return {e: Felt(ff, rng.choice(ff._exp)) for e in range(m)}

    widths = []
    for m in (2, 4, 13, 40, 3):
        a, b = rand(m), rand(m)
        want = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = e1 + e2
                want[e] = want[e] + c1 * c2 if e in want else c1 * c2
        want = {e: c for e, c in want.items() if c != 0}
        before = ff._slots
        assert ff.sum_of_products([(ff.logs(a), ff.logs(b), False)], INF, 0) == want
        # a narrower product keeps the wider table it finds
        assert (ff._slots is before) == (m == 3)
        widths.append(ff._slots.b)
        # one entry per element, keyed by its log
        assert all(0 <= l < ff.size - 1 for l in ff._slots)
    # b is the bit length of m (p - 1)
    assert widths == [3, 4, 5, 7, 7]


@pytest.mark.parametrize("label", ["F4", "F9", "F2^16"])
def test_dense_products_need_the_widest_slots(label):
    # 40 x 40 dense terms: up to 40 products land on one exponent
    K = FIELDS[label].field()
    rng = random.Random(f"series-kernel-dense:{label}")
    for cls in (ZSeries, SkewPoly, SkewLaurent):
        R = cls._ring(K)
        a = cls(K, {e: R.random(rng) for e in range(40)})
        b = cls(K, {e: R.random(rng) for e in range(-3, 37)})
        assert_same(a * b, felt_product(a, b))


@pytest.mark.parametrize("label", sorted(FIELDS))
def test_slot_sums_up_to_the_bound(label):
    # a = sum top x^i and b = sum x^j over m terms each, top the element
    # with every coordinate p - 1: the slots of exponent e < m sum to
    # (e + 1)(p - 1), up to the bound m (p - 1) the slot width is sized for
    K = tabled(FIELDS[label].field())
    top = K.el([K.ff.p - 1] * K.ff.n)
    for m in range(2, 41):
        a = ZSeries(K, {e: top for e in range(m)})
        b = ZSeries(K, {e: K.one() for e in range(m)})
        want = felt_product(a, b)
        assert log_loop([(a, b, False)]) == want.co
        assert_same(a * b, want)
        assert want.coeff(m - 1) == K.el([m * (K.ff.p - 1)] * K.ff.n)


@pytest.mark.parametrize("cls, windowed", KINDS, ids=_ids(KINDS))
def test_zero_to_window_operands(cls, windowed):
    K = FIELDS["F9"].field()
    rng = random.Random(f"series-kernel-zero:{cls.__name__}:{windowed}")
    a = random_series(cls, K, rng, 8, windowed)
    for z in (cls(K, {}, 3), cls(K, {}, -2), cls.zero(K)):
        assert_same(a * z, felt_product(a, z))
        assert_same(z * a, felt_product(z, a))


def no_kernels(monkeypatch):
    """Make a call of either kernel of a tabled field fail."""
    monkeypatch.setattr(FF, "sum_of_products", None)
    monkeypatch.setattr(FF, "packed_sum", None)


def test_untabled_field_takes_the_felt_loop(monkeypatch):
    K = UNTABLED.field()
    assert K.ff.size > TABLE_LIMIT
    rng = random.Random("series-kernel-untabled")
    no_kernels(monkeypatch)
    for cls, windowed in KINDS:
        a = random_series(cls, K, rng, 5, windowed)
        b = random_series(cls, K, rng, 4, windowed)
        assert K.ff.logs(a.co) is None
        assert_same(a * b, felt_product(a, b))


def test_local_elem_products():
    # LocalElem multiplies over its residue field, which has tables
    K = FieldDescriptor(p=3, a=1, m=2, kind="local").field()
    rng = random.Random("series-kernel-local")
    for windowed in (True, False):
        for _ in range(6):
            a = random_series(LocalElem, K, rng, rng.randrange(1, 10), windowed)
            b = random_series(LocalElem, K, rng, rng.randrange(1, 10), windowed)
            assert_same(a * b, felt_product(a, b))


def test_operand_from_a_subfield_is_lifted_first():
    # only an explicit lift moves an operand into the larger field
    small = FIELDS["F4"].field()
    big = small.extend(2)
    rng = random.Random("series-kernel-subfield")
    for cls, windowed in KINDS:
        a = random_series(cls, small, rng, 6, windowed)
        b = random_series(cls, big, rng, 7, windowed)
        for x, y in ((a, b), (b, a)):
            with pytest.raises(InvariantError):
                x * y
        a = a._lift(big)
        assert_same(a * b, felt_product(a, b))
        assert_same(b * a, felt_product(b, a))


# ---------------------------------------------------------------------------
# signed sums of products


def felt_sum(terms):
    """The sum over (a, b, neg) of +-a*b (b None for the exact one), over
    one field, summed one Felt product at a time into one map; the window
    is the least of the products' windows."""
    a0 = terms[0][0]
    K = a0.K
    R = a0._ring(K)
    co = {}
    hi = INF
    for a, b, neg in terms:
        if b is None:
            b = type(a).one(K)
        assert a.K is K and b.K is K
        va = min(a.co) if a.co else a.hi
        vb = min(b.co) if b.co else b.hi
        h = min(a.hi + vb, b.hi + va)
        hi = min(hi, h)
        for e1, c1 in a.co.items():
            for e2, c2 in b.co.items():
                e = e1 + e2
                if e < h:
                    pr = c1 * (R.sigma(c2, a._TWIST * e1) if a._TWIST else c2)
                    if neg:
                        co[e] = co[e] - pr if e in co else -pr
                    else:
                        co[e] = co[e] + pr if e in co else pr
    return type(a0)(K, co, hi)


def log_loop(terms):
    """The coefficients `FF.sum_of_products` gives for terms, called
    directly on their logs, with the window of `felt_sum`."""
    a0 = terms[0][0]
    K = a0.K
    ff = K.ff
    one = type(a0).one(K)
    hi = felt_sum(terms).hi
    args = [(ff.logs(a.co), ff.logs((one if b is None else b).co), neg)
            for a, b, neg in terms]
    return ff.sum_of_products(args, hi, a0._TWIST * K.desc.a)


def random_terms(cls, K, rng, count, windowed):
    """count seeded (a, b, neg) terms of mixed signs and windows, with some
    zero-to-window and exact-zero operands and some b None."""
    terms = []
    for _ in range(count):
        a = random_series(cls, K, rng, rng.randrange(1, 14), windowed,
                          lo=rng.randrange(-4, 3))
        b = random_series(cls, K, rng, rng.randrange(1, 14), windowed,
                          lo=rng.randrange(-4, 3))
        roll = rng.random()
        if roll < 0.1:
            b = cls.zero(K)
        elif roll < 0.2 and windowed:
            b = cls(K, {}, rng.randrange(-3, 6))
        elif roll < 0.3:
            b = None
        terms.append((a, b, rng.random() < 0.5))
    return terms


SUM_FIELDS = ["F4", "F2^16", "F9", "F65521"]


@pytest.mark.parametrize("label", SUM_FIELDS)
@pytest.mark.parametrize("cls, windowed", KINDS, ids=_ids(KINDS))
def test_random_sums_match_felt_loop(label, cls, windowed):
    K = tabled(FIELDS[label].field())
    rng = random.Random(f"series-kernel-sum:{label}:{cls.__name__}:{windowed}")
    for count in range(1, 8):
        for _ in range(2):
            terms = random_terms(cls, K, rng, count, windowed)
            want = felt_sum(terms)
            assert_same(sum_of_products(terms), want)
            assert log_loop(terms) == want.co


@pytest.mark.parametrize("label", SUM_FIELDS)
def test_sign_is_a_log_offset(label):
    # -1 = gen^((size - 1) / 2) for odd p, and -1 = 1 for p = 2
    K = tabled(FIELDS[label].field())
    ff = K.ff
    rng = random.Random(f"series-kernel-sign:{label}")
    a = random_series(ZSeries, K, rng, 9, True)
    b = random_series(ZSeries, K, rng, 11, True)
    plus = sum_of_products([(a, b, False)])
    minus = sum_of_products([(a, b, True)])
    assert_same(minus, -plus)
    if ff.p == 2:
        assert_same(minus, plus)
    else:
        assert ff._exp[(ff.size - 1) // 2] == (-ff.one).c
    # a product minus itself is zero to its window
    both = sum_of_products([(a, b, False), (a, b, True)])
    assert both.co == {} and both.hi == plus.hi


def test_exact_zero_terms_keep_the_other_windows():
    K = FIELDS["F9"].field()
    rng = random.Random("series-kernel-sum-zero")
    a = random_series(ZSeries, K, rng, 6, True)
    b = random_series(ZSeries, K, rng, 5, True)
    zero = ZSeries.zero(K)
    for terms in ([(zero, a, False), (a, b, True)],
                  [(a, b, False), (a, zero, True), (zero, zero, False)],
                  [(zero, zero, True)]):
        assert_same(sum_of_products(terms), felt_sum(terms))
    # only exact zeros: the exact zero
    assert_same(sum_of_products([(zero, a, False), (b, zero, True)]), zero)


@pytest.mark.parametrize("label", sorted(FIELDS))
def test_sum_slots_up_to_the_bound(label):
    # 7 products of 40 terms by 40 whose every term has every coordinate
    # p - 1: at exponent 39 each slot sums to 7 * 40 * (p - 1), the bound
    # the slot width is sized for. Half the products reach it through a
    # minus sign on -top.
    K = tabled(FIELDS[label].field())
    ff = K.ff
    top = K.el([ff.p - 1] * ff.n)
    terms = []
    for i in range(7):
        neg = i % 2 == 1 and ff.p != 2
        c = -top if neg else top
        a = ZSeries(K, {e: c for e in range(40)})
        b = ZSeries(K, {e: K.one() for e in range(40)})
        terms.append((a, b, neg))
    want = felt_sum(terms)
    assert want.coeff(39) == K.el([7 * 40 * (ff.p - 1)] * ff.n)
    assert_same(sum_of_products(terms), want)
    assert log_loop(terms) == want.co
    # the slots were sized for the sum, not for one product
    assert ff._slots.b >= (7 * 40 * (ff.p - 1)).bit_length()


def test_sum_slots_are_sized_by_every_product():
    # a field of its own, so its table starts empty
    ff = tabled(FF(3, 2))
    rng = random.Random("series-kernel-sum-widen")

    def rand(m):
        return ff.logs({e: Felt(ff, rng.choice(ff._exp)) for e in range(m)})

    # min(len a, len b) summed over the products: 2 + 3 + 1
    ff.sum_of_products([(rand(2), rand(5), False), (rand(3), rand(3), True),
                        (rand(4), rand(1), False)], INF, 0)
    assert ff._slots.b == (6 * 2).bit_length()
    # empty products count for nothing
    assert ff.sum_of_products([([], rand(3), False)], INF, 0) == {}


def test_sum_over_an_untabled_field_takes_the_chain():
    K = UNTABLED.field()
    rng = random.Random("series-kernel-sum-untabled")
    for cls, windowed in KINDS:
        terms = random_terms(cls, K, rng, 3, windowed)
        assert_same(sum_of_products(terms), felt_sum(terms))


def test_sum_of_local_elements_takes_the_chain():
    # ZSeries over a local K: coefficients are LocalElem, summed as series
    K = FieldDescriptor(p=3, a=1, m=2, kind="local").field()
    rng = random.Random("series-kernel-sum-local")
    for count in (1, 3, 5):
        terms = random_terms(ZSeries, K, rng, count, True)
        got = sum_of_products(terms)
        want = felt_sum(terms)
        assert got.hi == want.hi
        assert got.co.keys() == want.co.keys()
        for e, c in want.co.items():
            assert got.co[e] == c


def test_operand_from_a_subfield_sums_through_the_chain():
    # a sum with an operand over a subfield is a fault, wherever the
    # operand stands; lifted first, it is an ordinary sum
    small = FIELDS["F4"].field()
    big = small.extend(2)
    rng = random.Random("series-kernel-sum-subfield")
    for cls, windowed in KINDS:
        terms = random_terms(cls, big, rng, 4, windowed)
        a = random_series(cls, small, rng, 6, windowed)
        b = random_series(cls, big, rng, 5, windowed)
        for at in (0, 2):
            for small_terms in ([(a, b, True)], [(a, None, True), (a, a, False)]):
                with pytest.raises(InvariantError):
                    sum_of_products(terms[:at] + small_terms + terms[at:])
        a = a._lift(big)
        lifted = terms[:2] + [(a, b, True), (a, None, True), (a, a, False)] + terms[2:]
        assert_same(sum_of_products(lifted), felt_sum(lifted))


# ---------------------------------------------------------------------------
# packed sums (Kronecker substitution)

# prime and extension fields, one of them above the degree crossover, and
# F_65521, whose pair products (p - 1)^2 come near 2^32
PACKED_FIELDS = {
    "F4": FIELDS["F4"],
    "F9": FIELDS["F9"],
    "F81": FieldDescriptor(p=3, a=1, m=4, kind="finite"),
    "F2^8": FieldDescriptor(p=2, a=1, m=8, kind="finite"),
    "F65521": FIELDS["F65521"],
}


def packed(terms):
    """The coefficients `FF.packed_sum` gives for terms, with the window
    of `felt_sum`."""
    K = terms[0][0].K
    return K.ff.packed_sum(terms, felt_sum(terms).hi)


@pytest.mark.parametrize("label", sorted(PACKED_FIELDS))
@pytest.mark.parametrize("windowed", [True, False], ids=["window", "exact"])
def test_packed_sums_match_felt_loop(label, windowed):
    # mixed signs, exponents from -4 up, windows that cut the operands,
    # zero-to-window and exact-zero operands, b None
    K = tabled(PACKED_FIELDS[label].field())
    rng = random.Random(f"series-kernel-packed:{label}:{windowed}")
    for count in range(1, 8):
        for _ in range(3):
            terms = random_terms(ZSeries, K, rng, count, windowed)
            assert packed(terms) == felt_sum(terms).co


@pytest.mark.parametrize("label", sorted(PACKED_FIELDS))
def test_packed_sums_of_zeros(label):
    K = tabled(PACKED_FIELDS[label].field())
    rng = random.Random(f"series-kernel-packed-zero:{label}")
    a = random_series(ZSeries, K, rng, 9, True)
    b = random_series(ZSeries, K, rng, 7, True)
    zero, window = ZSeries.zero(K), ZSeries(K, {}, 2)
    for terms in ([(zero, a, False), (a, window, True)],
                  [(a, b, False), (a, b, True)],
                  [(a, b, False), (zero, b, True), (window, None, False)],
                  # a window below every exponent of the products
                  [(a.truncate(-8), b, True)]):
        assert packed(terms) == felt_sum(terms).co


@pytest.mark.parametrize("label, m", [(label, 90) for label in sorted(PACKED_FIELDS)]
                         + [("F29", 94)])
def test_packed_slots_up_to_the_bound(label, m):
    # 7 products of m x m terms. On a prime field every slot of exponent
    # m - 1 sums to exactly the bound the slots are sized for: four
    # products of top * top, top the element with every coordinate p - 1,
    # and three negated products whose coordinates are zero there. Over
    # extension fields the y-coordinates of top * top reach n (p - 1)^2
    # per pair in the middle slot, and the slots above it are folded back.
    # Over F_29 at m = 94 the bound, 515,909, lies just below 2^19 and
    # the sum is -1, where Barrett's quotient is the first to go wrong
    # when the slots are a bit too narrow.
    desc = PACKED_FIELDS.get(label) or FieldDescriptor(p=29, a=1, m=1, kind="finite")
    K = desc.field()
    ff = K.ff
    top = K.el([ff.p - 1] * ff.n)
    full = ZSeries(K, {e: top for e in range(m)})
    # nonzero only from exponent m on
    late = ZSeries(K, {e: top for e in range(m, 2 * m)})
    terms = [(full, full, False)] * 4 + [(late, full, True)] * 3
    want = felt_sum(terms)
    if ff.n == 1:
        assert want.coeff(m - 1) == K.el(4 * m * (ff.p - 1) ** 2)
    assert packed(terms) == want.co
    # and with the signs the other way round
    terms = [(full, full, True)] * 4 + [(late, full, False)] * 3
    assert packed(terms) == {e: -c for e, c in want.co.items()}


def test_packed_path_runs_between_the_crossovers(monkeypatch):
    calls = []
    kernel = FF.packed_sum
    monkeypatch.setattr(FF, "packed_sum",
                        lambda ff, terms, hi: calls.append(ff.n) or kernel(ff, terms, hi))
    rng = random.Random("series-kernel-crossover")
    for desc in (PACKED_FIELDS["F81"], FieldDescriptor(p=3, a=1, m=5, kind="finite")):
        K = desc.field()
        n = K.ff.n

        def exact(terms):
            # nonzero coefficients at exponents -3, -1, 1, ...
            return ZSeries(K, {2 * e - 3: K.ff.gen ** rng.randrange(K.ff.size - 1)
                               for e in range(terms)})

        for pairs in (PACK_PAIRS - 1, PACK_PAIRS):
            # pairs - 1 pairs of terms in the product, one in b None
            terms = [(exact(pairs - 1), exact(1), True), (exact(1), None, False)]
            calls.clear()
            assert_same(sum_of_products(terms), felt_sum(terms))
            packs = n <= PACK_DEGREE and pairs >= PACK_PAIRS
            assert calls == ([n] if packs else [])
    # single products of 8 x 8 and 7 x 9 terms, on either side of
    # PACK_PAIRS = 64: packed only untwisted, or twisted by a sigma that
    # fixes the field (SkewPoly over F_4, q = 4), below the degree
    # crossover; over F_9, q = 3, sigma is the 3-power map
    for label, cls, packs in (("F4", ZSeries, True), ("F9", ZSeries, True),
                              ("F4", SkewPoly, True), ("F9", SkewPoly, False),
                              ("F9", SkewLaurent, False), ("F64", ZSeries, False)):
        K = FIELDS[label].field()
        ff = K.ff

        def dense(terms):
            return cls(K, {e: ff.gen ** rng.randrange(ff.size - 1) for e in range(terms)})

        for ta, tb in ((8, 8), (7, 9)):
            a, b = dense(ta), dense(tb)
            calls.clear()
            assert_same(a * b, felt_product(a, b))
            assert calls == ([ff.n] if packs and ta * tb >= PACK_PAIRS else [])


def test_twisted_sums_take_the_log_loop(monkeypatch):
    monkeypatch.setattr(FF, "packed_sum", None)
    K = PACKED_FIELDS["F9"].field()
    rng = random.Random("series-kernel-packed-twist")
    for cls in (SkewPoly, SkewLaurent):
        terms = [(random_series(cls, K, rng, 20, False), random_series(cls, K, rng, 20, False),
                  i % 2 == 1) for i in range(3)]
        assert_same(sum_of_products(terms), felt_sum(terms))


def test_large_sums_with_foreign_coefficients_take_the_chain():
    # above the size crossover: an F_4 coefficient is refused among F_16
    # ones, and lifted it is one of them; LocalK series, whose
    # coefficients have no logs, take the chain
    small = FIELDS["F4"].field()
    K = small.extend(2)
    rng = random.Random("series-kernel-packed-chain")
    a = random_series(ZSeries, K, rng, 20, True)
    b = random_series(ZSeries, K, rng, 20, True)
    w = small.el([0, 1])
    with pytest.raises(InvariantError):
        ZSeries(K, {**b.co, 3: w}, b.hi)
    lifted = ZSeries(K, {**b.co, 3: K.coerce(w)}, b.hi)
    terms = [(a, b, False), (a, lifted, True)]
    assert_same(sum_of_products(terms), felt_sum(terms))
    L = FieldDescriptor(p=3, a=1, m=2, kind="local").field()
    terms = [(random_series(ZSeries, L, rng, 12, True), random_series(ZSeries, L, rng, 12, True),
              i % 2 == 0) for i in range(3)]
    got, want = sum_of_products(terms), felt_sum(terms)
    assert got.hi == want.hi and got.co.keys() == want.co.keys()
    assert all(got.co[e] == c for e, c in want.co.items())


# ---------------------------------------------------------------------------
# sums over a local K, grouped by output exponent

LOCAL_FIELDS = {
    "F2((zeta))": FieldDescriptor(p=2, a=1, m=1, kind="local"),
    "F3((zeta))": FieldDescriptor(p=3, a=1, m=1, kind="local"),
    "F9((zeta))": FieldDescriptor(p=3, a=2, m=1, kind="local"),
}


def random_local_series(cls, K, rng):
    """A seeded series over the local K whose coefficients may be inexact
    or zero to their window (`random_coeff`): ZSeries windowed or exact,
    SkewPoly exact of degree below 5."""
    if cls is SkewPoly:
        exps, hi = rng.sample(range(5), rng.randrange(1, 5)), INF
    else:
        lo = rng.randrange(-3, 2)
        exps = rng.sample(range(lo, lo + 8), rng.randrange(1, 7))
        hi = lo + rng.randrange(3, 10) if rng.random() < 0.6 else INF
    co = {}
    for e in exps:
        c = random_coeff(K, rng)
        co[e] = LocalElem(K, {}, rng.randrange(-2, 4)) if rng.random() < 0.1 else c
    return cls(K, co, hi)


def assert_same_local(got, want):
    assert type(got) is type(want) and got.K is want.K
    assert got.hi == want.hi
    assert got.co.keys() == want.co.keys()
    for e, c in want.co.items():
        assert (got.co[e].K, got.co[e].hi, got.co[e].co) == (c.K, c.hi, c.co)


@pytest.mark.parametrize("label", sorted(LOCAL_FIELDS))
@pytest.mark.parametrize("cls", [ZSeries, SkewPoly])
def test_local_sums_match_the_chain(label, cls):
    K = LOCAL_FIELDS[label].field()
    rng = random.Random(f"series-kernel-local-sum:{label}:{cls.__name__}")
    for count in range(1, 7):
        for _ in range(4):
            terms = []
            for _ in range(count):
                a = random_local_series(cls, K, rng)
                roll = rng.random()
                if roll < 0.25:
                    b = None
                elif roll < 0.3:
                    b = cls.zero(K)
                else:
                    b = random_local_series(cls, K, rng)
                terms.append((a, b, rng.random() < 0.5))
            assert_same_local(sum_of_products(terms), chained_sum(terms))
            a, b = terms[0][0], random_local_series(cls, K, rng)
            assert_same_local(a * b, chained_sum([(a, b, False)]))


def test_local_sums_over_two_fields_keep_the_chain():
    # an operand over the quadratic extension is a fault wherever it
    # stands; with the others lifted, the sum is the chain's
    K = LOCAL_FIELDS["F3((zeta))"].field()
    L = K.extend(2)
    rng = random.Random("series-kernel-local-two-fields")
    for at in range(3):
        terms = [(random_local_series(ZSeries, K, rng), random_local_series(ZSeries, K, rng),
                  i % 2 == 1) for i in range(3)]
        big = random_local_series(ZSeries, L, rng)
        with pytest.raises(InvariantError):
            sum_of_products(terms[:at] + [(big, terms[0][0], True)] + terms[at:])
        terms = [(a._lift(L), b._lift(L), neg) for a, b, neg in terms]
        terms.insert(at, (big, terms[0][0], True))
        assert_same_local(sum_of_products(terms), chained_sum(terms))
