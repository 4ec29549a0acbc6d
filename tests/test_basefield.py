"""Field-layer tests.

Oracle notes: canonical moduli are cross-checked against sympy's
irreducibility test (independent implementation); table-field arithmetic
is cross-checked against the generic polynomial lane by forcing both
paths on the same inputs.
"""

import copy
import itertools
import math
import operator
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from taumod.basefield import (
    FF,
    TABLE_LIMIT,
    FieldDescriptor,
    Felt,
    INF,
    frobenius_power,
    get_field,
    mult_matrix,
    _find_modulus,
    _is_irreducible,
    _power_table,
)
from taumod.embedding import _embedding_powers, _pdivmod, _pgcd, coerce_into, fp_extension
from taumod.localfield import LocalElem
from taumod.errors import (
    CoercionError,
    InputError,
    InvariantError,
    NoRoot,
    NotInvertible,
    PrecisionLoss,
)
from taumod import kernels

import dense_oracle as dense


SMALL_FIELDS = [(2, 1), (2, 2), (2, 4), (3, 1), (3, 2), (3, 3), (5, 2), (2, 6)]


def felts(p, n):
    ff = get_field(p, n)
    return st.builds(
        lambda c: ff.el(c),
        st.lists(st.integers(0, p - 1), min_size=n, max_size=n),
    )


class TestModuli:
    @pytest.mark.parametrize("p,n", SMALL_FIELDS + [(3, 6), (2, 12)])
    def test_modulus_irreducible_sympy_oracle(self, p, n):
        import sympy

        X = sympy.symbols("x")
        coeffs = _find_modulus(p, n)
        poly = sum(int(c) * X**i for i, c in enumerate(coeffs))
        assert sympy.Poly(poly, X, modulus=p).is_irreducible

    def test_modulus_minimal_encoding(self):
        # every smaller encoding must be reducible; verified for F_8
        import sympy

        X = sympy.symbols("x")
        coeffs = _find_modulus(2, 3)
        enc = sum(int(c) << i for i, c in enumerate(coeffs[:-1]))
        for smaller in range(enc):
            c, e = [], smaller
            for _ in range(3):
                c.append(e % 2)
                e //= 2
            poly = sum(ci * X**i for i, ci in enumerate(c)) + X**3
            assert not sympy.Poly(poly, X, modulus=2).is_irreducible

    def test_known_small_moduli(self):
        assert _find_modulus(2, 1) == (0, 1)
        assert _find_modulus(2, 2) == (1, 1, 1)
        assert _find_modulus(3, 2) == (1, 0, 1)

    @pytest.mark.parametrize(
        "p,n_max", [(2, 6), (3, 4), (5, 3), (3, 6), (5, 4), (7, 4)]
    )
    def test_irreducibility_sympy_oracle(self, p, n_max):
        # every monic polynomial, reducible-but-squarefree ones included
        import sympy

        X = sympy.symbols("x")
        for n in range(1, n_max + 1):
            for low in itertools.product(range(p), repeat=n):
                coeffs = list(low) + [1]
                poly = sum(c * X**i for i, c in enumerate(coeffs))
                want = sympy.Poly(poly, X, modulus=p).is_irreducible
                assert _is_irreducible(coeffs, p) == want, coeffs


# the canonical moduli as the Berlekamp search found them, low-to-high
# without the leading 1, per p for n = 1, 2, ...
FROZEN_MODULI = {
    2: ["0", "11", "110", "1100", "10100", "110000", "1100000", "11011000",
        "110000000", "1001000000", "10100000000", "100100000000",
        "1101100000000", "10000100000000", "110000000000000",
        "1101010000000000", "10010000000000000", "100100000000000000",
        "1110010000000000000", "10010000000000000000"],
    3: ["0", "10", "120", "2100", "12000", "210000", "2010000", "20100000",
        "101200000", "1020000000", "20100000000", "201000000000",
        "1200000000000", "21000000000000"],
    5: ["0", "20", "110", "2000", "14000", "210000", "1100000", "20000000",
        "321000000"],
    7: ["0", "10", "200", "1100", "31000", "200000", "1600000"],
}


class TestBenOr:
    """The moduli and tables built on Ben-Or's test."""

    @pytest.mark.parametrize("p", sorted(FROZEN_MODULI))
    def test_canonical_moduli_frozen(self, p):
        for n, low in enumerate(FROZEN_MODULI[p], 1):
            # uncached, so that the search itself runs
            assert _find_modulus.__wrapped__(p, n) == tuple(map(int, low)) + (1,), n

    @pytest.mark.parametrize("p,n", [(2, 6), (3, 4)])
    def test_pure_fill_matches_doubling(self, p, n):
        # F_64 and F_81: repeated multiplication, the packed walk and
        # the numpy doubling agree
        ff = dense.tabled(get_field(p, n))
        order = ff.size - 1
        assert dense.repeated_mul_table(p, n, ff.gen.c, order) == ff._exp
        assert _power_table(p, n, ff.gen.c, order) == ff._exp
        assert dense.doubling_table(p, n, ff.gen.c, order) == ff._exp


def _rand_poly(ff, rng, deg):
    """Felt-poly of exact degree deg; its leading coefficient is
    nonzero but not necessarily one."""
    c = [ff.el([rng.randrange(ff.p) for _ in range(ff.n)]) for _ in range(deg)]
    lead = ff.zero
    while lead.is_zero():
        lead = ff.el([rng.randrange(ff.p) for _ in range(ff.n)])
    return c + [lead]


def _ref_mul(a, b, ff):
    out = [ff.zero] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


def _ref_add(a, b, ff):
    out = [ff.zero] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] = out[i] + x
    for i, y in enumerate(b):
        out[i] = out[i] + y
    while out and out[-1].is_zero():
        out.pop()
    return out


def _same(a, b):
    return [x.c for x in a] == [y.c for y in b]


class TestFeltPolynomials:
    @pytest.mark.parametrize("p,n", [(2, 2), (2, 3), (3, 2)])
    def test_divmod_identity(self, p, n):
        ff = get_field(p, n)
        rng = random.Random(f"divmod:{p}:{n}")
        for _ in range(150):
            a = _rand_poly(ff, rng, rng.randrange(0, 9)) if rng.random() < 0.9 else []
            b = _rand_poly(ff, rng, rng.randrange(0, 6))
            q, r = _pdivmod(a, b, ff)
            assert len(r) < len(b)
            assert not r or not r[-1].is_zero()
            assert not q or not q[-1].is_zero()
            assert _same(_ref_add(_ref_mul(q, b, ff), r, ff), a)

    @pytest.mark.parametrize("p,n", [(2, 2), (2, 3), (3, 2)])
    def test_gcd_monic_common_divisor(self, p, n):
        ff = get_field(p, n)
        rng = random.Random(f"gcd:{p}:{n}")
        for _ in range(100):
            c = _rand_poly(ff, rng, rng.randrange(0, 4))
            a = _ref_mul(c, _rand_poly(ff, rng, rng.randrange(0, 5)), ff)
            b = _ref_mul(c, _rand_poly(ff, rng, rng.randrange(0, 5)), ff)
            g = _pgcd(a, b, ff)
            assert g and g[-1] == ff.one
            assert _pdivmod(a, g, ff)[1] == [] and _pdivmod(b, g, ff)[1] == []
            # greatest: the planted common factor c divides g
            assert _pdivmod(g, c, ff)[1] == []
        assert _pgcd([], [], ff) == []


class TestFieldLaws:
    @pytest.mark.parametrize("p,n", SMALL_FIELDS)
    def test_laws_random(self, p, n):
        ff = get_field(p, n)
        rng = random.Random(1000 * p + n)
        for _ in range(50):
            x = ff.el([rng.randrange(p) for _ in range(n)])
            y = ff.el([rng.randrange(p) for _ in range(n)])
            z = ff.el([rng.randrange(p) for _ in range(n)])
            assert (x + y) * z == x * z + y * z
            assert x * (y * z) == (x * y) * z
            assert x + (-x) == ff.zero
            if not x.is_zero():
                assert x * x.inv() == ff.one
                assert x ** (p**n - 1) == ff.one

    @given(x=felts(3, 3), y=felts(3, 3))
    @settings(max_examples=60, deadline=None)
    def test_frobenius_additive_multiplicative(self, x, y):
        assert (x + y).frob() == x.frob() + y.frob()
        assert (x * y).frob() == x.frob() * y.frob()
        assert x.frob(3) == x  # full power of the field degree

    @given(x=felts(2, 6))
    @settings(max_examples=60, deadline=None)
    def test_frob_inverse_roundtrip(self, x):
        assert x.frob(1).frob(-1) == x
        assert x.frob(-1).frob(1) == x

    def test_table_vs_polynomial_lane(self):
        # same field size, table path vs raw kernel path
        ff = dense.tabled(get_field(3, 4))
        assert ff._log is not None
        rng = random.Random(7)
        for _ in range(200):
            x = tuple(rng.randrange(3) for _ in range(4))
            y = tuple(rng.randrange(3) for _ in range(4))
            via_table = ff.mul_raw(x, y)
            via_poly = kernels.polymulmod(x, y, ff.modulus, 3)
            assert via_table == via_poly


class TestFrobeniusMatrix:
    """Fields above TABLE_LIMIT apply y -> y^(p^k) as one product with a
    cached F_p matrix; the oracle is the power by square-and-multiply."""

    @pytest.mark.parametrize("p,n", [(3, 12), (2, 17)])
    def test_frob_matches_polypowmod(self, p, n):
        ff = get_field(p, n)
        assert ff._log is None
        rng = random.Random(f"frob:{p}:{n}")
        for _ in range(6):
            x = tuple(rng.randrange(p) for _ in range(n))
            for k in (1, 2, n - 1, n + 3, -1, -n - 2):
                want = kernels.polypowmod(x, p ** (k % n), ff.modulus, p)
                assert ff.frob_raw(x, k) == want
                assert all(type(c) is int for c in ff.frob_raw(x, k))


class TestLinearMaps:
    """The F_p matrices of multiplication and Frobenius against the field
    arithmetic applied to each basis vector."""

    @pytest.mark.parametrize("p,n", [(2, 4), (3, 2), (5, 3), (3, 12), (2, 17)])
    def test_matrices_match_the_field(self, p, n):
        ff = get_field(p, n)
        rng = random.Random(f"maps:{p}:{n}")
        basis = [tuple(int(i == j) for i in range(n)) for j in range(n)]
        y = tuple(rng.randrange(p) for _ in range(n))
        want = tuple(zip(*[ff.mul_raw(y, b) for b in basis]))
        assert mult_matrix(p, n, y) == want
        for k in (1, 2, -1):
            want = tuple(zip(*[kernels.polypowmod(b, p ** (k % n), ff.modulus, p)
                               for b in basis]))
            assert frobenius_power(p, n, k) == want


class TestFpExtension:
    """The F_p-linear model of an extension: multiplication by the image
    of the small field is a ring map that commutes with Frobenius."""

    @pytest.mark.parametrize("p,k,n", [(2, 1, 5), (2, 2, 8), (3, 2, 6),
                                       (3, 2, 18), (2, 3, 12), (5, 2, 4)])
    def test_base_mult_is_an_embedding(self, p, k, n):
        ext = fp_extension(p, k, n)
        small = get_field(p, k)
        rng = random.Random(f"fpext:{p}:{k}:{n}")
        F = ext.frob(1)
        mul = kernels.matmul
        assert ext.base_mult(small.one) == [[int(i == j) for j in range(n)]
                                            for i in range(n)]
        assert not any(map(any, ext.base_mult(small.zero)))
        for _ in range(5):
            x, y = (small.el([rng.randrange(p) for _ in range(k)]) for _ in range(2))
            assert mul(ext.base_mult(x), ext.base_mult(y), p) == ext.base_mult(x * y)
            assert ([[(a + b) % p for a, b in zip(ra, rb)]
                     for ra, rb in zip(ext.base_mult(x), ext.base_mult(y))]
                    == ext.base_mult(x + y))
            assert mul(F, ext.base_mult(x), p) == mul(ext.base_mult(x.frob(1)), F, p)

    @pytest.mark.parametrize("p,k,n", [(2, 1, 5), (2, 2, 4), (2, 3, 6), (2, 4, 4),
                                       (3, 2, 4), (3, 2, 6), (3, 3, 3), (5, 2, 2),
                                       (5, 2, 4)])
    def test_rows_are_the_canonical_embedding(self, p, k, n):
        # rows r^0 .. r^(k-1) of the encoding-least root r, by exhaustive
        # search, and the same rows that coerce_into reads
        rows = fp_extension(p, k, n).rows
        if k > 1:
            root = _brute_force_root(p, k, n)
            assert rows == [list((root**t).c) for t in range(k)]
        else:
            assert rows == [[1] + [0] * (n - 1)]
        assert rows == [list(x.c) for x in _embedding_powers(p, k, n)]

    @pytest.mark.parametrize("p,k,n", [(3, 2, 18), (2, 3, 12), (2, 8, 16), (3, 5, 10)])
    def test_root_is_least_in_its_orbit(self, p, k, n):
        # fields too big to search: r is a root of the small canonical
        # modulus, and no Frobenius conjugate has a smaller encoding
        rows = fp_extension(p, k, n).rows
        root = rows[1]
        f = _find_modulus(p, k)
        M = mult_matrix(p, n, root)
        acc = [0] * n
        for c in reversed(f):
            acc = kernels.matvec(M, acc, p)
            acc[0] = (acc[0] + c) % p
        assert not any(acc)
        F = frobenius_power(p, n, 1)
        x = root
        for _ in range(k - 1):
            x = kernels.matvec(F, x, p)
            assert x[::-1] > root[::-1]
        assert kernels.matvec(F, x, p) == root

    def test_builds_no_field(self):
        get_field(3, 2)
        before = get_field.cache_info().currsize
        fp_extension(3, 2, 22)
        assert get_field.cache_info().currsize == before


class TestLogTables:
    """The tables against repeated polymulmod by the canonical generator
    and against the packed walk that fills them."""

    @pytest.mark.parametrize(
        "p,n", SMALL_FIELDS + [(2, 16), (3, 10), (251, 2), (65521, 1)]
    )
    def test_tables_match_repeated_mul(self, p, n):
        ff = dense.tabled(get_field(p, n))
        order = ff.size - 1
        gen = ff.gen.c
        assert len(ff._exp) == order
        cur = ff.one.c
        for k in range(order):
            assert ff._exp[k] == cur
            cur = kernels.polymulmod(cur, gen, ff.modulus, p)
        assert cur == ff.one.c
        assert _power_table(p, n, gen, order) == ff._exp
        assert len(ff._log) == order
        assert all(ff._log[x] == k for k, x in enumerate(ff._exp))
        assert all(type(c) is int for c in ff._exp[-1])
        # canonical: no smaller encoding is a generator (x = g^k generates
        # exactly when gcd(k, order) = 1)
        for enc in range(1, ff.enc(gen)):
            assert math.gcd(ff._log[ff._dec(enc)], order) != 1

    @pytest.mark.parametrize("p,n", [(2, 12), (2, 16), (3, 9), (3, 10), (5, 6),
                                     (251, 2)])
    def test_walk_matches_numpy_doubling(self, p, n):
        ff = get_field(p, n)
        assert _power_table(p, n, ff.gen.c, ff.size - 1) == dense.doubling_table(
            p, n, ff.gen.c, ff.size - 1)


def _order_is_full(ff, x):
    """Whether x has order size - 1, by the kernel powers and sympy's
    factorisation of the order."""
    import sympy

    order = ff.size - 1
    one = ff.one.c
    return (kernels.polypowmod(x, order, ff.modulus, ff.p) == one
            and all(kernels.polypowmod(x, order // ell, ff.modulus, ff.p) != one
                    for ell in sympy.primefactors(order)))


class TestTablesOnDemand:
    """A field fills its log tables once its work without them reaches its
    size (`FF._rent`), never above TABLE_LIMIT; every answer is the same
    before, across and after the fill."""

    def test_gen_above_the_table_limit(self):
        ff = get_field(2, 17)
        assert ff.size > TABLE_LIMIT
        K = FieldDescriptor(p=2, a=1, m=17, kind="finite").field()
        assert K.gen() == ff.gen
        assert _order_is_full(ff, ff.gen.c)
        # canonical: no smaller encoding generates
        assert not any(_order_is_full(ff, ff._dec(enc))
                       for enc in range(1, ff.enc(ff.gen.c)))
        assert ff._log is None

    def test_a_new_field_has_no_tables_and_the_tabled_gen(self):
        ff = FF(3, 4)
        assert ff._log is None
        gen = ff.gen
        assert _order_is_full(ff, gen.c)
        assert dense.tabled(ff).gen is gen
        assert ff._exp[1] == gen.c

    @pytest.mark.parametrize("p,n", [(3, 4), (2, 6)])
    def test_mixed_sequences_across_the_fill(self, p, n):
        # the same seeded sequence of products, inverses, powers,
        # Frobenius maps and sums of products on three copies of F_{p^n}:
        # one tabled first, one that never fills, and one that fills
        # part way through
        always, never, lazy = dense.tabled(FF(p, n)), FF(p, n), FF(p, n)
        never._due = math.inf
        rng = random.Random(f"tables-on-demand:{p}:{n}")
        pool = [tuple(rng.randrange(p) for _ in range(n)) for _ in range(6)]
        filled_at = None
        for step in range(80):
            # cheap steps first: one inverse of F_64 pays for its fill
            op = rng.choice(("mul", "frob") if step < 4
                            else ("mul", "inv", "pow", "frob", "sum"))
            x, y = rng.choice(pool), rng.choice(pool)
            if op == "inv" and not any(x):
                op = "mul"
            e = rng.randrange(-2 * lazy.size, 2 * lazy.size)
            k = rng.randrange(-n, 2 * n)
            terms = [({i: rng.choice(pool) for i in range(rng.randrange(1, 6))},
                      {i: rng.choice(pool) for i in range(rng.randrange(1, 6))},
                      rng.random() < 0.5) for _ in range(rng.randrange(1, 4))]
            twist = rng.randrange(n)
            got = [_run_op(ff, op, x, y, e, k, terms, twist)
                   for ff in (always, never, lazy)]
            assert got[0] == got[1] == got[2], (op, step)
            if op != "sum":
                pool.append(got[0])
            if filled_at is None and lazy._log is not None:
                filled_at = step
        assert never._log is None and always._log is not None
        # the fill came part way through the sequence
        assert 0 < filled_at < 79
        assert lazy._exp == always._exp and lazy.gen.c == always.gen.c


def _run_op(ff, op, x, y, e, k, terms, twist):
    """One step of `test_mixed_sequences_across_the_fill` on ff; a sum of
    products takes the log loop when every operand has logs, and else a
    loop of table-less products, as `series.sum_of_products` does."""
    if op == "mul":
        return ff.mul_raw(x, y)
    if op == "inv":
        return ff.inv_raw(x)
    if op == "pow":
        return ff.pow_raw(x, e) if any(x) else ff.pow_raw(x, abs(e))
    if op == "frob":
        return ff.frob_raw(x, k)
    felts = [({i: Felt(ff, c) for i, c in a.items() if any(c)},
              {i: Felt(ff, c) for i, c in b.items() if any(c)}, neg)
             for a, b, neg in terms]
    logs = [(ff.logs(a), ff.logs(b), neg) for a, b, neg in felts]
    if all(la is not None and lb is not None for la, lb, _ in logs):
        out = ff.sum_of_products(logs, INF, twist)
        return {i: c.c for i, c in out.items()}
    acc = {}
    for a, b, neg in felts:
        for i, c in a.items():
            for j, d in b.items():
                pr = ff.mul_raw(c.c, ff.frob_raw(d.c, twist * i))
                if neg:
                    pr = ff.neg_raw(pr)
                acc[i + j] = ff.add_raw(acc.get(i + j, ff.zero.c), pr)
    return {i: c for i, c in acc.items() if any(c)}


def _brute_force_root(p, ns, nb):
    """Encoding-least root in F_{p^nb} of the canonical modulus of
    F_{p^ns}, by evaluating it at every element in encoding order."""
    big = get_field(p, nb)
    f = [big.el(c).c for c in _find_modulus(p, ns)]
    for enc in range(big.size):
        x = big._dec(enc)
        acc = big.zero.c
        for c in reversed(f):
            acc = big.add_raw(big.mul_raw(acc, x), c)
        if acc == big.zero.c:
            return Felt(big, x)
    raise AssertionError("canonical modulus has no root")


EMBED_PAIRS = [
    (p, ns, nb)
    for p in (2, 3)
    for nb in range(1, 13)
    if p**nb <= 1 << 12
    for ns in range(1, nb + 1)
    if nb % ns == 0
]


class TestEmbeddingRoot:
    @pytest.mark.parametrize("p,ns,nb", EMBED_PAIRS)
    def test_root_is_encoding_least(self, p, ns, nb):
        root = _brute_force_root(p, ns, nb)
        powers = _embedding_powers.__wrapped__(p, ns, nb)
        want = [root**k for k in range(ns)]
        assert [x.c for x in powers] == [x.c for x in want]
        assert [x.c for x in _embedding_powers(p, ns, nb)] == [x.c for x in want]


class TestEmbeddings:
    @pytest.mark.parametrize(
        "p,ns,nb", [(2, 2, 4), (2, 2, 6), (3, 2, 6), (2, 3, 6), (3, 6, 12), (2, 6, 18)]
    )
    def test_embedding_is_ring_hom(self, p, ns, nb):
        small = get_field(p, ns)
        big = get_field(p, nb)
        rng = random.Random(p * 100 + ns * 10 + nb)
        for _ in range(20):
            x = small.el([rng.randrange(p) for _ in range(ns)])
            y = small.el([rng.randrange(p) for _ in range(ns)])
            assert coerce_into(x + y, big) == coerce_into(x, big) + coerce_into(y, big)
            assert coerce_into(x * y, big) == coerce_into(x, big) * coerce_into(y, big)
        assert coerce_into(small.one, big) == big.one

    def test_embedding_image_in_subfield(self):
        big = get_field(3, 12)
        small = get_field(3, 6)
        img = coerce_into(small.gen, big)
        assert img.in_subfield(6)
        assert not img.in_subfield(3)

    def test_incompatible_degrees_rejected(self):
        with pytest.raises(CoercionError):
            coerce_into(get_field(2, 2).gen, get_field(2, 3))

    def test_mixed_operand_arithmetic(self):
        # operands over two fields are a program fault, even when one
        # field embeds in the other; the lift is explicit
        a = get_field(2, 2).gen
        big = get_field(2, 4)
        ia = coerce_into(a, big)
        for op in (operator.add, operator.sub, operator.mul, operator.truediv,
                   operator.eq):
            for x, y in ((a, ia), (ia, a)):
                with pytest.raises(InvariantError):
                    op(x, y)
        assert coerce_into(a, big) + ia == big.zero  # char 2: x + x = 0
        assert big.el(a) * ia == ia * ia


class TestFieldDescriptor:
    """An immutable value: the key of the field caches."""

    @pytest.mark.parametrize("kind", ["finite", "local"])
    def test_equal_descriptors_share_one_field(self, kind):
        a = FieldDescriptor(p=3, a=2, m=1, kind=kind)
        b = FieldDescriptor(3, 2, 1, kind, (-8, 8))
        assert a == b and hash(a) == hash(b) and a is not b
        assert a.field() is b.field()
        assert a != FieldDescriptor(p=3, a=2, m=1, kind=kind, window=(-4, 8))
        assert a.field() is not FieldDescriptor(p=3, a=1, m=2, kind=kind).field()

    def test_fields_cannot_change(self):
        d = FieldDescriptor(p=2, a=1, m=3, kind="finite")
        with pytest.raises(AttributeError):
            d.p = 3
        with pytest.raises(AttributeError):
            d.extra = 1
        with pytest.raises(AttributeError):
            del d.m
        assert (d.p, d.a, d.m, d.kind, d.window) == (2, 1, 3, "finite", (-8, 8))

    @pytest.mark.parametrize("args", [(3, 1, 1, "global"), (4, 1, 1, "finite"),
                                      (1, 1, 1, "local"), (3, 0, 1, "finite")])
    def test_bad_descriptor_is_input_error(self, args):
        with pytest.raises(InputError):
            FieldDescriptor(*args)

    def test_copies_and_repr(self):
        d = FieldDescriptor(p=5, a=1, m=2, kind="local", window=(-3, 9))
        assert pickle.loads(pickle.dumps(d)) == d
        assert copy.copy(d) == d
        assert repr(d) == ("FieldDescriptor(p=5, a=1, m=2, kind='local', "
                           "window=(-3, 9))")


class TestFiniteK:
    def test_sigma_is_q_power(self):
        K = FieldDescriptor(p=2, a=2, m=3, kind="finite").field()  # q=4, F_64
        g = K.gen()
        assert K.sigma(g) == g**4
        assert K.qth_root(g**4) == g
        # sigma^m = identity on F_{q^m}
        x = g
        for _ in range(3):
            x = K.sigma(x)
        assert x == g

    def test_extend(self):
        K = FieldDescriptor(p=3, a=1, m=1, kind="finite").field()
        K2 = K.extend(2)
        assert K2.ff.n == 2
        assert K2.coerce(K.one()) == K2.one()


class TestLocalK:
    def setup_method(self):
        self.K = FieldDescriptor(p=3, a=1, m=1, kind="local").field()

    def test_sigma_scales_exponents(self):
        z = self.K.zeta()
        x = self.K.one() + z + self.K.zeta(2)
        s = self.K.sigma(x)
        assert sorted(s.co) == [0, 3, 6]

    def test_zeta_has_no_qth_root(self):
        with pytest.raises(NoRoot) as ei:
            self.K.qth_root(self.K.zeta())
        assert ei.value.witness["exponent"] == 1
        assert ei.value.witness["q"] == 3

    def test_qth_root_roundtrip(self):
        rng = random.Random(5)
        for _ in range(20):
            x = self.K.random(rng)
            assert self.K.qth_root(self.K.sigma(x)) == x

    def test_inverse_monomial_exact(self):
        m = self.K.zeta(-3) * self.K.el(2)
        mi = m.inv()
        assert mi.is_exact()
        assert m * mi == self.K.one()

    def test_inverse_series_window(self):
        x = self.K.one() + self.K.zeta()
        xi = x.inv()
        assert not xi.is_exact()
        prod = x * xi
        assert prod.co == {0: self.K.cf.one}  # 1 up to the window
        # known coefficients alternate +-1
        assert xi.co[0] == 1 and xi.co[1] == -self.K.cf.one

    def test_window_tracking_mul(self):
        x = (self.K.one() + self.K.zeta()).truncate(4)
        y = self.K.zeta(2)
        assert (x * y).hi == 6
        assert (x * x).hi == 4

    def test_window_tracking_sigma(self):
        x = (self.K.one() + self.K.zeta()).truncate(4)
        assert self.K.sigma(x).hi == 12
        neg = LocalElem(self.K, {-2: self.K.cf.one}, -1)
        assert self.K.sigma(neg).hi == -3

    def test_zero_to_precision_vs_exact_zero(self):
        exact = self.K.zero()
        fuzzy = LocalElem(self.K, {}, 5)
        assert self.K.is_zero(exact)
        with pytest.raises(PrecisionLoss):
            self.K.is_zero(fuzzy)
        assert self.K.exact_zero_p(exact)
        assert not self.K.exact_zero_p(fuzzy)
        with pytest.raises(PrecisionLoss):
            fuzzy.valuation()
        assert exact.valuation() == INF

    def test_valuation_and_residue(self):
        x = self.K.zeta(2) + self.K.zeta(5)
        assert x.valuation() == 2
        assert x.residue().is_zero()
        y = self.K.el(2) + self.K.zeta()
        assert y.residue() == 2
        with pytest.raises(Exception):
            (self.K.zeta(-1)).residue()

    def test_division_zero(self):
        with pytest.raises(NotInvertible):
            self.K.zero().inv()

    def test_ramify_unscale(self):
        from fractions import Fraction

        K8 = self.K.ramify(8)
        v = K8.unscale(4)
        assert v == Fraction(1, 2)
