"""F_p kernels: polynomial arithmetic mod a monic modulus and matrix
products, on plain ints.

This is the one kernel lane; `BACKEND` names it so the bench and the
benchmark can label their output. Matrices are lists of int rows. Their
elimination lives in `taumod.elimination`, which loads on first use:
most requests never eliminate.

The polynomial routines are the package's only F_p polynomial
arithmetic. They serve the modulus search (Ben-Or's irreducibility
test, on `polypowmod` and `polygcd`), the generator search, the linear
maps of `basefield`, and the multiplication, inversion and powers in
fields without log tables: those above `basefield.TABLE_LIMIT`, and the
others until their work pays for a fill.
"""

from taumod import elimination

BACKEND = "pure"


def polymulmod(a, b, mod, p):
    """(a*b) mod `mod` over F_p. a, b: coefficient tuples of length n;
    mod: monic, length n+1, low-to-high. Returns a length-n tuple."""
    n = len(mod) - 1
    prod = [0] * (2 * n - 1 if n > 0 else 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    prod[i + j] = (prod[i + j] + ai * bj) % p
    for i in range(2 * n - 2, n - 1, -1):
        c = prod[i]
        if c:
            prod[i] = 0
            base = i - n
            for j in range(n):
                if mod[j]:
                    prod[base + j] = (prod[base + j] - c * mod[j]) % p
    return tuple(prod[:n])


def polypowmod(a, e, mod, p):
    """a**e mod `mod` over F_p, e >= 0."""
    n = len(mod) - 1
    result = tuple([1] + [0] * (n - 1))
    base = tuple(a)
    while e > 0:
        if e & 1:
            result = polymulmod(result, base, mod, p)
        base = polymulmod(base, base, mod, p)
        e >>= 1
    return result


def polygcd(a, b, p):
    """Monic gcd over F_p of a and b, coefficient sequences low-to-high,
    as a tuple; () when both are zero."""
    a, b = list(a), list(b)
    for c in (a, b):
        while c and not c[-1]:
            c.pop()
    while b:
        # a mod b, then the next step of Euclid
        inv = pow(b[-1], p - 2, p)
        db = len(b) - 1
        for i in range(len(a) - 1, db - 1, -1):
            c = a[i] * inv % p
            if c:
                base = i - db
                for j in range(db):
                    if b[j]:
                        a[base + j] = (a[base + j] - c * b[j]) % p
        a, b = b, a[:db]
        while b and not b[-1]:
            b.pop()
    if not a:
        return ()
    inv = pow(a[-1], p - 2, p)
    return tuple(x * inv % p for x in a)


def matmul(A, B, p):
    """A @ B mod p, for matrices as sequences of rows."""
    cols = list(zip(*B))
    return [[sum(a * b for a, b in zip(row, col)) % p for col in cols] for row in A]


def matvec(A, v, p):
    """A @ v mod p, for A a sequence of rows."""
    return [sum(a * x for a, x in zip(row, v)) % p for row in A]


def __getattr__(name):
    # the benchmark's layer tracer (perfbench/layertrace.py) finds these
    # names here
    if name in ("rref_mod_p", "solve_mod_p", "nullspace_mod_p"):
        return getattr(elimination, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
