"""F_p elimination on plain ints.

Matrices are lists of int rows; the elimination builds the reduced
echelon basis of their span (`FpSpan`) on rows packed into one int each
(`Packing`), so that a row operation is a few big-int operations
whatever the row's width. `extend_kernel` solves a block
lower-triangular system one level at a time; it is the one solver of
the conjugator and fixed-point systems of the extension sweeps, and
`canonical_basis` turns its last level into the basis
`nullspace_mod_p` gives for the whole system.

Only the extension sweeps, the scalar solver, the canonical embeddings
and their replays eliminate, so this module loads on first use (see
taumod/__init__.py).
"""

import operator
from functools import reduce
from itertools import compress, groupby


class Packing:
    """Rows of n entries of F_p, each packed into one int.

    Entry j is the j-th k-byte slot of the int, little-endian, k the
    least with 2^(8k-1) >= p. So two rows of entries in 0..p-1 add slot
    by slot without a carry, and `add` takes p off every slot at p or
    above at once: adding 2^(8k-1) - p to a slot sets its top bit
    exactly then. Over F_2 adding is XOR.
    """

    def __init__(self, p, n):
        self.p, self.n = p, n
        self.k = (p - 1).bit_length() // 8 + 1
        self.w = 8 * self.k
        self.slot = (1 << self.w) - 1
        ones = int.from_bytes((b"\1" + bytes(self.k - 1)) * n, "little")
        self.top, self.bias = ones << self.w - 1, ones * ((1 << self.w - 1) - p)
        # one-byte slots are reduced through a table
        self.mods = (bytes(range(p)) * (256 // p + 1))[:256] if self.k == 1 else None
        if p == 2:
            self.add = operator.xor

    def entries(self, row):
        """The ints row reduced mod p, as a sequence."""
        if self.mods:
            try:
                return bytes(row).translate(self.mods)
            except ValueError:  # an entry outside 0..255
                pass
        return [x % self.p for x in row]

    def pack(self, row):
        """The packed row of the ints row, reduced mod p."""
        row, k = self.entries(row), self.k
        return int.from_bytes(row if k == 1 else b"".join(x.to_bytes(k, "little") for x in row),
                              "little")

    def unpack(self, x):
        b, k = x.to_bytes(self.n * self.k, "little"), self.k
        return list(b) if k == 1 else [int.from_bytes(b[i : i + k], "little")
                                       for i in range(0, len(b), k)]

    def get(self, x, j):
        return x >> j * self.w & self.slot

    def add(self, x, y):
        s = x + y
        return s - ((s + self.bias & self.top) >> self.w - 1) * self.p

    def mul(self, x, f):
        """f * x for an int f >= 1, by doubling and adding."""
        if f == 1:
            return x
        y = self.mul(self.add(x, x), f >> 1)
        return self.add(x, y) if f & 1 else y

    def combine(self, coeffs, rows):
        """The sum of coeffs[j] * rows[j] over the j with coeffs[j] != 0
        mod p, rows packed: they are summed per coefficient value first,
        so that each value costs one `mul`."""
        cs = self.entries(coeffs)
        out = 0
        for c, js in groupby(sorted(compress(range(len(cs)), cs), key=cs.__getitem__),
                             cs.__getitem__):
            out = self.add(out, self.mul(reduce(self.add, map(rows.__getitem__, js)), c))
        return out


class FpSpan:
    """F_p-span of the rows added so far, kept as the reduced echelon
    basis of packed rows (`Packing`, for the length of the first row):
    each is 1 at its pivot column, 0 left of it and 0 at every other
    pivot column. A row is reduced at its lowest nonzero slot by the
    basis row of that column until that slot is no pivot column, or the
    row is zero, so a sparse row meets few basis rows."""

    def __init__(self, p):
        self.p = p
        self.packing = None
        self.basis = {}  # pivot column -> its row

    @property
    def pivots(self):
        return list(self.basis)

    @property
    def rows(self):
        return [self.packing.unpack(x) for x in self.basis.values()]

    def _reduce(self, v):
        P = self.packing = self.packing or Packing(self.p, len(v))
        x = P.pack(v)
        while x:
            c = ((x & -x).bit_length() - 1) // P.w
            if c not in self.basis:
                return x, c
            x = P.add(x, P.mul(self.basis[c], self.p - P.get(x, c)))
        return 0, None

    def reduce(self, v):
        """v reduced by the basis, zero exactly when v lies in the span."""
        x = self._reduce(v)[0]  # makes the packing of the first row
        return self.packing.unpack(x)

    def add(self, v):
        """Add v to the span; False (and no change) when it was in it."""
        x, c = self._reduce(v)
        if not x:
            return False
        P, p = self.packing, self.p
        x = P.mul(x, pow(P.get(x, c), p - 2, p))
        for d, row in self.basis.items():
            if d > c and P.get(x, d):
                x = P.add(x, P.mul(row, p - P.get(x, d)))
        for d, row in self.basis.items():
            if d < c and P.get(row, c):
                self.basis[d] = P.add(row, P.mul(x, p - P.get(row, c)))
        self.basis[c] = x
        return True


def rref_mod_p(mat, p):
    """Reduced row echelon form over F_p.

    mat: list of rows (lists of ints). Returns (rref rows as list of
    lists, pivot column list): the basis of their `FpSpan`.
    """
    span = FpSpan(p)
    for row in mat:
        span.add(row)
    pivots = sorted(span.basis)
    R = [span.packing.unpack(span.basis[c]) for c in pivots]
    return R + [[0] * len(mat[0]) for _ in range(len(mat) - len(R))], pivots


def nullspace_mod_p(mat, ncols, p):
    """Basis of {v : mat @ v = 0 (mod p)} for mat with ncols columns.

    Returns a list of length-ncols int lists (possibly empty). mat may
    have zero rows; then the identity basis is returned.
    """
    R, pivots = rref_mod_p(mat, p)
    pivset = set(pivots)
    basis = []
    # one vector per free column: 1 there, minus that column of R at
    # the pivots
    for f in range(ncols):
        if f not in pivset:
            v = [0] * ncols
            v[f] = 1
            for row, c in zip(R, pivots):
                if row[f]:
                    v[c] = p - row[f]
            basis.append(v)
    return basis


def solve_mod_p(mat, rhs, p):
    """One solution of mat @ v = rhs (mod p), or None.

    mat: list of rows, rhs: list of ints of the same length.
    """
    return solve_columns_mod_p(mat, [rhs], p)[0]


def solve_columns_mod_p(mat, rhss, p):
    """For each rhs of rhss, one solution of mat @ v = rhs (mod p), or
    None, by one elimination of [mat | every rhs].

    A rhs is inconsistent exactly when some row of the echelon form that
    is zero on mat is not zero in its column. For a consistent rhs, the
    echelon form less the other rhs columns is that of [mat | rhs] alone
    (the echelon form is unique), so each solution is the one that
    eliminating its rhs alone gives: the rhs column at the pivots.
    """
    if not mat:
        return [None] * len(rhss)
    n = len(mat[0])
    R, pivots = rref_mod_p([list(row) + list(bs) for row, bs in zip(mat, zip(*rhss))], p)
    rows = list(zip(R, pivots))
    out = []
    for j in range(n, n + len(rhss)):
        if any(row[j] for row, c in rows if c >= n):
            out.append(None)
            continue
        v = [0] * n
        for row, c in rows:
            if c < n:
                v[c] = row[j]
        out.append(v)
    return out


def extend_kernel(rows, coupling, diag, p):
    """One more level of a block lower-triangular homogeneous system.

    rows: k lists that span the solutions s of the levels so far. The
    new level's equations are coupling @ s + diag @ x = 0 in s and the
    new unknowns x, one row of `coupling` (empty at the first level) per
    row of `diag`, at least one. Returns the rows of a basis of the
    solutions (s, x) of all levels; start from no rows, the basis of the
    one solution of no equations.
    """
    k, m = len(rows), len(diag[0])
    # an equation's s-part sums the columns of the rows that its coupling
    # row reaches, a solution's s-part the rows its coefficients reach;
    # only those are packed
    P = Packing(p, k)
    cols = list(zip(*rows)) or [()] * len(coupling[0])
    reached = {j for crow in coupling for j in compress(range(len(crow)), crow)}
    cols = {j: P.pack(cols[j]) for j in reached}
    A = [P.unpack(P.combine(crow, cols)) + list(drow) for crow, drow in zip(coupling, diag)]
    basis = nullspace_mod_p(A, k + m, p)
    S = Packing(p, len(coupling[0]))
    reached = {i for v in basis for i in compress(range(k), v)}
    packed = {i: S.pack(rows[i]) for i in reached}
    return [S.unpack(S.combine(v[:k], packed)) + v[k:] for v in basis]


def canonical_basis(rows, p):
    """The basis `nullspace_mod_p` returns for the space the rows span.

    That basis is the reduced echelon form on reversed columns: each
    vector ends in a 1 at a (free) column where every other vector is 0,
    and the vectors are ordered by that column. It depends on the space
    alone, so any spanning rows give it.
    """
    R, pivots = rref_mod_p([row[::-1] for row in rows], p)
    return [row[::-1] for row in reversed(R[: len(pivots)])]


def add_block(big, r0, c0, blk, sign=1):
    """Add sign * blk into the rows of big from r0 on, from column c0 on."""
    for t, row in enumerate(blk):
        out = big[r0 + t]
        out[c0 : c0 + len(row)] = [x + sign * y for x, y in zip(out[c0 : c0 + len(row)], row)]
