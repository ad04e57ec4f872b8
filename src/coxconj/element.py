"""Exact group elements of a Coxeter group via the reflection representation.

An element is stored as the matrix of its action on the root space in the
simple-root basis, together with the matrix of its inverse (so that left
and right descent tests are both single column-sign checks).  All entries
live in Z[2cos(pi/L)] and are integer coordinate tuples (plain ints when
the ring is Z), so equality and hashing are exact and cheap.

The ShortLex-least reduced word of an element is extracted greedily from
left descents and cached; words, lengths and supports all come from it.
"""

from . import coxmat
from .coxmat import DiagramAutomorphism
from .errors import (
    NonSpherical,
    NotARoot,
    NotNormalizing,
    VerificationFailed,
)
from .field import scalar_field


class Realization:
    """Reflection representation data for one Coxeter system."""

    def __init__(self, sys):
        self.sys = sys
        labels = {sys.m(i, j) for i in range(sys.rank)
                  for j in range(i + 1, sys.rank)}
        self.field = scalar_field(labels)
        F = self.field
        n = sys.rank
        # sparse Cartan-like rows: C[s] = [(u, 2B(e_s,e_u))] over nonzeros
        rows = []
        for s in range(n):
            row = [(s, F.from_int(2))]
            for u in range(n):
                if u != s and sys.m(s, u) != 2:
                    m = sys.m(s, u)
                    row.append((u, F.neg(F.two_cos_pi_over(m))))
            rows.append(tuple(row))
        self.cartan_rows = tuple(rows)
        zero = F.from_int(0)
        one = F.from_int(1)
        self.zero = zero
        self.one = one
        self.id_mat = tuple(
            tuple(one if i == j else zero for j in range(n)) for i in range(n))
        if F.degree == 1:
            self.left_mul_gen = self._left_mul_gen_int
            self.right_mul_gen = self._right_mul_gen_int
            self.col_sign = self._col_sign_int

    # -- matrix primitives -------------------------------------------------

    def left_mul_gen(self, s, mat):
        """Matrix of rho_s * mat (row s update)."""
        F = self.field
        n = self.sys.rank
        row = list(mat[s])
        for (u, c) in self.cartan_rows[s]:
            src = mat[u]
            for t in range(n):
                if not F.is_zero(src[t]):
                    row[t] = F.sub(row[t], F.mul(c, src[t]))
        out = list(mat)
        out[s] = tuple(row)
        return tuple(out)

    def right_mul_gen(self, mat, s):
        """Matrix of mat * rho_s (column updates)."""
        F = self.field
        n = self.sys.rank
        cols = [list(r) for r in mat]
        base = [mat[u][s] for u in range(n)]
        for (t, c) in self.cartan_rows[s]:
            if t == s:
                continue
            for u in range(n):
                if not F.is_zero(base[u]):
                    cols[u][t] = F.sub(cols[u][t], F.mul(c, base[u]))
        for u in range(n):
            cols[u][s] = F.neg(base[u])
        return tuple(tuple(r) for r in cols)

    # integer fast paths (scalars are plain ints)

    def _left_mul_gen_int(self, s, mat):
        row = mat[s]
        for (u, c) in self.cartan_rows[s]:
            src = mat[u]
            row = tuple(r - c * x for r, x in zip(row, src))
        out = list(mat)
        out[s] = row
        return tuple(out)

    def _right_mul_gen_int(self, mat, s):
        pairs = [(t, c) for (t, c) in self.cartan_rows[s] if t != s]
        out = []
        for r in mat:
            base = r[s]
            if base:
                row = list(r)
                for (t, c) in pairs:
                    row[t] -= c * base
                row[s] = -base
                out.append(tuple(row))
            else:
                out.append(r)
        return tuple(out)

    def _col_sign_int(self, mat, j):
        for row in mat:
            x = row[j]
            if x:
                return 1 if x > 0 else -1
        return 0

    def mat_mul(self, A, B):
        F = self.field
        n = self.sys.rank
        Bc = list(zip(*B))
        out = []
        for i in range(n):
            Ai = A[i]
            row = []
            for j in range(n):
                acc = self.zero
                Bj = Bc[j]
                for k in range(n):
                    a = Ai[k]
                    if not F.is_zero(a):
                        b = Bj[k]
                        if not F.is_zero(b):
                            acc = F.add(acc, F.mul(a, b))
                row.append(acc)
            out.append(tuple(row))
        return tuple(out)

    def apply_mat(self, mat, v):
        F = self.field
        n = self.sys.rank
        out = []
        for i in range(n):
            acc = self.zero
            row = mat[i]
            for j in range(n):
                if not F.is_zero(v[j]) and not F.is_zero(row[j]):
                    acc = F.add(acc, F.mul(row[j], v[j]))
            out.append(acc)
        return tuple(out)

    def vec_sign(self, v):
        """Sign of a root vector: sign of its first nonzero coordinate."""
        F = self.field
        for x in v:
            if not F.is_zero(x):
                return F.sign(x)
        return 0

    def col_sign(self, mat, j):
        F = self.field
        for i in range(self.sys.rank):
            if not F.is_zero(mat[i][j]):
                return F.sign(mat[i][j])
        return 0

    def basis_vector(self, s):
        return tuple(self.one if i == s else self.zero
                     for i in range(self.sys.rank))

    def vec_supp(self, v):
        F = self.field
        return frozenset(i for i, x in enumerate(v) if not F.is_zero(x))

    # -- element constructors ----------------------------------------------

    def identity(self):
        return Element(self, self.id_mat, self.id_mat, word=(), length=0)

    def generator(self, s):
        mat = self.right_mul_gen(self.id_mat, s)
        return Element(self, mat, mat, word=(s,), length=1)

    def from_word(self, word):
        mat = self.id_mat
        inv = self.id_mat
        for s in word:
            mat = self.right_mul_gen(mat, s)
            inv = self.left_mul_gen(s, inv)
        return Element(self, mat, inv)


def realization(sys):
    return sys.cached("realization", lambda: Realization(sys))


class Element:
    """A group element; equality and hashing are matrix-based."""

    __slots__ = ("R", "mat", "inv_mat", "_word", "_len", "_hash")

    def __init__(self, R, mat, inv_mat, word=None, length=None):
        self.R = R
        self.mat = mat
        self.inv_mat = inv_mat
        self._word = word
        self._len = length if length is not None else (
            len(word) if word is not None else None)
        self._hash = None

    @property
    def sys(self):
        return self.R.sys

    def __eq__(self, other):
        return isinstance(other, Element) and self.mat == other.mat

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.mat)
        return self._hash

    def __repr__(self):
        return "Element(%s)" % ".".join(
            self.sys.name_of(s) for s in self.word) if self.word else "Element(1)"

    def is_identity(self):
        return self.mat == self.R.id_mat

    def __mul__(self, other):
        if isinstance(other, TwistedElement):
            return TwistedElement(self * other.body, other.twist)
        return Element(self.R, self.R.mat_mul(self.mat, other.mat),
                       self.R.mat_mul(other.inv_mat, self.inv_mat))

    def inverse(self):
        return Element(self.R, self.inv_mat, self.mat, word=None,
                       length=self._len)

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        out = self.R.identity()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    # descents -------------------------------------------------------------

    def left_descents(self):
        return frozenset(s for s in range(self.sys.rank)
                         if self.R.col_sign(self.inv_mat, s) < 0)

    def is_right_descent(self, s):
        return self.R.col_sign(self.mat, s) < 0

    def is_left_descent(self, s):
        return self.R.col_sign(self.inv_mat, s) < 0

    def left_mul_gen(self, s):
        """s * self, with length bookkeeping."""
        ln = None
        if self._len is not None:
            ln = self._len + (-1 if self.is_left_descent(s) else 1)
        return Element(self.R, self.R.left_mul_gen(s, self.mat),
                       self.R.right_mul_gen(self.inv_mat, s), length=ln)

    def right_mul_gen(self, s):
        ln = None
        if self._len is not None:
            ln = self._len + (-1 if self.is_right_descent(s) else 1)
        return Element(self.R, self.R.right_mul_gen(self.mat, s),
                       self.R.left_mul_gen(s, self.inv_mat), length=ln)

    def shift(self, s):
        """The cyclic-shift candidate s * self * s."""
        return self.left_mul_gen(s).right_mul_gen(s)

    @property
    def word(self):
        """ShortLex-least reduced word (smallest left descent first)."""
        if self._word is None:
            letters = []
            m = self
            while not m.is_identity():
                for s in range(self.sys.rank):
                    if m.is_left_descent(s):
                        letters.append(s)
                        m = m.left_mul_gen(s)
                        break
                else:
                    raise VerificationFailed("no descent on a non-identity "
                                             "element")
            self._word = tuple(letters)
            self._len = len(letters)
        return self._word

    def length(self):
        if self._len is None:
            self.word
        return self._len

    def supp(self):
        return frozenset(self.word)

    def apply(self, v):
        return self.R.apply_mat(self.mat, v)

    def sort_key(self):
        return (self.length(), self.word)


class TwistedElement:
    """A pair (body, twist) modelling w = body * twist in W x Aut(W,S)."""

    __slots__ = ("body", "twist")

    def __init__(self, body, twist):
        self.body = body
        self.twist = twist

    @property
    def R(self):
        return self.body.R

    @property
    def sys(self):
        return self.body.sys

    def __eq__(self, other):
        return (isinstance(other, TwistedElement)
                and self.body == other.body and self.twist == other.twist)

    def __hash__(self):
        return hash((self.body.mat, self.twist))

    def __repr__(self):
        return "TwistedElement(%r, %r)" % (self.body, self.twist)

    def is_identity(self):
        return self.body.is_identity() and self.twist.is_identity()

    def length(self):
        return self.body.length()

    @property
    def word(self):
        return self.body.word

    def supp(self):
        """Twist-invariant support closure of the body support."""
        s = set(self.body.supp())
        while True:
            s2 = s | {self.twist(i) for i in s}
            if s2 == s:
                return frozenset(s)
            s = s2

    def apply(self, v):
        # (u delta)(e_s) = u(e_{delta(s)})
        permuted = [None] * len(v)
        for i in range(len(v)):
            permuted[self.twist(i)] = v[i]
        return self.body.apply(tuple(permuted))

    def __mul__(self, other):
        if isinstance(other, Element):
            return TwistedElement(self.body * permute_element(self.twist, other),
                                  self.twist)
        return TwistedElement(
            self.body * permute_element(self.twist, other.body),
            self.twist.compose(other.twist))

    def __rmul__(self, other):
        if isinstance(other, Element):
            return TwistedElement(other * self.body, self.twist)
        return NotImplemented

    def inverse(self):
        tinv = self.twist.inverse()
        return TwistedElement(permute_element(tinv, self.body.inverse()), tinv)

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        out = TwistedElement(self.R.identity(),
                             DiagramAutomorphism.identity(self.sys.full))
        for _ in range(k):
            out = out * self
        return out

    def left_mul_gen(self, s):
        return TwistedElement(self.body.left_mul_gen(s), self.twist)

    def right_mul_gen(self, s):
        """self * s = (body * twist(s), twist)."""
        return TwistedElement(self.body.right_mul_gen(self.twist(s)),
                              self.twist)

    def shift(self, s):
        return self.left_mul_gen(s).right_mul_gen(s)

    def is_left_descent(self, s):
        return self.body.is_left_descent(s)

    def is_right_descent(self, s):
        return self.body.is_right_descent(self.twist(s))

    def sort_key(self):
        return (self.length(), self.word)


def permute_element(delta, x):
    """The image of x under the diagram automorphism delta."""
    R = x.R
    n = R.sys.rank

    def permute_mat(mat):
        out = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                out[delta(i)][delta(j)] = mat[i][j]
        return tuple(tuple(r) for r in out)

    w = None
    if x._word is not None:
        w = tuple(delta(s) for s in x._word)
    return Element(R, permute_mat(x.mat), permute_mat(x.inv_mat), word=w,
                   length=x._len)


def twist_element(delta, x):
    """delta(x) by word relabelling; x must be supported in delta's domain.

    Valid because a diagram automorphism of the induced subdiagram extends
    to a group isomorphism of the standard parabolic it generates.
    """
    if not x.supp() <= delta.domain:
        raise NotNormalizing("element is not supported in the twist domain")
    return x.R.from_word(tuple(delta(s) for s in x.word))


def as_twisted(w):
    if isinstance(w, TwistedElement):
        return w
    return TwistedElement(w, DiagramAutomorphism.identity(w.sys.full))


def conjugate(w, x):
    """x^-1 * w * x for w an Element or TwistedElement."""
    if isinstance(w, TwistedElement):
        return TwistedElement(
            x.inverse() * w.body * permute_element(w.twist, x), w.twist)
    return x.inverse() * w * x


# ---------------------------------------------------------------------------
# public operations


def reduce(sys, word):
    """Element of the given word, with ShortLex-least cached expression."""
    return realization(sys).from_word(word)


def identity(sys):
    return realization(sys).identity()


def generator(sys, s):
    return realization(sys).generator(s)


@coxmat.per_subset
def longest_element(sys, K):
    """w_0(K) for a spherical subset K."""
    R = realization(sys)
    if not coxmat.is_spherical(sys, K):
        raise NonSpherical("longest element of a non-spherical subset")
    expected = coxmat.spherical_root_count(sys, K)
    w = R.identity()
    ks = sorted(K)
    while True:
        for s in ks:
            if not w.is_right_descent(s):
                w = w.right_mul_gen(s)
                break
        else:
            break
    if w.length() != expected:
        raise VerificationFailed("longest element has wrong length")
    if not (w * w).is_identity():
        raise VerificationFailed("longest element is not an involution")
    op = coxmat.opposition(sys, K)
    for s in K:
        img = w.apply(R.basis_vector(s))
        if img != tuple(R.field.neg(x) for x in R.basis_vector(op(s))):
            raise VerificationFailed("w_0(K) does not realise op_K")
    return w


def length_ball(sys, length_cap):
    """The elements of length at most length_cap, lazily, ordered by
    (length, ShortLex): a breadth-first ball one length at a time."""
    level = [identity(sys)]
    while level:
        yield from level
        nxt = {y for x in level for y in map(x.right_mul_gen, range(sys.rank))
               if x.length() < y.length() <= length_cap}
        level = sorted(nxt, key=Element.sort_key)


def min_coset_rep(w, K, side="right", J=None):
    """Minimal representative of wW_K, W_Kw, or W_J w W_K."""
    K = frozenset(K)
    if side == "right":
        while True:
            for s in sorted(K):
                if w.is_right_descent(s):
                    w = w.right_mul_gen(s)
                    break
            else:
                return w
    if side == "left":
        while True:
            for s in sorted(K):
                if w.is_left_descent(s):
                    w = w.left_mul_gen(s)
                    break
            else:
                return w
    if side == "double":
        J = frozenset(J)
        while True:
            w2 = min_coset_rep(min_coset_rep(w, J, "left"), K, "right")
            if w2 == w:
                return w
            w = w2
    raise ValueError("side must be left, right or double")


def normalizes(w, K):
    """True iff w W_K w^-1 = W_K, tested on the simple roots of K."""
    R = w.R
    K = frozenset(K)
    for s in K:
        img = w.apply(R.basis_vector(s))
        if not R.vec_supp(img) <= K:
            return False
    return True


def maps_simples_onto(x, I, J):
    """True iff x maps every simple root of I to a simple root of J."""
    R = x.R
    for s in I:
        img = x.apply(R.basis_vector(s))
        supp = R.vec_supp(img)
        if len(supp) != 1 or not supp <= J or R.vec_sign(img) < 0:
            return False
    return True


def normalizer_split(w, I):
    """Split w = w_I * n_I with w_I in W_I and n_I of minimal length.

    n_I maps the simple roots of I to simple roots of I (checked); lengths
    are additive.
    """
    I = frozenset(I)
    if not normalizes(w, I):
        raise NotNormalizing("element does not normalise the parabolic")
    pre = []
    n = w
    while True:
        for s in sorted(I):
            if n.is_left_descent(s):
                pre.append(s)
                n = n.left_mul_gen(s)
                break
        else:
            break
    w_I = w.R.from_word(tuple(pre))
    if w_I.length() + n.length() != w.length():
        raise VerificationFailed("normalizer split is not length-additive")
    if not maps_simples_onto(n, I, I):
        raise VerificationFailed("n_I does not permute the simple roots")
    return w_I, n


def twist_of_normalizer(n, I):
    """The permutation s -> n s n^-1 of I induced by n with n Pi_I = Pi_I."""
    R = n.R
    mapping = {}
    for s in I:
        img = n.apply(R.basis_vector(s))
        (t,) = R.vec_supp(img)
        mapping[s] = t
    return DiagramAutomorphism(mapping)


@coxmat.per_subset
def root_closure(sys, K):
    """All positive roots of Phi_K as coordinate vectors (K spherical)."""
    R = realization(sys)
    expected = coxmat.spherical_root_count(sys, K)
    roots = {R.basis_vector(s) for s in K}
    frontier = list(roots)
    while frontier:
        beta = frontier.pop()
        for s in K:
            img = reflect_vec(R, s, beta)
            if R.vec_sign(img) > 0 and img not in roots:
                roots.add(img)
                frontier.append(img)
        if len(roots) > expected:
            raise VerificationFailed("root closure exceeded expected count")
    if len(roots) != expected:
        raise VerificationFailed("root closure found %d of %d roots"
                                 % (len(roots), expected))
    return frozenset(roots)


def reflect_vec(R, s, v):
    """rho_s(v) = v - 2B(e_s, v) e_s."""
    F = R.field
    acc = F.from_int(0)
    for (u, c) in R.cartan_rows[s]:
        if not F.is_zero(v[u]):
            acc = F.add(acc, F.mul(c, v[u]))
    if F.is_zero(acc):
        return v
    out = list(v)
    out[s] = F.sub(out[s], acc)
    return tuple(out)


def reflection_word(sys, beta):
    """A word for the reflection with positive root beta.

    Descends beta to a simple root by repeatedly applying the simple
    reflection giving the largest height drop (smallest index on ties) and
    returns the palindrome word.
    """
    R = realization(sys)
    F = R.field
    if R.vec_sign(beta) <= 0:
        raise NotARoot("reflection_word needs a positive root")
    letters = []
    cur = beta
    guard = 0
    while True:
        guard += 1
        if guard > 100000:
            raise NotARoot("descent did not terminate")
        supp = R.vec_supp(cur)
        if len(supp) == 1:
            (j,) = supp
            if cur != R.basis_vector(j):
                raise NotARoot("descent stalled at a non-simple vector")
            return tuple(letters) + (j,) + tuple(reversed(letters))
        best = None
        best_pair = None
        for s in range(sys.rank):
            acc = F.from_int(0)
            for (u, c) in R.cartan_rows[s]:
                if not F.is_zero(cur[u]):
                    acc = F.add(acc, F.mul(c, cur[u]))
            if F.sign(acc) > 0:
                if best is None or F.sign(F.sub(acc, best_pair)) > 0:
                    best = s
                    best_pair = acc
        if best is None:
            raise NotARoot("no height-decreasing reflection")
        cur = reflect_vec(R, best, cur)
        if R.vec_sign(cur) <= 0:
            raise NotARoot("descent left the positive cone")
        letters.append(best)


def parabolic_closure(w):
    """(a, K) with Pc(w) = a W_K a^-1, via cyclic reduction."""
    from .cycshift import cyclically_reduce
    v, conj = cyclically_reduce(w)
    a = w.R.from_word(tuple(conj))
    return a, v.supp()


def order(w):
    """Order of a (possibly twisted) element, or None for infinite order."""
    from .cycshift import cyclically_reduce
    v, _ = cyclically_reduce(w)
    tw = as_twisted(v) if not isinstance(v, TwistedElement) else v
    if not coxmat.is_spherical(v.sys, tw.supp()):
        return None
    ident = as_twisted(identity(v.sys))
    acc = tw
    n = 1
    while not acc == ident:
        acc = acc * tw
        n += 1
        if n > 10 ** 7:
            raise VerificationFailed("runaway order computation")
    return n
