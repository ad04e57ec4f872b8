"""Independent checks of coxconj outputs in the Tits representation.

Everything here works on floating-point matrices of the geometric (Tits)
representation built with numpy from the Coxeter matrix alone; nothing is
imported from coxconj.  A Coxeter matrix is a list of rows with 1 on the
diagonal and 0 encoding the label infinity.

Signs of roots are read from the sum of their coordinates: the coordinates
of a root in the simple-root basis are all >= 0 or all <= 0, so the sum has
the root's sign and is far from rounding noise for the word lengths used
here.
"""

import math

import numpy as np

_ROOT_EPS = 1e-7


class TitsGroup:
    """Generator matrices of the Tits representation of one Coxeter system."""

    def __init__(self, matrix):
        n = len(matrix)
        self.rank = n
        bil = np.empty((n, n))
        for i in range(n):
            for j in range(n):
                m = matrix[i][j]
                bil[i, j] = -1.0 if m == 0 else -math.cos(math.pi / m)
        # s_i(a_j) = a_j - 2 B(a_i, a_j) a_i: only row i changes.
        self.gens = []
        for i in range(n):
            g = np.eye(n)
            g[i, :] -= 2.0 * bil[i, :]
            self.gens.append(g)

    def matrix_of(self, word):
        mat = np.eye(self.rank)
        for s in word:
            mat = mat @ self.gens[s]
        return mat

    def _root_sign(self, mat, s):
        """Sign of mat(a_s): negative exactly when s is a right descent."""
        total = mat[:, s].sum()
        if abs(total) < _ROOT_EPS:
            raise ArithmeticError("root sign lost to rounding")
        return 1 if total > 0 else -1

    def right_descents(self, mat):
        return [s for s in range(self.rank) if self._root_sign(mat, s) < 0]

    def length(self, word):
        """Coxeter length of the element a word spells."""
        mat = self.matrix_of(word)
        steps = 0
        while True:
            desc = self.right_descents(mat)
            if not desc:
                break
            mat = mat @ self.gens[desc[0]]
            steps += 1
        if not np.allclose(mat, np.eye(self.rank), atol=1e-6):
            raise ArithmeticError("descent walk did not reach the identity")
        return steps

    def longest_length(self):
        """Length of the longest element; the group must be finite."""
        mat = np.eye(self.rank)
        steps = 0
        while True:
            up = [s for s in range(self.rank) if self._root_sign(mat, s) > 0]
            if not up:
                return steps
            mat = mat @ self.gens[up[0]]
            steps += 1

    def is_shift_minimal(self, word):
        """No cyclic shift s*w*s is shorter than w."""
        ln = self.length(word)
        return all(self.length((s,) + tuple(word) + (s,)) >= ln
                   for s in range(self.rank))

    def charpoly(self, word):
        """Characteristic polynomial coefficients, leading coefficient 1."""
        return np.poly(self.matrix_of(word))

    def same_charpoly(self, word_a, word_b):
        a, b = self.charpoly(word_a), self.charpoly(word_b)
        return bool(np.allclose(a, b, rtol=1e-7, atol=1e-6))

    def has_finite_order(self, word, max_order=120):
        """True when w**k is the identity for some k <= max_order."""
        mat = self.matrix_of(word)
        power = mat.copy()
        eye = np.eye(self.rank)
        for _ in range(max_order):
            if np.allclose(power, eye, atol=1e-6):
                return True
            power = power @ mat
        return False
