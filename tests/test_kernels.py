import random
from itertools import product

import numpy as np

from ballobs.kernels import constrained_vectors


def brute_solutions(rows, dots, norm):
    """Product-scan oracle: every x in the norm box, filtered directly."""
    rows = np.asarray(rows, dtype=np.int64)
    dots = np.asarray(dots, dtype=np.int64)
    k, u = rows.shape
    vmax = int(np.floor(np.sqrt(norm)))
    out = []
    for x in product(range(-vmax, vmax + 1), repeat=u):
        xq = sum(v * v for v in x)
        if xq > norm:
            continue
        if all(sum(a * b for a, b in zip(rows[j], x)) == dots[j] for j in range(k)):
            out.append(tuple(x) + (xq,))
    return out


def random_instance(rng):
    k = rng.randrange(1, 4)
    u = rng.randrange(1, 5)
    rows = np.array([[rng.randrange(-2, 3) for _ in range(u)] for _ in range(k)],
                    dtype=np.int64)
    # bias towards satisfiable instances: derive dots from a planted solution
    if rng.random() < 0.7:
        x = [rng.randrange(-2, 3) for _ in range(u)]
        dots = rows @ np.array(x, dtype=np.int64)
        norm = sum(v * v for v in x) + rng.randrange(0, 3)
    else:
        dots = np.array([rng.randrange(-3, 4) for _ in range(k)], dtype=np.int64)
        norm = rng.randrange(1, 10)
    return rows, np.asarray(dots, dtype=np.int64), int(norm)


class TestNumpyKernel:
    def test_matches_brute_force(self):
        rng = random.Random(11)
        for _ in range(300):
            rows, dots, norm = random_instance(rng)
            got = [tuple(int(v) for v in row)
                   for row in constrained_vectors(rows, dots, norm)]
            assert got == brute_solutions(rows, dots, norm)

    def test_lexicographic_order(self):
        rows = np.array([[1, 1, 0]], dtype=np.int64)
        out = constrained_vectors(rows, np.array([0], dtype=np.int64), 2)
        vecs = [tuple(int(v) for v in row[:-1]) for row in out]
        assert vecs == sorted(vecs)

    def test_empty_result(self):
        rows = np.array([[2, 0]], dtype=np.int64)
        out = constrained_vectors(rows, np.array([1], dtype=np.int64), 1)
        assert out.shape == (0, 3)

