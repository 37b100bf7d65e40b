import random
from itertools import product

import numpy as np
import pytest

from ballobs import kernels
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


def obeys_tie_rule(rows, x):
    """x[c] >= x[c+1] wherever columns c and c+1 of rows are equal."""
    return all(x[c] >= x[c + 1] for c in range(rows.shape[1] - 1)
               if (rows[:, c] == rows[:, c + 1]).all())


def random_batch(rng):
    """Queries sharing one random instance's dots and norm, each with its
    own rows of its own width, zero-padded to the widest."""
    first, dots, norm = random_instance(rng)
    k = first.shape[0]
    queries = [first]
    for _ in range(rng.randrange(0, 5)):
        u = rng.randrange(1, 5)
        queries.append(np.array([[rng.randrange(-2, 3) for _ in range(u)] for _ in range(k)],
                                dtype=np.int64))
    rng.shuffle(queries)
    used = [q.shape[1] for q in queries]
    rows = np.zeros((len(queries), k, max(used)), dtype=np.int64)
    for b, q in enumerate(queries):
        rows[b, :, :used[b]] = q
    return queries, rows, used, dots, norm


def solutions(rows, used, dots, norm):
    owner, out = constrained_vectors(rows, used, dots, norm)
    assert owner.shape == (out.shape[0],)
    return [(int(b), tuple(int(v) for v in row)) for b, row in zip(owner, out)]


def check_batches(rng):
    """Each owner's slice of random batches against the brute-force oracle."""
    answered = pruned = mixed = 0
    for _ in range(150):
        queries, rows, used, dots, norm = random_batch(rng)
        got = solutions(rows, used, dots, norm)
        assert [b for b, _ in got] == sorted(b for b, _ in got)
        mixed += len(set(used)) > 1
        u = rows.shape[2]
        for b, q in enumerate(queries):
            mine = [x for owner, x in got if owner == b]
            # columns at or past the query's own width are forced to 0
            assert all(not any(x[used[b]:u]) for x in mine)
            every = brute_solutions(q, dots, norm)
            expected = [x for x in every if obeys_tie_rule(q, x)]
            assert [x[:used[b]] + x[u:] for x in mine] == expected
            answered += bool(expected)
            pruned += len(expected) < len(every)
    assert mixed >= 80 and answered >= 150 and pruned >= 20


class TestNumpyKernel:
    def test_matches_brute_force(self):
        # A single query is a batch of one.
        rng = random.Random(11)
        pruned = 0
        for _ in range(300):
            rows, dots, norm = random_instance(rng)
            got = solutions(rows[None], [rows.shape[1]], dots, norm)
            every = brute_solutions(rows, dots, norm)
            expected = [x for x in every if obeys_tie_rule(rows, x)]
            assert got == [(0, x) for x in expected]
            pruned += len(expected) < len(every)
        assert pruned >= 30  # the tie rule cuts a share of the instances

    def test_batch_matches_brute_force_per_query(self):
        check_batches(random.Random(12))

    @pytest.mark.parametrize("block", [8, 64])
    def test_blockwise_bound_test(self, monkeypatch, block):
        # with 8-entry blocks every layer of the scan is tested block by
        # block; with 64 some layers are split and others are not, so the
        # survivors of split layers, tie cut included, meet the unsplit path
        # in one call
        monkeypatch.setattr(kernels, "_BLOCK", block)
        check_batches(random.Random(13))

    def test_no_columns(self):
        # the search's root: no rows placed, no columns touched
        assert solutions(np.zeros((1, 0, 0), dtype=np.int64), [0], [], 2) == [(0, (0,))]
        rows = np.zeros((2, 1, 0), dtype=np.int64)
        assert solutions(rows, [0, 0], [0], 2) == [(0, (0,)), (1, (0,))]
        assert solutions(rows, [0, 0], [1], 2) == []

    def test_lexicographic_order(self):
        rows = np.array([[[1, 1, 0]], [[1, 0, 0]]], dtype=np.int64)
        got = solutions(rows, [3, 2], np.array([0], dtype=np.int64), 2)
        assert [b for b, _ in got] == sorted(b for b, _ in got)
        for owner in (0, 1):
            vecs = [x[:-1] for b, x in got if b == owner]
            assert vecs and vecs == sorted(vecs)

    def test_empty_result(self):
        rows = np.array([[[2, 0]]], dtype=np.int64)
        owner, out = constrained_vectors(rows, [2], np.array([1], dtype=np.int64), 1)
        assert owner.shape == (0,) and out.shape == (0, 3)
