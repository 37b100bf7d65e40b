import random
from itertools import product

import numpy as np
import pytest

from ballobs import kernels
from ballobs.kernels import constrained_vectors
from ballobs.lattice import MAX_AMBIENT


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


@pytest.fixture
def closed_form_calls(monkeypatch):
    """Counts the kernel calls answered in closed form, so that a test can
    show that both methods ran."""
    calls = []
    closed_form = kernels._closed_form

    def spy(*args):
        calls.append(args[3])
        return closed_form(*args)
    monkeypatch.setattr(kernels, "_closed_form", spy)
    return calls


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
    """The dispatching kernel against brute force: instances of norm <= 2
    take the closed form, of norm 3 with a nonzero dot the anchored closed
    form, the others the scan."""

    def test_matches_brute_force(self, closed_form_calls):
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
        assert len(closed_form_calls) >= 50

    def test_batch_matches_brute_force_per_query(self, closed_form_calls):
        check_batches(random.Random(12))
        assert len(closed_form_calls) >= 20

    @pytest.mark.parametrize("block", [8, 64])
    def test_blockwise_bound_test(self, monkeypatch, closed_form_calls, block):
        # with 8-entry blocks every layer of the scan is tested block by
        # block; with 64 some layers are split and others are not, so the
        # survivors of split layers, tie cut included, meet the unsplit path
        # in one call
        monkeypatch.setattr(kernels, "_BLOCK", block)
        check_batches(random.Random(13))
        assert len(closed_form_calls) >= 20

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


def low_norm_batch(rng):
    """A batch for the closed form: rows with tied and dead columns, and dots
    planted from a vector of norm <= 2 on one owner, or zero."""
    b, k, u = rng.randrange(1, 7), rng.randrange(1, 4), rng.randrange(1, 8)
    rows = np.array([[[rng.randrange(-2, 3) for _ in range(u)] for _ in range(k)]
                     for _ in range(b)], dtype=np.int64)
    for owner in range(b):
        for c in range(1, u):
            if rng.random() < 0.3:
                rows[owner, :, c] = rows[owner, :, c - 1]
    used = np.array([rng.randrange(0, u + 1) for _ in range(b)], dtype=np.int64)
    for owner in range(b):
        # dead columns are zero-padded in the search; other callers may
        # leave anything there
        dead = rows[owner, :, used[owner]:]
        dead[...] = 0 if rng.random() < 0.7 else rng.randrange(-2, 3)
    norm = rng.choice((1, 2))
    x = np.zeros(u, dtype=np.int64)
    if rng.random() < 0.75:
        for c in rng.sample(range(u), min(u, rng.randrange(0, norm + 1))):
            x[c] = rng.choice((-1, 1))
    dots = rows[rng.randrange(b)] @ x
    return rows, used, dots, norm


class TestClosedForm:
    """The norm <= 2 closed form against the scan, its oracle, on whole
    batches: identical owner and solution arrays."""

    def compare(self, seed):
        rng = random.Random(seed)
        seen = dict.fromkeys(("norm 1", "norm 2", "zero dots", "dead columns, zero dots",
                              "tie cut"), 0)
        for _ in range(400):
            rows, used, dots, norm = low_norm_batch(rng)
            owner, x = kernels._closed_form(rows, used, dots, norm)
            scan_owner, scan_x = kernels._scan(rows, used, dots, norm)
            assert np.array_equal(owner, scan_owner) and np.array_equal(x, scan_x)
            assert owner.dtype == np.int64 and x.dtype == np.int64
            seen[f"norm {norm}"] += 1
            zero = not dots.any()
            seen["zero dots"] += zero
            seen["dead columns, zero dots"] += zero and bool((used < rows.shape[2] - 1).any())
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(kernels, "_ties",
                           lambda rows, used: np.zeros(rows.shape[::2], dtype=bool))
                every = kernels._scan(rows, used, dots, norm)[0]
            seen["tie cut"] += len(every) > len(owner)
        assert min(seen.values()) >= 100, seen

    def test_matches_scan(self):
        self.compare(21)

    def test_forced_hash_collisions(self, monkeypatch):
        # all weights 0: every candidate on live columns matches the hash,
        # so only the exact re-check decides
        monkeypatch.setattr(kernels, "_HASH_WEIGHTS", np.zeros_like(kernels._HASH_WEIGHTS))
        self.compare(22)

    def test_hash_weights(self):
        # Row j's weight is _HASH_BASE^(j+1) in wrapping int64 arithmetic,
        # one weight for each row a search can place.
        weights = kernels._HASH_WEIGHTS
        assert weights.dtype == np.int64 and weights.shape == (MAX_AMBIENT,)
        assert not weights.flags.writeable
        for j, w in enumerate(weights.tolist()):
            assert w % (1 << 64) == pow(kernels._HASH_BASE, j + 1, 1 << 64)
            assert -(1 << 63) <= w < 1 << 63
        assert np.array_equal(weights, np.cumprod(np.full(MAX_AMBIENT, kernels._HASH_BASE,
                                                          dtype=np.int64)))

    @pytest.mark.parametrize("u", range(1, 6))
    @pytest.mark.parametrize("norm", range(3))
    def test_candidate_table(self, u, norm):
        # Decoded both from its terms and from its signed-list columns, the
        # table is every x in {-1, 0, 1}^u with at most norm nonzero entries,
        # in lex order, and need is 1 + the last column x touches.
        i, j, need, a, sa, b, sb = (col.tolist() for col in kernels._candidates(u, norm))
        signed = [(0,) * u] + [tuple(s * (c == e) for e in range(u))
                               for s in (-1, 1) for c in range(u)]
        decoded = []
        for n in range(len(i)):
            x = [0] * u
            x[a[n]] += sa[n]
            x[b[n]] += sb[n]
            assert tuple(x) == tuple(map(sum, zip(signed[i[n]], signed[j[n]])))
            assert need[n] == max((c + 1 for c in range(u) if x[c]), default=0)
            decoded.append(tuple(x))
        assert decoded == sorted(x for x in product((-1, 0, 1), repeat=u)
                                 if sum(map(abs, x)) <= norm)

    def test_dead_columns_never_used(self):
        # two zero-padded dead columns with opposite signs hash to 0, the
        # hash of dots == 0, and pass the exact check too; only the used
        # mask rejects e_1 - e_2 and e_1 + e_2 here
        rows = np.array([[[1, 0, 0]]], dtype=np.int64)
        owner, x = constrained_vectors(rows, [1], np.array([0], dtype=np.int64), 2)
        assert owner.tolist() == [0] and x.tolist() == [[0, 0, 0, 0]]

    @pytest.mark.parametrize("block", [1, 8])
    def test_blockwise_hash_test(self, monkeypatch, block):
        # 32 * _BLOCK entries cap the hash test: at u = 7 (99 candidates)
        # a block holds one owner (block 1) or two (block 8)
        monkeypatch.setattr(kernels, "_BLOCK", block)
        self.compare(23)

    def test_dispatch_by_norm(self, monkeypatch, closed_form_calls):
        # norms 0-2 take the closed form, norm 3 with a nonzero dot the
        # anchored closed form, and the rest the scan
        scans, anchored = [], []
        scan, anchor = kernels._scan, kernels._anchored
        monkeypatch.setattr(kernels, "_scan", lambda *args: scans.append(args[3]) or scan(*args))
        monkeypatch.setattr(kernels, "_anchored",
                            lambda *args: anchored.append(args[2].tolist()) or anchor(*args))
        rows = np.array([[[1, 1, 0, 1]]], dtype=np.int64)
        for norm in range(5):
            constrained_vectors(rows, [4], np.array([1], dtype=np.int64), norm)
        constrained_vectors(rows, [4], np.array([0], dtype=np.int64), 3)
        assert closed_form_calls == [0, 1, 2] and anchored == [[1]] and scans == [4, 3]


def norm3_batch(rng):
    """A batch for the anchored closed form: rows with tied columns, dead
    columns (zero-padded or junk), owners whose rows vanish on their live
    columns, and dots planted from a vector of norm <= 3 on one owner, at
    least one of them nonzero."""
    while True:
        b, k, u = rng.randrange(1, 6), rng.randrange(1, 4), rng.randrange(1, 7)
        rows = np.array([[[rng.choice((-2, -1, 0, 0, 1, 1, 2)) for _ in range(u)]
                          for _ in range(k)] for _ in range(b)], dtype=np.int64)
        for owner in range(b):
            if rng.random() < 0.15:
                rows[owner, rng.randrange(k)] = 0
            for c in range(1, u):
                if rng.random() < 0.3:
                    rows[owner, :, c] = rows[owner, :, c - 1]
        used = np.array([rng.choice((u, u, rng.randrange(0, u + 1))) for _ in range(b)],
                        dtype=np.int64)
        for owner in range(b):
            dead = rows[owner, :, used[owner]:]
            dead[...] = 0 if rng.random() < 0.6 else rng.randrange(-2, 3)
        x = np.zeros(u, dtype=np.int64)
        for c in rng.sample(range(u), min(u, rng.randrange(1, 4))):
            x[c] = rng.choice((-1, 1))
        planted = rng.randrange(b)
        x[used[planted]:] = 0
        dots = rows[planted] @ x
        if rng.random() < 0.1:
            dots[rng.randrange(k)] += rng.choice((-1, 1))
        if dots.any():
            return rows, used, dots


class TestAnchored:
    """The norm-3 closed form, anchored on the support of a row with a
    nonzero dot, against the scan and against brute force per owner."""

    def compare(self, seed):
        rng = random.Random(seed)
        seen = dict.fromkeys(("solutions", "several support columns", "tie cut", "junk past used",
                              "vanishing row"), 0)
        for _ in range(400):
            rows, used, dots = norm3_batch(rng)
            owner, x = kernels._anchored(rows, used, dots)
            scan_owner, scan_x = kernels._scan(rows, used, dots, 3)
            assert np.array_equal(owner, scan_owner) and np.array_equal(x, scan_x)
            assert owner.dtype == np.int64 and x.dtype == np.int64
            u = rows.shape[2]
            for b in range(len(rows)):
                q = rows[b, :, :used[b]]
                every = brute_solutions(q, dots, 3)
                expected = [v for v in every if obeys_tie_rule(q, v)]
                mine = [tuple(row) for row in x[owner == b].tolist()]
                assert [v[:used[b]] + v[u:] for v in mine] == expected
                assert all(not any(v[used[b]:u]) for v in mine)
                seen["tie cut"] += len(expected) < len(every)
                seen["junk past used"] += bool(rows[b, :, used[b]:].any())
                seen["vanishing row"] += bool((~q[dots != 0].any(axis=1)).any())
                # a solution that touches two or more support columns of
                # every row with a nonzero dot: the anchor cannot be unique
                support = q[dots != 0] != 0
                seen["several support columns"] += sum(
                    bool(((support & (np.array(v[:used[b]]) != 0)).sum(axis=1) >= 2).all())
                    for v in expected)
            seen["solutions"] += len(owner)
        assert min(seen.values()) >= 40, seen

    def test_matches_scan_and_brute_force(self):
        self.compare(31)

    def test_forced_hash_collisions(self, monkeypatch):
        # all weights 0: every anchor and candidate on live columns matches
        # the hash, so only the exact re-check decides
        monkeypatch.setattr(kernels, "_HASH_WEIGHTS", np.zeros_like(kernels._HASH_WEIGHTS))
        self.compare(32)

    @pytest.mark.parametrize("block", [1, 8, 64])
    def test_blockwise_hash_test(self, monkeypatch, block):
        # A dense row with a nonzero dot: every column is an anchor.  With 6
        # columns (73 candidates) and 6 anchors, each owner has 12 target
        # rows, over 3 to 5 owners; blocks of 32, 256 and 2048 entries split
        # them by target (block 1, 8) or by owner (block 64).
        rng = random.Random(33)
        monkeypatch.setattr(kernels, "_BLOCK", block)
        for _ in range(60):
            b, u = rng.randrange(3, 6), 6
            rows = np.array([[[rng.choice((-1, 1)) for _ in range(u)],
                              [rng.randrange(-1, 2) for _ in range(u)]] for _ in range(b)],
                            dtype=np.int64)
            used = np.full(b, u)
            x = np.array([rng.randrange(-1, 2) for _ in range(3)] + [0] * 3)
            dots = rows[0] @ x
            dots[0] = dots[0] or 1
            assert len(rows) * 12 * 73 > 32 * block
            owner, got = kernels._anchored(rows, used, dots)
            scan_owner, scan_x = kernels._scan(rows, used, dots, 3)
            assert np.array_equal(owner, scan_owner) and np.array_equal(got, scan_x)

    def test_anchor_row_of_narrowest_support(self, monkeypatch):
        # Row 0 is dense and row 1 touches one column, so row 1 anchors: one
        # anchor, two target rows per owner.
        widths = []
        hash_hits = kernels._hash_hits
        monkeypatch.setattr(kernels, "_hash_hits",
                            lambda *args: widths.append(args[-1].shape) or hash_hits(*args))
        rows = np.array([[[1, 1, 1, 1], [0, 0, 1, 0]]] * 3, dtype=np.int64)
        used, dots = np.array([4, 4, 3]), np.array([1, 1])
        owner, x = constrained_vectors(rows, used, dots, 3)
        assert widths == [(3, 2)]
        scan_owner, scan_x = kernels._scan(rows, used, dots, 3)
        assert np.array_equal(owner, scan_owner) and np.array_equal(x, scan_x)
        # x[2] = 1 and x[0] + x[1] + x[3] = 0 (owner 2: x[3] = 0), with
        # x[0] >= x[1] on the tied columns 0 and 1
        assert [v[:4] for v in x[owner == 0].tolist()] == [
            [0, -1, 1, 1], [0, 0, 1, 0], [1, -1, 1, 0], [1, 0, 1, -1]]
        assert [v[:4] for v in x[owner == 2].tolist()] == [[0, 0, 1, 0], [1, -1, 1, 0]]

    def test_no_live_support(self):
        # the only row with a nonzero dot vanishes on every live column
        rows = np.array([[[0, 0, 5]], [[0, 0, 0]]], dtype=np.int64)
        owner, x = kernels._anchored(rows, np.array([2, 3]), np.array([1]))
        assert owner.shape == (0,) and x.shape == (0, 4)


def row_norms(rows):
    return (rows * rows).sum(axis=-1)


class TestScanWidth:
    """The scan computes in int32 only where 4 * max(max|dots|^2, norm * R)
    < 2^31, R the largest squared row length; both sides of that bound
    against the brute-force oracle."""

    @pytest.mark.parametrize("entry, dtype", [(16383, np.int32), (16384, np.int64)])
    def test_each_side_of_the_bound(self, entry, dtype):
        # norm 2 and R = entry^2 put 4 * norm * R = 8 * entry^2 just under
        # and exactly at 2^31; dots planted from x = (1, 0, 1) reach the
        # largest deficit, 2 * entry, on x[0] = -1.
        rows = np.array([[entry, 0, 0], [1, 1, -1]], dtype=np.int64)
        dots = rows @ np.array([1, 0, 1], dtype=np.int64)
        assert kernels._scan_dtype(row_norms(rows), dots, 2) is dtype
        owner, got = kernels._scan(rows[None], np.array([3]), dots, 2)
        assert got.dtype == np.int64 and owner.dtype == np.int64
        expected = [x for x in brute_solutions(rows, dots, 2) if obeys_tie_rule(rows, x)]
        assert [tuple(x) for x in got.tolist()] == expected and expected

    def test_int64_where_int32_would_wrap(self):
        # A deficit of 50,000 squares to 2.5e9, which wraps negative in
        # int32 and would pass the bound test of the last column: x = +-1
        # would be kept.
        rows = np.array([[[50000, 3]]], dtype=np.int64)
        dots = np.array([3], dtype=np.int64)
        assert kernels._scan_dtype(row_norms(rows), dots, 1) is np.int64
        owner, got = kernels._scan(rows, np.array([2]), dots, 1)
        assert [tuple(x) for x in got.tolist()] == brute_solutions(rows[0], dots, 1) == [(0, 1, 1)]

    def test_large_dots(self):
        # dots alone can push a call to int64
        rows = np.array([[[1, 1]]], dtype=np.int64)
        assert kernels._scan_dtype(row_norms(rows), np.array([23170]), 3) is np.int32
        assert kernels._scan_dtype(row_norms(rows), np.array([23171]), 3) is np.int64
        assert kernels._scan(rows, np.array([2]), np.array([23171]), 3)[1].shape == (0, 3)
