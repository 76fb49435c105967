"""Independent brute-force oracles and small matrix helpers for the tests.

Nothing here imports the package under test; every count is produced by
direct enumeration so the library's algebraic routes can be checked against
ground truth.  Matrices are ragged lower-triangular rows, as in
TriMatrix.rows; weight arrays are read only through their n and weight().
"""

from fractions import Fraction
from itertools import combinations, permutations, product
from math import factorial, prod


def set_partitions(items):
    """Yield set partitions as lists of tuples."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [part[i] + (first,)] + part[i + 1:]
        yield part + [(first,)]


def partition_counts(m):
    """counts[k] = number of set partitions of {1..m} into k blocks."""
    counts = [0] * (m + 1)
    for part in set_partitions(range(1, m + 1)):
        counts[len(part)] += 1
    return counts


def lah_counts(m):
    """counts[k] = partitions of {1..m} into k non-empty linearly ordered
    blocks: each unordered block of size s can be arranged s! ways."""
    counts = [0] * (m + 1)
    for part in set_partitions(range(1, m + 1)):
        ways = 1
        for block in part:
            ways *= factorial(len(block))
        counts[len(part)] += ways
    return counts


def cycle_counts(m):
    """counts[k] = permutations of {1..m} with exactly k cycles.  The cycles'
    supports form a set partition, and a block of size s carries (s-1)!
    cyclic orders, so each partition into k blocks stands for
    prod (|B|-1)! of those permutations."""
    counts = [0] * (m + 1)
    for part in set_partitions(range(1, m + 1)):
        counts[len(part)] += prod(factorial(len(block) - 1) for block in part)
    return counts


def ascent_counts(m):
    """counts[k] = permutations of {1..m} with exactly k ascents."""
    counts = [0] * (m + 1)
    if m == 0:
        counts[0] = 1
        return counts
    for p in permutations(range(m)):
        counts[sum(1 for i in range(m - 1) if p[i] < p[i + 1])] += 1
    return counts


def subset_count(m, k):
    return sum(1 for _ in combinations(range(m), k))


def independent_partition_count(n, edges, m, k):
    """Partitions of {1..m} into k blocks none of which contains an edge of
    the graph on {1..n} with the given edge set."""
    edge_set = {frozenset(e) for e in edges}
    count = 0
    for part in set_partitions(range(1, m + 1)):
        if len(part) != k:
            continue
        if all(
            frozenset((u, v)) not in edge_set
            for block in part
            for u, v in combinations(block, 2)
        ):
            count += 1
    return count


def coloring_count(n, edges, x):
    """Proper colorings of the graph on {1..n} with colors {1..x}, by full
    assignment enumeration."""
    edge_list = [tuple(e) for e in edges]
    count = 0
    for assign in product(range(x), repeat=n):
        if all(assign[u - 1] != assign[v - 1] for u, v in edge_list):
            count += 1
    return count


def rook_placement_count(heights, m, k):
    """Non-attacking placements of k rooks on the first m columns of the
    Ferrers board: choose the columns, then assign distinct rows."""
    count = 0
    for cols in combinations(range(1, m + 1), k):
        def assign(i, used):
            nonlocal count
            if i == k:
                count += 1
                return
            for r in range(1, heights[cols[i] - 1] + 1):
                if r not in used:
                    assign(i + 1, used | {r})
        assign(0, frozenset())
    return count


def cofactor_det(rows):
    """Determinant by first-row cofactor expansion over Fractions."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(rows[0][0])
    total = Fraction(0)
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        total += (-1) ** j * Fraction(rows[0][j]) * cofactor_det(minor)
    return total


def monomial_coeffs(roots):
    """Coefficients (low degree first) of prod (x - r) by convolution."""
    coeffs = [Fraction(1)]
    for r in roots:
        r = Fraction(r)
        nxt = [Fraction(0)] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i] += -r * c
            nxt[i + 1] += c
        coeffs = nxt
    return coeffs


def rgs_check_integer(e):
    """Classical restricted-growth string test: e_1 = 0 and
    e_{i+1} <= 1 + max(e_1..e_i), over non-negative integers."""
    if len(e) == 0:
        return True
    if any(v < 0 for v in e):
        raise ValueError("integer restricted-growth strings are non-negative")
    if e[0] != 0:
        return False
    top = 0
    for v in e[1:]:
        if v > top + 1:
            return False
        top = max(top, v)
    return True


def integer_rgs(n):
    """All classical restricted-growth strings of length n."""
    if n == 0:
        return [()]
    out = []

    def rec(prefix, top):
        if len(prefix) == n:
            out.append(tuple(prefix))
            return
        for v in range(top + 2):
            rec(prefix + [v], max(top, v))

    rec([0], 0)
    return out


def pivot_provenance(prov, m, k):
    """Provenance after a pivot at [m,k], rewritten entry by entry: for each
    l >= 1 the e-indices at positions [m+l, k..k+l] are cyclically shifted,
    last moved to the front; a-indices and all other positions are kept.
    prov[r-1][c-1] is the (a-index, e-index) pair at [r,c]."""
    rows = [list(row) for row in prov]
    for l in range(1, len(rows) - m + 1):
        r = m + l
        old = [rows[r - 1][c - 1] for c in range(k, k + l + 1)]
        shifted = [old[-1]] + old[:-1]
        for off, c in enumerate(range(k, k + l + 1)):
            f_keep = rows[r - 1][c - 1][0]
            rows[r - 1][c - 1] = (f_keep, shifted[off][1])
    return tuple(tuple(row) for row in rows)


def rgs_graph_edges(e):
    """Edges of the graph of an integer restricted-growth string: vertex k
    is joined to the lexicographically first e_k-clique among 1..k-1, found
    by trying every e_k-subset in lexicographic order."""
    adj = {v: set() for v in range(1, len(e) + 1)}
    edges = []
    for k, need in enumerate(e, start=1):
        for cand in combinations(range(1, k), need):
            if all(v in adj[u] for u, v in combinations(cand, 2)):
                break
        else:
            raise ValueError(f"no {need}-clique for vertex {k}")
        for u in cand:
            edges.append((u, k))
            adj[u].add(k)
            adj[k].add(u)
    return edges


def triangular_minors(rows, max_order=None):
    """(rows, cols, value) for every minor of the lower-triangular matrix
    with the given ragged rows whose column set satisfies cols[i] <=
    rows[i], by ascending order then lexicographically, each evaluated by
    cofactor expansion."""
    size = len(rows)
    dense = [list(row) + [0] * (size - len(row)) for row in rows]
    top = size if max_order is None else min(max_order, size)
    out = []
    for order in range(1, top + 1):
        for rs in combinations(range(size), order):
            for cs in combinations(range(size), order):
                if all(c <= r for r, c in zip(rs, cs)):
                    sub = [[dense[r][c] for c in cs] for r in rs]
                    out.append((rs, cs, cofactor_det(sub)))
    return out


def explicit_subset_sums(a, e):
    """Rows of S^{a,e} by the explicit formula, enumerating subsets:
    S(m,k) = sum over (m-k)-subsets {s_1<..<s_{m-k}} of {1..m} of
    prod_i (a_{s_i - i + 1} - e_{s_i})."""
    rows = []
    for m in range(len(a) + 1):
        row = []
        for k in range(m + 1):
            total = Fraction(0)
            for sub in combinations(range(1, m + 1), m - k):
                term = Fraction(1)
                for i, s in enumerate(sub, start=1):
                    term *= Fraction(a[s - i]) - Fraction(e[s - 1])
                total += term
            row.append(total)
        rows.append(tuple(row))
    return tuple(rows)


def identity_rows(n):
    """Ragged rows of the (n+1) x (n+1) identity."""
    return tuple(
        tuple(Fraction(1 if k == m else 0) for k in range(m + 1)) for m in range(n + 1)
    )


def is_identity(rows):
    return all(
        v == (1 if m == k else 0) for m, row in enumerate(rows) for k, v in enumerate(row)
    )


def tri_mul(x, y):
    """Product of two lower-triangular matrices given as ragged rows."""
    if len(x) != len(y):
        raise ValueError("size mismatch")
    return tuple(
        tuple(
            sum((x[m][j] * y[j][k] for j in range(k, m + 1)), Fraction(0))
            for k in range(m + 1)
        )
        for m in range(len(x))
    )


def unit_lower_inverse_rows(rows):
    """Inverse of a unit lower-triangular matrix given as ragged rows, by
    forward substitution over Fraction."""
    inv = []
    for m in range(len(rows)):
        row = [-sum((rows[m][j] * inv[j][k] for j in range(k, m)), Fraction(0))
               for k in range(m)]
        inv.append(tuple(row) + (Fraction(1),))
    return tuple(inv)


# Paths in the planar network of a weight array (anything with .n and
# .weight(r, c), the weight of the vertical edge [r,c]).  A path
# s_m -> t_k climbs b_c rows in column c, for c = 1..k+1, and (b_1..b_{k+1})
# is a composition of m-k.


def _compositions(total, parts):
    """All (b_1..b_parts) of non-negative integers summing to total."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _path_weight(wa, m, comp):
    w = Fraction(1)
    r = m
    for c, climb in enumerate(comp, start=1):
        for _ in range(climb):
            w *= wa.weight(r, c)
            r -= 1
    return w


def path_nodes(m, k, comp):
    """Every vertex a path touches: source, each (row, column) crossing, and
    sink.  Disjointness of path families is decided on these sets."""
    nodes = [("s", m)]
    r = m
    for c, climb in enumerate(comp, start=1):
        nodes.append((r, c))
        for _ in range(climb):
            r -= 1
            nodes.append((r, c))
    nodes.append(("t", k))
    return frozenset(nodes)


def enumerate_paths(wa, m, k):
    """All paths s_m -> t_k as (composition of m-k into k+1 parts, weight)."""
    if not (0 <= m <= wa.n and 0 <= k <= wa.n):
        raise IndexError(f"source/sink ({m},{k}) outside size {wa.n}")
    if k > m:
        return []
    return [(comp, _path_weight(wa, m, comp)) for comp in _compositions(m - k, k + 1)]


def lindstrom_minor(wa, rows, cols):
    """Sum of weight products over vertex-disjoint path families joining
    s_{rows[t]} -> t_{cols[t]}.  In this planar topology only the
    order-preserving matching admits disjoint families, so by the
    Lindstrom-Gessel-Viennot lemma the sum equals the corresponding minor
    of the path matrix."""
    I = tuple(rows)
    J = tuple(cols)
    if len(I) != len(J) or len(I) == 0:
        raise ValueError("need equally many rows and columns, at least one each")
    if list(I) != sorted(set(I)) or list(J) != sorted(set(J)):
        raise ValueError("rows and columns must be strictly increasing")
    if not all(0 <= v <= wa.n for v in I + J):
        raise IndexError(f"indices outside size {wa.n}")
    options = [enumerate_paths(wa, m, k) for m, k in zip(I, J)]
    if any(len(opt) == 0 for opt in options):
        return Fraction(0)
    node_sets = [
        [path_nodes(m, k, comp) for comp, _ in opts]
        for (m, k), opts in zip(zip(I, J), options)
    ]
    total = Fraction(0)

    def descend(t, used, weight):
        nonlocal total
        if t == len(I):
            total += weight
            return
        for idx, (comp, w) in enumerate(options[t]):
            nodes = node_sets[t][idx]
            if used & nodes:
                continue
            descend(t + 1, used | nodes, weight * w)

    descend(0, frozenset(), Fraction(1))
    return total


def _admissible_cols(rows, low):
    """Column sets low <= c_0 < c_1 < .. with c_i <= rows[i], in
    lexicographic order."""
    for c in range(low, rows[0] + 1):
        if len(rows) == 1:
            yield (c,)
        else:
            for rest in _admissible_cols(rows[1:], c + 1):
                yield (c, *rest)


def _walk(state, bounds, low, prefix, prev, sign):
    """Yield (cols, det) for every column set prefix + (c_j, ..) with
    low <= c_j < c_{j+1} < .. and c_i <= bounds[i - j], in lexicographic
    order.

    state holds the rows not yet pivoted, each from column low on, after
    Bareiss steps on the prefix columns with last pivot prev (1 at the
    root) and row-order sign.  By Sylvester's identity entry c of such a
    row is the minor on (pivot rows + that row) x (prefix + c), whatever
    columns follow, so a child reuses its parent's rows: one more step
    on column c, with exact division by prev.  A zero pivot takes the
    first later row nonzero in column c, in the child's own copy; a
    column zero in every row makes each completion under it 0."""
    bound = bounds[0]
    if len(state) == 1:
        for c, v in zip(range(low, bound + 1), state[0]):
            yield prefix + (c,), sign * v
        return
    for c in range(low, bound + 1):
        o = c - low
        cols = prefix + (c,)
        p = next((i for i, row in enumerate(state) if row[o]), None)
        if p is None:
            for rest in _admissible_cols(bounds[1:], c + 1):
                yield cols + rest, 0
            continue
        top = state[p]
        piv = top[o]
        tail = top[o + 1:]
        child = [[(x * piv - row[o] * t) // prev for x, t in zip(row[o + 1:], tail)]
                 for i, row in enumerate(state) if i != p]
        # pivoting on row p moves it ahead of p rows: sign (-1)^p
        yield from _walk(child, bounds[1:], c + 1, cols, piv,
                         -sign if p & 1 else sign)


def walk_minors(matrix, max_order=None):
    """(rows, cols, det) for every minor of a TriMatrix whose column set
    satisfies cols[i] <= rows[i], in the minor scan's order, by a
    fraction-free (Bareiss) elimination walk over each row set's column
    sets: a column set extends its prefix's eliminated rows by one pivot
    step.  Like the scan, it yields the integer determinant of the ints;
    the two share nothing else."""
    size = matrix.n + 1
    ints = [row + (0,) * (size - len(row)) for row in matrix.ints]
    top = size if max_order is None else min(max_order, size)
    for order in range(1, top + 1):
        for rows in combinations(range(size), order):
            state = [ints[r][:rows[-1] + 1] for r in rows]
            for cols, det in _walk(state, rows, 0, (), 1, 1):
                yield rows, cols, det
