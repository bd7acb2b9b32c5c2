"""An outside referee for d = 0: the largest bi-hole of a graph as a 0-1
integer program, solved by SciPy's MILP solver (HiGHS), which shares no
code with the library.

One binary per vertex, x for the left side and y for the right; maximise
the sum of x subject to x_l + y_r <= 1 for every edge (l, r) and
sum x = sum y.  The optimum must be the exhaustive oracle's, and at least
the size of the peel's witness.
"""

import pytest

from biholes.bigraph import generate
from biholes.extract import find_bihole
from biholes.oracle import is_bihole, max_bihole_exact

scipy_optimize = pytest.importorskip("scipy.optimize")
np = pytest.importorskip("numpy")


def _milp_bihole(g):
    """(lefts, rights) of a largest bi-hole of g, by MILP to a zero gap."""
    n = g.left_count
    edges = [(l, r) for l, nbrs in enumerate(g.left_adj) for r in nbrs]
    rows = np.zeros((len(edges) + 1, 2 * n))
    for k, (l, r) in enumerate(edges):
        rows[k, l] = rows[k, n + r] = 1
    rows[-1, :n], rows[-1, n:] = 1, -1
    upper = np.ones(len(edges) + 1)
    lower = np.full(len(edges) + 1, -np.inf)
    lower[-1] = upper[-1] = 0
    cost = np.concatenate([-np.ones(n), np.zeros(n)])
    result = scipy_optimize.milp(
        cost,
        constraints=scipy_optimize.LinearConstraint(rows, lower, upper),
        integrality=np.ones(2 * n),
        bounds=scipy_optimize.Bounds(0, 1),
        options={"mip_rel_gap": 0},
    )
    assert result.success, result.message
    chosen = np.round(result.x).astype(int)
    lefts = [i for i in range(n) if chosen[i]]
    rights = [j for j in range(n) if chosen[n + j]]
    return lefts, rights


@pytest.mark.parametrize("n, p", [(22, 0.2), (30, 0.15)])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_milp_optimum_is_the_oracles_and_bounds_the_peel(n, p, seed):
    g = generate("gnp", n, seed=seed, p=p)
    lefts, rights = _milp_bihole(g)
    assert len(lefts) == len(rights)
    assert is_bihole(g, lefts, rights)
    assert len(lefts) == max_bihole_exact(g, 45)
    witness, _ = find_bihole(g)
    assert len(lefts) >= witness.size
