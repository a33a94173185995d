import numpy as np

from starprod import Mat, code_from_matrix, field_make


def random_code(field, n, k, rng):
    """A random [n, k'] code with k' <= k, for property tests."""
    while True:
        m = rng.integers(0, field.q, size=(k, n), dtype=np.int64)
        if m.any():
            return code_from_matrix(Mat(field, m))


def grs_code(q, n, k):
    """Evaluation code of polynomials of degree < k at n distinct points."""
    from starprod.catalog import evaluation_code

    return evaluation_code(field_make(q), k, points=list(range(n)))
