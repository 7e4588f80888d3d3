"""Reference implementations that tests compare the package against.

They are written independently of the package's own fast paths, so a
test that checks a result against one of them does not check the code
against itself.
"""

import numpy as np


def void_view_groups(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(first, inverse)`` of the distinct rows of ``x`` by sorting each
    row's bytes: the index of each distinct row's first occurrence, and
    each row's position among the distinct rows in byte order.

    ``x`` may hold any dtype, floats included.  For rows of 0/1 values
    the byte order is the order of the rows read as binary numbers with
    column 0 the highest bit.  A matrix with no columns is one group.
    """
    n, p = x.shape
    if p == 0:
        return np.zeros(1, dtype=np.int64), np.zeros(n, dtype=np.int64)
    x = np.ascontiguousarray(x)
    keys = x.view(np.dtype((np.void, x.dtype.itemsize * p))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return first, inverse.ravel()
