"""The projected-gradient descent that halves its step down to the floor.

The tests' reference for the stop rule of ``oracle._projected_gradient``:
here a rejected step is always halved, down to 1e-13, so every start spends
its last ~40 iterations on trials that cannot be accepted.  The package
ends a start at the first trial that does not lower the cost; the tests
compare the two.
"""

import math
import operator

from purity_bounds.oracle import _objective_coeffs, _project_plane_sphere, _result


def projected_gradient_halving(mu, levels):
    """``oracle._projected_gradient`` with every rejected step halved to the floor."""
    u = 1.0 / levels
    c = _objective_coeffs(levels)
    mean = math.fsum(c) / levels
    starts = [_project_plane_sphere([u - 0.1 * (x - mean) for x in c], mu)]
    total = math.fsum([u + 1.0] + [u] * (levels - 1))
    starts += [_project_plane_sphere([(u + (i == j)) / total for i in range(levels)], mu)
               for j in range(levels)]

    best_p, best_f = None, math.inf
    iterations = 0
    for start in starts:
        p = start
        f = math.fsum(map(operator.mul, c, p))
        step = 0.5
        while step > 1e-13:
            iterations += 1
            trial = _project_plane_sphere([x - step * y for x, y in zip(p, c)], mu)
            ft = math.fsum(map(operator.mul, c, trial))
            if ft < f - 1e-15:
                p, f = trial, ft
            else:
                step *= 0.5
        if f < best_f:
            best_p, best_f = p, f
    return _result(mu, best_p, "projected-gradient", iterations)
