"""Dense quadrature operators on the truncated number basis.

The tests' independent reference for the Fock moments: ``moments`` reads a
state through three ladder sums, and the tests compare it with tr(rho op)
over these matrices.
"""

import numpy as np


def fock_quadrature_operators(dim, hbar=1.0, mass=1.0, omega=1.0):
    """Position and momentum operators on the truncated number basis.

    q = sqrt(hbar/(2 m omega)) (a + a^+),  p = i sqrt(hbar m omega / 2) (a^+ - a),
    both returned as dense ``dim`` x ``dim`` Hermitian matrices.  Because of the
    truncation, the commutator [q, p] equals i hbar only on the leading
    (dim-1) x (dim-1) block.
    """
    ladder = np.diag(np.sqrt(np.arange(1, dim, dtype=float)), k=1)
    q = np.sqrt(hbar / (2.0 * mass * omega)) * (ladder + ladder.T)
    p = 1j * np.sqrt(hbar * mass * omega / 2.0) * (ladder.T - ladder)
    return q, p
