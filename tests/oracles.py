"""Closed forms and dense views that only the tests compare the package with."""

import numpy as np


def sequence_dense_points(ss) -> np.ndarray:
    """The points of a ``SequenceSet`` as dense rows: sigma_j e_j, then the origin."""
    m = len(ss.sigmas)
    pts = np.zeros((m + 1, m))
    pts[np.arange(m), np.arange(m)] = ss.sigmas
    return pts


def dense_twin(fset, own_matrix=False):
    """A ``PointSet`` with the distances of a closed-form set, so that the
    generic entropy search runs on its shape.  The twin keeps the name of the
    set it stands for (``twin_of``), and test ids name that shape.  A sequence
    twin computes its matrix from its points, unless ``own_matrix`` hands it
    the set's own (a truncation of 1024 takes seconds in l-infinity)."""
    from lipwidth import PointSet, lp_space

    name = type(fset).__name__
    if name == "SequenceSet":
        twin = PointSet(lp_space(len(fset.sigmas), "inf"), sequence_dense_points(fset),
                        dist_matrix=fset.dist_rows(0, fset.size) if own_matrix else None)
    elif name == "UniformBasisSet":
        twin = PointSet(lp_space(fset.size, 2), np.eye(fset.size))
    else:  # a TransportSet: its own points and closed-form matrix
        twin = PointSet(fset.space, fset.points, dist_matrix=fset.matrix())
    twin.twin_of = name
    return twin


def diagonal_member(y: np.ndarray) -> bool:
    """``y`` lies in the weighted-l1 ball sum_j |y_j| sqrt(log2(j+1)) <= 1."""
    w = np.sqrt(np.log2(np.arange(1, len(y) + 1) + 1.0))
    return float(np.abs(y) @ w) <= 1.0 + 1e-12


def closed_form_constant(cfg, j: int) -> int:
    """Unrolled form W^j (d+1) + j (d+2) W^j + sum_{k<j} W^k of the
    ``relunet.lip_bound`` recursion."""
    d, W = cfg.d, cfg.width
    return W ** j * (d + 1) + j * (d + 2) * W ** j + sum(W ** k for k in range(j))
