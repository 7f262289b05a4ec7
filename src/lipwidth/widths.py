"""Certified upper and lower bounds for Lipschitz and Kolmogorov widths.

Upper certificates always carry a constructed map (or covering) witness;
lower certificates carry a covering-count witness.  The fixed-domain width
computed here upper-bounds the norm-optimised Lipschitz width, so every
upper certificate remains valid for the latter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Callable, Optional

import numpy as np

from .covering import coverage_assignment, greedy_packing, inner_entropy, separated
from .lipmaps import AffineBallMap, LipschitzMap, build_entropy_map, BALL_SLACK
from .spaces import FiniteSet, PointSet, PreconditionError, REL_TOL, radius_upper, row_spans


@dataclass(frozen=True)
class WidthCertificate:
    quantity: str            # "lipschitz_width" | "kolmogorov_width"
    n: int
    gamma: Optional[float]
    value: float
    direction: str           # "upper" | "lower"
    witness: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        if self.quantity not in ("lipschitz_width", "kolmogorov_width"):
            raise ValueError("unknown width quantity")
        if self.direction not in ("upper", "lower"):
            raise ValueError("direction must be upper or lower")
        if not 0 <= self.value < math.inf:  # nan fails too
            raise ValueError(f"width bounds are finite and nonnegative, not {self.value}")

    def to_json(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def fixed_width_upper(pset: PointSet, map_: LipschitzMap, candidates) -> WidthCertificate:
    """max_f ||f - Phi(y(f))|| over supplied per-point domain candidates.

    Each candidate must lie in the domain unit ball; since the infimum over
    the ball is at most the evaluated candidate, the maximum upper-bounds
    the fixed Lipschitz width and hence the Lipschitz width itself.  Images
    are made a block of points at a time.
    """
    candidates = np.asarray(candidates, dtype=float)
    if candidates.shape[0] != pset.size:
        raise PreconditionError("one candidate per set point required")

    def block_residuals(lo, hi):
        ys = candidates[lo:hi]
        norms = np.asarray(map_.domain_norm_batch(ys))
        too_far = np.flatnonzero(norms > 1.0 + BALL_SLACK)
        if too_far.size:
            raise PreconditionError(f"candidate {lo + int(too_far[0])} outside the domain "
                                    f"ball (norm {float(norms[too_far[0]])})")
        return pset.space.norm(pset.points[lo:hi] - map_.evaluate_batch(ys))

    residuals = np.concatenate([block_residuals(lo, hi)
                                for lo, hi in row_spans(pset.size, pset.space.dim)])
    # the witness is internal: callers report their own
    return WidthCertificate(quantity="lipschitz_width", n=map_.domain_dim,
                            gamma=map_.declared_lipschitz(), value=float(residuals.max()),
                            direction="upper", witness={"worst_point": int(np.argmax(residuals))})


def width_upper_from_entropy(pset: PointSet, k: int, n: int,
                             return_map: bool = False):
    """Entropy-to-width upper certificate with gamma = 2**k * rad bound.

    Pipeline: bracket the inner entropy number at index k*n, take the
    cover witness at its upper radius, translate the set so the radius
    candidate center sits at the origin, and send cube centers of the
    regular 2**(k n) grid to the covering points.  The certificate value is
    the entropy upper bound; the realised map error is recorded too.
    """
    if not isinstance(pset, PointSet):
        raise PreconditionError(
            f"width-upper needs a materialised point set to translate, "
            f"not a {type(pset).__name__}")
    if k < 1 or n < 1:
        raise PreconditionError("k and n must be positive")
    if k * n > 24:
        raise PreconditionError("size guard: k*n > 24")
    # the entropy search first: the pass over the distances that collects its
    # radii then records the row maxima the radius bound reads
    ent = inner_entropy(pset, k * n)
    rb = radius_upper(pset)
    gamma = (2.0 ** k) * rb.upper
    budget = 1 << (k * n)
    if ent.upper_witness["kind"] == "identity":
        centers = list(range(pset.size))
        assign = np.arange(pset.size)
    else:
        centers = ent.upper_witness["centers"]
        assign = coverage_assignment(pset, centers, ent.upper)
    shifted = pset.translated(rb.center_point)
    targets = shifted.points[centers]
    pad = np.repeat(targets[:1], budget - len(centers), axis=0)
    targets = np.concatenate([targets, pad], axis=0)
    emap = build_entropy_map(targets, k, n, pset.space)
    cube_centers = emap.centers[assign]
    cert_inner = fixed_width_upper(shifted, emap, cube_centers)
    realized = cert_inner.value
    if realized > ent.upper * (1.0 + REL_TOL) + 1e-15:
        raise PreconditionError("realised error exceeded the entropy radius")
    declared = emap.declared_lipschitz()
    if declared > gamma * (1.0 + REL_TOL):
        raise PreconditionError("constructed map exceeded 2^k * rad")
    cert = WidthCertificate(quantity="lipschitz_width", n=n, gamma=gamma, value=ent.upper,
                            direction="upper", witness={
        "kind": "entropy-map", "k": k, "entropy_index": k * n,
        "entropy_bracket": [ent.lower, ent.upper], "cover_centers": [int(c) for c in centers],
        "declared_constant": declared, "realized_error": realized,
        "translation": "radius-candidate-center"})
    if return_map:
        return cert, emap, cube_centers
    return cert


def recheck_entropy_map(cert: dict, fset: FiniteSet) -> bool:
    """At most 2**(k n) recorded centers cover ``fset`` at the value (a missed
    point raises), and gamma is at least 2**k times the radius bound."""
    w = cert["witness"]
    coverage_assignment(fset, w["cover_centers"], cert["value"])
    return (len(w["cover_centers"]) <= 2 ** (w["k"] * cert["n"])
            and cert["gamma"] >= 2.0 ** w["k"] * radius_upper(fset).upper)


def default_eps_grid(diam: float) -> np.ndarray:
    """64 log-spaced certificate radii over [diam / 2**16, diam]."""
    if diam <= 0:
        raise PreconditionError("degenerate set: diameter is zero")
    return np.geomspace(diam / 2.0 ** 16, diam, 64)


def width_lower_certified(fset: FiniteSet, n: int, gamma: float) -> WidthCertificate:
    """Lower certificate: d_n^gamma >= eps whenever
    N_{2 eps} > max(1, (3 gamma/eps)^n), tried at each radius of
    ``default_eps_grid``, largest first.

    A gamma-Lipschitz image of the unit ball lies in a ball of radius gamma,
    which max(1, (3 gamma/eps)^n) balls of radius eps cover: (3 gamma/eps)^n
    when eps <= gamma, and one ball otherwise.  The outer covering number is
    lower-bounded by a packing at 4*eps (two points more than 4*eps apart
    cannot share a 2*eps outer ball), whose indices are the witness
    (``points``).  A set that defines ``packing_count_log2`` (the sequence
    sets) supplies log2 of a certified packing count in closed form instead,
    as its witnesses are too large to materialise.
    """
    if gamma <= 0:
        raise PreconditionError("gamma must be positive")
    count_log2 = getattr(fset, "packing_count_log2", None)
    max_countable = math.log2(fset.size + 1)
    for eps in default_eps_grid(fset.diameter())[::-1]:
        thr_log2 = max(0.0, n * math.log2(3.0 * gamma / eps))
        if count_log2 is not None:
            have = count_log2(4.0 * eps)
        else:
            if thr_log2 >= max_countable:
                continue  # this set can never witness that many balls
            need = int(math.floor(2.0 ** thr_log2)) + 1
            pack = greedy_packing(fset, 4.0 * eps, stop_above=need)
            have = math.log2(pack.size)
        if have > thr_log2:
            witness = {"kind": "covering-count", "eps": float(eps), "count_log2": float(have),
                       "threshold_log2": float(thr_log2),
                       "count_source": "closed-form" if count_log2 else "materialized-packing"}
            if count_log2 is None:
                witness["points"] = list(pack.indices)
            return WidthCertificate(quantity="lipschitz_width", n=n, gamma=gamma,
                                    value=float(eps), direction="lower", witness=witness)
    return WidthCertificate(
        quantity="lipschitz_width", n=n, gamma=gamma, value=0.0,
        direction="lower",
        witness={"kind": "covering-count", "count_source": "none-qualified"},
    )


def recheck_covering_count(cert: dict, fset: FiniteSet) -> bool:
    """At eps = value, log2 of the packing count at 4 eps must equal the
    recorded one and exceed max(0, n log2(3 gamma / eps)); with none
    qualified, the value must be 0.  The count is the number of the recorded
    ``points``, which must be pairwise more than 4 eps apart (``separated``),
    or, on the sequence sets, the closed form."""
    w = cert["witness"]
    if w["count_source"] == "none-qualified":
        return cert["value"] == 0.0
    eps, thr_log2 = w["eps"], max(0.0, cert["n"] * math.log2(3.0 * cert["gamma"] / w["eps"]))
    if w["count_source"] == "closed-form":
        have = fset.packing_count_log2(4.0 * eps)
    elif separated(fset, w["points"], 4.0 * eps):
        have = math.log2(len(w["points"]))
    else:
        return False
    return have == w["count_log2"] and have > thr_log2 and cert["value"] == eps


# ---------------------------------------------------------------------------
# Kolmogorov widths
# ---------------------------------------------------------------------------


def coordinate_residuals(points, axes) -> np.ndarray:
    """Each row's Euclidean distance to the span of the coordinate ``axes``:
    its norm with those coordinates set to zero."""
    rest = np.array(points, dtype=float)
    rest[:, list(axes)] = 0.0
    return np.linalg.norm(rest, axis=1)


def kolmogorov_upper(pset: PointSet, axes
                     ) -> tuple[WidthCertificate, np.ndarray, np.ndarray]:
    """Max Euclidean residual against the span of the coordinate ``axes``;
    requires an l2 space.

    Returns the certificate with the unit rows of the distinct axes, an
    orthonormal basis of that span, and each point's coefficients in it,
    ``points[:, axes]``, which ``kolmogorov_comparison`` takes.
    """
    if pset.space.kind != "l2":
        raise PreconditionError("orthogonal projection needs an l2 norm")
    axes = [int(a) for a in axes]
    distinct = list(dict.fromkeys(range(pset.space.dim)[a] for a in axes))
    residuals = coordinate_residuals(pset.points, distinct)
    cert = WidthCertificate(
        quantity="kolmogorov_width", n=len(distinct), gamma=None, value=float(residuals.max()),
        direction="upper",
        witness={"kind": "orthogonal-projection", "subspace_dim": len(distinct),
                 "worst_point": int(np.argmax(residuals)), "axes": axes})
    return cert, np.eye(pset.space.dim)[distinct], pset.points[:, distinct]


def recheck_orthogonal_projection(cert: dict, fset: PointSet) -> bool:
    """The recorded axes, at most n distinct ones, leave no larger residual on ``fset``."""
    axes = {range(fset.space.dim)[a] for a in cert["witness"]["axes"]}
    return (fset.space.kind == "l2" and len(axes) <= cert["n"]
            and coordinate_residuals(fset.points, axes).max() <= cert["value"])


def best_coordinate_subspace(pset: PointSet, n: int) -> tuple[WidthCertificate, tuple]:
    """Best axis-aligned n-dimensional subspace by exhaustive enumeration of
    at most 200000 subspaces."""
    import itertools as it

    dim = pset.space.dim
    combos = math.comb(dim, n)
    if combos > 200000:
        raise PreconditionError(f"{combos} coordinate subspaces is too many")
    # combinations come in lexicographic order, so ties keep the first subspace
    best, best_idx = min((float(coordinate_residuals(pset.points, idx).max()), idx)
                         for idx in it.combinations(range(dim), n))
    cert = WidthCertificate(
        quantity="kolmogorov_width", n=n, gamma=None, value=best,
        direction="upper",
        witness={"kind": "coordinate-subspace", "axes": list(best_idx)},
    )
    return cert, best_idx


def kolmogorov_comparison(pset: PointSet, dn_upper: WidthCertificate,
                          basis, coeffs, g0_coeffs=None) -> WidthCertificate:
    """Lipschitz-width certificate from a Kolmogorov witness.

    Point i's approximant is ``coeffs[i] @ basis``.  Builds the affine map
    Phi(y) = g0 + gamma * (y @ basis) on the unit ball of the subspace, with
    g0 = ``g0_coeffs @ basis`` and gamma = dn_upper.value + rad_upper, feeds
    each point (coeffs[i] - g0_coeffs) / gamma, whose image is its
    approximant, and asserts the resulting value never exceeds the
    Kolmogorov upper bound (plus 1e-9).  Without ``g0_coeffs`` (l2 only) g0
    has the radius center's coefficients ``center @ basis.T``: its
    projection when the basis rows are orthonormal.  The witness copies the
    subspace (``axes`` or ``cells``) from the Kolmogorov witness.
    """
    basis = np.atleast_2d(np.asarray(basis, dtype=float))
    coeffs = np.asarray(coeffs, dtype=float)
    rb = radius_upper(pset)
    gamma = dn_upper.value + rb.upper
    if g0_coeffs is None:
        if pset.space.kind != "l2":
            raise PreconditionError("supply g0_coeffs explicitly outside l2 spaces")
        g0_coeffs = rb.center_point @ basis.T
    g0_coeffs = np.asarray(g0_coeffs, dtype=float)
    candidates = (coeffs - g0_coeffs) / gamma if gamma > 0 else np.zeros_like(coeffs)
    cert = fixed_width_upper(pset, AffineBallMap(g0_coeffs @ basis, gamma, basis, pset.space),
                             candidates)
    if cert.value > dn_upper.value + 1e-9:
        raise PreconditionError(f"comparison failed: {cert.value} > {dn_upper.value} + 1e-9")
    return WidthCertificate(
        quantity="lipschitz_width", n=basis.shape[0], gamma=gamma, value=cert.value,
        direction="upper",
        witness={"kind": "affine-ball-from-subspace",
                 "kolmogorov_value": dn_upper.value, "gamma": gamma,
                 **{k: v for k, v in dn_upper.witness.items() if k in ("axes", "cells")}})


# ---------------------------------------------------------------------------
# Carl-type transfer of width bounds into entropy bounds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TransferReport:
    n: int
    gamma: float
    width_value: float
    entropy_index: int
    implied_entropy_upper: float
    entropy_lower_at_index: float
    margin: float
    contradiction: bool


def carl_transfer_check(n: int, gamma: float, width_value: float,
                        entropy_lower: Callable[[int], float]) -> TransferReport:
    """Check a claimed width bound against a certified entropy lower envelope.

    A width bound d_n^gamma < delta forces N_{2 delta} <= max(1, (3 gamma/delta)^n)
    and hence an entropy upper bound 2*delta at index
    max(0, ceil(n * log2(3 gamma / delta))).  If the supplied entropy lower
    envelope exceeds 2*delta there, the claimed width bound is contradicted.
    """
    if width_value <= 0:
        raise PreconditionError("width bound must be positive to transfer")
    index = max(0, int(math.ceil(n * math.log2(3.0 * gamma / width_value))))
    implied = 2.0 * width_value
    eta = float(entropy_lower(index))
    return TransferReport(
        n=n,
        gamma=gamma,
        width_value=width_value,
        entropy_index=index,
        implied_entropy_upper=implied,
        entropy_lower_at_index=eta,
        margin=implied - eta,
        contradiction=eta >= implied,
    )
