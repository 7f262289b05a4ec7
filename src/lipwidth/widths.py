"""Certified upper and lower bounds for Lipschitz and Kolmogorov widths.

Upper certificates always carry a constructed map (or covering) witness;
lower certificates carry a covering-count witness.  The fixed-domain width
computed here upper-bounds the norm-optimised Lipschitz width, so every
upper certificate remains valid for the latter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .covering import coverage_assignment, greedy_packing, inner_entropy
from .lipmaps import AffineBallMap, LipschitzMap, build_entropy_map, BALL_SLACK
from .spaces import FiniteSet, PointSet, PreconditionError, REL_TOL, radius_upper


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
        return {
            "quantity": self.quantity,
            "n": self.n,
            "gamma": self.gamma,
            "value": self.value,
            "direction": self.direction,
            "witness": self.witness,
        }


def fixed_width_upper(pset: PointSet, map_: LipschitzMap, candidates) -> WidthCertificate:
    """max_f ||f - Phi(y(f))|| over supplied per-point domain candidates.

    Each candidate must lie in the domain unit ball; since the infimum over
    the ball is at most the evaluated candidate, the maximum upper-bounds
    the fixed Lipschitz width and hence the Lipschitz width itself.
    """
    candidates = np.asarray(candidates, dtype=float)
    if candidates.shape[0] != pset.size:
        raise PreconditionError("one candidate per set point required")
    norms = map_.domain_norm_batch(candidates)
    too_far = np.nonzero(np.asarray(norms) > 1.0 + BALL_SLACK)[0]
    if too_far.size:
        raise PreconditionError(
            f"candidate {int(too_far[0])} outside the domain ball "
            f"(norm {float(norms[too_far[0]])})"
        )
    images = np.asarray(map_.evaluate_batch(candidates))
    residuals = np.asarray(pset.space.norm(pset.points - images))
    value = float(residuals.max())
    worst = int(np.argmax(residuals))
    return WidthCertificate(
        quantity="lipschitz_width",
        n=map_.domain_dim,
        gamma=map_.declared_lipschitz(),
        value=value,
        direction="upper",
        witness={"worst_point": worst},  # internal: callers report their own witness
    )


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
    rb = radius_upper(pset)
    gamma = (2.0 ** k) * rb.upper
    budget = 1 << (k * n)
    ent = inner_entropy(pset, k * n)
    if ent.upper_witness["kind"] == "identity":
        centers = list(range(pset.size))
        assign = np.arange(pset.size)
    else:
        # a set of coincident points ("singleton") is covered by its first point
        centers = ent.upper_witness.get("centers", [0])
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
    cert = WidthCertificate(
        quantity="lipschitz_width",
        n=n,
        gamma=gamma,
        value=ent.upper,
        direction="upper",
        witness={
            "kind": "entropy-map",
            "k": k,
            "entropy_index": k * n,
            "entropy_bracket": [ent.lower, ent.upper],
            "cover_centers": [int(c) for c in centers],
            "declared_constant": declared,
            "realized_error": realized,
            "translation": "radius-candidate-center",
        },
    )
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
    """Lower certificate: d_n^gamma >= eps whenever N_{2 eps} > (3 gamma/eps)^n,
    tried at each radius of ``default_eps_grid``, largest first.

    The outer covering number is lower-bounded by a maximal packing at
    4*eps (two points more than 4*eps apart cannot share a 2*eps outer
    ball).  A set that defines ``packing_count_log2`` (the sequence sets)
    supplies log2 of a certified packing count in closed form instead, as
    its witnesses are too large to materialise.
    """
    if gamma <= 0:
        raise PreconditionError("gamma must be positive")
    count_log2 = getattr(fset, "packing_count_log2", None)
    max_countable = math.log2(fset.size + 1)
    for eps in default_eps_grid(fset.diameter())[::-1]:
        thr_log2 = n * math.log2(3.0 * gamma / eps)
        if count_log2 is not None:
            have = count_log2(4.0 * eps)
        else:
            if thr_log2 >= max_countable:
                continue  # this set can never witness that many balls
            need = int(math.floor(2.0 ** thr_log2)) + 1
            pack = greedy_packing(fset, 4.0 * eps, stop_above=need)
            have = math.log2(pack.size)
        if have > thr_log2:
            return WidthCertificate(
                quantity="lipschitz_width",
                n=n,
                gamma=gamma,
                value=float(eps),
                direction="lower",
                witness={
                    "kind": "covering-count",
                    "eps": float(eps),
                    "count_log2": float(have),
                    "threshold_log2": float(thr_log2),
                    "count_source": "closed-form" if count_log2 else "materialized-packing",
                },
            )
    return WidthCertificate(
        quantity="lipschitz_width", n=n, gamma=gamma, value=0.0,
        direction="lower",
        witness={"kind": "covering-count", "count_source": "none-qualified"},
    )


def recheck_covering_count(cert: dict, fset: FiniteSet) -> bool:
    """The packing count at 4 eps, taken again from ``fset`` (or its closed
    form), must equal the recorded one and exceed n log2(3 gamma / eps) at
    eps = value; with none qualified, the value must be 0."""
    w = cert["witness"]
    if w["count_source"] == "none-qualified":
        return cert["value"] == 0.0
    eps, thr_log2 = w["eps"], cert["n"] * math.log2(3.0 * cert["gamma"] / w["eps"])
    if w["count_source"] == "closed-form":
        have = fset.packing_count_log2(4.0 * eps)
    else:
        need = int(math.floor(2.0 ** thr_log2)) + 1
        have = math.log2(greedy_packing(fset, 4.0 * eps, stop_above=need).size)
    return have == w["count_log2"] and have > thr_log2 - 1e-9 and cert["value"] == eps


# ---------------------------------------------------------------------------
# Kolmogorov widths
# ---------------------------------------------------------------------------


def orthonormalize(basis) -> np.ndarray:
    """Orthonormal rows spanning the same subspace (QR, deterministic)."""
    b = np.atleast_2d(np.asarray(basis, dtype=float))
    q, r = np.linalg.qr(b.T)
    keep = np.abs(np.diag(r)) > 1e-12
    return q.T[keep]


def kolmogorov_upper(pset: PointSet, axes) -> tuple[WidthCertificate, np.ndarray]:
    """Max Euclidean residual against the span of the coordinate ``axes``;
    requires an l2 space.

    Returns the certificate together with the per-point projections, which
    downstream comparisons reuse as approximants.
    """
    if pset.space.kind != "l2":
        raise PreconditionError("orthogonal projection needs an l2 norm")
    axes = [int(a) for a in axes]
    q = orthonormalize(np.eye(pset.space.dim)[axes])
    coeffs = pset.points @ q.T
    proj = coeffs @ q
    residuals = np.linalg.norm(pset.points - proj, axis=1)
    value = float(residuals.max())
    return (
        WidthCertificate(
            quantity="kolmogorov_width",
            n=q.shape[0],
            gamma=None,
            value=value,
            direction="upper",
            witness={"kind": "orthogonal-projection", "subspace_dim": int(q.shape[0]),
                     "worst_point": int(np.argmax(residuals)), "axes": axes},
        ),
        proj,
    )


def recheck_orthogonal_projection(cert: dict, fset: PointSet) -> bool:
    """Projecting ``fset`` again onto the recorded axes leaves no larger residual."""
    again, _ = kolmogorov_upper(fset, cert["witness"]["axes"])
    return again.n <= cert["n"] and again.value <= cert["value"]


def best_coordinate_subspace(pset: PointSet, n: int) -> tuple[WidthCertificate, tuple]:
    """Best axis-aligned n-dimensional subspace by exhaustive enumeration of
    at most 200000 subspaces."""
    import itertools as it

    dim = pset.space.dim
    combos = math.comb(dim, n)
    if combos > 200000:
        raise PreconditionError(f"{combos} coordinate subspaces is too many")
    best = None
    best_idx = None
    for idx in it.combinations(range(dim), n):
        resid = np.delete(pset.points, idx, axis=1)
        value = float(np.linalg.norm(resid, axis=1).max())
        if best is None or value < best:
            best, best_idx = value, idx
    cert = WidthCertificate(
        quantity="kolmogorov_width", n=n, gamma=None, value=best,
        direction="upper",
        witness={"kind": "coordinate-subspace", "axes": list(best_idx)},
    )
    return cert, best_idx


def kolmogorov_comparison(pset: PointSet, dn_upper: WidthCertificate,
                          basis, approximants, g0=None) -> WidthCertificate:
    """Lipschitz-width certificate from a Kolmogorov witness.

    Builds the affine map Phi(g) = g0 + gamma * g on the unit ball of the
    subspace with gamma = dn_upper.value + rad_upper, feeds each point its
    rescaled approximant, and asserts the resulting value never exceeds the
    Kolmogorov upper bound (plus 1e-9).  The witness copies the subspace
    (``axes`` or ``cells``) from the Kolmogorov witness.
    """
    basis = np.atleast_2d(np.asarray(basis, dtype=float))
    approximants = np.asarray(approximants, dtype=float)
    rb = radius_upper(pset)
    gamma = dn_upper.value + rb.upper
    if g0 is None:
        if pset.space.kind != "l2":
            raise PreconditionError("supply g0 explicitly outside l2 spaces")
        q = orthonormalize(basis)
        g0 = (rb.center_point @ q.T) @ q
        basis = q
    g0 = np.asarray(g0, dtype=float)
    if gamma == 0.0:
        coeffs = np.zeros((pset.size, basis.shape[0]))
    else:
        # coefficients of (approximant - g0) in the basis rows
        coeffs, *_ = np.linalg.lstsq(basis.T, (approximants - g0).T, rcond=None)
        coeffs = coeffs.T / gamma
    amap = AffineBallMap(g0, gamma, basis, pset.space)
    cert = fixed_width_upper(pset, amap, coeffs)
    if cert.value > dn_upper.value + 1e-9:
        raise PreconditionError(
            f"comparison failed: {cert.value} > {dn_upper.value} + 1e-9"
        )
    return WidthCertificate(
        quantity="lipschitz_width",
        n=basis.shape[0],
        gamma=gamma,
        value=cert.value,
        direction="upper",
        witness={"kind": "affine-ball-from-subspace",
                 "kolmogorov_value": dn_upper.value, "gamma": gamma,
                 **{k: v for k, v in dn_upper.witness.items() if k in ("axes", "cells")}},
    )


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

    A width bound d_n^gamma < delta forces N_{2 delta} <= (3 gamma/delta)^n
    and hence an entropy upper bound 2*delta at index
    ceil(n * log2(3 gamma / delta)).  If the supplied entropy lower envelope
    exceeds 2*delta there, the claimed width bound is contradicted.
    """
    if width_value <= 0:
        raise PreconditionError("width bound must be positive to transfer")
    index = int(math.ceil(n * math.log2(3.0 * gamma / width_value)))
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
