"""Concrete compact sets with closed-form reference values.

Families:

* coordinate-sequence sets {sigma_j e_j} union {0} in the sup-norm sequence
  space, served through a sparse distance oracle (log-decay and power-decay
  generators);
* the transport solution manifold {chi_a : a in [0,1]} of unit-step
  indicator functions in L1[0, 2];
* the diagonal weighted-l1 ball sample in l2 and the scaled cross-polytope
  whose Kolmogorov width has a classical closed form;
* the orthonormal-basis cloud {e_1, ..., e_{2^m + 1}} in l2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .covering import (ball_disjoint, closed_form_entropy, coverage_assignment, inner_entropy,
                       no_cover_below)
from .lipmaps import (SequenceBumpSum, allocate_dyadic_cubes, build_sequence_bump_map,
                      bump_levels)
from .spaces import (REL_TOL, FiniteSet, NormedSpace, PointSet, PreconditionError,
                     step_space)
from .widths import (WidthCertificate, best_coordinate_subspace, kolmogorov_comparison,
                     kolmogorov_upper, recheck_orthogonal_projection, width_lower_certified)


# ---------------------------------------------------------------------------
# Coordinate-sequence sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SequenceSetSpec:
    """sigma generator plus truncation for {sigma_j e_j} union {0}."""

    generator: str  # "log" | "power"
    truncation: int
    c: float = 1.0  # power-decay exponent

    def __post_init__(self):
        if self.generator not in ("log", "power"):
            raise ValueError("generator must be log/power")
        if self.truncation < 2:
            raise PreconditionError("truncation must be at least 2")
        if self.generator == "power" and self.c <= 0:
            raise PreconditionError("power generator needs c > 0")


def sigma_at(spec: SequenceSetSpec, j: int) -> float:
    """sigma_j for 1-based index j (j may exceed the truncation)."""
    if j < 1:
        raise ValueError("indices are 1-based")
    if spec.generator == "log":
        return 1.0 / math.log2(j + 1)
    return float(j) ** (-spec.c)


def sigma_values(spec: SequenceSetSpec, count: int) -> np.ndarray:
    """sigma_j for j = 1, ..., count, computed in place."""
    j = np.arange(1, count + 1, dtype=float)
    if spec.generator == "log":
        return np.divide(1.0, np.log2(np.add(j, 1.0, out=j), out=j), out=j)
    j **= -spec.c
    return j


class SequenceSet(FiniteSet):
    """{sigma_j e_j}_{j<=M} union {0} with sparse closed-form distances, for
    the generator and truncation M of ``spec``.

    Point order: index i < M is sigma_{i+1} e_{i+1}; index M is the origin.
    Distances: d(i, j) = sigma_{min(i,j)+1} for i != j < M and
    d(i, M) = sigma_{i+1}.
    """

    def __init__(self, spec: SequenceSetSpec):
        sig = sigma_values(spec, spec.truncation)
        if np.any(sig <= 0) or np.any(np.diff(sig) >= 0):
            raise PreconditionError("sigma must be strictly decreasing and positive")
        self.sigmas = sig
        self.spec = spec
        self.size = len(sig) + 1
        self.space = NormedSpace(len(sig), "linf")
        self._amp = np.append(sig, sig[-1])  # sigma_1..sigma_M, and sigma_M for the origin

    def dist_rows(self, lo: int, hi: int) -> np.ndarray:
        # sigma decreases, so d(i, j) = sigma_{min(i,j)+1} = max(amp_i, amp_j) for i != j
        rows = np.maximum.outer(self._amp[lo:hi], self._amp)
        rows.reshape(-1)[lo :: self.size + 1] = 0.0  # entries (i - lo, i): the diagonal
        return rows

    def diameter(self) -> float:
        return float(self.sigmas[0])

    def entropy_witnesses(self, n: int) -> tuple:
        """e_n = sigma_{2^n}, as d(i, j) = max(sigma_i, sigma_j) is an ultrametric:
        the first 2**n points cover within it, and below it no ball holds two of
        the 2**n + 1 points they and the origin make."""
        k = 2 ** n
        return float(self.sigmas[k - 1]), np.arange(k), np.append(np.arange(k), self.size - 1)

    def packing_count_log2(self, t: float) -> float:
        """``sequence_packing_count_log2`` of the generator: no truncation needed."""
        return sequence_packing_count_log2(self.spec, t)


def sequence_set(spec: SequenceSetSpec) -> SequenceSet:
    return SequenceSet(spec)


def log_sequence_entropy_lower(index: int) -> float:
    """Certified outer-entropy lower envelope of the log-decay set.

    The inner entropy number at index k equals sigma_{2^k} = 1/log2(2^k+1)
    and outer entropy is at least half the inner one.  Stable for any index.
    """
    if index < 1:
        raise PreconditionError("index must be positive")
    return 0.5 * sigma_at(SequenceSetSpec("log", 2), 2 ** index)


def sequence_packing_count_log2(spec: SequenceSetSpec, t: float) -> float:
    """log2 of a certified packing count of the full set at separation t.

    The first c points with sigma_j > t are pairwise more than t apart and
    the origin keeps distance sigma_j > t from each of them, an explicit
    (c+1)-point packing no truncation needs to materialise.
    """
    if t <= 0:
        raise PreconditionError("separation must be positive")
    if spec.generator == "log":
        # sigma_j > t  iff  j < 2**(1/t) - 1
        x = 1.0 / t
        if x < 50:
            count = max(0, math.ceil(2.0 ** x - 1.0) - 1)
            return math.log2(count + 1)
        return x  # log2(2**x - 2 + 1) ~ x, and x >= 50 makes the -1 negligible
    # power: sigma_j > t  iff  j < t**(-1/c)
    count = max(0, math.ceil(t ** (-1.0 / spec.c)) - 1)
    return math.log2(count + 1)


@dataclass(frozen=True)
class VolumeCondition:
    """Result of checking sum_{j<=N} sigma_j^n <= (gamma/2)^n."""

    holds: bool
    lhs_upper: float
    rhs_log2: float
    method: str  # "dyadic-block" | "integral-tail"


def volume_condition(spec: SequenceSetSpec, gamma: float, n: int, total_terms: int
                     ) -> VolumeCondition:
    """Certified upper bound on the amplitude volume sum versus (gamma/2)^n.

    The bound is the generator's closed-form majorant at every N: the log
    generator's dyadic blocks 1 + sum_{k=1}^{floor(log2 N)} 2^k k^-n, and the
    power generator's integral tail n0 + n0/(c n - 1), n0 = max(1, floor(1/c)),
    which bounds the whole series.
    """
    if sigma_at(spec, 1) > gamma / 2.0 + 1e-15:
        raise PreconditionError("sigma_1 must not exceed gamma/2")
    rhs_log2 = n * math.log2(gamma / 2.0)
    if spec.generator == "log":
        # blocks j in [2^k, 2^(k+1)): 2^k terms, each at most k^-n (k >= 1)
        lhs = 1.0 + math.fsum(math.exp(k * math.log(2.0) - n * math.log(k))
                              for k in range(1, int(total_terms).bit_length()))
        method = "dyadic-block"
    else:  # power
        if spec.c * n <= 1:
            raise PreconditionError("integral tail bound needs c*n > 1")
        n0 = max(1, math.floor(1.0 / spec.c))
        lhs = n0 + n0 / (spec.c * n - 1.0)
        method = "integral-tail"
    holds = math.log(lhs) <= rhs_log2 * math.log(2.0) + 1e-12
    return VolumeCondition(holds=holds, lhs_upper=lhs, rhs_log2=rhs_log2,
                           method=method)


def sequence_width_upper(spec_generator: str, gamma: float, n: int,
                         total_terms: int, c: float = 1.0,
                         max_bumps: int = 10 ** 6,
                         value_override: Optional[float] = None) -> WidthCertificate:
    """Upper certificate d_n^gamma <= sigma_N for a sequence set.

    Verifies the volume condition for all N = total_terms (the only check of
    it), materialises the first min(N, max_bumps) bumps of the dyadic
    construction, and reports sigma_N (bumps beyond the materialised prefix
    only improve the map).
    """
    spec = SequenceSetSpec(generator=spec_generator, truncation=2, c=c)
    cond = volume_condition(spec, gamma, n, total_terms)
    if not cond.holds:
        raise PreconditionError(
            f"volume condition failed: lhs_upper={cond.lhs_upper}, "
            f"rhs_log2={cond.rhs_log2}"
        )
    prefix = min(total_terms, max_bumps)
    bmap = build_sequence_bump_map(sigma_values(spec, prefix), gamma, n)
    sigma_n_val = sigma_at(spec, total_terms)
    value = sigma_n_val if value_override is None else value_override
    if value < sigma_n_val * (1.0 - 1e-12):
        raise PreconditionError("certificate value below the certified error bound")
    return WidthCertificate(
        quantity="lipschitz_width",
        n=n,
        gamma=gamma,
        value=value,
        direction="upper",
        witness={
            "kind": "dyadic-bump-map",
            "generator": spec_generator,
            "c": c,
            "total_terms": total_terms,
            "materialized": prefix,
            "sigma_at_total": sigma_n_val,
            "declared_constant": bmap.declared_lipschitz(),
            "volume_condition": {
                "method": cond.method,
                "lhs_upper": cond.lhs_upper,
                "rhs_log2": cond.rhs_log2,
            },
        },
    )


def recheck_dyadic_bump_map(cert: dict, fset=None) -> bool:
    """The recorded volume bound and sigma_N equal their closed forms at the
    recorded inputs, the condition holds, value >= sigma_N, the materialised
    bumps' runs fit (:func:`allocate_dyadic_cubes` raises otherwise), and
    their declared constant equals the recorded one and is at most gamma.
    No cube is placed: aligned dyadic cubes with nonincreasing sides, placed
    in Z-order, are disjoint and inside [-1, 1]^n when the Morton offset fits
    ``cap``, and the allocation checks that exactly."""
    w = cert["witness"]
    spec = SequenceSetSpec(w["generator"], 2, w["c"])
    gamma, n = cert["gamma"], cert["n"]
    cond = volume_condition(spec, gamma, n, w["total_terms"])
    sigma_n = sigma_at(spec, w["total_terms"])
    closed_form = {"method": cond.method, "lhs_upper": cond.lhs_upper, "rhs_log2": cond.rhs_log2}
    if not (cond.holds and w["volume_condition"] == closed_form
            and w["sigma_at_total"] == sigma_n and cert["value"] >= sigma_n):
        return False
    sig = sigma_values(spec, w["materialized"])
    declared = SequenceBumpSum(allocate_dyadic_cubes(n, *bump_levels(sig, gamma)),
                               sig).declared_lipschitz()
    return declared == w["declared_constant"] and declared <= gamma * (1.0 + REL_TOL)


# --- log-decay sharpness -----------------------------------------------------


def log_sequence_certificates(n: int, gamma: float = 3.0,
                              max_bumps: int = 10 ** 6) -> tuple[list, list]:
    """Two-sided width certificates for the log-decay sequence set, its
    entropy number, and their audits.

    Upper: sigma_N with N = (n+1)^n, reported at the rate value
    1/(n log2(n+1)) >= sigma_N.  Lower: covering-count certificate with
    packing counts taken from the generator's closed form (any truncation
    large enough to materialise the witness would need ~2**(1/eps) points).
    The entropy number of the untruncated set is sigma_{2^n} (see
    ``SequenceSet.entropy_witnesses``).
    """
    if n < 5:
        raise PreconditionError("the sharpness construction needs n >= 5")
    if gamma < 3.0:
        raise PreconditionError("gamma >= 3 required here")
    rate_value = 1.0 / (n * math.log2(n + 1))
    upper = sequence_width_upper("log", gamma, n, (n + 1) ** n,
                                 max_bumps=max_bumps, value_override=rate_value)
    # the lower certificate reads only sigma_1 and the closed-form packing counts
    spec = SequenceSetSpec(generator="log", truncation=2)
    lower = width_lower_certified(sequence_set(spec), n, gamma)
    ent = sigma_at(spec, 2 ** n)
    certs = [upper.to_json(), lower.to_json(),
             {"quantity": "inner_entropy", "n": n, "lower": ent, "upper": ent,
              "reference": ent, "set": {"generator": "log"}}]
    audits = [
        {"name": "upper-equals-rate", "passed": abs(upper.value - rate_value) <= 1e-12},
        {"name": "lower-positive-below-upper", "passed": 0 < lower.value <= upper.value},
    ]
    return certs, audits


# --- power-decay collapse ----------------------------------------------------


def power_collapse_index(c: float, gamma: float) -> int:
    """Smallest n1 with n0 + n0/(c n - 1) <= (gamma/2)^n for all n >= n1.

    The left side decreases and the right side increases in n (gamma > 2),
    so the first qualifying n works for every larger one.
    """
    if c <= 0:
        raise PreconditionError("c must be positive")
    if gamma <= 2:
        raise PreconditionError("gamma > 2 required")
    n0 = max(1, math.floor(1.0 / c))
    n = n0 + 1
    while True:
        lhs = n0 + n0 / (c * n - 1.0)
        if math.log(lhs) <= n * math.log(gamma / 2.0):
            return n
        n += 1
        if n > 10 ** 6:
            raise PreconditionError("no collapse index found below 10^6")


# ---------------------------------------------------------------------------
# Orthonormal-basis cloud
# ---------------------------------------------------------------------------


class UniformBasisSet(FiniteSet):
    """{e_1, ..., e_count} in l2: all distances sqrt(2)."""

    def __init__(self, count: int):
        if count < 1:
            raise PreconditionError("need at least one point")
        self.size = count
        self.space = NormedSpace(count, "l2")
        self._d = math.sqrt(2.0)

    def dist_rows(self, lo: int, hi: int) -> np.ndarray:
        rows = np.full((hi - lo, self.size), self._d)
        rows.reshape(-1)[lo :: self.size + 1] = 0.0  # entries (i - lo, i): the diagonal
        return rows

    def diameter(self) -> float:
        return self._d if self.size > 1 else 0.0

    def entropy_witnesses(self, n: int) -> tuple:
        """e_n = sqrt(2): one ball of that radius covers, and below it each ball
        holds only its center."""
        return self._d, np.zeros(1, dtype=int), np.arange(2 ** n + 1)


def basis_cloud(m: int) -> UniformBasisSet:
    """The 2**m + 1 orthonormal basis vectors used by the threshold example."""
    return UniformBasisSet(2 ** m + 1)


def orthonormal_basis_report(m: int, gamma: float, s: int,
                             entropy_ks: Optional[list] = None) -> dict:
    """The ``basis_threshold`` certificate: entropy saturation and width
    threshold for the basis cloud.

    All pairwise distances equal sqrt(2), so every inner entropy number up
    to index m equals sqrt(2).  When sqrt(2)/(12 gamma) > 4 * 2**(-m/s) the
    packing argument certifies 3 d_s^gamma >= sqrt(2) (``regime_certified``);
    otherwise no claim.
    """
    if m < 1 or s < 1:
        raise PreconditionError("m and s must be positive")
    cloud = basis_cloud(m)
    lhs = math.sqrt(2.0) / (12.0 * gamma)
    rhs = 4.0 * 2.0 ** (-m / s)
    ks = entropy_ks if entropy_ks is not None else sorted({1, max(1, m // 2), m})
    brackets = {}
    for k in ks:
        est = inner_entropy(cloud, k)
        brackets[str(k)] = [est.lower, est.upper]
    return {"quantity": "basis_threshold", "m": m, "gamma": gamma, "s": s,
            "threshold_lhs": lhs, "threshold_rhs": rhs, "regime_certified": lhs > rhs,
            "entropy_brackets": brackets}


# ---------------------------------------------------------------------------
# Transport manifold
# ---------------------------------------------------------------------------


class TransportSet(PointSet):
    """Samples chi_a (indicator of [a, a+1]) on a uniform parameter grid.

    Cell representation on the uniform grid over [0, 2] (2*grid cells of
    width 1/grid) is exact; distances use the closed form 2|a - b|.
    """

    def __init__(self, grid: int):
        if grid < 2:
            raise PreconditionError("grid must be at least 2")
        self.grid = grid
        params = np.arange(grid + 1) / grid
        h = 1.0 / grid
        edges = np.arange(2 * grid + 1) * h
        space = step_space(edges)
        pts = np.zeros((grid + 1, 2 * grid))
        for i in range(grid + 1):
            pts[i, i : i + grid] = 1.0
        dmat = np.subtract.outer(params, params)  # 2|a - b| in place: no second (N, N) array
        np.abs(dmat, out=dmat)
        dmat *= 2.0
        super().__init__(space, pts, dist_matrix=dmat)
        self.params = params

    def entropy_witnesses(self, n: int) -> tuple:
        """e_n = ``transport_entropy``: centers 2t + 1 samples apart cover, and
        below 2t/grid a ball spans 2t - 1 samples, so none holds two of 2**n + 1
        samples 2t - 1 apart (as t is least, 2**n (2t - 1) <= grid)."""
        t, g = _half_width(self.grid, n), self.grid
        return (transport_entropy(g, n), np.minimum(np.arange(t, g + t + 1, 2 * t + 1), g),
                np.arange(2 ** n + 1) * (2 * t - 1))

    def cell_basis(self, n: int) -> np.ndarray:
        """Indicators of [2j/n, 2(j+1)/n) expressed on the space grid."""
        if (2 * self.grid) % n != 0:
            raise PreconditionError("n must divide the number of grid cells")
        return np.repeat(np.eye(n), (2 * self.grid) // n, axis=1)


def transport_set(grid: int) -> TransportSet:
    return TransportSet(grid)


def _half_width(grid: int, n: int) -> int:
    """The least t >= 0 with 2**n (2t + 1) >= grid + 1."""
    return max(0, -((2 ** n - grid - 1) // 2 ** (n + 1)))


def transport_entropy(grid: int, n: int) -> float:
    """Inner entropy number of the grid + 1 samples: the least radius at
    which 2**n balls centred on samples cover them.

    Samples sit 2/grid apart on a line, so a ball of radius 2t/grid covers
    2t + 1 of them, and the least such radius has t = ``_half_width``.
    """
    return 2.0 * _half_width(grid, n) / grid


def transport_reference() -> dict:
    """Closed-form Kolmogorov references (the lower one is recorded, not
    recomputed)."""
    return {
        "kolmogorov_upper": lambda n: 4.0 / n,
        "kolmogorov_lower": lambda n: 1.0 / (n + 1),
    }


def transport_kolmogorov_upper(tset: TransportSet, n: int
                               ) -> tuple[WidthCertificate, np.ndarray]:
    """Exact residual of the n-cell piecewise-constant approximants, with
    their 0/1 cell coefficients.

    chi_a meets the cells [2j/n, 2(j+1)/n) from j1 to j2, and the L1 error
    of its approximant is (a - 2 j1/n) + (2 (j2+1)/n - a - 1).
    """
    if n < 1:
        raise PreconditionError(f"the n-cell approximants need n >= 1, not {n}")
    a, cells = tset.params, np.arange(n)
    j1 = np.minimum(np.floor(a * n / 2.0).astype(int), n - 1)
    j2 = np.minimum(np.floor((a + 1.0) * n / 2.0).astype(int), n - 1)
    resid = (a - 2.0 * j1 / n) + (2.0 * (j2 + 1) / n - a - 1.0)
    value = float(resid.max())
    cert = WidthCertificate(
        quantity="kolmogorov_width", n=n, gamma=None, value=value,
        direction="upper",
        witness={"kind": "piecewise-constant-cells", "cells": n,
                 "worst_param": float(tset.params[int(np.argmax(resid))])},
    )
    return cert, ((cells >= j1[:, None]) & (cells <= j2[:, None])).astype(float)


def recheck_transport_cells(cert: dict, tset: TransportSet) -> bool:
    """The recorded k cells are at most n, and no sample is farther than the
    value from their span in L1: on a cell of length 2/k that chi_a overlaps
    by o, the best constant is 0 or 1 and leaves min(o, 2/k - o)."""
    k = cert["witness"]["cells"]
    width, a = 2.0 / k, tset.params[:, None]
    lo = np.arange(k) * width
    overlap = np.maximum(np.minimum(a + 1.0, lo + width) - np.maximum(a, lo), 0.0)
    dist = np.minimum(overlap, width - overlap).sum(axis=1)
    return 1 <= k <= cert["n"] and float(dist.max()) <= cert["value"] * (1.0 + REL_TOL)


def transport_comparison(tset: TransportSet, n: int) -> WidthCertificate:
    """Lipschitz-width certificate from the transport Kolmogorov witness.

    The reference origin is the approximant with the least reach among those
    of the middle, first and last sample, the first on ties.  Approximants i
    and g differ on |c_i - c_g|.sum() cells, each 2/n long, so the reaches
    compare as integer cell counts.
    """
    dn, coeffs = transport_kolmogorov_upper(tset, n)
    g = min((tset.size // 2, 0, tset.size - 1),
            key=lambda i: np.abs(coeffs - coeffs[i]).sum(axis=1).max())
    return kolmogorov_comparison(tset, dn, tset.cell_basis(n), coeffs, coeffs[g])


def recheck_affine_ball(cert: dict, fset: FiniteSet) -> bool:
    """Built again on the recorded cells or axes, the comparison has no larger
    value or gamma (a larger gamma only weakens the claim)."""
    w = cert["witness"]
    if "cells" in w:
        again = transport_comparison(fset, w["cells"])
    else:
        again = kolmogorov_comparison(fset, *kolmogorov_upper(fset, w["axes"]))
    return cert["value"] >= again.value and cert["gamma"] >= again.gamma


# ---------------------------------------------------------------------------
# Diagonal set and cross-polytope closed form
# ---------------------------------------------------------------------------


def diagonal_set(truncation: int) -> PointSet:
    """Vertices +-e_j / sqrt(log2(j+1)), j <= truncation, of the weighted-l1
    ball sample."""
    if truncation < 2:
        raise PreconditionError("truncation must be at least 2")
    w = np.sqrt(np.log2(np.arange(1, truncation + 1) + 1.0))
    pts = np.concatenate([np.diag(1.0 / w), np.diag(-1.0 / w)], axis=0)
    return PointSet(NormedSpace(truncation, "l2"), pts)


def diagonal_reference_upper(n: int) -> float:
    """Residual of span{e_1..e_n} on the diagonal set: 1/sqrt(log2(n+2))."""
    return 1.0 / math.sqrt(math.log2(n + 2))


def cross_polytope_width(n: int) -> float:
    """Kolmogorov n-width of the scaled 2n-dimensional cross-polytope.

    Classical closed form (Stechkin): (1/sqrt(2)) * (log2(2n+1))^(-1/2).
    """
    if n < 1:
        raise PreconditionError("n must be positive")
    return (1.0 / math.sqrt(2.0)) * math.log2(2 * n + 1) ** (-0.5)


def octahedron_set(n: int) -> PointSet:
    """Vertices +-e_j / sqrt(log2(2n+1)), j <= 2n, in l2 of dimension 2n."""
    scale = 1.0 / math.sqrt(math.log2(2 * n + 1))
    eye = np.eye(2 * n) * scale
    pts = np.concatenate([eye, -eye], axis=0)
    return PointSet(NormedSpace(2 * n, "l2"), pts)


# ---------------------------------------------------------------------------
# Case-study runs: (target or set, params) -> (certificates, audits) for
# ``case-study run`` and ``audit-all``, each followed by the rechecks of the
# certificates it builds.
# ---------------------------------------------------------------------------


def n_values(params: dict, default: list) -> list:
    """The n a run takes: ``n_values``, else its one ``n``, else ``default``."""
    return params.get("n_values", [params["n"]] if "n" in params else default)


def certify_log_sequence(target, params):
    return log_sequence_certificates(int(params.get("n", 6)), float(params.get("gamma", 3.0)),
                                     max_bumps=int(params.get("max_bumps", 10 ** 5)))


def recheck_entropy(cert: dict, fset: FiniteSet) -> bool:
    """Any ``inner_entropy`` bracket holds sigma_{2^n} of the untruncated sequence
    set named by ``set``; any other is read from its witnesses on ``fset``,
    with no search.  Upper: an ``identity`` witness on at most 2**n points, or
    at most 2**n centers that cover ``fset`` at ``upper`` (a missed point
    raises).  Lower: 0, or more than 2**n points no inner ball of radius below
    ``lower`` holds two of, or (``exact-cover``) ``no_cover_below`` at
    ``lower``, which equals ``upper`` there."""
    if "set" in cert:
        sigma = sigma_at(SequenceSetSpec(truncation=2, **cert["set"]), 2 ** cert["n"])
        return cert["lower"] <= sigma <= cert["upper"]
    budget, upper, lower = 2 ** cert["n"], cert["witness"]["upper"], cert["witness"]["lower"]
    if upper["kind"] == "identity":
        covered = fset.size <= budget and cert["upper"] >= 0
    else:
        coverage_assignment(fset, upper["centers"], cert["upper"])
        covered = len(upper["centers"]) <= budget
    if cert["lower"] <= 0:
        refuted = True
    elif lower["kind"] == "exact-cover":
        refuted = no_cover_below(fset, cert["lower"], budget)
    else:
        refuted = (lower["kind"] == "ball-disjoint-points" and len(lower["points"]) > budget
                   and ball_disjoint(fset, lower["points"], cert["lower"]))
    return covered and refuted


def certify_power_sequence(c: float, params):
    gamma = float(params.get("gamma", 4.0))
    n1 = power_collapse_index(c, gamma)
    certs = [{"quantity": "collapse_index", "c": c, "gamma": gamma, "n1": n1}]
    audits = []
    for total in (10 ** 3, 10 ** 6):
        cert = sequence_width_upper("power", gamma, n1, total, c=c,
                                    max_bumps=int(params.get("max_bumps", 10 ** 5)))
        certs.append(cert.to_json())
        audits.append({"name": f"upper-sigma-N{total}", "passed":
                       cert.value <= float(total) ** (-c) * (1 + 1e-12)})
    return certs, audits


def recheck_collapse_index(cert: dict, fset=None) -> bool:
    return cert["n1"] == power_collapse_index(cert["c"], cert["gamma"])


def certify_transport(tset: TransportSet, params):
    refs = transport_reference()
    certs, audits = [], []
    for n in n_values(params, [1, 3, 8]):
        est = inner_entropy(tset, int(n))
        certs.append(dict(est.to_json(), reference=transport_entropy(tset.grid, int(n))))
        audits.append({"name": f"entropy-cover-n{n}",
                       "passed": recheck_entropy(certs[-1], tset)})
    for n in params.get("n_values_kolmogorov", [4, 16]):
        cert, _ = transport_kolmogorov_upper(tset, int(n))
        certs.append(cert.to_json())
        audits.append({"name": f"kolmogorov-upper-n{n}", "passed":
                       refs["kolmogorov_lower"](int(n)) <= cert.value
                       <= refs["kolmogorov_upper"](int(n)) * (1 + 1e-12)})
        comp = transport_comparison(tset, int(n))
        certs.append(comp.to_json())
        audits.append({"name": f"comparison-n{n}", "passed":
                       comp.value <= cert.value + 1e-9})
    return certs, audits


def certify_diagonal(dset: PointSet, params):
    certs, audits = [], []
    for n in n_values(params, [4, 8, 16]):
        if n > dset.space.dim:
            raise PreconditionError(f"n = {n} exceeds the diagonal set's truncation "
                                    f"{dset.space.dim}")
        cert, basis, coeffs = kolmogorov_upper(dset, range(int(n)))
        comp = kolmogorov_comparison(dset, cert, basis, coeffs)
        certs += [cert.to_json(), comp.to_json()]
        # span{e_1..e_n} holds the whole truncation once n reaches it
        ref = diagonal_reference_upper(int(n)) if n < dset.space.dim else 0.0
        audits += [
            {"name": f"kolmogorov-matches-ref-n{n}", "passed":
                abs(cert.value - ref) <= 1e-9},
            {"name": f"comparison-n{n}", "passed": comp.value <= cert.value + 1e-9},
        ]
    return certs, audits


def certify_orthonormal_basis(target, params):
    cert = orthonormal_basis_report(int(params.get("m", 14)),
                                    float(params.get("gamma", 2.0 * math.sqrt(2.0))),
                                    int(params.get("s", 2)))
    return [cert], []


def recheck_basis_threshold(cert: dict, fset=None) -> bool:
    """The regime flag is sqrt(2)/(12 gamma) > 4 * 2**(-m/s) at the recorded
    m, gamma and s, and each entropy bracket passes ``recheck_entropy`` on the
    cloud with the cloud's own witnesses (``closed_form_entropy``): its
    centers cover at the upper end, and no inner ball below the lower end
    holds two of its points.  That reads (2**k + 1) rows of the cloud for
    bracket k."""
    m, s, cloud = cert["m"], cert["s"], basis_cloud(cert["m"])
    regime = math.sqrt(2.0) / (12.0 * cert["gamma"]) > 4.0 * 2.0 ** (-m / s)
    return m >= 1 and s >= 1 and cert["regime_certified"] == regime and all(
        recheck_entropy(dict(closed_form_entropy(cloud, int(k)).to_json(), lower=lo, upper=hi),
                        cloud) for k, (lo, hi) in cert["entropy_brackets"].items())


def certify_cross_polytope(target, params):
    certs, audits = [], []
    for n in n_values(params, [1, 2, 4]):
        val = cross_polytope_width(int(n))
        cert, _ = best_coordinate_subspace(octahedron_set(int(n)), int(n))
        certs.append(dict(cert.to_json(), reference=val))
        audits.append({"name": f"coordinate-upper-above-closed-form-n{n}",
                       "passed": cert.value >= val * (1 - 1e-12)})
    return certs, audits


def recheck_octahedron_subspace(cert: dict, fset=None) -> bool:
    """The recorded axes pass ``recheck_orthogonal_projection`` on the
    cross-polytope study's octahedron; no other subspace is tried."""
    return recheck_orthogonal_projection(cert, octahedron_set(cert["n"]))
