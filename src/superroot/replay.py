"""End-to-end replays of the worked counterexamples and the pair example.

Each replay returns a certificate dict with one boolean per assertion, the
inputs in simple-root coordinates and enough bounds to reproduce the run.
These are the desk-scale demonstrations that closedness does not imply the
existence of a pi-system in the super setting, and that a closure can
stabilize strictly inside the closed subroot system it came from.
"""

from __future__ import annotations

from typing import Optional

from . import oracle, pisystem as ps, rootspace as rs
from .catalog import EpsDeltaVector, build
from .rootspace import height


def _neg(r):
    return tuple(-x for x in r)


def replay_isotropic_pair(type_spec: str = "B(1,1)") -> dict:
    """Two isotropic roots with a real sum span a six-root subroot system."""
    handle = build(type_spec)
    alpha = handle.to_alpha(EpsDeltaVector((-1,), (1,)))
    beta = handle.to_alpha(EpsDeltaVector((1,), (1,)))
    total = rs.add(alpha, beta)
    psi = ps.root_set(handle, [alpha, beta, total, _neg(alpha), _neg(beta), _neg(total)])
    cls = ps.classify_subset(psi)
    checks = {
        "alpha_isotropic": handle.is_isotropic(alpha),
        "beta_isotropic": handle.is_isotropic(beta),
        "sum_real_even": handle.is_real(total) and handle.parity(total) == 0,
        "subroot_system": cls.subroot_system,
        "symmetric": cls.symmetric,
        "closed": cls.closed,
        "reflection_swaps": ps.reflect(handle, total, alpha) == _neg(beta)
        and ps.reflect(handle, total, beta) == _neg(alpha),
        "pairing_one": handle.pairing(alpha, total) == 1 and handle.pairing(beta, total) == 1,
    }
    return {
        "example": "isotropic-pair-subroot-system",
        "type": handle.label,
        "roots": sorted(psi.elements),
        "checks": checks,
        "passed": all(checks.values()),
    }


def replay_affine_pair(type_spec: str = "B(1,1)^(1)", height_bound: int = 40) -> dict:
    """An isotropic root and its null-shift: closed but admitting no pi-system."""
    handle = build(type_spec)
    alpha = handle.to_alpha(EpsDeltaVector((-1,), (1,), 0))
    alpha_shift = handle.to_alpha(EpsDeltaVector((-1,), (1,), 1))
    psi = ps.root_set(handle, [alpha, _neg(alpha), alpha_shift, _neg(alpha_shift)])
    cls = ps.classify_subset(psi)
    pi = ps.minimal_positive_elements(psi)  # Pi(Psi); cls above says whether psi is closed
    admitted = ps.admits_pi_system(psi, height_bound=height_bound)
    realization = oracle.realize(handle, loop_degree=3)
    gens = [realization.root_vector(r) for r in psi]
    basis = oracle.generated_subalgebra(gens, realization)
    real_roots = oracle.subalgebra_real_roots(basis, handle)
    checks = {
        "alpha_isotropic": handle.is_isotropic(alpha),
        "closed_subroot_system": cls.closed and cls.subroot_system and cls.symmetric,
        "pi_of_psi": set(pi.elements) == {alpha, alpha_shift},
        "admits_none": admitted is None,
        "oracle_real_roots_equal_psi": set(real_roots.elements) == set(psi.elements),
        "subalgebra_dimension_7": basis.dimension() == 7,
    }
    return {
        "example": "affine-pair-no-pi-system",
        "type": handle.label,
        "roots": sorted(psi.elements),
        "bounds": {"height": height_bound, "loop_degree": 3},
        "checks": checks,
        "passed": all(checks.values()),
    }


def replay_broken_closure(type_spec: str = "B(2,2)^(1)", height_bound: Optional[int] = None) -> dict:
    """Eight isotropic roots whose Pi(Psi) closes up to only six of them."""
    handle = build(type_spec)

    def ed(eps, delta, null):
        return handle.to_alpha(EpsDeltaVector(eps, delta, null))

    far = ed((1, 0), (0, -1), 6)
    near = ed((1, 0), (0, -1), 1)
    mid = ed((0, 1), (-1, 0), 2)
    rev = ed((0, -1), (1, 0), 3)
    members = [far, near, mid, rev]
    psi = ps.root_set(handle, members + [_neg(r) for r in members])
    if height_bound is None:
        height_bound = 2 * max(height(r) for r in psi.elements) + 4
    cls = ps.classify_subset(psi)
    pi = ps.minimal_positive_elements(psi)  # Pi(Psi); cls above says whether psi is closed
    expected_pi = {near, mid, rev}
    pi_report = ps.is_pi_system(pi)
    closure = ps.closure_S_infinity(pi, height_bound=height_bound)
    expected_closure = expected_pi | {_neg(r) for r in expected_pi}
    admitted = ps.admits_pi_system(psi, height_bound=height_bound)
    checks = {
        "psi_has_8_roots": len(psi) == 8,
        "closed_subroot_system": cls.closed and cls.subroot_system and cls.symmetric,
        "pi_of_psi_matches": set(pi.elements) == expected_pi,
        "pi_is_pi_system": pi_report.ok,
        "closure_stabilized": closure.stabilized,
        "closure_is_six_roots": set(closure.roots.elements) == expected_closure,
        "closure_differs_from_psi": set(closure.roots.elements) != set(psi.elements),
        "admits_none": admitted is None,
    }
    return {
        "example": "broken-closure-pi-system",
        "type": handle.label,
        "roots": sorted(psi.elements),
        "bounds": {"height": height_bound},
        "checks": checks,
        "passed": all(checks.values()),
    }


def replay_all() -> list[dict]:
    return [replay_isotropic_pair(), replay_affine_pair(), replay_broken_closure()]
