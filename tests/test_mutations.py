"""Mutation matrix: each mutant is a fault some check exists to catch.

Each mutant is applied in process with monkeypatch, and only the check
named for it runs, scenario by scenario over the shipped non-control set,
until one of its reports fails.  A change that weakens a check so that it
no longer sees its fault fails here.

A mutant that no check catches yet is a strict xfail whose reason names
the roadmap item that will catch it; the change that catches it fails
here until it drops the marker.
"""

import inspect

import numpy as np
import pytest

from twistlab import (CHECKS, VerifyConfig, branchcalc, default_scenarios, logfun,
                      transforms, verify)


def _designated_p12_off_by_one(monkeypatch):
    designated_triple = logfun.designated_triple

    def mutant(region, bt):
        d = designated_triple(region, bt)
        return d._replace(p12=d.p12 + 1) if region == "product" else d

    for module in (logfun, verify):
        monkeypatch.setattr(module, "designated_triple", mutant)


def _omega_rewrite_sign_flipped(monkeypatch):
    def mutant(fam, sign):
        return fam.map_functions(lambda f: transforms.omega_transform(f, -sign),
                                 transforms.omega_action(fam.action, sign))

    for module in (transforms, verify):
        monkeypatch.setattr(module, "omega_family", mutant)


def _quasi_primary_modify_unchanged(monkeypatch):
    for module in (transforms, verify):
        monkeypatch.setattr(module, "quasi_primary_modify", lambda f, qp, sign: f)


def _a_inverse_ignores_sign(monkeypatch):
    # verify's name alone: the family's own rewrite keeps its sign, so only
    # the involution round trip goes wrong.
    monkeypatch.setattr(verify, "a_transform", lambda f, s: transforms.a_transform(f, 1))


def _omega_inverse_ignores_sign(monkeypatch):
    monkeypatch.setattr(verify, "omega_transform",
                        lambda f, s: transforms.omega_transform(f, 1))


def _difference_crossing_flipped(monkeypatch):
    winding_profile = logfun.winding_profile

    def mutant(path):
        c1, c2, c12 = winding_profile(path)
        return c1, c2, -c12

    monkeypatch.setattr(logfun, "winding_profile", mutant)


def _apply_transposed(monkeypatch):
    apply = transforms.CorrelationFamily.apply
    # sum_j g[label, j] * f_j in place of sum_j g[j, label] * f_j
    monkeypatch.setattr(transforms.CorrelationFamily, "apply",
                        lambda self, g, label: apply(self, np.asarray(g).T, label))


def _composed_in_reverse(monkeypatch):
    monkeypatch.setattr(transforms.AutomorphismAction, "composition_defect",
                        lambda self: float(np.max(np.abs(self.g3 - self.g2 @ self.g1))))
    # the check's own g1 @ g2, rewritten in a copy of its source
    source = inspect.getsource(verify.check_monodromy_composition)
    mutated = source.replace("sc.fam.action.g1 @ sc.fam.action.g2",
                             "sc.fam.action.g2 @ sc.fam.action.g1")
    if mutated == source:
        raise RuntimeError("check_monodromy_composition no longer composes g1 @ g2")
    namespace = dict(vars(verify))
    exec(mutated, namespace)
    monkeypatch.setitem(CHECKS, "monodromy-composition",
                        namespace["check_monodromy_composition"])


def _omega_swap_unconjugated(monkeypatch):
    def mutant(action, sign):
        return transforms.AutomorphismAction(action.g2, action.g1, action.g3,
                                             phases1=action.phases2, phases2=action.phases1)

    for module in (transforms, verify):
        monkeypatch.setattr(module, "omega_action", mutant)


def _binom_coeffs_off_from_k3(monkeypatch):
    binom_coeffs = logfun._binom_coeffs

    def mutant(c, order, sign):
        out = binom_coeffs(c, order, sign)
        out[..., 3:] *= 1 + 1e-11
        return out

    monkeypatch.setattr(logfun, "_binom_coeffs", mutant)


def _lp_phase_off_at_large_index(monkeypatch):
    # lp, and every caller whose point is checked already, makes its logs
    # through _lp.
    lp = branchcalc._lp

    def mutant(p, z):
        return lp(p, z) + (1e-6j if abs(p) >= 2**20 else 0.0)

    for module in (branchcalc, logfun):
        monkeypatch.setattr(module, "_lp", mutant)


def _neg_branch_sigma_from_arg_z(monkeypatch):
    # the sign read from arg z < pi alone, wrong where -z is snapped and z not
    def mutant(p, z):
        return p, 1 if branchcalc.principal_arg(z) < np.pi else -1

    for module in (branchcalc, verify):
        monkeypatch.setattr(module, "neg_branch", mutant)


def _inv_branch_axis_test(monkeypatch):
    # the index read from arg z == 0 alone, wrong where 1/z is snapped and z not
    def mutant(p, z):
        return -p if branchcalc.principal_arg(z) == 0.0 else -p - 1

    for module in (branchcalc, transforms, verify):
        monkeypatch.setattr(module, "inv_branch", mutant)


def _ratio_decomposition_refuses(error):
    def apply(monkeypatch):
        def mutant(z1, z2):
            raise error("refused")

        for module in (branchcalc, verify):
            monkeypatch.setattr(module, "ratio_arg_decomposition", mutant)
    return apply


def _not_caught_yet(reason):
    # raises=AssertionError: a mutant that cannot be built errors instead
    return pytest.mark.xfail(strict=True, raises=AssertionError, reason=reason)


MUTANTS = {
    "designated-p12-off-by-one": (_designated_p12_off_by_one, "duality-regions"),
    "omega-rewrite-sign-flipped": (_omega_rewrite_sign_flipped, "omega-duality"),
    "quasi-primary-modify-unchanged": (_quasi_primary_modify_unchanged,
                                       "contragredient-duality"),
    "difference-crossing-flipped": (_difference_crossing_flipped, "region-swap"),
    "a-inverse-ignores-sign": (_a_inverse_ignores_sign, "contragredient-duality"),
    "omega-inverse-ignores-sign": (_omega_inverse_ignores_sign, "omega-duality"),
    "apply-transposed": (_apply_transposed, "shift-identities"),
    "composed-in-reverse": (_composed_in_reverse, "monodromy-composition"),
    "omega-swap-unconjugated": (_omega_swap_unconjugated, "omega-duality"),
    "binom-coeffs-off-from-k3": (_binom_coeffs_off_from_k3, "duality-regions"),
    "lp-phase-off-at-large-index": (_lp_phase_off_at_large_index, "branch-identities"),
    "neg-branch-sigma-from-arg-z": (_neg_branch_sigma_from_arg_z, "branch-identities"),
    "inv-branch-axis-test": (_inv_branch_axis_test, "branch-identities"),
    "ratio-decomposition-raises-value-error": (_ratio_decomposition_refuses(ValueError),
                                               "branch-identities"),
    "ratio-decomposition-raises-arithmetic-error": (
        _ratio_decomposition_refuses(ArithmeticError), "branch-identities"),
}

NOT_CAUGHT_YET = {
    "apply-transposed": _not_caught_yet(
        "item 9: every shipped action is diagonal, so g and its transpose agree; "
        "a unipotent family will catch it"),
    "composed-in-reverse": _not_caught_yet(
        "item 6: every shipped action commutes; a non-commuting family will catch it"),
    "omega-swap-unconjugated": _not_caught_yet(
        "item 6: conjugation by a commuting g2 is the identity; a non-commuting family "
        "will catch it"),
    "binom-coeffs-off-from-k3": _not_caught_yet(
        "item 3: the defect stays under tol_series = 1e-9; a per-point error budget "
        "will catch it"),
    "lp-phase-off-at-large-index": _not_caught_yet(
        "item 4: branch-identities draws indices in [-3, 3]; sampling large indices "
        "will catch it"),
}


@pytest.mark.parametrize("mutant", [pytest.param(name, marks=NOT_CAUGHT_YET.get(name, ()))
                                    for name in MUTANTS])
def test_check_catches_its_mutant(monkeypatch, mutant):
    apply, check = MUTANTS[mutant]
    config = VerifyConfig()
    apply(monkeypatch)
    caught = next((sc for sc in default_scenarios() if sc.control is None
                   and not CHECKS[check](sc, config).passed), None)
    assert caught is not None, f"{check} passes every scenario under {mutant}"
    monkeypatch.undo()
    assert CHECKS[check](caught, config).passed
