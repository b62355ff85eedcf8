"""Mutation floor: each mutant is a fault some check exists to catch.

Each mutant is applied in process with monkeypatch, and only the check
named for it runs, scenario by scenario over the shipped non-control set,
until one of its reports fails.  A change that weakens a check so that it
no longer sees its fault fails here.
"""

import pytest

from twistlab import CHECKS, VerifyConfig, default_scenarios, logfun, transforms, verify


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


MUTANTS = {
    "designated-p12-off-by-one": (_designated_p12_off_by_one, "duality-regions"),
    "omega-rewrite-sign-flipped": (_omega_rewrite_sign_flipped, "omega-duality"),
    "quasi-primary-modify-unchanged": (_quasi_primary_modify_unchanged,
                                       "contragredient-duality"),
    "difference-crossing-flipped": (_difference_crossing_flipped, "region-swap"),
    "a-inverse-ignores-sign": (_a_inverse_ignores_sign, "contragredient-duality"),
    "omega-inverse-ignores-sign": (_omega_inverse_ignores_sign, "omega-duality"),
}


@pytest.mark.parametrize("mutant", MUTANTS)
def test_check_catches_its_mutant(monkeypatch, mutant):
    apply, check = MUTANTS[mutant]
    config = VerifyConfig()
    apply(monkeypatch)
    caught = next((sc for sc in default_scenarios() if sc.control is None
                   and not CHECKS[check](sc, config).passed), None)
    assert caught is not None, f"{check} passes every scenario under {mutant}"
    monkeypatch.undo()
    assert CHECKS[check](caught, config).passed
