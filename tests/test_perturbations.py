"""Named perturbations: each makes one gate of the CLI fail.

Every residual that `rep --verify` asserts has one perturbation, applied to
the operators `build_rep` returns or to the Casimir they are built at.
Under it the run exits 3, writes nothing, and that residual is above
`ASSERTED_RESIDUAL_TOL`; unperturbed, the same run exits 0.
"""

import dataclasses

import pytest

import qsu2.cli
from qsu2.cli import ASSERTED_RESIDUAL_TOL, main

# a truncated continuous-series class: interior rows 2..8, band entry 5 inside
REP_ARGV = ["rep", "--s", "1.0", "--c", "3.0", "--basis=-5:11", "--verify"]
INTERIOR = 5


def _scaled(op, factor):
    band = op.band.copy()
    band[INTERIOR] *= factor
    return dataclasses.replace(op, band=band)


def jz_entry_shifted(build, d, c, ms):
    # one J_z entry off its m: [J_z, J_+] - J_+ no longer vanishes
    jz, jp, jm = build(d, c, ms)
    band = jz.band.copy()
    band[INTERIOR] += 1e-6
    return dataclasses.replace(jz, band=band), jp, jm


def jp_entry_scaled(build, d, c, ms):
    # one J_+ entry and its adjoint scaled: [J_+, J_-] misses [2 J_z]
    jz, jp, _ = build(d, c, ms)
    jp = _scaled(jp, 1.0 + 1e-8)
    return jz, jp, jp.adjoint()


def c_shifted(build, d, c, ms):
    # ladders of a nearby Casimir: both forms equal c (1 + 1e-8), not c
    return build(d, c * (1.0 + 1e-8), ms)


def jm_entry_scaled(build, d, c, ms):
    # one J_- entry scaled, J_+ kept: J_- is no longer J_+'s adjoint, and
    # the two Casimir forms part
    jz, jp, jm = build(d, c, ms)
    return jz, jp, _scaled(jm, 1.0 + 1e-8)


def ladders_scaled(build, d, c, ms):
    # every ladder entry scaled: (J_+ J_- + J_- J_+)/2 misses the shift identity
    jz, jp, _ = build(d, c, ms)
    jp = dataclasses.replace(jp, band=jp.band * (1.0 + 1e-8))
    return jz, jp, jp.adjoint()


PERTURBATIONS = {
    "res_jz_jpm": jz_entry_shifted,
    "res_jp_jm": jp_entry_scaled,
    "res_casimir": c_shifted,
    "casimir_forms_dev": jm_entry_scaled,
    "maekawa_shift_dev": ladders_scaled,
}


def test_every_asserted_residual_has_a_perturbation():
    assert set(PERTURBATIONS) == set(qsu2.cli.REP_ASSERTED)


@pytest.fixture
def reports(monkeypatch):
    """The reports `rep` computes, in order."""
    seen = []
    real = qsu2.cli.verify_algebra

    def spy(*args):
        seen.append(real(*args))
        return seen[-1]

    monkeypatch.setattr(qsu2.cli, "verify_algebra", spy)
    return seen


@pytest.mark.parametrize("residual", sorted(PERTURBATIONS))
def test_rep_verify_fails_each_perturbation(tmp_path, monkeypatch, reports, residual):
    assert main(REP_ARGV + ["--outdir", str(tmp_path / "clean")]) == 0
    assert getattr(reports[-1], residual) <= ASSERTED_RESIDUAL_TOL

    real, perturb = qsu2.cli.build_rep, PERTURBATIONS[residual]
    monkeypatch.setattr(qsu2.cli, "build_rep", lambda *args: perturb(real, *args))
    out = tmp_path / "out"
    assert main(REP_ARGV + ["--outdir", str(out)]) == 3
    assert getattr(reports[-1], residual) > ASSERTED_RESIDUAL_TOL
    assert not out.exists()
