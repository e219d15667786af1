"""Named perturbations: each makes one gate of the CLI fail.

`rep --verify` asserts three residuals, one per defining relation, and each
has the perturbations that break its relation, applied to the operators
`build_rep` returns or to the Casimir they are built at.  Under each, the
run exits 3, writes nothing, and that residual is above
`ASSERTED_RESIDUAL_TOL`.  The `hopf` commutator-defect gate (exit 3) and
`spectrum`'s non-finite-potential gate (exit 4) have one perturbation each.
Unperturbed, every run exits 0.
"""

import dataclasses

import numpy as np
import pytest

import qsu2.cli
from qsu2.cli import ASSERTED_RESIDUAL_TOL, EXIT_NUMERIC, EXIT_OK, EXIT_VERIFY, main

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


def jm_entry_scaled(build, d, c, ms):
    # one J_- entry scaled, J_+ kept: J_- is no longer J_+'s adjoint, and
    # [J_+, J_-] misses [2 J_z] on two rows
    jz, jp, jm = build(d, c, ms)
    return jz, jp, _scaled(jm, 1.0 + 1e-8)


def c_shifted(build, d, c, ms):
    # ladders of a nearby Casimir: both forms equal c (1 + 1e-8), not c
    return build(d, c * (1.0 + 1e-8), ms)


def ladders_scaled(build, d, c, ms):
    # every ladder entry scaled: both Casimir forms miss c on every row
    jz, jp, _ = build(d, c, ms)
    jp = dataclasses.replace(jp, band=jp.band * (1.0 + 1e-8))
    return jz, jp, jp.adjoint()


PERTURBATIONS = {
    "res_jz_jpm": (jz_entry_shifted,),
    "res_jp_jm": (jp_entry_scaled, jm_entry_scaled),
    "res_casimir": (c_shifted, ladders_scaled),
}
REP_CASES = [(residual, perturb) for residual, perturbs in PERTURBATIONS.items() for perturb in perturbs]


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


@pytest.mark.parametrize(
    "residual, perturb", REP_CASES, ids=[f"{residual}-{perturb.__name__}" for residual, perturb in REP_CASES]
)
def test_rep_verify_fails_each_perturbation(tmp_path, monkeypatch, reports, residual, perturb):
    assert main(REP_ARGV + ["--outdir", str(tmp_path / "clean")]) == EXIT_OK
    assert getattr(reports[-1], residual) <= ASSERTED_RESIDUAL_TOL

    real = qsu2.cli.build_rep
    monkeypatch.setattr(qsu2.cli, "build_rep", lambda *args: perturb(real, *args))
    out = tmp_path / "out"
    assert main(REP_ARGV + ["--outdir", str(out)]) == EXIT_VERIFY
    assert getattr(reports[-1], residual) > ASSERTED_RESIDUAL_TOL
    assert not out.exists()


# the benchmark's hopf axioms run: dim 9, interior rows 2..6, band entry 4 inside
HOPF_ARGV = ["hopf", "--alpha", "2", "--profile", "geometric", "--f0", "20", "--c", "900", "--dim", "9",
             "--what", "axioms"]


def hopf_jp_entry_scaled(build, gd, dim, c):
    # one J_+ entry and its adjoint scaled: [J_+, J_-] misses 2 (f - 1/f)/h
    jz, jp, _, g = build(gd, dim, c)
    band = jp.band.copy()
    band[4] *= 1.0 + 1e-6
    jp = dataclasses.replace(jp, band=band)
    return jz, jp, jp.adjoint(), g


def test_hopf_commutator_gate_fails_its_perturbation(tmp_path, monkeypatch):
    assert main(HOPF_ARGV + ["--outdir", str(tmp_path / "clean")]) == EXIT_OK

    real = qsu2.cli.build_gen_rep
    monkeypatch.setattr(qsu2.cli, "build_gen_rep", lambda *args: hopf_jp_entry_scaled(real, *args))
    out = tmp_path / "out"
    assert main(HOPF_ARGV + ["--outdir", str(out)]) == EXIT_VERIFY
    assert not out.exists()


SPECTRUM_ARGV = ["spectrum", "--s", "0.25", "--m", "1", "--grid=-6:6:0.01", "--n", "2"]


def potential_sample_nan(build, *args, **kwargs):
    # one unmasked sample of the potential NaN: the well can no longer be solved
    prof = build(*args, **kwargs)
    values = prof.values.copy()
    values[np.flatnonzero(~prof.pole_mask)[0]] = np.nan
    return dataclasses.replace(prof, values=values)


def test_spectrum_finite_potential_gate_fails_its_perturbation(tmp_path, monkeypatch):
    assert main(SPECTRUM_ARGV + ["--outdir", str(tmp_path / "clean")]) == EXIT_OK

    real = qsu2.cli.build_potential
    monkeypatch.setattr(
        qsu2.cli, "build_potential", lambda *args, **kwargs: potential_sample_nan(real, *args, **kwargs)
    )
    out = tmp_path / "out"
    assert main(SPECTRUM_ARGV + ["--outdir", str(out)]) == EXIT_NUMERIC
    assert not out.exists()
