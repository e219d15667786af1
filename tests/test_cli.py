import json
import math
import os
import warnings
from pathlib import Path

import numpy as np
import pytest

from qsu2.cli import main
from qsu2.serialize import CSV_BLOCK_ROWS, CSV_KERNEL_MIN_ROWS, sha256_of


def run(argv):
    return main([str(a) for a in argv])


def test_classify_sweep_partitions_bands(tmp_path):
    assert run(["classify", "--s", "1.013", "--c-range", "0.2:2.0:0.01", "--outdir", tmp_path]) == 0
    lines = (tmp_path / "classify.csv").read_text().splitlines()
    assert lines[0].startswith("class,")
    classes = {row.split(",")[0] for row in lines[1:]}
    # the sweep grid hits the continuous band everywhere and the discrete
    # band at c = 1 (the dimension-2 ladder); the other finite c values are
    # measure-zero points and need an exact probe
    assert {"Continuous1", "Discrete3"} <= classes
    c_2b = math.sin(1.013 * 2.0) ** 2 / math.sin(1.013) ** 2  # [(3+1)/2]^2
    assert run(["classify", "--s", "1.013", "--c", c_2b, "--outdir", tmp_path]) == 0
    rows = (tmp_path / "classify.csv").read_text().splitlines()[1:]
    assert any(row.startswith("Finite2b,") for row in rows)
    # every row's c sits in the band its class names
    c0, c1, c2 = 1.3892311255983471, 1.0622879695463020, 0.3269431560520451
    for row in lines[1:]:
        cls, c = row.split(",")[0], float(row.split(",")[1])
        if cls == "Continuous1":
            assert c > c0
        elif cls in ("Mixed2a", "Finite2b"):
            assert c1 < c <= c0 + 1e-12
        elif cls == "Discrete3":
            assert c2 < c < c1


def test_classify_empty_result_is_ok(tmp_path):
    assert run(["classify", "--s", "0.7", "--c", "0.01", "--outdir", tmp_path]) == 0
    lines = (tmp_path / "classify.csv").read_text().splitlines()
    assert len(lines) == 1  # header only


def test_classify_rejects_singular_s(tmp_path, capsys):
    assert run(["classify", "--s", "0", "--c", "1.0", "--outdir", tmp_path]) == 2
    assert "0" in capsys.readouterr().err


def test_rep_verify_paths(tmp_path):
    # closed finite representation passes verification
    s = 1.013
    c = math.sin(s * 2.0) ** 2 / math.sin(s) ** 2  # N = 3 ladder, [(N+1)/2]^2
    assert run(["rep", "--s", s, "--c", c, "--basis=-1.5:4", "--verify", "--outdir", tmp_path]) == 0
    payload = json.loads((tmp_path / "rep.json").read_text())
    assert payload["report"]["closed"] is True
    assert payload["report"]["res_casimir"] < 1e-10
    jp = payload["matrices"]["Jplus"]
    assert len(jp) == 4 and len(jp[0]) == 4 and len(jp[1][0]) == 2
    # truncated continuous basis still verifies on interior rows
    assert run(["rep", "--s", 1.0, "--c", 3.0, "--basis=-5:11", "--verify", "--outdir", tmp_path]) == 0
    payload = json.loads((tmp_path / "rep.json").read_text())
    assert payload["report"]["closed"] is False
    # unitarity-violating basis exits 3
    assert run(["rep", "--s", 1.0, "--c", 0.1, "--basis", "0:5", "--outdir", tmp_path]) == 3


def test_potential_csv_and_manifest_roundtrip(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert run(["potential", "--s", 0.25, "--m", 1, "--grid=-6:6:0.01", "--outdir", out1]) == 0
    manifest = json.loads((out1 / "potential_manifest.json").read_text())
    assert manifest["subcommand"] == "potential"
    assert manifest["outputs"]["potential.csv"] == sha256_of(out1 / "potential.csv")
    assert run(["rerun", out1 / "potential_manifest.json", "--outdir", out2]) == 0
    assert (out1 / "potential.csv").read_bytes() == (out2 / "potential.csv").read_bytes()


def test_sha256_of_a_file_of_several_chunks(tmp_path):
    import hashlib

    from qsu2.serialize import HASH_CHUNK_BYTES

    data = np.random.default_rng(0).bytes(2 * HASH_CHUNK_BYTES + 12345)
    (tmp_path / "big.bin").write_bytes(data)
    assert sha256_of(tmp_path / "big.bin") == hashlib.sha256(data).hexdigest()


def test_deterministic_repeat(tmp_path):
    out1 = tmp_path / "r1"
    out2 = tmp_path / "r2"
    for out in (out1, out2):
        assert run(["flow", "--m-max", 4.5, "--s-grid", "0.05:3.0:0.01", "--outdir", out]) == 0
    assert (out1 / "flow.csv").read_bytes() == (out2 / "flow.csv").read_bytes()
    assert sha256_of(out1 / "flow.csv") == sha256_of(out2 / "flow.csv")


def test_spectrum_all_cells(tmp_path):
    assert (
        run(
            ["spectrum", "--s", 0.25, "--m", 1, "--grid=-6:6:0.002", "--n", 3,
             "--cell", "all", "--outdir", tmp_path]
        )
        == 0
    )
    lines = (tmp_path / "spectrum.csv").read_text().splitlines()
    cells = {row.split(",")[0] for row in lines[1:]}
    assert len(cells) >= 3  # one spectrum per inter-pole well


def test_spectrum_all_cells_skips_shallow_wells(tmp_path):
    # at step 0.01 the two edge wells are cut to 120 samples: they are
    # skipped and named in the manifest, the inner wells are solved
    argv = ["spectrum", "--s", 0.25, "--m", 1, "--grid=-6:6:0.01", "--cell", "all"]
    assert run(argv + ["--outdir", tmp_path]) == 0
    lines = (tmp_path / "spectrum.csv").read_text().splitlines()
    assert {row.split(",")[0] for row in lines[1:]} == {"1", "2", "3"}
    manifest = json.loads((tmp_path / "spectrum_manifest.json").read_text())
    assert manifest["params"]["skipped_cells"] == [0, 4]
    # a run that skips nothing records no skipped cells
    fine = tmp_path / "fine"
    assert run(["spectrum", "--s", 0.25, "--m", 1, "--grid=-6:6:0.002", "--cell", "all", "--outdir", fine]) == 0
    assert "skipped_cells" not in json.loads((fine / "spectrum_manifest.json").read_text())["params"]


def test_spectrum_all_cells_exits_2_when_no_well_qualifies(tmp_path, capsys):
    argv = ["spectrum", "--s", 0.25, "--m", 1, "--grid=-6:6:0.05", "--cell", "all", "--outdir", tmp_path]
    assert run(argv) == 2
    assert "no cell has >= 200 samples" in capsys.readouterr().err
    assert not tmp_path.exists() or not any(tmp_path.iterdir())


def test_surface_section_csv(tmp_path):
    assert run(["surface", "--c", 0.5, "--s", 0.5, "--jz-grid=-12:12:0.01", "--outdir", tmp_path]) == 0
    lines = (tmp_path / "surface.csv").read_text().splitlines()
    assert lines[0] == "Jz,Jx_plus,Jx_minus,mask"
    assert any(row.endswith(",1") for row in lines[1:])  # masked gaps present
    manifest = json.loads((tmp_path / "surface_manifest.json").read_text())
    assert manifest["params"]["connectivity"] == "Disconnected"


def test_surface_transition_value(tmp_path):
    assert run(["surface", "--c", 1.0, "--transition", "--outdir", tmp_path]) == 0
    payload = json.loads((tmp_path / "surface_transition.json").read_text())
    assert payload["s_star"] == pytest.approx(0.90455689430238136, abs=2e-3)


@pytest.mark.parametrize("c", [-1.0, 0.0])
@pytest.mark.parametrize("mode", [["--transition"], ["--s", 0.5]], ids=["transition", "section"])
def test_surface_refuses_c_not_positive(tmp_path, capsys, c, mode):
    # no section exists below c = 0, so neither mode reports one
    out = tmp_path / "out"
    assert run(["surface", "--c", c, *mode, "--outdir", out]) == 2
    assert capsys.readouterr().err == "error: c must be positive\n"
    assert not out.exists()


def test_hopf_reports(tmp_path):
    assert (
        run(
            ["hopf", "--alpha", 3, "--profile", "geometric", "--f0", 20, "--c", 500,
             "--dim", 7, "--outdir", tmp_path]
        )
        == 0
    )
    axioms = json.loads((tmp_path / "hopf_axioms.json").read_text())
    assert axioms["coassoc_jp"] < 1e-10
    assert axioms["counit_jp"] < 1e-12
    assert axioms["conjugation"] < 1e-10
    assert "antipode_full" in axioms and "comult_homomorphism" in axioms
    window = json.loads((tmp_path / "hopf_window.json").read_text())
    assert window["paper_ordering"] is True
    accum = json.loads((tmp_path / "hopf_accumulation.json").read_text())
    assert accum["bounded"]
    # the sech profile carries the two-sided accumulation point
    assert (
        run(["hopf", "--alpha", 3, "--profile", "sech", "--c", 1.0, "--what", "spectrum",
             "--outdir", tmp_path]) == 0
    )
    accum2 = json.loads((tmp_path / "hopf_accumulation.json").read_text())
    assert accum2["bounded"] and accum2["two_sided"] and accum2["monotone_tails"]


def test_hopf_sech_computes_its_window_once(tmp_path, monkeypatch):
    import qsu2.cli
    from qsu2.hopf import GenDeformation, unitarity_window

    calls = []
    monkeypatch.setattr(qsu2.cli, "unitarity_window", lambda c, gd: calls.append(gd) or unitarity_window(c, gd))
    assert run(["hopf", "--alpha", 3, "--profile", "sech", "--c", 5, "--what", "window", "--outdir", tmp_path]) == 0
    assert len(calls) == 1
    # the window of the sech profile the run sets up is the one written
    manifest = json.loads((tmp_path / "hopf_manifest.json").read_text())
    bounds = {"f_lo": manifest["params"]["f_lo"], "f_hi": manifest["params"]["f_hi"]}
    win = unitarity_window(5.0, GenDeformation(alpha=3.0, profile="sech", profile_params=bounds))
    window = json.loads((tmp_path / "hopf_window.json").read_text())
    assert window == {k: getattr(win, k) for k in win.__dataclass_fields__} | {"q1": 2.0 / 3.0, "c": 5.0}


def test_config_file_defaults(tmp_path):
    cfg = tmp_path / "defaults.cfg"
    cfg.write_text("outdir = {}\ns = 1.0\n".format(tmp_path / "from_config"))
    # config supplies s and outdir
    assert run(["classify", "--c", 2.0, "--config", cfg]) == 0
    assert (tmp_path / "from_config" / "classify.csv").exists()
    # explicit flags override the config
    assert run(["classify", "--s", 0.9, "--c", 2.0, "--config", cfg, "--outdir", tmp_path]) == 0
    first = (tmp_path / "classify.csv").read_text().splitlines()[1]
    assert first.split(",")[2] == "0.90000000000000002"


@pytest.mark.parametrize(
    "make",
    [
        lambda p: None,  # missing
        lambda p: p.mkdir(),  # a directory, not a file
        lambda p: p.write_bytes(b"s = \xff\n"),  # not UTF-8
    ],
    ids=["missing", "directory", "binary"],
)
def test_unreadable_config_is_an_argument_error(tmp_path, capsys, make):
    cfg = tmp_path / "run.cfg"
    make(cfg)
    out = tmp_path / "out"
    assert run(["classify", "--s", 1, "--c", 2, "--config", cfg, "--outdir", out]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_config_key_naming_no_flag_is_rejected(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    out = tmp_path / "out"
    # a misspelt flag, and a flag of another subcommand
    for key in ("c-rnage = 0.2:2:0.1", "m-max = 3"):
        cfg.write_text(f"s = 1.0\n{key}\n")
        assert run(["classify", "--c", 2, "--config", cfg, "--outdir", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key.split()[0].replace("-", "_") in err
        assert not out.exists()
    # the common flags are declared by every subcommand
    cfg.write_text(f"s = 1.0\nc = 2.0\noutdir = {out}\nconfig = {cfg}\n")
    assert run(["classify", "--config", cfg]) == 0
    assert (out / "classify.csv").exists()


def test_config_key_naming_a_positional_is_rejected(tmp_path, capsys):
    first = tmp_path / "first"
    assert run(["classify", "--s", 1, "--c", 2, "--outdir", first]) == 0
    cfg = tmp_path / "m.cfg"
    cfg.write_text("manifest = nothing.json\n")
    out = tmp_path / "out"
    assert run(["rerun", first / "classify_manifest.json", "--config", cfg, "--outdir", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "manifest" in err
    assert not out.exists()


@pytest.mark.parametrize("what", ["window", "spectrum", "axioms", "all"])
def test_hopf_tabulated_without_arrays_is_an_argument_error(tmp_path, capsys, what):
    # the CLI cannot pass the tabulated profile's m and b arrays, so it offers no such profile
    out = tmp_path / "out"
    assert run(["hopf", "--profile", "tabulated", "--what", what, "--outdir", out]) == 2
    assert "error: argument --profile: invalid choice: 'tabulated'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("before", [True, False], ids=["before", "after"])
def test_outdir_either_side_of_the_subcommand(tmp_path, monkeypatch, before):
    monkeypatch.chdir(tmp_path)
    flag = ["--outdir", tmp_path / "x"]
    argv = ["classify", "--s", 1, "--c", 2]
    assert run(flag + argv if before else argv + flag) == 0
    assert (tmp_path / "x" / "classify.csv").exists()
    assert not (tmp_path / "classify.csv").exists()
    # the one after the subcommand wins, so rerun's own --outdir does
    assert run(["rerun", tmp_path / "x" / "classify_manifest.json", "--outdir", tmp_path / "y"]) == 0
    assert (tmp_path / "y" / "classify.csv").read_bytes() == (tmp_path / "x" / "classify.csv").read_bytes()
    assert run(["--outdir", tmp_path / "z"] + argv + ["--outdir", tmp_path / "w"]) == 0
    assert (tmp_path / "w" / "classify.csv").exists() and not (tmp_path / "z").exists()


def test_outdir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("QSU2_OUTDIR", str(tmp_path / "envdir"))
    assert run(["classify", "--s", 1.0, "--c", 2.0]) == 0
    assert (tmp_path / "envdir" / "classify.csv").exists()


def test_spectrum_from_potential_csv(tmp_path):
    assert run(["potential", "--s", 3.0, "--m", 1, "--F", 0.3, "--grid=-6:6:0.005",
                "--outdir", tmp_path]) == 0
    assert run(["spectrum", "--potential-csv", tmp_path / "potential.csv", "--n", 2,
                "--outdir", tmp_path]) == 0
    lines = (tmp_path / "spectrum.csv").read_text().splitlines()
    assert len(lines) == 3
    # same numbers as the inline route
    assert run(["spectrum", "--s", 3.0, "--m", 1, "--F", 0.3, "--grid=-6:6:0.005",
                "--n", 2, "--outdir", tmp_path / "inline"]) == 0
    inline = (tmp_path / "inline" / "spectrum.csv").read_text().splitlines()
    got = [float(row.split(",")[2]) for row in lines[1:]]
    want = [float(row.split(",")[2]) for row in inline[1:]]
    assert got == pytest.approx(want, rel=1e-9)


def test_numerical_failure_exit_code(tmp_path):
    # the Morse wall overflows on an absurdly wide grid: exit 4
    code = run(["potential", "--s", 3.05, "--m", 1, "--f1-branch", "constant",
                "--f2-branch", "exponential", "--grid=-100:900:0.5", "--outdir", tmp_path])
    assert code == 0  # building records inf values but does not solve
    code = run(["spectrum", "--s", 3.05, "--m", 1, "--f1-branch", "constant",
                "--f2-branch", "exponential", "--grid=-100:900:0.5", "--n", 1,
                "--outdir", tmp_path])
    assert code == 4


def test_non_finite_values_are_data_not_warnings(tmp_path, capsys):
    # an overflowing residual or potential term is recorded, and the gates
    # refuse it by exit code, without a numpy warning on stderr
    rep = ["rep", "--s", 1, "--c", 1.7e308, "--basis=0:8", "--outdir", tmp_path]
    potential = ["--s", 3, "--m", 1, "--f1-branch", "tanh", "--f2-branch", "sech", "--F", 1e300,
                 "--outdir", tmp_path]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(rep) == 0
        assert run(rep + ["--verify"]) == 3
        assert run(["potential"] + potential) == 0
        assert run(["spectrum"] + potential) == 4
    values = [line.split(",")[1] for line in (tmp_path / "potential.csv").read_text().splitlines()[1:]]
    assert values == ["inf"] * 12001
    assert "Warning" not in capsys.readouterr().err


def test_flow_csv_shape(tmp_path):
    assert run(["flow", "--m-max", 1.0, "--s-grid", "0.1:3.0:0.1", "--outdir", tmp_path]) == 0
    lines = (tmp_path / "flow.csv").read_text().splitlines()
    assert lines[0] == "s,m,value"
    assert len(lines) == 1 + 2 * 30  # two curves on a 30-point grid


def _parent_style_manifest(path):
    path.write_text(json.dumps({"subcommand": "flow", "params": {"m_max": 1.0}, "outputs": {}}))


@pytest.mark.parametrize(
    "make",
    [
        lambda p: None,  # missing
        lambda p: p.mkdir(),  # a directory, not a file
        lambda p: p.write_bytes(b"\xff\xfe{"),  # not UTF-8
        lambda p: p.write_text("subcommand = flow\n"),  # not JSON
        lambda p: p.write_text("[1, 2]"),  # JSON, not an object
        _parent_style_manifest,  # written before manifests recorded argv
    ],
    ids=["missing", "directory", "binary", "not-json", "not-object", "no-argv"],
)
def test_rerun_rejects_bad_manifest(tmp_path, capsys, make):
    manifest = tmp_path / "flow_manifest.json"
    make(manifest)
    assert run(["rerun", manifest, "--outdir", tmp_path / "out"]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "out").exists()


def test_spectrum_csv_digest_in_manifest(tmp_path):
    assert run(["potential", "--s", 0.25, "--m", 1, "--grid=-6:6:0.01", "--outdir", tmp_path]) == 0
    assert run(["spectrum", "--potential-csv", tmp_path / "potential.csv", "--n", 2,
                "--outdir", tmp_path]) == 0
    manifest = json.loads((tmp_path / "spectrum_manifest.json").read_text())
    assert manifest["params"]["potential_sha256"] == sha256_of(tmp_path / "potential.csv")


@pytest.mark.parametrize(
    "edit,message",
    [
        (lambda lines: ["x,V,mask"] + lines[1:], "header 'x,V,mask' is not 'r,V,mask'"),
        (lambda lines: lines[:2], "1 rows, need at least 2"),
        (lambda lines: lines[:1], "0 rows, need at least 2"),
        (lambda lines: [], "header '' is not 'r,V,mask'"),
        (  # rows dropped
            lambda lines: [ln for i, ln in enumerate(lines) if i % 3 != 0 or i == 0],
            "r is not an increasing uniform grid",
        ),
        (lambda lines: lines[:1] + lines[1:][::-1], "r is not an increasing uniform grid"),
        (lambda lines: lines[:10] + ["", ""] + lines[10:], "2 blank rows"),
        (  # byte 0xff ahead of the header
            lambda lines: ["\udcff" + lines[0]] + lines[1:],
            "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte",
        ),
        (  # two points in a V cell
            lambda lines: lines[:3] + [lines[3].replace(lines[3].split(",")[1], "1.2.3")] + lines[4:],
            "could not convert string '1.2.3' to float64 at row 2, column 2.",
        ),
    ],
    ids=["header", "one-row", "no-rows", "empty", "non-uniform", "decreasing", "blank-rows", "binary", "two-points"],
)
def test_spectrum_rejects_bad_potential_csv(tmp_path, capsys, edit, message):
    assert run(["potential", "--s", 0.25, "--m", 1, "--grid=-6:6:0.01", "--outdir", tmp_path]) == 0
    lines = (tmp_path / "potential.csv").read_text().splitlines()
    bad = tmp_path / "bad.csv"
    bad.write_bytes("".join(ln + "\n" for ln in edit(lines)).encode("utf-8", "surrogateescape"))
    out = tmp_path / "out"
    assert run(["spectrum", "--potential-csv", bad, "--n", 2, "--outdir", out]) == 2
    assert capsys.readouterr().err == f"error: {bad}: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("cell", ["2", "true", "nan"])
def test_spectrum_rejects_a_mask_cell_other_than_0_or_1(tmp_path, capsys, cell):
    assert run(["potential", "--s", 0.25, "--m", 1, "--grid=-6:6:0.01", "--outdir", tmp_path]) == 0
    lines = (tmp_path / "potential.csv").read_text().splitlines()
    lines[5] = lines[5].rsplit(",", 1)[0] + "," + cell
    bad = tmp_path / "bad.csv"
    bad.write_text("".join(ln + "\n" for ln in lines))
    out = tmp_path / "out"
    assert run(["spectrum", "--potential-csv", bad, "--n", 2, "--outdir", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and repr(cell) in err
    assert not out.exists()


def test_potential_csv_reads_back_bit_identical(tmp_path):
    from qsu2.cli import _load_potential_csv
    from qsu2.qnumbers import Deformation
    from qsu2.schrodinger import build_potential, realization
    from qsu2.serialize import rows_of, write_csv

    # every value the potential command writes, NaN and infinities included
    d = Deformation(0.25)
    prof = build_potential(realization(d), 1.0, grid=(-6.0, 0.001, 12001))
    values = prof.values.copy()
    values[:4] = [math.nan, math.inf, -math.inf, -0.0]
    write_csv(tmp_path / "p.csv", ["r", "V", "mask"], rows_of(prof.r, values, prof.pole_mask))
    back, sha256 = _load_potential_csv(tmp_path / "p.csv")
    assert sha256 == sha256_of(tmp_path / "p.csv")
    assert back.values.tobytes() == values.tobytes()
    assert back.pole_mask.tobytes() == prof.pole_mask.tobytes()
    assert (back.start, back.count) == (prof.start, prof.count)


# V cells in place of the first row's: spellings '%.17g' does not write,
# and two it writes that float() reads
ODD_CELLS = ["+1.5", " 1.5", "1.5E3", "123456789012345678", "1.23456789012345678", "1.", ".5", "1e5", "-0.0",
             "00.5", "1.50", "1e-07", "nan"]


@pytest.mark.parametrize(
    "old, new",
    [(",3.8616976534445704,", f",{cell},") for cell in ODD_CELLS] + [("\n", "\r\n")],
    ids=ODD_CELLS + ["crlf"],
)
def test_a_potential_csv_cell_reads_as_loadtxt_reads_it(tmp_path, old, new):
    # cells and line ends '%.17g' and the potential command do not write
    # read to np.loadtxt's table, whichever reader takes the file
    from qsu2.cli import _load_potential_csv

    assert run(["potential", "--s", 0.25, "--m", 1, "--grid=-6:6:0.001", "--outdir", tmp_path]) == 0
    text = (tmp_path / "potential.csv").read_text()
    assert text.startswith("r,V,mask\n-6,3.8616976534445704,0\n")
    edited = tmp_path / "edited.csv"
    edited.write_text(text.replace(old, new), newline="")
    r, v, mask = np.loadtxt(text.replace(old, new).splitlines()[1:], delimiter=",", comments=None, ndmin=2).T
    back, _ = _load_potential_csv(edited)
    assert back.values.tobytes() == v.tobytes()
    assert back.pole_mask.tobytes() == (mask == 1).tobytes()
    assert (back.start, back.count) == (r[0], len(r))


@pytest.mark.parametrize("cell", ["99", "-1", "5"])
def test_spectrum_cell_out_of_range_is_an_argument_error(tmp_path, capsys, cell):
    out = tmp_path / "out"
    argv = ["spectrum", "--s", 0.25, "--m", 1, "--grid=-6:6:0.01", "--cell", cell, "--outdir", out]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "5 cells" in err
    assert not out.exists()
    # index 4, the last well, is in range; it is too small to solve
    assert run(argv[:-3] + ["4", "--outdir", out]) == 2
    assert "need >= 200" in capsys.readouterr().err


@pytest.mark.parametrize("cell", ["1.5", "first"])
def test_spectrum_cell_that_is_no_index_is_an_argument_error(tmp_path, capsys, cell):
    out = tmp_path / "out"
    argv = ["spectrum", "--s", 0.25, "--m", 1, "--grid=-6:6:0.01", "--cell", cell, "--outdir", out]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert f'error: argument --cell: expected "largest", "all" or a cell index, got {cell!r}' in err
    assert not out.exists()
    # an index is recorded as written
    assert run(argv[:-3] + ["2", "--outdir", out]) == 0
    assert json.loads((out / "spectrum_manifest.json").read_text())["params"]["cell"] == "2"


def test_hopf_m_range_too_short_for_the_tails_is_an_argument_error(tmp_path, capsys):
    out = tmp_path / "out"
    argv = ["hopf", "--what", "spectrum", "--outdir", out]
    assert run(argv + ["--m-range=0:1:1"]) == 2
    assert "error: argument --m-range: 2 samples cannot fill two disjoint tails of 8" in capsys.readouterr().err
    assert not out.exists()
    # 16 samples fill two tails of 8
    assert run(argv + ["--m-range=0:15:1"]) == 0
    assert len((out / "hopf_spectrum.csv").read_text().splitlines()) == 17


@pytest.mark.parametrize(
    "extra,config,named",
    [
        (["--s", 1], "", "--s"),
        (["--F", 7], "", "--F"),
        (["--grid=-6:6:0.02"], "", "--grid"),
        ([], "s = 1\n", "--s"),
        (["--F", 1, "--m", 2], "s = 1\n", "--F, --m, --s"),
    ],
    ids=["s", "F", "grid", "config-s", "several"],
)
def test_spectrum_refuses_potential_flags_beside_a_potential_csv(tmp_path, capsys, extra, config, named):
    assert run(["potential", "--s", 0.25, "--m", 1, "--grid=-6:6:0.01", "--outdir", tmp_path]) == 0
    cfg = tmp_path / "spectrum.cfg"
    cfg.write_text(config)
    out = tmp_path / "out"
    argv = ["spectrum", "--potential-csv", tmp_path / "potential.csv", "--n", 2, "--config", cfg, "--outdir", out]
    capsys.readouterr()
    assert run(argv + extra) == 2
    assert capsys.readouterr().err == f"error: --potential-csv takes the potential from its file, not from {named}\n"
    assert not out.exists()


def test_spectrum_rejects_missing_potential_csv(tmp_path, capsys):
    assert run(["spectrum", "--potential-csv", tmp_path / "absent.csv", "--outdir", tmp_path]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "argv,message",
    [
        (["rep", "--c", 1, "--basis=0:4"], "rep needs --s, --c, and --basis"),
        (["rep", "--s", 1, "--basis=0:4"], "rep needs --s, --c, and --basis"),
        (["rep", "--s", 1, "--c", 1], "rep needs --s, --c, and --basis"),
        (["potential", "--m", 1], "needs --s and --m (or a potential CSV)"),
        (["potential", "--s", 1], "needs --s and --m (or a potential CSV)"),
        (["spectrum"], "spectrum needs --potential-csv or --s and --m"),
        (["spectrum", "--s", 1], "spectrum needs --potential-csv or --s and --m"),
        (["surface", "--s", 1], "surface needs --c"),
        (["surface", "--c", 1], "surface needs --s (or --transition)"),
    ],
)
def test_a_missing_flag_is_an_argument_error(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    assert run(argv + ["--outdir", out]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def _fresh(code: str) -> str:
    """The stdout of a fresh interpreter running code with qsu2 on its path."""
    import subprocess
    import sys

    src = Path(__file__).resolve().parents[1] / "src"
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": str(src)}).stdout


def _loaded_by(argv=None) -> set:
    """The modules a fresh interpreter holds after `import qsu2.cli`, and
    after `main(argv)` when argv is given."""
    code = "import sys, qsu2.cli\n"
    if argv is not None:
        code += f"qsu2.cli.main({[str(a) for a in argv]!r})\n"
    out = _fresh(code + "print()\nprint(*sys.modules)")
    return set(out.splitlines()[-1].split())


def _loaded_by_cli_import(module: str) -> bool:
    """Whether a fresh `import qsu2.cli` loads the module."""
    return module in _loaded_by()


def test_import_leaves_scipy_out():
    assert not _loaded_by_cli_import("scipy")


def test_import_leaves_cython_lapack_out():
    assert not _loaded_by_cli_import("scipy.linalg.cython_lapack")


def test_import_leaves_thread_pools_out():
    assert not _loaded_by_cli_import("concurrent.futures")


def test_import_leaves_numpy_fft_out():
    assert not _loaded_by_cli_import("numpy.fft")


def test_import_leaves_csvcells_out():
    assert not _loaded_by_cli_import("qsu2.csvcells")


@pytest.mark.parametrize(
    "argv", [["--version"], ["--help"], ["classify", "--s", "nan"]], ids=["version", "help", "argument-error"]
)
def test_start_up_without_a_command_loads_no_numpy(argv):
    loaded = _loaded_by(argv)
    assert "numpy" not in loaded
    assert {name for name in loaded if name.startswith("qsu2")} == {"qsu2", "qsu2.cli"}


@pytest.mark.parametrize(
    "argv, left_out",
    [
        (["classify", "--s", 1, "--c", 1], ["qsu2.operators", "qsu2.hopf", "qsu2.schrodinger", "qsu2.geometry"]),
        (["flow", "--m-max", 2], ["qsu2.qnumbers", "qsu2.classify", "qsu2.operators", "qsu2.hopf", "qsu2.schrodinger"]),
        (["rep", "--s", 1, "--c", 3, "--basis=-5:11"], ["qsu2.hopf", "qsu2.schrodinger"]),
        (["potential", "--s", 0.25, "--m", 1, "--grid=-6:6:0.01"], ["qsu2.hopf"]),
    ],
    ids=["classify", "flow", "rep", "potential"],
)
def test_a_command_loads_only_its_own_modules(tmp_path, argv, left_out):
    loaded = _loaded_by(argv + ["--outdir", tmp_path])
    assert (tmp_path / f"{argv[0]}_manifest.json").exists()  # the command ran
    assert not loaded & set(left_out)


@pytest.mark.parametrize("looked_up", [False, True], ids=["assigned", "looked-up-first"])
def test_a_patch_before_any_command_is_the_one_the_command_calls(tmp_path, looked_up):
    # perfbench's tracer looks each name up on qsu2.cli, then replaces it
    code = "\n".join([
        "import qsu2.cli, qsu2.serialize",
        "qsu2.cli.write_csv" if looked_up else "",
        "calls = []",
        "def spy(path, header, rows):",
        "    calls.append(path.name)",
        "    return qsu2.serialize.write_csv(path, header, rows)",
        "qsu2.cli.write_csv = spy",
        f"assert qsu2.cli.main(['classify', '--s', '1', '--c', '1', '--outdir', {str(tmp_path)!r}]) == 0",
        "assert qsu2.cli.write_csv is spy",
        "print(*calls)",
    ])
    assert _fresh(code).splitlines()[-1] == "classify.csv"


def test_import_qsu2_loads_only_the_package():
    code = "\n".join([
        "import sys, qsu2",
        "loaded = {name for name in sys.modules if name.startswith(('qsu2', 'numpy'))}",
        "assert loaded == {'qsu2'}, loaded",
    ])
    _fresh(code)


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["rep", "--s", 1, "--c", "nan", "--basis=0:8", "--verify"], "--c"),
        (["rep", "--s", 1, "--c=-inf", "--basis=0:8"], "--c"),
        (["rep", "--s", 1, "--c", 2, "--basis=nan:8"], "--basis"),
        (["hopf", "--alpha", 2, "--profile", "geometric", "--f0", 20, "--c", "nan", "--dim", 7], "--c"),
        (["hopf", "--alpha", "inf", "--what", "window"], "--alpha"),
        (["potential", "--s", 0.25, "--m", 1, "--grid=0:inf:1"], "--grid"),
        (["flow", "--s-grid=0.1:nan:0.1"], "--s-grid"),
        (["classify", "--s", "1e400", "--c", 2], "--s"),
    ],
    ids=["rep-c-nan", "rep-c-minus-inf", "rep-basis-nan", "hopf-c-nan", "hopf-alpha-inf",
         "potential-grid-inf", "flow-grid-nan", "classify-s-overflow"],
)
def test_non_finite_input_is_an_argument_error(tmp_path, capsys, argv, flag):
    out = tmp_path / "out"
    assert run(argv + ["--outdir", out]) == 2
    assert f"error: argument {flag}: " in capsys.readouterr().err
    assert not out.exists()


def test_rep_verify_fails_a_nan_residual(tmp_path, monkeypatch):
    import dataclasses

    import qsu2.cli

    real = qsu2.cli.verify_algebra
    monkeypatch.setattr(qsu2.cli, "verify_algebra",
                        lambda *a: dataclasses.replace(real(*a), res_casimir=math.nan))
    argv = ["rep", "--s", 1.0, "--c", 3.0, "--basis=-5:11", "--outdir", tmp_path]
    assert run(argv) == 0
    assert run(argv + ["--verify"]) == 3


def test_hopf_gate_fails_a_nan_residual(tmp_path, monkeypatch):
    import dataclasses

    import qsu2.cli

    real = qsu2.cli.hopf_axiom_report
    monkeypatch.setattr(qsu2.cli, "hopf_axiom_report",
                        lambda *a: dataclasses.replace(real(*a), commutator_defect=math.nan))
    argv = ["hopf", "--alpha", 3, "--profile", "geometric", "--f0", 20, "--c", 500, "--dim", 7]
    assert run(argv + ["--outdir", tmp_path]) == 3


def test_hopf_gate_fails_a_perturbed_ladder_entry(tmp_path, monkeypatch, capsys):
    # one interior J_+ entry (and its adjoint) scaled by 1 + 1e-8 breaks
    # [J+, J-] = 2 (f - 1/f)/h far beyond 1e-10 * c; the run writes nothing
    import dataclasses

    import qsu2.cli

    real = qsu2.cli.build_gen_rep

    def perturbed(*args):
        jz, jp, _, g = real(*args)
        band = jp.band.copy()
        band[3] *= 1.0 + 1e-8
        jp = dataclasses.replace(jp, band=band)
        return jz, jp, jp.adjoint(), g

    monkeypatch.setattr(qsu2.cli, "build_gen_rep", perturbed)
    out = tmp_path / "out"
    argv = ["hopf", "--alpha", 2, "--profile", "geometric", "--f0", 20, "--c", 900, "--dim", 9, "--outdir", out]
    assert run(argv) == 3
    assert "commutator defect" in capsys.readouterr().err
    assert not out.exists()


def test_hopf_infeasible_anchor_prints_a_float(tmp_path, capsys):
    # the README's sech example: the telescoped |N|^2 goes negative
    assert run(["hopf", "--alpha", 3, "--profile", "sech", "--c", 1.0, "--outdir", tmp_path]) == 2
    err = capsys.readouterr().err
    head, value = err.rstrip("\n").rsplit(" = ", 1)
    assert head == "error: no unitary truncation at this anchor: min |N|^2"
    assert float(value) == pytest.approx(-0.61121492313517, rel=1e-9)


# ----------------------------------------------------------------------
# a failing run leaves nothing behind; counts are checked where they enter


@pytest.mark.parametrize(
    "argv",
    [
        ["hopf", "--alpha", 2, "--profile", "geometric", "--f0", 20, "--c", 900, "--dim", 0],
        ["hopf"],
    ],
    ids=["dim-0", "defaults"],
)
@pytest.mark.parametrize("outdir_exists", [True, False])
def test_failing_hopf_leaves_no_outputs(tmp_path, argv, outdir_exists):
    out = tmp_path / "out"
    if outdir_exists:
        out.mkdir()
        (out / "keep.txt").write_text("mine")
    # the window and spectrum are computed before the axioms fail
    assert run(argv + ["--outdir", out]) == 2
    if outdir_exists:
        assert [p.name for p in out.iterdir()] == ["keep.txt"]
    else:
        assert not out.exists()


def test_outputs_and_wrote_lines_repeat_over_earlier_outputs(tmp_path, capsys):
    out = tmp_path / "a" / "b"
    argv = ["hopf", "--alpha", 2, "--profile", "geometric", "--f0", 20, "--c", 900, "--dim", 7, "--outdir", out]
    assert run(argv) == 0
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    assert sorted(first) == [
        "hopf_accumulation.json", "hopf_axioms.json", "hopf_manifest.json", "hopf_spectrum.csv", "hopf_window.json"
    ]
    assert capsys.readouterr().out.splitlines() == [f"wrote {out / name}" for name in (
        "hopf_window.json", "hopf_spectrum.csv", "hopf_accumulation.json", "hopf_axioms.json")]
    assert run(argv) == 0
    assert {p.name: p.read_bytes() for p in out.iterdir()} == first


def test_failing_verification_writes_no_rep_json(tmp_path):
    (tmp_path / "rep.json").write_text("earlier")
    assert run(["rep", "--s", 0.01, "--c", 1e6, "--basis=0:400", "--verify", "--outdir", tmp_path]) == 3
    assert [p.name for p in tmp_path.iterdir()] == ["rep.json"]
    assert (tmp_path / "rep.json").read_text() == "earlier"


def test_a_run_failing_while_writing_removes_what_it_wrote(tmp_path, monkeypatch):
    import qsu2.cli

    write_json = qsu2.cli.write_json

    def full_disk(path, payload):
        if path.name == "hopf_accumulation.json":
            raise OSError(28, "No space left on device")
        return write_json(path, payload)

    monkeypatch.setattr(qsu2.cli, "write_json", full_disk)
    argv = ["hopf", "--alpha", 2, "--profile", "geometric", "--f0", 20, "--c", 900, "--dim", 7, "--outdir", tmp_path]
    with pytest.raises(OSError):
        run(argv)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("partial", [False, True], ids=["before-open", "half-written"])
def test_a_run_whose_manifest_fails_removes_its_outputs(tmp_path, monkeypatch, partial):
    import qsu2.cli

    def full_disk(outdir, subcommand, *args):
        if partial:
            qsu2.cli.manifest_path(outdir, subcommand).write_text("{")
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(qsu2.cli, "write_manifest", full_disk)
    for argv in (["classify", "--s", 1, "--c", 2], ["flow", "--m-max", 2, "--s-grid=0.5:2.5:0.25"]):
        with pytest.raises(OSError) as exc:
            run(argv + ["--outdir", tmp_path])
        assert exc.value.errno == 28
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("n", [0, -2])
def test_spectrum_n_below_one_is_an_argument_error(tmp_path, capsys, n):
    out = tmp_path / "out"
    assert run(["spectrum", "--s", 0.25, "--m", 1, "--grid=-6:6:0.01", "--n", n, "--outdir", out]) == 2
    assert f"argument --n: must be >= 1, got {n}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("step", ["1e-18", "1e-300"])
def test_grid_past_any_allocator_is_an_argument_error(tmp_path, capsys, step):
    # 1e18 + 1 samples ask numpy for 6.94 EiB, which no allocator grants
    out = tmp_path / "out"
    assert run(["potential", "--s", 0.25, "--m", 1, f"--grid=0:1:{step}", "--outdir", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("m_max", [0, -3, 0.2])
def test_flow_without_curves_is_an_argument_error(tmp_path, capsys, m_max):
    out = tmp_path / "out"
    assert run(["flow", "--m-max", m_max, "--outdir", out]) == 2
    err = capsys.readouterr().err
    assert "--m-max" in err and "no curve" in err
    assert not out.exists()


def test_flow_smallest_m_max_writes_one_curve(tmp_path):
    assert run(["flow", "--m-max", 0.5, "--s-grid", "0.5:1.0:0.25", "--outdir", tmp_path]) == 0
    lines = (tmp_path / "flow.csv").read_text().splitlines()
    assert lines == ["s,m,value", "0.5,0.5,1", "0.75,0.5,1", "1,0.5,1"]
    assert json.loads((tmp_path / "flow_crossings.json").read_text()) == []


# four curves on a grid of a quarter block and one point: four rows more
# than a block holds, so the last block has fewer than CSV_KERNEL_MIN_ROWS
PAST_A_BLOCK = f"0.05:2.95:{2.9 / (CSV_BLOCK_ROWS // 4)!r}"


@pytest.mark.parametrize("m_max, s_grid", [(1.0, "0.1:3.0:0.1"), (2.0, PAST_A_BLOCK)], ids=["one-block", "two-blocks"])
def test_flow_csv_is_fmt_of_each_cell(tmp_path, m_max, s_grid):
    # s and m are spelled once per value and their cells tiled and repeated:
    # below CSV_KERNEL_MIN_ROWS values by %, from there on by csvcells, whose
    # NUL-padded cells a short last block writes on the % path
    import dense_reference as ref
    from qsu2.cli import _grid, _parse_grid
    from qsu2.geometry import spectral_flow

    assert run(["flow", "--m-max", m_max, "--s-grid", s_grid, "--outdir", tmp_path]) == 0
    table = spectral_flow(m_max, _grid(_parse_grid(s_grid)))
    rows = [(s, m, v) for m, curve in zip(table.m_values.tolist(), table.values.tolist())
            for s, v in zip(table.s_grid.tolist(), curve)]
    if m_max == 1.0:
        assert len(rows) < CSV_KERNEL_MIN_ROWS
    else:
        assert len(table.s_grid) >= CSV_KERNEL_MIN_ROWS and len(rows) == CSV_BLOCK_ROWS + 4
    assert (tmp_path / "flow.csv").read_bytes() == ref.csv_text(["s", "m", "value"], rows).encode()


def test_writers_make_the_directory_only_when_it_is_missing(tmp_path, monkeypatch):
    from qsu2.serialize import Records, rows_of, write_csv, write_json

    made = []
    mkdir = Path.mkdir

    def counted(self, *args, **kwargs):
        made.append(self)
        return mkdir(self, *args, **kwargs)

    monkeypatch.setattr(Path, "mkdir", counted)
    writers = {
        "t.csv": lambda path: write_csv(path, ["x"], rows_of(np.arange(3.0))),
        "t.json": lambda path: write_json(path, {"r": Records({"x": [0.5]})}),
    }
    for k, (name, write) in enumerate(writers.items()):
        out = tmp_path / f"missing{k}" / "dir"
        write(out / name)  # a missing directory is made, its parents too
        assert out in made and (out / name).is_file()
        made.clear()
        write(out / f"again-{name}")  # an existing one is not
        write(out / name)
        assert made == []
        assert sorted(p.name for p in out.iterdir()) == sorted([name, f"again-{name}"])


def test_flow_crossings_json_is_json_dumps_of_the_library_crossings(tmp_path):
    import dense_reference as ref
    from qsu2.geometry import spectral_flow

    # the default grid: 500 points on [0.05, pi - 0.05]; more crossings than
    # a block holds, so the records cross a block boundary and reach the kernel
    assert run(["flow", "--m-max", 24, "--outdir", tmp_path]) == 0
    table = spectral_flow(24.0, 0.05 + (math.pi - 0.1) / 499 * np.arange(500))
    assert len(table.crossings) > CSV_BLOCK_ROWS
    want = [{"s": s, "m_low": lo, "m_high": hi} for s, lo, hi in table.crossings]
    # json.dumps's layout, each float spelled '%.17g' in JSON's spelling
    text = (tmp_path / "flow_crossings.json").read_text(encoding="utf-8")
    assert text == ref.records_json_text(want)
    # and reads back as the same floats (finite and nonzero: == is bit equality)
    got = json.loads(text)
    assert tuple((float(x["s"]), float(x["m_low"]), float(x["m_high"])) for x in got) == table.crossings


@pytest.mark.parametrize("count", [0, -3])
def test_rep_basis_count_below_one_is_an_argument_error(tmp_path, capsys, count):
    out = tmp_path / "out"
    assert run(["rep", "--s", 1, "--c", 2, f"--basis=0:{count}", "--outdir", out]) == 2
    err = capsys.readouterr().err
    assert f"argument --basis: bad basis spec '0:{count}': count must be >= 1, got {count}" in err
    assert not out.exists()


@pytest.mark.parametrize("spec", ["1e17:3", "-1e17:3", "4503599627370494:2", "0:4503599627370496"])
def test_rep_basis_beyond_unit_spacing_is_an_argument_error(tmp_path, capsys, spec):
    # from |m| = 2**52 on, m0 + i no longer steps by exactly 1
    out = tmp_path / "out"
    assert run(["rep", "--s", 1, "--c", 3, f"--basis={spec}", "--outdir", out]) == 2
    err = capsys.readouterr().err
    assert f"argument --basis: bad basis spec '{spec}': |m0| + count must be < 2**52" in err
    assert not out.exists()
    # the largest basis below the bound still builds and verifies
    assert run(["rep", "--s", 1, "--c", 3, "--basis=4503599627370490.5:5", "--verify", "--outdir", out]) == 0


def test_rep_basis_too_short_for_a_truncation_is_an_argument_error(tmp_path, capsys):
    out = tmp_path / "out"
    assert run(["rep", "--s", 1, "--c", 3, "--basis=0:4", "--outdir", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: argument --basis: basis of size 4 ")
    assert err.endswith("a truncated class needs at least 5 states\n")
    assert not out.exists()
    assert run(["rep", "--s", 1, "--c", 3, "--basis=0:5", "--outdir", out]) == 0


def test_rep_closed_class_smaller_than_a_truncation_still_verifies(tmp_path):
    # the README's example: the finite N = 3 ladder on its four states
    argv = ["rep", "--s", 1.013, "--c", 1.1207094872156829, "--basis=-1.5:4", "--verify", "--outdir", tmp_path]
    assert run(argv) == 0
    assert json.loads((tmp_path / "rep.json").read_text())["report"]["closed"] is True


@pytest.mark.parametrize("outdir, named", [("afile", "afile"), ("afile/sub", "afile")], ids=["file", "under-a-file"])
@pytest.mark.parametrize("from_env", [False, True], ids=["flag", "QSU2_OUTDIR"])
def test_an_outdir_that_is_no_directory_is_an_argument_error(tmp_path, monkeypatch, capsys, outdir, named, from_env):
    import qsu2.cli

    def refuse(*args):
        raise AssertionError("computed for an output directory it cannot write")

    monkeypatch.setattr(qsu2.cli, "thresholds", refuse)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "afile").write_text("kept")
    argv = ["classify", "--s", 1, "--c", 1]
    if from_env:
        monkeypatch.setenv("QSU2_OUTDIR", outdir)
    else:
        argv += ["--outdir", outdir]
    assert run(argv) == 2
    assert capsys.readouterr().err == f"error: argument --outdir: {named} is not a directory\n"
    assert [p.name for p in tmp_path.iterdir()] == ["afile"]
    assert (tmp_path / "afile").read_text() == "kept"


@pytest.mark.parametrize("dim", [2, 4])
def test_hopf_dim_without_interior_rows_is_an_argument_error(tmp_path, capsys, dim):
    out = tmp_path / "out"
    argv = ["hopf", "--alpha", 2, "--profile", "geometric", "--f0", 20, "--c", 900, "--outdir", out]
    assert run(argv + ["--dim", dim]) == 2
    assert f"error: argument --dim: must be >= 5, got {dim}" in capsys.readouterr().err
    assert not out.exists()
    # five states leave one interior row at EDGE_BUFFER = 2
    assert run(argv + ["--dim", 5]) == 0
    assert json.loads((out / "hopf_manifest.json").read_text())["params"]["dim"] == 5


# every DISPATCH command, and the outputs it returns in the order main writes them
PURE_RUNS = {
    "classify": (["classify", "--s", 1.013, "--c-range", "0.2:2.0:0.1"], ["classify.csv"]),
    "rep": (["rep", "--s", 1.0, "--c", 3.0, "--basis=-5:11", "--verify"], ["rep.json"]),
    "potential": (["potential", "--s", 0.25, "--m", 1, "--grid=-6:6:0.01"], ["potential.csv"]),
    "spectrum": (["spectrum", "--s", 0.25, "--m", 1, "--grid=-6:6:0.002", "--n", 2, "--cell", "all", "--with-vectors"],
                 ["spectrum.csv"] + [f"spectrum_vectors_{k}.csv" for k in range(5)]),
    "flow": (["flow", "--m-max", 1.0, "--s-grid", "0.1:3.0:0.1"], ["flow.csv", "flow_crossings.json"]),
    "surface": (["surface", "--c", 0.5, "--s", 0.5], ["surface.csv"]),
    "surface-transition": (["surface", "--c", 1.0, "--transition"], ["surface_transition.json"]),
    "hopf": (["hopf", "--alpha", 2, "--profile", "geometric", "--f0", 20, "--c", 900, "--dim", 7],
             ["hopf_window.json", "hopf_spectrum.csv", "hopf_accumulation.json", "hopf_axioms.json"]),
}


def test_every_command_is_covered_by_the_pure_runs():
    from qsu2.cli import DISPATCH

    assert {argv[0] for argv, _ in PURE_RUNS.values()} == set(DISPATCH)


@pytest.mark.parametrize("argv, names", PURE_RUNS.values(), ids=PURE_RUNS)
def test_commands_return_their_outputs_and_write_nothing(tmp_path, monkeypatch, argv, names):
    import qsu2.cli

    def refuse(path, *data):
        raise AssertionError(f"a command wrote {path}")

    monkeypatch.setattr(qsu2.cli, "write_csv", refuse)
    monkeypatch.setattr(qsu2.cli, "write_json", refuse)
    monkeypatch.chdir(tmp_path)
    args = qsu2.cli.build_parser().parse_args([str(a) for a in argv + ["--outdir", tmp_path / "out"]])
    computed, outputs = qsu2.cli.DISPATCH[args.command](args)
    assert isinstance(computed, dict)
    assert list(outputs) == names
    for name, data in outputs.items():
        if name.endswith(".csv"):
            header, rows = data
            assert len(header) == len(next(iter(rows)))
    assert list(tmp_path.iterdir()) == []


def test_a_value_error_while_writing_exits_2_and_removes_what_it_wrote(tmp_path, monkeypatch, capsys):
    import qsu2.cli

    write_csv = qsu2.cli.write_csv

    def bad_rows(path, header, rows):
        write_csv(path, header, rows)
        raise ValueError("a row does not fit")

    monkeypatch.setattr(qsu2.cli, "write_csv", bad_rows)
    argv = ["hopf", "--alpha", 2, "--profile", "geometric", "--f0", 20, "--c", 900, "--dim", 7, "--outdir", tmp_path]
    assert run(argv) == 2
    assert capsys.readouterr().err == "error: a row does not fit\n"
    assert list(tmp_path.iterdir()) == []


# ----------------------------------------------------------------------
# manifest digests, taken by the writers from the bytes they write


def digest_faults(outdir, argv) -> set:
    """The files whose manifest digest is not the sha256 of the file on
    disk, read back here (and only here) as the independent check, or that
    only one of the manifest and the directory holds."""
    assert run(argv + ["--outdir", outdir]) == 0
    manifest_name = f"{argv[0]}_manifest.json"
    recorded = json.loads((outdir / manifest_name).read_text())["outputs"]
    on_disk = {p.name: sha256_of(p) for p in outdir.iterdir() if p.name != manifest_name}
    return {name for name in recorded.keys() | on_disk.keys() if recorded.get(name) != on_disk.get(name)}


@pytest.mark.parametrize("argv, names", PURE_RUNS.values(), ids=PURE_RUNS)
def test_manifest_digests_are_the_sha256_of_the_files_on_disk(tmp_path, argv, names):
    assert digest_faults(tmp_path, argv) == set()
    manifest = json.loads((tmp_path / f"{argv[0]}_manifest.json").read_text())
    assert sorted(manifest["outputs"]) == sorted(names)


@pytest.mark.parametrize("mutant", ["first-block-hashed-twice", "second-block-not-hashed"])
@pytest.mark.parametrize("command", ["rep", "flow"])
def test_the_digest_check_fails_on_a_writer_that_misfeeds_its_hash(tmp_path, monkeypatch, mutant, command):
    from qsu2 import serialize

    write = serialize._HashedFile.write

    def misfeeding(self, block):
        self.blocks = getattr(self, "blocks", 0) + (len(block) > 0)  # an empty block hashes to nothing
        if mutant == "second-block-not-hashed" and self.blocks == 2:
            self._fh.write(block)
            return
        write(self, block)
        if mutant == "first-block-hashed-twice" and self.blocks == 1:
            self._digest.update(block)

    monkeypatch.setattr(serialize._HashedFile, "write", misfeeding)
    argv, names = PURE_RUNS[command]
    # every output of these runs is written in two blocks or more
    assert digest_faults(tmp_path, argv) == set(names)


def test_write_manifest_reads_no_file(tmp_path, monkeypatch):
    import qsu2.serialize
    from qsu2.serialize import Written, write_manifest

    def refuse(path):
        raise AssertionError(f"{path} was read back")

    monkeypatch.setattr(qsu2.serialize, "sha256_of", refuse)
    argv, names = PURE_RUNS["hopf"]
    assert run(argv + ["--outdir", tmp_path / "run"]) == 0
    assert sorted(p.name for p in (tmp_path / "run").iterdir()) == sorted(names + ["hopf_manifest.json"])
    # outputs that do not exist: their digests are recorded as given
    absent = [Written(tmp_path / "absent" / name, f"{k:064x}") for k, name in enumerate(names)]
    out = write_manifest(tmp_path, "hopf", {}, absent, "0", [], {})
    assert os.fspath(out) == os.fspath(tmp_path / "hopf_manifest.json")
    assert out.sha256 == sha256_of(out)
    outputs = json.loads(Path(out).read_text())["outputs"]
    assert outputs == {name: f"{k:064x}" for k, name in enumerate(names)}


def test_sha256_of_an_empty_file(tmp_path):
    import hashlib

    (tmp_path / "empty").write_bytes(b"")
    assert sha256_of(tmp_path / "empty") == hashlib.sha256(b"").hexdigest()


def test_rerun_check_passes_on_an_untouched_run(tmp_path, capsys):
    argv, names = PURE_RUNS["flow"]
    assert run(argv + ["--outdir", tmp_path / "a"]) == 0
    assert run(["rerun", tmp_path / "a" / "flow_manifest.json", "--check", "--outdir", tmp_path / "b"]) == 0
    assert capsys.readouterr().err == ""
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


@pytest.mark.parametrize(
    "edit, fault",
    [
        (lambda out: out.update({"flow.csv": "0" * 64}), "flow.csv: sha256 "),
        (lambda out: out.update({"ghost.csv": "0" * 64}), "ghost.csv: recorded, not written by the replay"),
        (lambda out: out.pop("flow_crossings.json"), "flow_crossings.json: written by the replay, not recorded"),
    ],
    ids=["digest-differs", "file-missing", "file-extra"],
)
def test_rerun_check_exits_3_naming_the_file(tmp_path, capsys, edit, fault):
    argv, _ = PURE_RUNS["flow"]
    assert run(argv + ["--outdir", tmp_path / "a"]) == 0
    path = tmp_path / "a" / "flow_manifest.json"
    manifest = json.loads(path.read_text())
    edit(manifest["outputs"])
    path.write_text(json.dumps(manifest))
    assert run(["rerun", path, "--outdir", tmp_path / "b"]) == 0  # plain rerun compares nothing
    assert run(["rerun", path, "--check", "--outdir", tmp_path / "c"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("verification failure: rerun --check against ")
    assert fault in err and err.count(": sha256 ") + err.count(" the replay") == 1


def test_rerun_check_needs_recorded_outputs(tmp_path, capsys):
    argv, _ = PURE_RUNS["classify"]
    assert run(argv + ["--outdir", tmp_path / "a"]) == 0
    path = tmp_path / "a" / "classify_manifest.json"
    manifest = json.loads(path.read_text())
    del manifest["outputs"]
    path.write_text(json.dumps(manifest))
    assert run(["rerun", path, "--check", "--outdir", tmp_path / "b"]) == 2
    assert "records no subcommand and outputs to check" in capsys.readouterr().err
    assert not (tmp_path / "b").exists()


# a shift of f2 alone solves no equation, and the potential has one kappa
# and one f1-derivative term, so these are no flags
REMOVED_FLAGS = [("--d1", "0.4"), ("--d2", "0.4"), ("--kappa-mode", "parity"), ("--f1-derivative-form", "second")]


@pytest.mark.parametrize("flag, value", REMOVED_FLAGS)
@pytest.mark.parametrize("command", ["potential", "spectrum"])
def test_a_removed_flag_exits_2_and_writes_nothing(tmp_path, capsys, command, flag, value):
    assert run([command, "--s", 0.25, "--m", 1, flag, value, "--outdir", tmp_path / "out"]) == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_a_removed_config_key_exits_2_and_writes_nothing(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("kappa_mode = unit\n")
    assert run(["potential", "--s", 0.25, "--m", 1, "--config", cfg, "--outdir", tmp_path / "out"]) == 2
    assert capsys.readouterr().err == "error: config keys name no flag of potential: kappa_mode\n"
    assert not (tmp_path / "out").exists()


def test_rerun_of_a_manifest_with_a_shift_flag_exits_2(tmp_path, capsys):
    # the manifest records no removed parameter, and a replayed removed flag
    # is refused in one line that names the manifest
    assert run(["potential", "--s", 0.25, "--m", 1, "--grid=-1:1:0.01", "--outdir", tmp_path / "a"]) == 0
    path = tmp_path / "a" / "potential_manifest.json"
    manifest = json.loads(path.read_text())
    assert not {"d1", "d2", "kappa_mode", "f1_derivative_form"} & manifest["params"].keys()
    argv = manifest["argv"]
    for extra in (["--d2", "0.7"], ["--kappa-mode", "parity"]):
        path.write_text(json.dumps(manifest | {"argv": argv + extra}))
        assert run(["rerun", path, "--outdir", tmp_path / "b"]) == 2
        assert capsys.readouterr().err == f"error: {path} records arguments that qsu2 refuses: {' '.join(extra)}\n"
        assert not (tmp_path / "b").exists()
    # and so is a recorded value the flag refuses, without argparse's usage text
    path.write_text(json.dumps(manifest | {"argv": argv + ["--grid=bad"]}))
    assert run(["rerun", path, "--outdir", tmp_path / "b"]) == 2
    why = "argument --grid: bad grid spec 'bad': could not convert string to float: 'bad'"
    assert capsys.readouterr() == ("", f"error: {path} records arguments that qsu2 refuses: {why}\n")
    assert not (tmp_path / "b").exists()
    # so are its config lines: a key of a removed flag, and a value the flag refuses
    for defaults, why in (
        ({"kappa_mode": "unit"}, "config keys name no flag of potential: kappa_mode"),
        ({"grid": "bad"}, "argument --grid: bad grid spec 'bad': could not convert string to float: 'bad'"),
    ):
        path.write_text(json.dumps(manifest | {"defaults": defaults}))
        assert run(["rerun", path, "--outdir", tmp_path / "b"]) == 2
        assert capsys.readouterr() == ("", f"error: {path} records config lines that qsu2 refuses: {why}\n")
        assert not (tmp_path / "b").exists()


def test_rerun_of_a_manifest_recording_help_prints_the_help(tmp_path, capsys):
    # a recorded --help is no refused value: the replay prints the help and
    # exits 0, as the recorded run would, and writes nothing
    assert run(["potential", "--s", 0.25, "--m", 1, "--grid=-1:1:0.01", "--outdir", tmp_path / "a"]) == 0
    path = tmp_path / "a" / "potential_manifest.json"
    manifest = json.loads(path.read_text())
    path.write_text(json.dumps(manifest | {"argv": manifest["argv"] + ["--help"]}))
    capsys.readouterr()
    assert run(["rerun", path, "--outdir", tmp_path / "b"]) == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: qsu2 potential") and err == ""
    assert not (tmp_path / "b").exists()
