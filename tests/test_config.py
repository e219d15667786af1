"""Config lines are the flags they name: a `key = value` line parses exactly
like `--key=value` given before the explicit flags, which win."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from qsu2.cli import build_parser, main

# candidate values per subcommand, as config text; True/False are switches.
# Some combinations fail (singular s, non-unitary bases, infeasible anchors),
# and both routes must then fail alike.
FLAG_VALUES = {
    "classify": {"s": ["1.013", "0.3", "0"], "c": ["2.0", "0.5", "1.1207094872156829"],
                 "c_range": ["0.2:2.0:0.1", "0.5:1.5:0.25"]},
    "rep": {"s": ["1.013", "1.0"], "c": ["1.1207094872156829", "3.0", "0.1"],
            "basis": ["-1.5:4", "-5:11", "0:5"], "verify": [True, False]},
    "potential": {"s": ["0.25", "3.0"], "m": ["1", "2"], "f1_branch": ["tan", "tanh", "constant"],
                  "f2_branch": ["sech", "cosine"], "F": ["0.3", "1"], "transform": ["eliminate", "literal"],
                  "grid": ["-2:2:0.05", "-1:1:0.1"]},
    "hopf": {"alpha": ["3", "2", "-1"], "profile": ["geometric", "constant"], "f0": ["20"],
             "c": ["500", "2"], "dim": ["7", "5"], "what": ["all", "window", "axioms"],
             "m_range": ["-5:5:0.5"]},
}
# drawn always, so that most runs get past the "needs --s" checks
REQUIRED = {"classify": {"s"}, "rep": {"s", "c", "basis"}, "potential": {"s", "m", "grid"}, "hopf": set()}


def _flag(key, value):
    flag = "--" + key.replace("_", "-")
    if isinstance(value, bool):
        return [flag] if value else []
    return [f"{flag}={value}"]


def _line(key, value, hyphen):
    text = str(value).lower() if isinstance(value, bool) else value
    return f"{key.replace('_', '-') if hyphen else key} = {text}\n"


def _outcome(argv, outdir):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main([str(a) for a in argv])
    err = err.getvalue()
    files = {p.name: p.read_bytes() for p in outdir.glob("*") if not p.name.endswith("_manifest.json")}
    manifests = list(outdir.glob("*_manifest.json"))
    params = json.loads(manifests[0].read_text())["params"] if manifests else None
    return rc, err, files, params


@st.composite
def runs(draw):
    """A subcommand, the values its flags take, the keys moved to the config
    file, config values for keys that stay explicit (which must lose), the
    key spelling, and whether --outdir stands before the subcommand."""
    cmd = draw(st.sampled_from(sorted(FLAG_VALUES)))
    pool = FLAG_VALUES[cmd]
    keys = [k for k in pool if k in REQUIRED[cmd] or draw(st.booleans())]
    values = {k: draw(st.sampled_from(pool[k])) for k in keys}
    in_config = [k for k in keys if draw(st.booleans())]
    overridden = {}
    for k in keys:
        if k not in in_config and not isinstance(values[k], bool) and draw(st.booleans()):
            overridden[k] = draw(st.sampled_from(pool[k]))
    hyphen = draw(st.booleans())
    return cmd, values, in_config, overridden, hyphen, draw(st.booleans())


@settings(max_examples=120)
@given(run=runs())
def test_config_lines_parse_like_flags(run):
    cmd, values, in_config, overridden, hyphen, outdir_first = run
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        flags = [tok for k, v in values.items() for tok in _flag(k, v)]
        want = _outcome([cmd] + flags + ["--outdir", tmp / "flags"], tmp / "flags")
        event(f"{cmd} exit {want[0]}")

        cfg = tmp / "run.cfg"
        lines = [_line(k, values[k], hyphen) for k in in_config]
        lines += [_line(k, v, hyphen) for k, v in overridden.items()]
        cfg.write_text("# from the flags\n" + "".join(lines) + f"outdir = {tmp / 'config'}\n")
        explicit = [tok for k, v in values.items() if k not in in_config for tok in _flag(k, v)]
        # the explicit --outdir wins over the config's, before or after the subcommand
        outdir = ["--outdir", tmp / "explicit"]
        argv = (outdir + [cmd] + explicit if outdir_first else [cmd] + explicit + outdir)
        got = _outcome(argv + ["--config", cfg], tmp / "explicit")
        assert not (tmp / "config").exists()
    assert got == want


def test_config_values_do_not_leak_between_calls(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("s = 0.9\n")
    assert main(["classify", "--c", "2.0", "--config", str(cfg), "--outdir", str(tmp_path / "a")]) == 0
    assert main(["classify", "--c", "2.0", "--outdir", str(tmp_path / "b")]) == 2
    assert capsys.readouterr().err == "error: classify needs --s\n"
    assert build_parser() is build_parser()


@pytest.mark.parametrize(
    "cmd, line, message",
    [
        (["hopf", "--profile", "geometric", "--f0", "20", "--c", "500"], "dim = 9.5",
         "argument --dim: invalid int value: '9.5'"),
        (["hopf", "--profile", "geometric", "--f0", "20", "--c", "500"], "what = nothing",
         "argument --what: invalid choice: 'nothing'"),
        (["rep", "--s", "1", "--c", "3", "--basis=-5:11"], "verify = yes",
         "argument --verify: ignored explicit argument 'yes'"),
        (["rep", "--s", "1", "--basis=-5:11"], "c = nan", "argument --c: not a finite number: 'nan'"),
    ],
    ids=["int", "choice", "switch", "finite"],
)
def test_config_values_are_checked_like_flags(tmp_path, capsys, cmd, line, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    out = tmp_path / "out"
    assert main(cmd + ["--config", str(cfg), "--outdir", str(out)]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key", ["help", "version"])
def test_config_cannot_name_help_or_version(tmp_path, capsys, key):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = true\n")
    assert main(["classify", "--s", "1", "--c", "2", "--config", str(cfg), "--outdir", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: config keys name no flag of classify: {key}\n"


def test_config_values_take_the_flag_type_and_are_recorded_as_written(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("s = 1\nc = 3\nbasis = -5:11\n")
    assert main(["rep", "--config", str(cfg), "--outdir", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "rep_manifest.json").read_text())
    assert type(manifest["params"]["s"]) is float and manifest["params"]["s"] == 1.0
    assert manifest["defaults"] == {"s": "1", "c": "3", "basis": "-5:11"}
    assert json.loads((tmp_path / "rep.json").read_text())["s"] == 1.0


@pytest.mark.parametrize("verify", [True, False])
def test_config_switch_true_and_false(tmp_path, verify):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"s = 1.0\nc = 3.0\nbasis = -5:11\nverify = {str(verify).lower()}\n")
    assert main(["rep", "--config", str(cfg), "--outdir", str(tmp_path / "b")]) == 0
    assert json.loads((tmp_path / "b" / "rep_manifest.json").read_text())["params"]["verify"] is verify


@pytest.mark.parametrize(
    "defaults",
    [{"s": 1.013, "c": 1.1207094872156829, "verify": verify} for verify in (True, False)],
    ids=["verify-true", "verify-false"],
)
def test_manifest_with_typed_defaults_replays(tmp_path, defaults):
    # manifests written before config values were kept as text hold numbers and booleans
    direct = tmp_path / "direct"
    flags = ["--s=1.013", "--c=1.1207094872156829"] + (["--verify"] if defaults["verify"] else [])
    assert main(["rep", "--basis=-1.5:4"] + flags + ["--outdir", str(direct)]) == 0
    manifest = tmp_path / "rep_manifest.json"
    argv = ["rep", "--basis=-1.5:4", "--config", str(tmp_path / "gone.cfg"), "--outdir", "elsewhere"]
    manifest.write_text(json.dumps({"argv": argv, "defaults": defaults}))
    assert main(["rerun", str(manifest), "--outdir", str(tmp_path / "again")]) == 0
    assert (tmp_path / "again" / "rep.json").read_bytes() == (direct / "rep.json").read_bytes()
    params = json.loads((tmp_path / "again" / "rep_manifest.json").read_text())["params"]
    assert params["verify"] is defaults["verify"]
