"""rep.json, rendered from the bands, against json.dumps of the dense matrices."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dense_reference as ref
from qsu2 import serialize
from qsu2.cli import main
from qsu2.geometry import spectral_flow
from qsu2.operators import OperatorMatrix, build_rep
from qsu2.qnumbers import Deformation, qnumber
from qsu2.serialize import DensePairs, Records, complex_pairs, write_json


def dense_rep_json(s, c, m0, n) -> bytes:
    """The rep.json text the dense matrices and the dense report give."""
    d = Deformation(s)
    ms = np.asarray([m0 + i for i in range(n)], dtype=float)
    jz, jp, jm = ref.build_rep(d, c, ms)
    report = ref.verify_algebra(jz, jp, jm, ms, d, c)
    payload = {
        "s": s,
        "c": c,
        "basis": list(ms),
        "matrices": {
            "Jz": ref.complex_pairs(jz),
            "Jplus": ref.complex_pairs(jp),
            "Jminus": ref.complex_pairs(jm),
        },
        "report": {k: getattr(report, k) for k in report.__dataclass_fields__},
    }
    return (json.dumps(payload, indent=2, sort_keys=True, allow_nan=True) + "\n").encode()


@pytest.mark.parametrize(
    "s, c, m0, n",
    [
        (1.013, 1.1207094872156829, -1.5, 4),  # the README example, a closed finite class
        (0.7, qnumber(0.5, Deformation(0.7)) ** 2, 0.0, 1),  # singlet
        (0.7, 1.0, -0.5, 2),  # closed, N = 1
        (0.3, qnumber(1.5, Deformation(0.3)) ** 2, -1.0, 3),  # closed, N = 2
        (0.77, 2.5 / math.sin(0.77) ** 2, -40.5, 81),  # truncated, negative half-integer m0
        (0.01, 1e6, 0.0, 400),  # the benchmark's largest rep
    ],
)
def test_rep_json_bytes_match_dense_rendering(tmp_path, s, c, m0, n):
    argv = ["rep", "--s", repr(s), "--c", repr(c), f"--basis={m0!r}:{n}", "--outdir", str(tmp_path)]
    assert main(argv) == 0
    assert (tmp_path / "rep.json").read_bytes() == dense_rep_json(s, c, m0, n)


def test_band_rendering_at_any_depth(tmp_path):
    # a NaN ladder coefficient (c = nan passes the radicand guard), the
    # -0.0 zeros of an adjoint, and grids nested at two depths
    d = Deformation(0.6)
    jz, jp, jm = build_rep(d, math.nan, [-1.0, 0.0, 1.0, 2.0])
    payload = [{"a": complex_pairs(jm), "b": [complex_pairs(jp), 1.5]}, complex_pairs(jz)]
    dense = [
        {"a": ref.complex_pairs(jm.entries), "b": [ref.complex_pairs(jp.entries), 1.5]},
        ref.complex_pairs(jz.entries),
    ]
    write_json(tmp_path / "x.json", payload)
    want = json.dumps(dense, indent=2, sort_keys=True, allow_nan=True) + "\n"
    assert (tmp_path / "x.json").read_text(encoding="utf-8") == want
    assert "NaN" in want and "-0.0" in want


def test_rep_json_imaginary_zeros_carry_the_adjoint_sign(tmp_path):
    # J_- is the adjoint of J_+: every imaginary part is -0.0, where J_z and
    # J_+ have 0.0
    argv = ["rep", "--s", "0.7", "--c", "3.0", "--basis=-2:5", "--outdir", str(tmp_path)]
    assert main(argv) == 0
    matrices = json.loads((tmp_path / "rep.json").read_text(encoding="utf-8"))["matrices"]
    for name, sign in (("Jz", 1.0), ("Jplus", 1.0), ("Jminus", -1.0)):
        imag = np.array(matrices[name])[..., 1]
        assert imag.shape == (5, 5) and not imag.any()
        assert np.all(np.copysign(1.0, imag) == sign), name


def test_payload_string_equal_to_the_stand_in_is_rejected(tmp_path):
    with pytest.raises(ValueError, match="marker"):
        write_json(tmp_path / "x.json", {"note": "\x00dense-pairs"})


# band entries of every spelling: NaN, infinities, signed zeros, subnormals
# (real: every entry's imaginary part is the fill's)
band_floats = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True) | st.sampled_from(
    [math.nan, math.inf, -math.inf, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308]
)


@st.composite
def banded_matrices(draw):
    n = draw(st.integers(1, 40))
    offset = draw(st.sampled_from([-1, 0, 1]))
    if n == 1 and offset:
        offset = 0
    k = n - abs(offset)
    band = np.array(draw(st.lists(band_floats, min_size=k, max_size=k)), dtype=float)
    fill = complex(draw(st.sampled_from([0.0, -0.0])), draw(st.sampled_from([0.0, -0.0])))
    return OperatorMatrix(band, offset, tuple(range(n)), fill)


@settings(max_examples=200)
@given(op=banded_matrices(), depth=st.integers(0, 2))
@example(op=OperatorMatrix(np.array([math.nan]), 0, (0.0,), complex(-0.0, -0.0)), depth=0)
def test_dense_pairs_match_json_dumps(op, depth, tmp_path_factory):
    path = tmp_path_factory.mktemp("json") / "m.json"
    payload, dense = DensePairs(op), ref.complex_pairs(op.entries)
    for _ in range(depth):  # deeper nesting, a deeper indent
        payload, dense = {"m": [payload]}, {"m": [dense]}
    write_json(path, payload)
    want = json.dumps(dense, indent=2, sort_keys=True, allow_nan=True) + "\n"
    assert path.read_text(encoding="utf-8") == want


class CountingDumps:
    """json.dumps, counting its calls."""

    def __init__(self):
        self.calls = 0
        self.dumps = json.dumps

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.dumps(*args, **kwargs)


def test_json_renderers_spell_floats_without_json_dumps(tmp_path, monkeypatch):
    # the floats are spelled in bulk, not one json.dumps call each: the
    # count of calls does not grow with the matrix or the record list
    d = Deformation(0.77)
    triple = build_rep(d, 2.5 / math.sin(0.77) ** 2, [-40.5 + i for i in range(81)])
    table = spectral_flow(16.0, 0.05 + 0.07 * np.arange(45))
    columns = table.crossing_columns
    assert len(columns["s"]) >= 5000
    counting = CountingDumps()
    monkeypatch.setattr(serialize.json, "dumps", counting)
    write_json(tmp_path / "rep.json", {"m": [complex_pairs(op) for op in triple]})
    assert counting.calls <= 2
    counting.calls = 0
    write_json(tmp_path / "records.json", Records(columns))
    assert counting.calls <= 1 + len(columns)
