"""Deterministic CSV/JSON output and run manifests.

Floats are printed with 17 significant digits ('%.17g') so identical
invocations produce byte-identical files.  JSON records spell their floats
the same way, with NaN, Infinity, -Infinity and -0.0 for the spellings JSON
lacks or reads otherwise, so every float64 reads back bit for bit; dense
matrix pairs keep json.dumps's float.__repr__.  Manifests record the parsed
argv with its config defaults, the resolved parameters and the sha256
digests of every output, so a run can be replayed and its outputs compared.
The writers hash the bytes as they write them, so no output is read back.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from itertools import chain, islice
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # an annotation only: `classify` and `flow` write without loading operators
    from .operators import OperatorMatrix


def fmt(x) -> str:
    """Canonical cell formatting: floats at 17 significant digits; commas
    inside text cells become semicolons to keep the CSV well formed."""
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, float):
        return format(x, ".17g")
    if isinstance(x, (np.floating,)):
        return format(float(x), ".17g")
    return str(x).replace(",", ";")


# each cell type with a %-conversion, which prints what fmt does
_CELL_FORMATS = {float: "%.17g", np.float64: "%.17g", bool: "%d", np.bool_: "%d", int: "%d"}

# rows per block, rendered and written at once, so that a potential table of
# 12k-18k rows is one block.  A block costs about 0.4 ms besides its rows
# (the kernel's calls, the translate and the hashed write, on caches the
# other commands left cold): over the 308 potential.csv writes of 20 s of
# realization rounds (x86-64, Python 3.11, numpy 2.4), write_csv took 8.7 ms
# a file at 4096 rows a block and 7.5 ms at 20480, 895 blocks fewer.  A block
# of two float columns and a bool column is about 1.3 MB of csvcells slots;
# 32768 rows were no faster and doubled the growth of peak RSS
CSV_BLOCK_ROWS = 20480

# blocks with fewer rows, and record columns with fewer distinct floats, stay
# on the % path.  Timed per block (min of 21 interleaved runs of thread time,
# x86-64, Python 3.11, numpy 2.4, three runs): a float column costs csvcells
# about 66-73 us plus 0.080-0.085 us a value and % about 0.50-0.53 us a
# value; blocks of (float, float, bool), (float, float, float) and (float)
# break even at 121-125, 145-156 and 148-154 rows, and spell_floats against
# one % at 101-109 values.  Between there and 256 rows the % path costs a
# block at most about 140 us more
CSV_KERNEL_MIN_ROWS = 256


def _cell_type(column):
    """The type every cell of the column shares, or None."""
    types = set(map(type, column))
    return types.pop() if len(types) == 1 else None


def _kernel_column(column):
    """The column as a float or bool array, which csvcells spells, or None."""
    if not isinstance(column, np.ndarray):
        if _cell_type(column) not in (float, np.float64, bool, np.bool_):
            return None
        column = np.array(column)
    kind, size = column.dtype.kind, column.dtype.itemsize
    return column if kind == "S" or kind in "fb" and size <= 8 else None


def _render(columns: list, n: int) -> bytes:
    """The CSV lines of one block of n rows, given as its columns (numpy
    arrays or sequences of cells), each line ending in a newline.  A block of
    CSV_KERNEL_MIN_ROWS rows or more whose columns are all float, bool or
    bytes (float_cells) arrays goes through csvcells.  Otherwise one %
    renders it: a column whose cells share a type with a %-conversion uses
    it, a column of bytes cells is written less their NUL padding, and any
    other column goes through fmt."""
    if columns and n >= CSV_KERNEL_MIN_ROWS:
        arrays = []
        for column in columns:
            arrays.append(_kernel_column(column))
            if arrays[-1] is None:
                break
        else:
            from .csvcells import render_columns

            return render_columns(arrays)
    convs, cells = [], []
    for column in columns:
        if isinstance(column, np.ndarray):
            column = column.tolist()
        cell_type = _cell_type(column)
        if cell_type is bytes:
            convs.append("%s")
            cells.append([cell.translate(None, b"\0").decode() for cell in column])
            continue
        conv = _CELL_FORMATS.get(cell_type)
        convs.append(conv or "%s")
        cells.append(column if conv else map(fmt, column))
    return (((",".join(convs) + "\n") * n) % tuple(chain.from_iterable(zip(*cells)))).encode("utf-8")


class ColumnTable:
    """Equal-length numpy columns that write_csv renders column-wise.
    Iterating gives the rows of Python scalars that .tolist() gives,
    converted CSV_BLOCK_ROWS rows at a time."""

    def __init__(self, columns: tuple):
        if len({len(c) for c in columns}) > 1:
            raise ValueError(f"table columns differ in length: {[len(c) for c in columns]}")
        self.columns = columns

    def __len__(self) -> int:
        return len(self.columns[0])

    def __iter__(self):
        n = len(self)
        for lo in range(0, n, CSV_BLOCK_ROWS):
            yield from zip(*(c[lo : min(n, lo + CSV_BLOCK_ROWS)].tolist() for c in self.columns))


def _spell_percent(values: list) -> list:
    """The '%.17g' bytes of each float of values, spelled by one %."""
    return (b"%.17g\0" * len(values) % tuple(values)).split(b"\0")[:-1]


def float_cells(values) -> np.ndarray:
    """Each float of values as its '%.17g' text, a bytes ("S") array that
    write_csv writes as it is: spelled by one % below CSV_KERNEL_MIN_ROWS
    values, by csvcells.spell_floats (NUL-padded cells) from there on.  A
    column that repeats few values is cheaper spelled once per value and its
    cells tiled or repeated."""
    values = np.asarray(values, dtype=np.float64)
    if len(values) < CSV_KERNEL_MIN_ROWS:
        return np.array(_spell_percent(values.tolist()), dtype=bytes)
    from .csvcells import spell_floats

    return spell_floats(values)


def rows_of(*columns) -> ColumnTable:
    """The table of equal-length numpy columns, rendered column-wise by
    write_csv and iterable as rows of Python scalars."""
    return ColumnTable(tuple(np.asarray(c) for c in columns))


@dataclass(frozen=True)
class Written:
    """A file a writer wrote and the sha256 of the bytes it wrote; it stands
    for its path wherever a path is taken (os.fspath, Path, open)."""

    path: Path
    sha256: str

    def __fspath__(self) -> str:
        return os.fspath(self.path)


class _HashedFile:
    """A file opened for binary writing, its directory created if missing,
    that feeds every block written to it to one sha256."""

    def __init__(self, path):
        self.path = Path(path)
        try:
            self._fh = self.path.open("wb")
        except FileNotFoundError:  # the directory is made only when the open finds it missing
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = self.path.open("wb")
        self._digest = hashlib.sha256()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self._fh.close()

    def write(self, block) -> None:
        self._fh.write(block)
        self._digest.update(block)

    def written(self) -> Written:
        return Written(self.path, self._digest.hexdigest())


def write_csv(path, header, rows) -> Written:
    """Header line, then one line per row, each cell as fmt formats it.  rows
    is a ColumnTable (from rows_of), whose column slices are rendered, or any
    iterable of cell sequences, which are transposed and rendered; either
    CSV_BLOCK_ROWS rows at a time.  A row whose width is not the header's is
    a ValueError.  The directory is created if missing."""
    if isinstance(rows, ColumnTable) and len(rows.columns) != len(header):
        raise ValueError(f"row 0 has {len(rows.columns)} cells; the header has {len(header)} columns")
    with _HashedFile(path) as fh:
        fh.write((",".join(header) + "\n").encode("utf-8"))
        if isinstance(rows, ColumnTable):
            n = len(rows)
            for lo in range(0, n, CSV_BLOCK_ROWS):
                hi = min(n, lo + CSV_BLOCK_ROWS)
                fh.write(_render([c[lo:hi] for c in rows.columns], hi - lo))
        else:
            rows, lo = iter(rows), 0
            while block := list(islice(rows, CSV_BLOCK_ROWS)):
                widths = list(map(len, block))
                if widths.count(len(header)) != len(block):
                    k = next(k for k, width in enumerate(widths) if width != len(header))
                    raise ValueError(f"row {lo + k} has {widths[k]} cells; the header has {len(header)} columns")
                fh.write(_render(list(zip(*block)), len(block)))
                lo += len(block)
    return fh.written()


# the spellings of '%.17g' and float.__repr__ that JSON lacks (nan, inf) or
# reads otherwise (-0, an integer, which float() makes 0.0)
_JSON_SPELLING = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity", "-0": "-0.0"}


def _json_repr(values: list) -> list:
    """Each float as json.dumps spells it: float.__repr__, NaN, Infinity."""
    return [_JSON_SPELLING.get(t, t) for t in map(float.__repr__, values)]


# bytes of a dense matrix's JSON text joined per write.  Blocks stay below
# glibc's default mmap threshold (128 KiB) and reuse heap memory; one string per
# matrix (8 MB at n = 400) is fresh memory every time and wrote about 2x slower
JSON_BLOCK_CHARS = 1 << 16


@dataclass(frozen=True)
class DensePairs:
    """The row-major (n, n, 2) [re, im] layout of a banded matrix.

    write_json renders it straight from the band, byte for byte as
    json.dumps renders the nested lists, without building them.  Every
    pair takes its imaginary part from the fill.
    """

    matrix: OperatorMatrix

    def write(self, fh, indent: int) -> None:
        """Write the JSON text of the pairs as bytes, whose opening bracket
        sits on a line indented by `indent` spaces."""
        op = self.matrix
        n = len(op.basis)
        row_pad, pair_pad, num_pad = ("\n" + " " * (indent + k) for k in (2, 4, 6))
        pair = f"[{num_pad}%s,{num_pad}%s{pair_pad}]"
        sep = "," + pair_pad
        fill_re, imag = _json_repr([op.fill.real, op.fill.imag])
        fill = pair % (fill_re, imag)
        # the first k * width bytes of `before` are k zero pairs, each
        # followed by a separator, of `after` k pairs each preceded by one:
        # every run of zeros is one slice, taken without a copy
        width = len(fill) + len(sep)
        before, after = (memoryview(text.encode()) for text in ((fill + sep) * n, (sep + fill) * n))
        band = [(pair % (re, imag)).encode() for re in _json_repr(op.band.tolist())]
        row_sep = f"{row_pad}],{row_pad}[{pair_pad}".encode()
        rows_per_write = max(1, JSON_BLOCK_CHARS // (n * width))
        pieces = [f"[{row_pad}[{pair_pad}".encode()]
        for r in range(n):
            col = r + op.offset
            if 0 <= col < n:
                # band entry k sits in row k (offset >= 0) or column k (offset < 0)
                pieces += (before[: col * width], band[min(r, col)], after[: (n - col - 1) * width])
            else:
                pieces.append(before[: n * width - len(sep)])
            pieces.append(row_sep if r < n - 1 else f"{row_pad}]\n{' ' * indent}]".encode())
            if (r + 1) % rows_per_write == 0 or r == n - 1:
                fh.write(b"".join(pieces))
                pieces.clear()


def _json_column(values) -> np.ndarray:
    """The '%.17g' text of each float of a record column in JSON's spelling,
    as NUL-padded bytes, spelled once per distinct bit pattern (so 0.0 and
    -0.0 stay apart), because record columns repeat few values, such as the
    m labels of the crossings."""
    bits = np.asarray(values, dtype=np.float64).view(np.int64)
    patterns, inverse = np.unique(bits, return_inverse=True)
    cells = float_cells(patterns.view(np.float64))
    cells = cells.astype(f"S{max(cells.itemsize, len('-Infinity'))}", copy=False)
    for spelled, json_text in _JSON_SPELLING.items():
        cells[cells == spelled.encode()] = json_text.encode()
    return cells[inverse]


@dataclass(frozen=True)
class Records:
    """A list of flat JSON objects, stored as columns: str key -> equal-length
    float64 array or sequence of floats (no columns: no objects).

    write_json renders it in json.dumps's layout of the list of dicts, each
    float spelled '%.17g' in JSON's spelling: csvcells renders each block of
    CSV_BLOCK_ROWS objects as rows whose cells are the values, each behind
    its key, and whose suffix closes the object.
    """

    columns: dict

    def write(self, fh, indent: int) -> None:
        """Write the JSON text of the list as bytes, whose opening bracket
        sits on a line indented by `indent` spaces."""
        keys = sorted(self.columns)
        lengths = [len(self.columns[k]) for k in keys]
        if len(set(lengths)) > 1:
            raise ValueError(f"record columns differ in length: {dict(zip(keys, lengths))}")
        columns = [_json_column(self.columns[k]) for k in keys]
        if not columns or not len(columns[0]):
            fh.write(b"[]")
            return
        from .csvcells import render_columns

        pad = "\n" + " " * indent
        fields = [f"{pad}    {json.dumps(k)}: ".encode() for k in keys]
        prefixes = [f"{pad}  {{".encode() + fields[0]] + [b"," + field for field in fields[1:]]
        suffix = f"{pad}  }},".encode()
        n = len(columns[0])
        fh.write(b"[")
        for lo in range(0, n, CSV_BLOCK_ROWS):
            text = memoryview(render_columns([c[lo : lo + CSV_BLOCK_ROWS] for c in columns], prefixes, suffix))
            fh.write(text if lo + CSV_BLOCK_ROWS < n else text[:-1])  # no comma after the last object
        fh.write((pad + "]").encode())


# stands in for each pre-rendered value (an object whose write(fh, indent)
# writes bytes, such as DensePairs or Records) in the json.dumps text; the
# NUL keeps it apart from any string a payload carries
_STAND_IN = "\x00dense-pairs"
_STAND_IN_JSON = json.dumps(_STAND_IN)


def write_json(path, payload) -> Written:
    """The payload as json.dumps(indent=2, sort_keys=True) writes it, with
    pre-rendered values written in place.  The directory is created if missing."""
    rendered = []

    def stand_in(obj):
        if callable(getattr(obj, "write", None)):
            rendered.append(obj)
            return _STAND_IN
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")

    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=True, default=stand_in)
    pieces = text.split(_STAND_IN_JSON)
    if len(pieces) != len(rendered) + 1:
        raise ValueError("payload text contains the pre-rendered marker")
    pieces[-1] += "\n"
    with _HashedFile(path) as fh:
        fh.write(pieces[0].encode())
        for obj, before, after in zip(rendered, pieces, pieces[1:]):
            line = before[before.rfind("\n") + 1 :]
            obj.write(fh, len(line) - len(line.lstrip(" ")))
            fh.write(after.encode())
    return fh.written()


HASH_CHUNK_BYTES = 1 << 20  # hashing holds one chunk of a file in memory, not the file


def sha256_of(path) -> str:
    """The sha256 of a file on disk, read into one reused chunk buffer.
    The writers return their digests; this re-read is for checking them."""
    digest = hashlib.sha256()
    chunk = memoryview(bytearray(HASH_CHUNK_BYTES))
    with Path(path).open("rb", buffering=0) as fh:
        while size := fh.readinto(chunk):
            digest.update(chunk[:size])
    return digest.hexdigest()


def manifest_path(outdir, subcommand: str) -> Path:
    return Path(outdir) / f"{subcommand}_manifest.json"


def write_manifest(
    outdir, subcommand: str, params: dict, outputs, version: str, argv: list, defaults: dict
) -> Written:
    """Record a run: the argv it parsed and the config defaults it parsed
    them with (enough to replay it), the resolved params, and the sha256
    of every output, as its writer returned it (a Written); no output is
    read back."""
    manifest = {
        "subcommand": subcommand,
        "argv": argv,
        "defaults": defaults,
        "params": params,
        "version": version,
        "outputs": {out.path.name: out.sha256 for out in outputs},
    }
    return write_json(manifest_path(outdir, subcommand), manifest)


def complex_pairs(matrix: OperatorMatrix) -> DensePairs:
    """Row-major [re, im] pairs of the matrix's dense form for JSON export,
    rendered by write_json from the band."""
    return DensePairs(matrix)
