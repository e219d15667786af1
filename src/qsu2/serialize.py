"""Deterministic CSV/JSON output and run manifests.

Floats are printed with 17 significant digits so identical invocations
produce byte-identical files; manifests record the parsed argv with its
config defaults, the resolved parameters and the sha256 digests of every
output, so a run can be replayed and its outputs compared.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from itertools import chain, groupby, islice
from pathlib import Path

import numpy as np

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

# rows per block, rendered and written at once: a block of two float columns
# and a bool column is about 0.25 MB of csvcells slots
CSV_BLOCK_ROWS = 4096

# blocks with fewer rows stay on the % path, and float arrays with fewer
# values on float.__repr__ (JSON): csvcells' fixed cost, about 0.1 ms per float
# column, is what % or repr spends on about 320 to 450 values of a column
CSV_KERNEL_MIN_ROWS = 384


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
    return column if column.dtype.kind in "fb" and column.dtype.itemsize <= 8 else None


def _render(columns: list, n: int) -> bytes:
    """The CSV lines of one block of n rows, given as its columns (numpy
    arrays or sequences of cells), each line ending in a newline.  A block of
    CSV_KERNEL_MIN_ROWS rows or more whose columns are all float or bool goes
    through csvcells.  Otherwise one % renders it: a column whose cells share
    a type with a %-conversion uses it, any other column goes through fmt."""
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
        conv = _CELL_FORMATS.get(_cell_type(column))
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


def rows_of(*columns) -> ColumnTable:
    """The table of equal-length numpy columns, rendered column-wise by
    write_csv and iterable as rows of Python scalars."""
    return ColumnTable(tuple(np.asarray(c) for c in columns))


def write_csv(path, header, rows) -> Path:
    """Header line, then one line per row, each cell as fmt formats it.  rows
    is a ColumnTable (from rows_of), whose column slices are rendered, or any
    iterable of cell sequences, whose runs of rows of one length are
    transposed and rendered; either CSV_BLOCK_ROWS rows at a time.  The
    directory is created if missing."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("wb") as fh:
        fh.write((",".join(header) + "\n").encode("utf-8"))
        if isinstance(rows, ColumnTable):
            n = len(rows)
            for lo in range(0, n, CSV_BLOCK_ROWS):
                hi = min(n, lo + CSV_BLOCK_ROWS)
                fh.write(_render([c[lo:hi] for c in rows.columns], hi - lo))
            return path
        rows = iter(rows)
        while block := list(islice(rows, CSV_BLOCK_ROWS)):
            for _, same_length in groupby(block, len):
                run = list(same_length)
                fh.write(_render(list(zip(*run)), len(run)))
    return path


# characters of a dense matrix's JSON text joined per write.  Blocks stay below
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
        """Write the JSON text of the pairs, whose opening bracket sits on
        a line indented by `indent` spaces."""
        from .csvcells import JSON_REPR

        op = self.matrix
        n = len(op.basis)
        row_pad, pair_pad, num_pad = ("\n" + " " * (indent + k) for k in (2, 4, 6))
        pair = f"[{num_pad}%s,{num_pad}%s{pair_pad}]"
        sep = "," + pair_pad
        fill_re, imag = JSON_REPR.spell([op.fill.real, op.fill.imag])
        fill = pair % (fill_re, imag)
        # the first k * width characters of `before` are k zero pairs, each
        # followed by a separator, of `after` k pairs each preceded by one:
        # every run of zeros is one slice
        width = len(fill) + len(sep)
        before, after = (fill + sep) * n, (sep + fill) * n
        band = [pair % (re, imag) for re in JSON_REPR.spell(op.band.tolist())]
        row_sep = f"{row_pad}],{row_pad}[{pair_pad}"
        rows_per_write = max(1, JSON_BLOCK_CHARS // (n * width))
        pieces = [f"[{row_pad}[{pair_pad}"]
        for r in range(n):
            col = r + op.offset
            if 0 <= col < n:
                # band entry k sits in row k (offset >= 0) or column k (offset < 0)
                pieces += (before[: col * width], band[min(r, col)], after[: (n - col - 1) * width])
            else:
                pieces.append(before[: n * width - len(sep)])
            pieces.append(row_sep if r < n - 1 else f"{row_pad}]\n{' ' * indent}]")
            if (r + 1) % rows_per_write == 0 or r == n - 1:
                fh.write("".join(pieces))
                pieces.clear()


def _json_column(values) -> np.ndarray:
    """The json.dumps text of each float of a record column, as NUL-padded
    bytes, spelled once per distinct bit pattern (so 0.0 and -0.0 stay
    apart), because record columns repeat few values, such as the m labels
    of the crossings."""
    from .csvcells import JSON_REPR, spell_floats

    bits = np.asarray(values, dtype=np.float64).view(np.int64)
    patterns, inverse = np.unique(bits, return_inverse=True)
    patterns = patterns.view(np.float64)
    if len(patterns) < CSV_KERNEL_MIN_ROWS:
        cells = np.array(JSON_REPR.spell(patterns.tolist()), dtype=bytes)
    else:
        cells = spell_floats(patterns, JSON_REPR)
    return cells[inverse]


@dataclass(frozen=True)
class Records:
    """A list of flat JSON objects, stored as columns: str key -> equal-length
    float64 array or sequence of floats (no columns: no objects).

    write_json renders it byte for byte as json.dumps renders the list of
    dicts: csvcells renders each block of CSV_BLOCK_ROWS objects as rows
    whose cells are the values, each behind its key, and whose suffix closes
    the object.
    """

    columns: dict

    def write(self, fh, indent: int) -> None:
        """Write the JSON text of the list, whose opening bracket sits on a
        line indented by `indent` spaces."""
        keys = sorted(self.columns)
        columns = [_json_column(self.columns[k]) for k in keys]
        if len({len(col) for col in columns}) > 1:
            raise ValueError("record columns differ in length")
        if not columns or not len(columns[0]):
            fh.write("[]")
            return
        from .csvcells import render_columns

        pad = "\n" + " " * indent
        fields = [f"{pad}    {json.dumps(k)}: ".encode() for k in keys]
        prefixes = [f"{pad}  {{".encode() + fields[0]] + [b"," + field for field in fields[1:]]
        suffix = f"{pad}  }},".encode()
        n = len(columns[0])
        fh.write("[")
        for lo in range(0, n, CSV_BLOCK_ROWS):
            text = render_columns([c[lo : lo + CSV_BLOCK_ROWS] for c in columns], prefixes, suffix).decode()
            fh.write(text if lo + CSV_BLOCK_ROWS < n else text[:-1])  # no comma after the last object
        fh.write(pad + "]")


# stands in for each pre-rendered value (an object with write(fh, indent),
# such as DensePairs or Records) in the json.dumps text; the NUL keeps it
# apart from any string a payload carries
_STAND_IN = "\x00dense-pairs"
_STAND_IN_JSON = json.dumps(_STAND_IN)


def write_json(path, payload) -> Path:
    """The payload as json.dumps(indent=2, sort_keys=True) writes it, with
    pre-rendered values written in place.  The directory is created if missing."""
    path = Path(path)
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
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(pieces[0])
        for obj, before, after in zip(rendered, pieces, pieces[1:]):
            line = before[before.rfind("\n") + 1 :]
            obj.write(fh, len(line) - len(line.lstrip(" ")))
            fh.write(after)
        fh.write("\n")
    return path


HASH_CHUNK_BYTES = 1 << 20  # hashing holds one chunk of a file in memory, not the file


def sha256_of(path) -> str:
    digest = hashlib.sha256()
    with Path(path).open("rb") as fh:
        while chunk := fh.read(HASH_CHUNK_BYTES):
            digest.update(chunk)
    return digest.hexdigest()


def manifest_path(outdir, subcommand: str) -> Path:
    return Path(outdir) / f"{subcommand}_manifest.json"


def write_manifest(
    outdir, subcommand: str, params: dict, outputs, version: str, argv: list, defaults: dict
) -> Path:
    """Record a run: the argv it parsed and the config defaults it parsed
    them with (enough to replay it), the resolved params, and the sha256
    of every output."""
    outdir = Path(outdir)
    manifest = {
        "subcommand": subcommand,
        "argv": argv,
        "defaults": defaults,
        "params": params,
        "version": version,
        "outputs": {Path(p).name: sha256_of(p) for p in outputs},
    }
    return write_json(manifest_path(outdir, subcommand), manifest)


def complex_pairs(matrix: OperatorMatrix) -> DensePairs:
    """Row-major [re, im] pairs of the matrix's dense form for JSON export,
    rendered by write_json from the band."""
    return DensePairs(matrix)
