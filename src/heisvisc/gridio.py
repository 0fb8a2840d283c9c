"""Deterministic file formats: grid, witness, classification CSVs and JSON.

Every CSV here has one layout, written by one function: `# name=value`
comment lines, one row of column names, then one comma-separated row per
entry.  Floats are written with `repr`, which round-trips bit-exactly, and
files always use LF line endings, so a file written twice is byte-identical.
The four formats differ only in their comments and columns:

- grid: `# n=`, `# box=`, `# res=`; indices, coordinates, value; one row per
  node in C order.  `read_grid_csv(write_grid_csv(g)) == g` exactly.  The
  reader refuses, naming the data row, a cell that is not a number, an
  index outside the lattice or past int64, a repeated node, and
  coordinates off the header's lattice node; a header that does not parse,
  or a `# res=` entry below 2, is refused by name.  Blank and `#` lines are
  skipped wherever they stand, and the first line of each header wins.
  The reader reads the text once, so a pipe loads as a file does, and
  takes it in windows of about 16 KiB cut at a newline: the headers come
  from the first windows, one pass counts the data rows, and a second
  converts each window's rows at once, one numpy call per column, with
  Python's own `int` and `float` on every cell.  Only a window whose
  conversion fails is scanned row by row, so every refusal names the same
  row, with the same message, as a row-by-row reader would.  Besides the
  text, no more than one window of lines is held as strings, and the text
  is freed before the nodes are checked.
- witness: `# res=`, `# eps=`, `# mode=`; `node,witness` as flat C-order
  indices.
- classification: `# side=`, `# res=`; `node,tag,margin`.
- residuals: no comments; `sweep,residual`, counted from 1.

Every JSON text the program reads or writes goes through here too:
`read_json` reads a file and `json_text` writes sorted keys, LF-terminated,
compact or indented by 2.  Problem JSON holds the domain, resolution,
operator and cone descriptions (constant, finite coefficients), the
boundary expression, and either explicit bracket-grid CSV paths (relative
to the JSON file) or a `bracket: {scale: s}` recipe that rebuilds the pair
with `bracket_from_boundary`.  Schema errors name the offending field with
a dotted path.
"""

import itertools
import json
import sys
from operator import methodcaller
from pathlib import Path

import numpy as np

from .cones import ConeSpec, spectral_tree
from .fields import Domain, GridField, coordinate_names, parse_field
from .operators import OperatorSpec
from .perron import Problem, bracket_from_boundary
from .viscosity import TAG_NAMES

__all__ = [
    "write_grid_csv",
    "read_grid_csv",
    "write_witness_csv",
    "write_classification_csv",
    "write_residuals_csv",
    "json_text",
    "read_json",
    "problem_from_json",
    "load_problem",
]


def _write_csv(path, comments, names, rows):
    """Write `# ` + each comment, the column names, then each row, a string
    of comma-separated cells."""
    lines = itertools.chain((f"# {c}" for c in comments), [",".join(names)], rows)
    Path(path).write_text("\n".join(lines) + "\n", newline="\n")


def _grid_columns(n):
    d = 2 * n + 1
    index = ("i", "j", "k") if n == 1 else tuple(f"i{a+1}" for a in range(d))
    coords = ("x", "y", "t") if n == 1 else coordinate_names(n)
    return index + coords + ("value",)


def write_grid_csv(g, path):
    """Write a GridField in the grid CSV format."""
    comments = [
        f"n={g.n}",
        "box=" + ",".join(f"{lo!r}..{hi!r}" for lo, hi in g.box.tolist()),
        "res=" + ",".join(map(str, g.res)),
    ]
    # each axis is formatted once; the nodes' rows combine them in C order
    index = itertools.product(*[list(map(str, range(r))) for r in g.res])
    coords = itertools.product(*[list(map(repr, ax.tolist())) for ax in g.axes()])
    values = map(repr, g.values.ravel().tolist())
    rows = (i + c + (v,) for i, c, v in zip(index, coords, values))
    _write_csv(path, comments, _grid_columns(g.n), map(",".join, rows))


# characters of text converted at once; each window is cut after a newline
_WINDOW = 1 << 14
_HEADERS = ("n", "box", "res")


def _windows(text):
    """The lines of ``text`` a window at a time: about ``_WINDOW`` characters,
    cut after a newline."""
    start = 0
    while start < len(text):
        end = text.find("\n", start + _WINDOW) + 1 or len(text)
        yield text[start:end].splitlines()
        start = end


def _headers(text):
    """The text after `# name=` on the first line of each header."""
    headers = {}
    for lines in _windows(text):
        for ln in filter(methodcaller("startswith", "# "), lines):
            for name in _HEADERS:
                if name not in headers and ln.startswith(f"# {name}="):
                    headers[name] = ln[len(name) + 3:]
        if len(headers) == len(_HEADERS):
            break
    return headers


def _rows(text):
    """Each window's lines that are neither blank nor `#` lines: the
    column-name row, then the data rows."""
    return ([ln for ln in lines if ln and not ln.startswith("#")] for lines in _windows(text))


def _data_rows(text):
    """Each window's data rows: ``_rows`` less the column-name row."""
    windows = _rows(text)
    for rows in windows:
        if rows:
            yield rows[1:]
            break
    yield from windows


def _parse_header(headers, name, convert):
    prefix = f"# {name}="
    if name not in headers:
        raise ValueError(f"grid CSV: missing '{prefix}' header")
    try:
        return convert(headers[name].strip())
    except ValueError as e:
        raise ValueError(f"grid CSV: '{prefix}' header: {e}") from None


def _parse_res(text):
    res = tuple(int(r) for r in text.split(","))
    if min(res) < 2:
        raise ValueError(f"each axis needs at least 2 nodes, got {res}")
    return res


def _refuse_row(rows, first, d):
    """Refuse the first malformed row of ``rows``, data row ``first`` of the file,
    converting its cells as the window's columns are."""
    for k, ln in enumerate(rows, first):
        parts = ln.split(",")
        if len(parts) != 2 * d + 1:
            raise ValueError(f"grid CSV: data row {k}: expected {2 * d + 1} columns")
        try:
            np.array(parts[:d], dtype=np.int64)
            np.array(parts[d:], dtype=float)
        except (ValueError, OverflowError) as e:
            raise ValueError(f"grid CSV: data row {k}: {e}") from None


def _read_rows(text, d, count):
    """The index, coordinate and value columns of the ``count`` data rows of
    ``text``, converted a window of rows at once, one pass per column."""
    index, coords, flat = np.empty((count, d), np.int64), np.empty((count, d)), np.empty(count)
    width, k = 2 * d + 1, 0
    for rows in filter(None, _data_rows(text)):
        m = len(rows)
        if list(map(str.count, rows, itertools.repeat(","))).count(width - 1) != m:
            _refuse_row(rows, k + 1, d)   # a row of the wrong width
        cells = ",".join(rows).split(",")
        try:
            for c in range(d):
                index[k:k + m, c] = np.array(cells[c::width], dtype=np.int64)
                coords[k:k + m, c] = np.array(cells[d + c::width], dtype=float)
            flat[k:k + m] = np.array(cells[2 * d::width], dtype=float)
        except (ValueError, OverflowError):
            _refuse_row(rows, k + 1, d)   # a cell that does not convert
            raise
        k += m
    return index, coords, flat


def _parse_grid(text):
    """The n, box and res headers of grid CSV ``text`` and the index,
    coordinate and value columns of its data rows."""
    headers = _headers(text)
    n = _parse_header(headers, "n", int)
    box = _parse_header(headers, "box", lambda spans: np.array(
        [[float(e) for e in span.split("..")] for span in spans.split(",")]))
    res = _parse_header(headers, "res", _parse_res)
    d = 2 * n + 1
    if box.shape != (d, 2) or len(res) != d:
        raise ValueError("grid CSV: box/res headers inconsistent with n")
    columns = next((rows[0] for rows in _rows(text) if rows), None)
    if columns is None:
        raise ValueError("grid CSV: missing column header")
    header = columns.split(",")
    if header != list(_grid_columns(n)):
        raise ValueError(f"grid CSV: unexpected column header {header!r}")
    count = int(np.prod(res))
    found = sum(map(len, _data_rows(text)))
    if found != count:
        raise ValueError(f"grid CSV: expected {count} rows, found {found}")
    return (n, box, res) + _read_rows(text, d, count)


def read_grid_csv(path):
    """Rebuild the GridField written by write_grid_csv (bit-exact)."""
    # the text is freed before the nodes are checked
    n, box, res, index, coords, flat = _parse_grid(Path(path).read_text())
    count, d = index.shape
    # every node exactly once: an unchecked index would wrap (-1), raise
    # IndexError (>= res) or leave another node unset (a repeat)
    outside = ((index < 0) | (index >= res)).any(axis=1)
    if outside.any():
        k = int(np.argmax(outside))
        raise ValueError(f"grid CSV: data row {k + 1}: index {tuple(index[k].tolist())} "
                         f"is outside res {res}")
    nodes = np.ravel_multi_index(index.T, res)
    _, first = np.unique(nodes, return_index=True)
    if first.size < count:
        k = int(np.setdiff1d(np.arange(count), first)[0])
        raise ValueError(f"grid CSV: data row {k + 1}: node {tuple(index[k].tolist())} "
                         "appears twice")
    values = np.empty(count)
    values[nodes] = flat
    try:
        g = GridField(n, box, values.reshape(res))
    except ValueError as e:
        raise ValueError(f"grid CSV: {e}") from None
    # coordinates must name the header's node, up to a tolerance far below
    # the spacing so that hand-written decimals still load
    lattice = g.coords_full().reshape(count, d)[nodes]
    off = (np.abs(coords - lattice) > 1e-2 * g.spacing).any(axis=1)
    if off.any():
        k = int(np.argmax(off))
        raise ValueError(f"grid CSV: data row {k + 1}: coordinates "
                         f"{tuple(coords[k].tolist())} are off the lattice node "
                         f"{tuple(index[k].tolist())} at {tuple(lattice[k].tolist())}")
    return g


def write_witness_csv(result, path):
    """Envelope witness map as `node,witness` rows of flat C-order indices."""
    comments = [
        "res=" + ",".join(map(str, result.witness.shape)),
        f"eps={float(result.eps)!r}",
        f"mode={result.mode}",
    ]
    witness = result.witness.ravel().tolist()
    _write_csv(path, comments, ("node", "witness"),
               map("{},{}".format, range(len(witness)), witness))


def write_classification_csv(c, path):
    """Per-node verdicts as `node,tag,margin` rows (flat C-order indices)."""
    comments = [f"side={c.side}", "res=" + ",".join(map(str, c.tags.shape))]
    tags = c.tags.ravel().tolist()
    _write_csv(path, comments, ("node", "tag", "margin"),
               map(",".join, zip(map(str, range(len(tags))), map(TAG_NAMES.__getitem__, tags),
                                 map(repr, c.rho.ravel().tolist()))))


def write_residuals_csv(residuals, path):
    """One `sweep,residual` row per solver step, counted from 1."""
    _write_csv(path, (), ("sweep", "residual"),
               map(",".join, zip(map(str, itertools.count(1)), map(repr, map(float, residuals)))))


def json_text(obj, pretty=False):
    """The one JSON text: sorted keys, compact or indented by 2, LF-terminated.
    NaN and infinities are refused, never written as invalid JSON."""
    return json.dumps(obj, sort_keys=True, allow_nan=False, indent=2 if pretty else None) + "\n"


def read_json(path, what):
    """The JSON value in file ``path``; a parse error names ``what`` and the file."""
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as e:
        raise ValueError(f"{what}: {path} is not valid JSON ({e})") from e


def _refuse(path, kind, value):
    raise ValueError(f"problem JSON: {path} must be {kind}, got {value!r}")


def _need(data, path):
    """The field at dotted ``path`` (its last part is the key in ``data``)."""
    key = path.rpartition(".")[2]
    if not isinstance(data, dict) or key not in data:
        raise ValueError(f"problem JSON: missing required field '{path}'")
    return data[key]


def _integer(value, path, least=None):
    """A JSON integer, at least ``least`` when given; booleans and fractional
    numbers are refused, not truncated."""
    if isinstance(value, bool) or not (
        isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    ):
        _refuse(path, "an integer", value)
    if least is not None and value < least:
        _refuse(path, f"at least {least}", value)
    return int(value)


def _number(value, path, kind="a finite number"):
    """A finite JSON number; booleans, strings, NaN and infinities are refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not (
        -sys.float_info.max <= value <= sys.float_info.max
    ):
        _refuse(path, kind, value)
    return float(value)


def _reader(json_type, kind):
    """A reader that returns a ``json_type`` value and refuses any other."""
    def read(value, path):
        if not isinstance(value, json_type):
            _refuse(path, kind, value)
        return value
    return read


_string, _list, _object = (_reader(str, "a string"), _reader(list, "a list"),
                           _reader(dict, "an object"))

_COEFFICIENT = ("a finite number (the solver path requires constant coefficients; "
                "expressions wait on ROADMAP item 2(c))")


def _operator_from_json(data):
    data = _object(data, "operator")
    coeffs = {c: _number(_need(data, f"operator.{c}"), f"operator.{c}", _COEFFICIENT)
              for c in ("alpha", "beta", "gamma")}
    if "m" in data:
        coeffs["m"] = _number(data["m"], "operator.m")
    return OperatorSpec(**coeffs)


def _parsed(parse, text, path):
    """``parse(text)``; a parse error names the field at dotted ``path``."""
    try:
        return parse(text)
    except ValueError as e:
        raise ValueError(f"problem JSON: {path}: {e}") from None


def _cone_from_json(data, n):
    data = _object(data, "cone")
    kwargs = {"family": _string(_need(data, "cone.family"), "cone.family")}
    if data.get("k") is not None:
        kwargs["k"] = _integer(data["k"], "cone.k")
    if data.get("g") is not None:
        kwargs["g"] = _string(data["g"], "cone.g")
    if "tol" in data:
        kwargs["tol"] = _number(data["tol"], "cone.tol")
    try:
        cone = ConeSpec(**kwargs)
    except ValueError as e:   # each of its messages names its field
        raise ValueError(f"problem JSON: {e}") from None
    if cone.family == "spectral":
        # the cone would parse g only when first evaluated
        _parsed(lambda g: spectral_tree(g, 2 * n), cone.g, "cone.g")
    return cone


def problem_from_json(data, base=None):
    """Build a solver Problem from its JSON description.

    ``base`` is the directory explicit bracket-grid paths are resolved
    against; it defaults to the current directory.
    """
    base = Path(base) if base is not None else Path(".")
    dom = _object(_need(data, "domain"), "domain")
    n = _integer(_need(dom, "domain.n"), "domain.n", least=1)
    box = _need(dom, "domain.box")
    d = 2 * n + 1
    if not isinstance(box, (list, tuple)) or len(box) != d or any(
        not isinstance(pair, (list, tuple)) or len(pair) != 2 for pair in box
    ):
        raise ValueError(f"problem JSON: domain.box must be {d} [lo, hi] pairs")
    box = np.array([[_number(e, f"domain.box[{i}][{j}]") for j, e in enumerate(pair)]
                    for i, pair in enumerate(box)])
    res = tuple(_integer(r, f"resolution[{i}]", least=2)
                for i, r in enumerate(_list(_need(data, "resolution"), "resolution")))
    if len(res) != d:
        raise ValueError(f"problem JSON: resolution must have {d} entries")
    spec = _operator_from_json(_need(data, "operator"))
    cone = _cone_from_json(_need(data, "cone"), n)
    boundary = _parsed(lambda text: parse_field(text, n),
                       _string(_need(data, "boundary"), "boundary"), "boundary")
    if "sub" in data or "sup" in data:
        sub, sup = (read_grid_csv(base / _string(_need(data, side), side))
                    for side in ("sub", "sup"))
        for side, g in (("sub", sub), ("sup", sup)):
            if g.res != res or not np.array_equal(g.box, box):
                raise ValueError(
                    f"problem JSON: {side} holds a {'x'.join(map(str, g.res))} grid on "
                    f"{g.box.tolist()}, not the resolution {list(res)} on domain.box "
                    f"{box.tolist()}")
    elif "bracket" in data:
        bracket = _object(data["bracket"], "bracket")
        scale = _number(_need(bracket, "bracket.scale"), "bracket.scale")
        sub, sup = bracket_from_boundary(boundary, Domain(box), res, scale)
    else:
        raise ValueError("problem JSON: missing required field 'sub'/'sup' or 'bracket'")
    return Problem(spec, cone, boundary, sub, sup)


def load_problem(path):
    """Read and validate a problem JSON file."""
    return problem_from_json(read_json(path, "problem JSON"), base=Path(path).parent)
