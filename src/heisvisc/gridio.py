"""Deterministic file formats: grid, witness, classification CSVs and JSON.

Every CSV here has one layout, written by one function: `# name=value`
comment lines, one row of column names, then one comma-separated row per
entry.  Floats are written with `repr`, which round-trips bit-exactly, and
files always use LF line endings, so a file written twice is byte-identical.
The four formats differ only in their comments and columns:

- grid: `# n=`, `# box=`, `# res=`; indices, coordinates, value; one row per
  node in C order.  `read_grid_csv(write_grid_csv(g)) == g` exactly.  The
  reader refuses, naming the data row, a cell that is not a number, an
  index outside the lattice, a repeated node, and coordinates off the
  header's lattice node; a header that does not parse is refused by name.
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
    """Write `# ` + each comment, the column names, then each row of strings."""
    lines = itertools.chain((f"# {c}" for c in comments), [",".join(names)],
                            map(",".join, rows))
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
    _write_csv(path, comments, _grid_columns(g.n), rows)


def _parse_header(lines, name, convert):
    prefix = f"# {name}="
    for ln in lines:
        if ln.startswith(prefix):
            try:
                return convert(ln[len(prefix):].strip())
            except ValueError as e:
                raise ValueError(f"grid CSV: '{prefix}' header: {e}") from None
    raise ValueError(f"grid CSV: missing '{prefix}' header")


def read_grid_csv(path):
    """Rebuild the GridField written by write_grid_csv (bit-exact)."""
    lines = Path(path).read_text().splitlines()
    n = _parse_header(lines, "n", int)
    box = _parse_header(lines, "box", lambda text: np.array(
        [[float(e) for e in span.split("..")] for span in text.split(",")]))
    res = _parse_header(lines, "res", lambda text: tuple(int(r) for r in text.split(",")))
    d = 2 * n + 1
    if box.shape != (d, 2) or len(res) != d:
        raise ValueError("grid CSV: box/res headers inconsistent with n")
    rows = [ln for ln in lines if ln and not ln.startswith("#")]
    header = rows.pop(0).split(",")
    expected = list(_grid_columns(n))
    if header != expected:
        raise ValueError(f"grid CSV: unexpected column header {header!r}")
    count = int(np.prod(res))
    if len(rows) != count:
        raise ValueError(f"grid CSV: expected {count} rows, found {len(rows)}")
    index, coords, flat = [], np.empty((count, d)), np.empty(count)
    for k, ln in enumerate(rows):
        parts = ln.split(",")
        if len(parts) != len(expected):
            raise ValueError(f"grid CSV: data row {k + 1}: expected {len(expected)} columns")
        try:
            index.extend(map(int, parts[:d]))
            coords[k] = list(map(float, parts[d:2 * d]))
            flat[k] = float(parts[-1])
        except ValueError as e:
            raise ValueError(f"grid CSV: data row {k + 1}: {e}") from None
    index = np.array(index, dtype=np.int64).reshape(count, d)
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
               zip(map(str, range(len(witness))), map(str, witness)))


def write_classification_csv(c, path):
    """Per-node verdicts as `node,tag,margin` rows (flat C-order indices)."""
    comments = [f"side={c.side}", "res=" + ",".join(map(str, c.tags.shape))]
    tags = c.tags.ravel().tolist()
    _write_csv(path, comments, ("node", "tag", "margin"),
               zip(map(str, range(len(tags))), map(TAG_NAMES.__getitem__, tags),
                   map(repr, c.rho.ravel().tolist())))


def write_residuals_csv(residuals, path):
    """One `sweep,residual` row per solver step, counted from 1."""
    _write_csv(path, (), ("sweep", "residual"),
               zip(map(str, itertools.count(1)), map(repr, map(float, residuals))))


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
