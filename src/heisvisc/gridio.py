"""Deterministic file formats for grids, witnesses, classifications, problems.

Grid CSV layout: three comment headers (`# n=`, `# box=`, `# res=`), one
column-name row (indices, then coordinates, then value), then one row per
node in C order.  Floats are written with `repr`, which round-trips
bit-exactly, and files always use LF line endings, so a grid written twice
is byte-identical and `read_grid_csv(write_grid_csv(g)) == g` exactly.
The reader refuses, naming the data row, an index outside the lattice, a
repeated node, and coordinates off the header's lattice node.

Problem JSON holds the domain, resolution, operator and cone descriptions,
the boundary expression, and either explicit bracket-grid CSV paths
(relative to the JSON file) or a `bracket: {scale: s}` recipe that rebuilds
the pair with `bracket_from_boundary`.  Schema errors name the offending
field with a dotted path.
"""

import json
from pathlib import Path

import numpy as np

from .cones import ConeSpec
from .fields import Domain, GridField, parse_field
from .operators import spec_from_json
from .perron import Problem, bracket_from_boundary
from .viscosity import TAG_NAMES

__all__ = [
    "grid_csv_text",
    "write_grid_csv",
    "read_grid_csv",
    "witness_csv_text",
    "write_witness_csv",
    "classification_csv_text",
    "write_classification_csv",
    "residuals_csv_text",
    "write_residuals_csv",
    "problem_from_json",
    "load_problem",
]


def _fmt(x):
    return repr(float(x))


def _index_names(d):
    return ("i", "j", "k") if d == 3 else tuple(f"i{a+1}" for a in range(d))


def _coord_names(n):
    if n == 1:
        return ("x", "y", "t")
    return tuple(f"x{j+1}" for j in range(n)) + tuple(f"y{j+1}" for j in range(n)) + ("t",)


def grid_csv_text(g):
    """Serialize a GridField to the grid CSV format (string, LF endings)."""
    d = 2 * g.n + 1
    lines = [f"# n={g.n}"]
    lines.append("# box=" + ",".join(f"{_fmt(lo)}..{_fmt(hi)}" for lo, hi in g.box))
    lines.append("# res=" + ",".join(str(r) for r in g.res))
    lines.append(",".join(_index_names(d) + _coord_names(g.n) + ("value",)))
    axes = g.axes()
    for idx in np.ndindex(*g.res):
        coords = (axes[a][idx[a]] for a in range(d))
        lines.append(
            ",".join(str(i) for i in idx)
            + ","
            + ",".join(_fmt(c) for c in coords)
            + ","
            + _fmt(g.values[idx])
        )
    return "\n".join(lines) + "\n"


def write_grid_csv(g, path):
    Path(path).write_text(grid_csv_text(g), newline="\n")


def _parse_header(lines, name):
    prefix = f"# {name}="
    for ln in lines:
        if ln.startswith(prefix):
            return ln[len(prefix):].strip()
    raise ValueError(f"grid CSV: missing '{prefix}' header")


def read_grid_csv(path):
    """Rebuild the GridField written by write_grid_csv (bit-exact)."""
    lines = Path(path).read_text().splitlines()
    n = int(_parse_header(lines, "n"))
    box = np.array(
        [[float(e) for e in span.split("..")] for span in _parse_header(lines, "box").split(",")]
    )
    res = tuple(int(r) for r in _parse_header(lines, "res").split(","))
    d = 2 * n + 1
    if box.shape != (d, 2) or len(res) != d:
        raise ValueError("grid CSV: box/res headers inconsistent with n")
    rows = [ln for ln in lines if ln and not ln.startswith("#")]
    header = rows.pop(0).split(",")
    expected = list(_index_names(d) + _coord_names(n) + ("value",))
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
        index.extend(map(int, parts[:d]))
        coords[k] = list(map(float, parts[d:2 * d]))
        flat[k] = float(parts[-1])
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
    g = GridField(n, box, values.reshape(res))
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


def witness_csv_text(result):
    """Envelope witness map as `node,witness` rows of flat C-order indices."""
    lines = ["# res=" + ",".join(str(r) for r in result.witness.shape)]
    lines.append(f"# eps={_fmt(result.eps)}")
    lines.append(f"# mode={result.mode}")
    lines.append("node,witness")
    flat = result.witness.ravel()
    lines.extend(f"{i},{int(w)}" for i, w in enumerate(flat))
    return "\n".join(lines) + "\n"


def write_witness_csv(result, path):
    Path(path).write_text(witness_csv_text(result), newline="\n")


def classification_csv_text(c):
    """Per-node verdicts as `node,tag,margin` rows (flat C-order indices)."""
    lines = [f"# side={c.side}"]
    lines.append("# res=" + ",".join(str(r) for r in c.tags.shape))
    lines.append("node,tag,margin")
    tags = c.tags.ravel()
    rho = c.rho.ravel()
    lines.extend(
        f"{i},{TAG_NAMES[tags[i]]},{_fmt(rho[i])}" for i in range(tags.size)
    )
    return "\n".join(lines) + "\n"


def write_classification_csv(c, path):
    Path(path).write_text(classification_csv_text(c), newline="\n")


def residuals_csv_text(residuals):
    lines = ["sweep,residual"]
    lines.extend(f"{i + 1},{_fmt(r)}" for i, r in enumerate(residuals))
    return "\n".join(lines) + "\n"


def write_residuals_csv(residuals, path):
    Path(path).write_text(residuals_csv_text(residuals), newline="\n")


def _need(data, key, path):
    if not isinstance(data, dict) or key not in data:
        raise ValueError(f"problem JSON: missing required field '{path}'")
    return data[key]


def _integer(value, path):
    """A JSON integer; booleans and fractional numbers are refused, not truncated."""
    if isinstance(value, bool) or not (
        isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    ):
        raise ValueError(f"problem JSON: {path} must be an integer, got {value!r}")
    return int(value)


def _cone_from_json(data):
    family = _need(data, "family", "cone.family")
    kwargs = {}
    if "k" in data and data["k"] is not None:
        kwargs["k"] = data["k"]  # ConeSpec refuses a k that is not an integer
    if "g" in data and data["g"] is not None:
        kwargs["g"] = data["g"]
    if "tol" in data:
        kwargs["tol"] = float(data["tol"])
    return ConeSpec(family, **kwargs)


def problem_from_json(data, base=None):
    """Build a solver Problem from its JSON description.

    ``base`` is the directory explicit bracket-grid paths are resolved
    against; it defaults to the current directory.
    """
    base = Path(base) if base is not None else Path(".")
    dom = _need(data, "domain", "domain")
    n = _integer(_need(dom, "n", "domain.n"), "domain.n")
    box = np.asarray(_need(dom, "box", "domain.box"), dtype=float)
    d = 2 * n + 1
    if box.shape != (d, 2):
        raise ValueError(f"problem JSON: domain.box must be {d} [lo, hi] pairs")
    res = tuple(_integer(r, f"resolution[{i}]")
                for i, r in enumerate(_need(data, "resolution", "resolution")))
    if len(res) != d:
        raise ValueError(f"problem JSON: resolution must have {d} entries")
    spec = spec_from_json(_need(data, "operator", "operator"), n)
    cone = _cone_from_json(_need(data, "cone", "cone"))
    boundary = parse_field(_need(data, "boundary", "boundary"), n)
    if "sub" in data or "sup" in data:
        sub = read_grid_csv(base / _need(data, "sub", "sub"))
        sup = read_grid_csv(base / _need(data, "sup", "sup"))
    elif "bracket" in data:
        scale = float(_need(data["bracket"], "scale", "bracket.scale"))
        sub, sup = bracket_from_boundary(boundary, Domain(box), res, scale)
    else:
        raise ValueError(
            "problem JSON: missing required field 'sub'/'sup' or 'bracket'"
        )
    return Problem(spec, cone, boundary, sub, sup)


def load_problem(path):
    """Read and validate a problem JSON file."""
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as e:
        raise ValueError(f"problem JSON: {path} is not valid JSON ({e})") from e
    return problem_from_json(data, base=path.parent)
