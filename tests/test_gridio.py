"""File-format checks: grid CSV round trips, witness/classification dumps,
problem JSON loading and its schema errors."""

import json
import os
import re
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from heisvisc import gridio, rng
from heisvisc.cones import ConeSpec
from heisvisc.envelopes import upper_envelope
from heisvisc.fields import Domain, GridField, parse_field, sample
from heisvisc.gridio import (
    load_problem,
    problem_from_json,
    read_grid_csv,
    write_classification_csv,
    write_grid_csv,
    write_residuals_csv,
    write_witness_csv,
)
from heisvisc.operators import OperatorSpec
from heisvisc.perron import bracket_from_boundary, solve
from heisvisc.viscosity import TAG_NAMES, Classification, classify_grid

BOX1 = np.array([[-1.0, 1.0], [-1.0, 1.0], [-1.0, 1.0]])


def random_grid(seed=7, res=(6, 5, 4)):
    g = rng.stream(seed)
    values = g.standard_normal(res)
    return GridField(1, BOX1.copy(), values)


def test_grid_csv_round_trip_is_exact(tmp_path):
    g = random_grid()
    p = tmp_path / "g.csv"
    write_grid_csv(g, p)
    back = read_grid_csv(p)
    assert back.n == g.n
    assert back.res == g.res
    assert_array_equal(back.box, g.box)
    assert_array_equal(back.values, g.values)


def test_grid_csv_is_byte_stable(tmp_path):
    g = random_grid(seed=11)
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    write_grid_csv(g, a)
    write_grid_csv(g, b)
    assert a.read_bytes() == b.read_bytes()
    assert b"\r" not in a.read_bytes()


def written(write, obj, path):
    """The text ``write`` puts in ``path`` for ``obj``."""
    write(obj, path)
    return path.read_text()


def test_grid_csv_headers_and_columns(tmp_path):
    g = random_grid(res=(3, 3, 3))
    lines = written(write_grid_csv, g, tmp_path / "g.csv").splitlines()
    assert lines[0] == "# n=1"
    assert lines[1].startswith("# box=-1.0..1.0,")
    assert lines[2] == "# res=3,3,3"
    assert lines[3] == "i,j,k,x,y,t,value"
    assert len(lines) == 4 + 27
    first = lines[4].split(",")
    assert first[:3] == ["0", "0", "0"]
    assert float(first[3]) == -1.0


def test_grid_csv_preserves_awkward_floats(tmp_path):
    values = np.array([0.1 + 0.2, 1e-17, -3.0, np.pi, 2.0 / 3.0, 1e300, -1e-300, 0.0]).reshape(
        2, 2, 2
    )
    box = np.array([[0.0, 1.0], [0.0, 1.0], [-1.0, 1.0]])
    g = GridField(1, box, values)
    p = tmp_path / "g.csv"
    write_grid_csv(g, p)
    assert_array_equal(read_grid_csv(p).values, values)


def test_grid_csv_n2_round_trip(tmp_path):
    box = np.array([[-1.0, 1.0]] * 5)
    vals = rng.stream(3).standard_normal((3, 3, 3, 3, 3))
    g = GridField(2, box, vals)
    p = tmp_path / "g5.csv"
    write_grid_csv(g, p)
    lines = p.read_text().splitlines()
    assert lines[3] == "i1,i2,i3,i4,i5,x1,x2,y1,y2,t,value"
    back = read_grid_csv(p)
    assert back.n == 2
    assert_array_equal(back.values, vals)


def test_grid_csv_rejects_malformed(tmp_path):
    g = random_grid(res=(3, 3, 3))
    text = written(write_grid_csv, g, tmp_path / "g.csv")
    p = tmp_path / "bad.csv"

    p.write_text(text.replace("# n=1\n", ""))
    with pytest.raises(ValueError, match="missing"):
        read_grid_csv(p)

    p.write_text(text.replace("i,j,k", "a,b,c"))
    with pytest.raises(ValueError, match="header"):
        read_grid_csv(p)

    p.write_text("\n".join(text.splitlines()[:-4]) + "\n")
    with pytest.raises(ValueError, match="rows"):
        read_grid_csv(p)

    p.write_text("\n".join(text.splitlines()[:3]) + "\n")
    with pytest.raises(ValueError, match="^grid CSV: missing column header$"):
        read_grid_csv(p)

    lines = text.splitlines()
    lines[5] = "0,0,1,1.0,2.0"
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="data row 2: expected 7 columns"):
        read_grid_csv(p)


@pytest.mark.parametrize(
    "span, message",
    [("nan..nan", "^grid CSV: box bounds must be finite"),
     ("-inf..inf", "^grid CSV: box bounds must be finite"),
     ("-1.0..inf", "^grid CSV: box bounds must be finite"),
     ("1.0..1.0", "^grid CSV: box must satisfy lo < hi"),
     ("1.0..-1.0", "^grid CSV: box must satisfy lo < hi")],
    ids=["nan", "infinite", "half_infinite", "empty", "reversed"],
)
def test_grid_csv_rejects_box_outside_the_domain_rule(tmp_path, span, message):
    # the reader holds the box to Domain's rule, so no spacing is NaN, inf or 0
    text = written(write_grid_csv, random_grid(res=(3, 3, 3)), tmp_path / "g.csv")
    p = tmp_path / "bad_box.csv"
    p.write_text(text.replace("# box=-1.0..1.0,", f"# box={span},", 1))
    with pytest.raises(ValueError, match=message):
        read_grid_csv(p)


def csv_with_index(index, tmp_path):
    """A 3x3x3 grid CSV whose second data row (file line 6) starts with ``index``.

    ``index`` replaces as many leading columns as it holds: the node index,
    optionally followed by coordinates.
    """
    lines = written(write_grid_csv, random_grid(res=(3, 3, 3)), tmp_path / "g.csv").splitlines()
    assert lines[5].startswith("0,0,1,")
    k = index.count(",") + 1
    lines[5] = index + "," + lines[5].split(",", k)[k]
    p = tmp_path / "bad_index.csv"
    p.write_text("\n".join(lines) + "\n")
    return p


@pytest.mark.parametrize(
    "index, message",
    [
        ("0,0,0", r"data row 2: node \(0, 0, 0\) appears twice"),
        ("0,0,-1", r"data row 2: index \(0, 0, -1\) is outside res \(3, 3, 3\)"),
        ("0,3,1", r"data row 2: index \(0, 3, 1\) is outside res \(3, 3, 3\)"),
        ("0,0,1,5.0,7.0,-9.0", r"data row 2: coordinates \(5.0, 7.0, -9.0\) are off "
                               r"the lattice node \(0, 0, 1\) at \(-1.0, -1.0, 0.0\)"),
        ("0,0,99999999999999999999", r"data row 2: Python int too large"),
    ],
    ids=["repeated", "negative", "too_large", "off_lattice", "past_int64"],
)
def test_grid_csv_rejects_bad_index(tmp_path, index, message):
    # each leaves a node unset, writes outside the lattice or misplaces a node
    with pytest.raises(ValueError, match=message):
        read_grid_csv(csv_with_index(index, tmp_path))


@pytest.mark.parametrize(
    "row, message",
    [("0,x,1,-1.0,-1.0,0.0,0.5", "invalid literal for int() with base 10: 'x'"),
     ("0,0,1,-1.0,-1.0,0.0,abc", "could not convert string to float: 'abc'")],
    ids=["index", "value"],
)
def test_grid_csv_names_the_row_of_a_cell_that_is_not_a_number(tmp_path, row, message):
    lines = written(write_grid_csv, random_grid(res=(3, 3, 3)), tmp_path / "g.csv").splitlines()
    assert lines[5].startswith("0,0,1,-1.0,-1.0,0.0,")
    lines[5] = row
    p = tmp_path / "bad_cell.csv"
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="^" + re.escape(f"grid CSV: data row 2: {message}")):
        read_grid_csv(p)


@pytest.mark.parametrize(
    "header, bad, message",
    [("# n=1", "# n=one", "invalid literal for int() with base 10: 'one'"),
     ("# box=-1.0..1.0,", "# box=-1.0..a,", "could not convert string to float: 'a'"),
     ("# res=3,3,3", "# res=3,3.5,3", "invalid literal for int() with base 10: '3.5'"),
     ("# res=3,3,3", "# res=-1,3,3", "each axis needs at least 2 nodes, got (-1, 3, 3)"),
     ("# res=3,3,3", "# res=0,3,3", "each axis needs at least 2 nodes, got (0, 3, 3)"),
     ("# res=3,3,3", "# res=3,1,3", "each axis needs at least 2 nodes, got (3, 1, 3)")],
    ids=["n", "box", "res", "res_negative", "res_zero", "res_one"],
)
def test_grid_csv_names_a_malformed_header(tmp_path, header, bad, message):
    text = written(write_grid_csv, random_grid(res=(3, 3, 3)), tmp_path / "g.csv")
    assert header in text
    p = tmp_path / "bad_header.csv"
    p.write_text(text.replace(header, bad, 1))
    prefix = bad.split("=")[0] + "="
    with pytest.raises(ValueError, match="^" + re.escape(f"grid CSV: '{prefix}' header: {message}")):
        read_grid_csv(p)


def test_grid_csv_first_header_line_wins(tmp_path):
    g = random_grid(res=(3, 3, 3))
    lines = written(write_grid_csv, g, tmp_path / "g.csv").splitlines()
    lines[10:10] = ["# n=2", "# res=5,5,5", "# box=0.0..1.0,0.0..1.0,0.0..1.0"]
    p = tmp_path / "repeated_headers.csv"
    p.write_text("\n".join(lines) + "\n")
    assert_array_equal(read_grid_csv(p).values, g.values)


def file_line(lines, row):
    """The index in ``lines`` of data row ``row`` and its character offset."""
    k = [i for i, ln in enumerate(lines) if ln and not ln.startswith("#")][row]
    return k, sum(len(ln) + 1 for ln in lines[:k])


def test_grid_csv_counts_rows_across_windows(tmp_path):
    # a 17^3 file with a `#` line after data row 1000 and a blank line after row 2000
    g = random_grid(res=(17, 17, 17))
    lines = written(write_grid_csv, g, tmp_path / "g.csv").splitlines()
    lines[4 + 2000:4 + 2000] = [""]
    lines[4 + 1000:4 + 1000] = ["# a note inside the data"]
    p = tmp_path / "windows.csv"
    p.write_text("\n".join(lines) + "\n")
    assert_array_equal(read_grid_csv(p).values, g.values)
    p.write_bytes(p.read_bytes().replace(b"\n", b"\r\n"))
    assert_array_equal(read_grid_csv(p).values, g.values)

    # a bad cell well past the first window
    bad = list(lines)
    k, offset = file_line(bad, 3000)
    assert offset > 2 * gridio._WINDOW
    bad[k] = bad[k].replace(",", ",x", 1)
    p.write_text("\n".join(bad) + "\n")
    with pytest.raises(ValueError, match="^" + re.escape(
            "grid CSV: data row 3000: invalid literal for int() with base 10: 'x")):
        read_grid_csv(p)

    # a short row in the last window
    bad = list(lines)
    k, offset = file_line(bad, 4900)
    assert offset > len("\n".join(bad)) - gridio._WINDOW
    bad[k] = bad[k].rsplit(",", 1)[0]
    p.write_text("\n".join(bad) + "\n")
    with pytest.raises(ValueError, match="^grid CSV: data row 4900: expected 7 columns$"):
        read_grid_csv(p)


@pytest.mark.parametrize("at, block", [
    (0, ["# " + "c" * 78] * 300),
    (4, ["# " + "c" * 78] * 300),
    (None, [""] * 20000),
], ids=["comments_before_headers", "comments_before_data", "blank_lines_after_data"])
def test_grid_csv_skips_windows_without_data_rows(tmp_path, at, block):
    # the block fills whole windows that hold no data row
    assert len("\n".join(block)) > gridio._WINDOW
    g = random_grid(res=(3, 3, 3))
    lines = written(write_grid_csv, g, tmp_path / "g.csv").splitlines()
    at = len(lines) if at is None else at
    lines[at:at] = block
    p = tmp_path / "sparse.csv"
    p.write_text("\n".join(lines) + "\n")
    back = read_grid_csv(p)
    assert back.res == g.res
    assert_array_equal(back.box, g.box)
    assert_array_equal(back.values, g.values)


def test_grid_csv_reads_from_a_pipe(tmp_path):
    # the text is read once, so a pipe (or `--input /dev/stdin`) loads as a file does
    g = random_grid(res=(3, 3, 3))
    text = written(write_grid_csv, g, tmp_path / "g.csv")
    r, w = os.pipe()
    with os.fdopen(w, "w") as f:
        f.write(text)
    try:
        back = read_grid_csv(f"/dev/fd/{r}")
    finally:
        os.close(r)
    assert_array_equal(back.values, g.values)


def test_witness_csv_matches_envelope(tmp_path):
    v = sample(parse_field("x1*x1 - y1", 1), Domain(BOX1), (5, 5, 5))
    r = upper_envelope(v, 0.5)
    lines = written(write_witness_csv, r, tmp_path / "w.csv").splitlines()
    assert lines[0] == "# res=5,5,5"
    assert lines[1] == "# eps=0.5"
    assert lines[2] == "# mode=upper"
    assert lines[3] == "node,witness"
    assert len(lines) == 4 + 125
    node, wit = lines[4].split(",")
    assert int(node) == 0
    assert int(wit) == r.witness.ravel()[0]


def test_classification_csv_layout(tmp_path):
    g = sample(parse_field("x1*x1 + y1*y1", 1), Domain(BOX1), (5, 5, 5))
    c = classify_grid(g, OperatorSpec(0.0, 0.0, 0.0), ConeSpec("trace"), side="sub")
    lines = written(write_classification_csv, c, tmp_path / "c.csv").splitlines()
    assert lines[0] == "# side=sub"
    assert lines[1] == "# res=5,5,5"
    assert lines[2] == "node,tag,margin"
    assert len(lines) == 3 + 125
    tags = {ln.split(",")[1] for ln in lines[3:]}
    assert tags <= set(TAG_NAMES)
    assert "SubOK" in tags and "Untestable" in tags


def test_residuals_csv_layout(tmp_path):
    lines = written(write_residuals_csv, [0.5, 0.25], tmp_path / "r.csv").splitlines()
    assert lines == ["sweep,residual", "1,0.5", "2,0.25"]


# The per-node writers the four formats were first defined by, kept as the
# reference the writers must match byte for byte.


def _fmt(x):
    return repr(float(x))


def reference_grid_csv(g):
    d = 2 * g.n + 1
    if d == 3:
        names = ("i", "j", "k", "x", "y", "t")
    else:
        names = (tuple(f"i{a+1}" for a in range(d)) + tuple(f"x{j+1}" for j in range(g.n))
                 + tuple(f"y{j+1}" for j in range(g.n)) + ("t",))
    lines = [f"# n={g.n}"]
    lines.append("# box=" + ",".join(f"{_fmt(lo)}..{_fmt(hi)}" for lo, hi in g.box))
    lines.append("# res=" + ",".join(str(r) for r in g.res))
    lines.append(",".join(names + ("value",)))
    axes = g.axes()
    for idx in np.ndindex(*g.res):
        coords = (axes[a][idx[a]] for a in range(d))
        lines.append(",".join(str(i) for i in idx) + "," + ",".join(_fmt(c) for c in coords)
                     + "," + _fmt(g.values[idx]))
    return "\n".join(lines) + "\n"


def reference_witness_csv(result):
    lines = ["# res=" + ",".join(str(r) for r in result.witness.shape)]
    lines.append(f"# eps={_fmt(result.eps)}")
    lines.append(f"# mode={result.mode}")
    lines.append("node,witness")
    lines.extend(f"{i},{int(w)}" for i, w in enumerate(result.witness.ravel()))
    return "\n".join(lines) + "\n"


def reference_classification_csv(c):
    lines = [f"# side={c.side}"]
    lines.append("# res=" + ",".join(str(r) for r in c.tags.shape))
    lines.append("node,tag,margin")
    tags, rho = c.tags.ravel(), c.rho.ravel()
    lines.extend(f"{i},{TAG_NAMES[tags[i]]},{_fmt(rho[i])}" for i in range(tags.size))
    return "\n".join(lines) + "\n"


def reference_residuals_csv(residuals):
    lines = ["sweep,residual"]
    lines.extend(f"{i + 1},{_fmt(r)}" for i, r in enumerate(residuals))
    return "\n".join(lines) + "\n"


# values whose repr is awkward: exponents, signed zero, subnormals, a NaN
AWKWARD = [1e-07, 1e300, 1e-300, -0.0, 0.0, 5e-324, -2.2250738585072014e-308,
           0.1 + 0.2, -np.pi, 2.0 / 3.0, 1e16, 123456789.0, np.nan]


def awkward_values(shape, seed=0):
    flat = rng.stream(seed).standard_normal(int(np.prod(shape)))
    flat[:len(AWKWARD)] = AWKWARD[:flat.size]
    return flat.reshape(shape)


@pytest.mark.parametrize(
    "n, box, res",
    [
        (1, BOX1, (6, 5, 4)),
        (1, [[0.0, 1e-07], [-1e300, 1e300], [-0.0, 3.0]], (2, 7, 3)),
        (2, [[-1.0, 1.0], [0.0, 0.3], [-2.5, 1e-05], [0.1, 0.7], [-1.0, 2.0]], (3, 2, 4, 3, 2)),
    ],
    ids=["n1", "n1_uneven_exponents", "n2_uneven"],
)
def test_grid_writer_matches_reference(tmp_path, n, box, res):
    g = GridField(n, np.array(box), awkward_values(res))
    p = tmp_path / "g.csv"
    write_grid_csv(g, p)
    assert p.read_bytes() == reference_grid_csv(g).encode()


def test_witness_writer_matches_reference(tmp_path):
    v = sample(parse_field("x1*x1 - y1", 1), Domain(BOX1), (5, 4, 6))
    for r in (upper_envelope(v, 0.5),
              SimpleNamespace(witness=np.arange(24).reshape(2, 3, 4)[..., ::-1], eps=1e-07,
                              mode="lower")):
        p = tmp_path / "w.csv"
        write_witness_csv(r, p)
        assert p.read_bytes() == reference_witness_csv(r).encode()


def test_classification_writer_matches_reference(tmp_path):
    shape = (4, 3, 5)
    tags = (np.arange(60) % len(TAG_NAMES)).astype(np.int8).reshape(shape)
    c = Classification("super", tags, awkward_values(shape, seed=1), {}, {})
    p = tmp_path / "c.csv"
    write_classification_csv(c, p)
    assert p.read_bytes() == reference_classification_csv(c).encode()
    assert {ln.split(",")[1] for ln in p.read_text().splitlines()[3:]} == set(TAG_NAMES)


@pytest.mark.parametrize(
    "residuals",
    [[], [0.5], np.array(AWKWARD), [np.float64(0.25), 1, 3e-310]],
    ids=["empty", "one", "awkward", "mixed"],
)
def test_residuals_writer_matches_reference(tmp_path, residuals):
    p = tmp_path / "r.csv"
    write_residuals_csv(residuals, p)
    assert p.read_bytes() == reference_residuals_csv(residuals).encode()


def base_problem_json():
    return {
        "domain": {"n": 1, "box": [[-1.0, 1.0]] * 3},
        "resolution": [7, 7, 7],
        "operator": {"alpha": 0.0, "beta": 0.0, "gamma": 0.0, "m": 2.0},
        "cone": {"family": "trace"},
        "boundary": "x1",
        "bracket": {"scale": 0.3},
    }


def test_problem_json_bracket_recipe(tmp_path):
    p = tmp_path / "prob.json"
    p.write_text(json.dumps(base_problem_json()))
    prob = load_problem(p)
    assert prob.spec.is_constant
    assert prob.cone.family == "trace"
    assert prob.res == (7, 7, 7)
    res = solve(prob)
    assert res.converged


def test_problem_json_explicit_grids(tmp_path):
    data = base_problem_json()
    g = parse_field("x1", 1)
    v, w = bracket_from_boundary(g, Domain(BOX1), (7, 7, 7), 0.3)
    write_grid_csv(v, tmp_path / "v.csv")
    write_grid_csv(w, tmp_path / "w.csv")
    del data["bracket"]
    data["sub"] = "v.csv"
    data["sup"] = "w.csv"
    p = tmp_path / "prob.json"
    p.write_text(json.dumps(data))
    prob = load_problem(p)
    assert_array_equal(prob.sub.values, v.values)
    assert_array_equal(prob.sup.values, w.values)


@pytest.mark.parametrize(
    "side, res, box, message",
    [
        ("sub", (9, 7, 11), BOX1, r"sub holds a 9x7x11 grid on \[\[-1.0, 1.0\], \[-1.0, 1.0\], "
                                  r"\[-1.0, 1.0\]\], not the resolution \[7, 7, 7\]"),
        ("sup", (7, 7, 7), 3.0 * BOX1, r"sup holds a 7x7x7 grid on \[\[-3.0, 3.0\], "),
        ("both", (7, 7, 7, 7, 7), np.array([[-1.0, 1.0]] * 5), r"sub holds a 7x7x7x7x7 grid"),
    ],
    ids=["resolution", "box", "n"],
)
def test_problem_json_refuses_grids_off_its_lattice(tmp_path, side, res, box, message):
    # explicit grids must sit on the lattice that resolution and domain.box name
    data = base_problem_json()
    del data["bracket"]
    g = parse_field("x1", 1)
    v, w = bracket_from_boundary(g, Domain(BOX1), (7, 7, 7), 0.3)
    other = sample(parse_field("x1", (len(box) - 1) // 2), Domain(box), res)
    write_grid_csv(other if side in ("sub", "both") else v, tmp_path / "v.csv")
    write_grid_csv(other if side in ("sup", "both") else w, tmp_path / "w.csv")
    data["sub"], data["sup"] = "v.csv", "w.csv"
    with pytest.raises(ValueError, match="^problem JSON: " + message):
        problem_from_json(data, base=tmp_path)


@pytest.mark.parametrize(
    "drop, path",
    [
        ("cone", "cone"),
        ("operator", "operator"),
        ("boundary", "boundary"),
        ("resolution", "resolution"),
        ("domain", "domain"),
        ("bracket", "'sub'/'sup' or 'bracket'"),
    ],
)
def test_problem_json_missing_field_names_path(drop, path):
    data = base_problem_json()
    del data[drop]
    with pytest.raises(ValueError, match="missing required field") as exc:
        problem_from_json(data)
    assert path in str(exc.value)


def test_problem_json_nested_missing_field():
    data = base_problem_json()
    del data["domain"]["n"]
    with pytest.raises(ValueError, match="domain.n"):
        problem_from_json(data)
    data = base_problem_json()
    del data["cone"]["family"]
    with pytest.raises(ValueError, match="cone.family"):
        problem_from_json(data)


@pytest.mark.parametrize(
    "path, value",
    [
        ("cone.k", 2.7),
        ("cone.k", True),
        ("resolution[1]", 5.9),
        ("resolution[0]", True),
        ("domain.n", 1.6),
        ("domain.n", "1"),
        ("operator.alpha", True),
        ("operator.gamma", [1.0]),
        ("operator.m", "2"),
        ("domain.n", 0),
        ("resolution[1]", 1),
    ],
)
def test_problem_json_refuses_values_it_would_truncate(path, value):
    data = base_problem_json()
    if path == "cone.k":
        data["cone"] = {"family": "sigma_k", "k": value}
    elif path.startswith("resolution"):
        data["resolution"][int(path[-2])] = value
    else:
        section, key = path.split(".")
        data[section][key] = value
    with pytest.raises(ValueError, match=re.escape(path)):
        problem_from_json(data)


@pytest.mark.parametrize("value", [True, "0.3", None, [0.3], float("nan"), float("inf"), 10**400],
                         ids=["bool", "string", "null", "list", "nan", "inf", "huge_int"])
@pytest.mark.parametrize("path", ["cone.tol", "bracket.scale", "domain.box[1][0]"])
def test_problem_json_refuses_non_numbers(path, value):
    data = base_problem_json()
    if path == "domain.box[1][0]":
        data["domain"]["box"] = [[-1.0, 1.0], [value, 1.0], [-1.0, 1.0]]
    else:
        section, key = path.split(".")
        data[section][key] = value
    with pytest.raises(ValueError, match=re.escape(f"{path} must be a finite number")):
        problem_from_json(data)


@pytest.mark.parametrize("box", [[[-1.0, 1.0]] * 2, [[-1.0, 1.0]] * 4,
                                 [[-1.0, 1.0], [-1.0, 0.0, 1.0], [-1.0, 1.0]], "box", 1.0],
                         ids=["too_few", "too_many", "triple", "string", "number"])
def test_problem_json_refuses_box_of_wrong_shape(box):
    data = base_problem_json()
    data["domain"]["box"] = box
    with pytest.raises(ValueError, match=re.escape("domain.box must be 3 [lo, hi] pairs")):
        problem_from_json(data)


def test_problem_json_accepts_integral_floats():
    data = base_problem_json()
    data["domain"]["n"] = 1.0
    data["resolution"] = [5.0, 5, 5]
    data["cone"] = {"family": "sigma_k", "k": 2.0}
    prob = problem_from_json(data)
    assert prob.cone.k == 2 and isinstance(prob.cone.k, int)
    assert prob.sub.res == (5, 5, 5)


def test_problem_json_operator_constants_round_trip():
    data = base_problem_json()
    data["operator"] = {"alpha": 1, "beta": 0.5, "gamma": 1.0}
    spec = problem_from_json(data).spec
    assert spec == OperatorSpec(alpha=1.0, beta=0.5, gamma=1.0, m=2.0)
    assert isinstance(spec.alpha, float)
    data["operator"] = {"alpha": spec.alpha, "beta": spec.beta, "gamma": spec.gamma, "m": spec.m}
    assert problem_from_json(json.loads(json.dumps(data))).spec == spec


@pytest.mark.parametrize("name", ["alpha", "beta", "gamma"])
def test_problem_json_operator_missing_fields(name):
    data = base_problem_json()
    del data["operator"][name]
    with pytest.raises(ValueError, match=re.escape(f"missing required field 'operator.{name}'")):
        problem_from_json(data)


@pytest.mark.parametrize("text", ["x1 + 2.0*s", "0.1*x1", "0.5"])
def test_problem_json_refuses_expression_coefficients(text):
    # no command solves or classifies with expression coefficients
    data = base_problem_json()
    data["operator"]["beta"] = text
    with pytest.raises(ValueError) as exc:
        problem_from_json(data)
    message = str(exc.value)
    assert message.startswith("problem JSON: operator.beta must be a finite number")
    assert "constant coefficients" in message and "ROADMAP item 2(c)" in message


def test_problem_json_rejects_expression_operator():
    data = base_problem_json()
    data["operator"]["alpha"] = "s"
    with pytest.raises(ValueError, match="constant"):
        problem_from_json(data)


def test_problem_json_rejects_bad_file(tmp_path):
    p = tmp_path / "prob.json"
    p.write_text("{not json")
    with pytest.raises(ValueError, match="not valid JSON"):
        load_problem(p)
