"""Source hygiene: no module imports a name it never uses, no function
keeps a local or (at module level) a parameter it never reads, no public
function or class of the package is there only for the tests (none is
exempt), every
eigenvalue the program computes, every JSON text it reads or writes and
the lattice discretisation come from one place each, the package runs on
numpy alone, and the golden-file script still writes the goldens."""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src/heisvisc", "tests", "scripts")
# unread locals and parameters are looked for in the program only: test
# functions take pytest fixtures they need for their side effects
PROGRAM = ("src/heisvisc", "scripts")
# files whose reads keep a public name of the package alive: the tests do not
PUBLIC_READERS = ("src/heisvisc", "scripts", "perfbench")
# the one eigen path (cones.spectrum); the tests may still call LAPACK as
# the reference it is checked against
EIGEN_HOME = "src/heisvisc/cones.py"
# the one JSON codec; the tests and perfbench encode and decode JSON freely
JSON_HOME = "src/heisvisc/gridio.py"
_JSON_CODEC = {"dump", "dumps", "load", "loads"}
# the one lattice scheme (viscosity.GridOperator): these names are read
# there and in the modules listed with them only; envelopes takes the
# stencil for check_semiconvexity's Euclidean Hessian
SCHEME_HOME = "viscosity"
SCHEME_NAMES = {
    "central_differences": {"fields", "envelopes"},
    "contract_transpose": {"operators"},
    "gradient_term_transpose": {"operators"},
    "newton_gradient": {"cones"},
    "newton_values": {"cones"},
    "band_from_entries": {"cones"},
}
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
_DEFINITIONS = _FUNCTIONS + (ast.ClassDef,)
_SCOPES = _FUNCTIONS + (ast.Lambda, ast.ClassDef, ast.ListComp, ast.SetComp,
                        ast.DictComp, ast.GeneratorExp)


def unused_imports(path):
    """(line, name) of each imported name the module never reads.

    A name listed in the module's ``__all__`` counts as used.
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def _own_scope(fn):
    """Nodes of a function body, not descending into nested scopes."""
    stack = list(fn.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def _reads(nodes):
    """Names a set of statements reads; ``del x`` and ``x += ...`` count."""
    read = set()
    for top in nodes:
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, (ast.Load, ast.Del)):
                read.add(node.id)
            elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
                read.add(node.target.id)
    return read


def unread_names(path):
    """(line, name) of each function local assigned but never read, and of
    each parameter of a module-level function that its body never reads.

    Names starting with an underscore are exempt, and so are the parameters
    of methods, which keep the signature their class shares.
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    found = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, _FUNCTIONS):
            continue
        read = _reads(fn.body)
        own = list(_own_scope(fn))
        declared = {name for node in own if isinstance(node, (ast.Global, ast.Nonlocal))
                    for name in node.names}
        found |= {(node.lineno, node.id) for node in own
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
                  and node.id not in read | declared and not node.id.startswith("_")}
    for fn in tree.body:
        if isinstance(fn, _FUNCTIONS):
            args = fn.args
            params = args.posonlyargs + args.args + args.kwonlyargs
            params += [a for a in (args.vararg, args.kwarg) if a is not None]
            read = _reads(fn.body)
            found |= {(a.lineno, a.arg) for a in params
                      if a.arg not in read and not a.arg.startswith("_")}
    return sorted(found)


def test_no_unused_imports():
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for top in SCANNED
        for path in sorted((ROOT / top).rglob("*.py"))
        for line, name in unused_imports(path)
    ]
    assert not found, "unused imports:\n" + "\n".join(found)


def test_scan_sees_unused_and_exported_names(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text(
        "import os\nimport numpy.linalg\nfrom json import dumps, loads as ld\n"
        "__all__ = ['dumps']\nnumpy.linalg.norm\n"
    )
    assert unused_imports(src) == [(1, "os"), (3, "ld")]


def test_no_unread_locals_or_parameters():
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for top in PROGRAM
        for path in sorted((ROOT / top).rglob("*.py"))
        for line, name in unread_names(path)
    ]
    assert not found, "names assigned or passed but never read:\n" + "\n".join(found)


def test_scan_sees_unread_locals_and_parameters(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text(
        "def f(a, b, *rest, c=1, _d=2, **kw):\n"        # 1: b, rest, c, kw unread
        "    x, y = a, 0\n"                              # 2: y unread
        "    for i, _ in enumerate(x):\n"                # 3: i unread
        "        z = [k for k in x]\n"                   # 4: z unread
        "    total = 0\n"
        "    total += 1\n"
        "    gone = 1\n"
        "    del gone\n"
        "    def inner(p):\n"                            # nested: p is exempt
        "        w = x\n"                                # 10: w unread
        "        return total\n"
        "    return inner\n"
        "class C:\n"
        "    def method(self, unused):\n"                # methods are exempt
        "        kept = 1\n"                             # 15: kept unread
        "        return self\n"
    )
    assert unread_names(src) == [
        (1, "b"), (1, "c"), (1, "kw"), (1, "rest"), (2, "y"), (3, "i"), (4, "z"),
        (10, "w"), (15, "kept"),
    ]


def _module_reads(tree):
    """Names a module reads as names, attributes or imports, leaving out
    ``__all__`` and each top-level definition's reads of its own name."""
    read = set()
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets
        ):
            continue
        found = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                found.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                found.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                found |= {alias.name for alias in node.names}
        if isinstance(stmt, _DEFINITIONS):
            found.discard(stmt.name)
        read |= found
    return read


def unread_public_names(package, readers):
    """``module.name`` of each public top-level function or class of the
    modules in ``package`` that no file under ``readers`` reads."""
    read = set()
    for top in readers:
        for path in sorted(top.rglob("*.py")):
            read |= _module_reads(ast.parse(path.read_text(), filename=str(path)))
    return sorted(
        f"{path.stem}.{stmt.name}"
        for path in sorted(package.glob("*.py"))
        for stmt in ast.parse(path.read_text(), filename=str(path)).body
        if isinstance(stmt, _DEFINITIONS) and not stmt.name.startswith("_")
        and stmt.name not in read
    )


def test_no_public_name_only_tests_use():
    found = unread_public_names(ROOT / "src/heisvisc", [ROOT / p for p in PUBLIC_READERS])
    assert not found, "public names no program file reads:\n" + "\n".join(found)


def test_scan_sees_public_names_only_tests_read(tmp_path):
    pkg, other = tmp_path / "pkg", tmp_path / "scripts"
    pkg.mkdir()
    other.mkdir()
    (pkg / "mod.py").write_text(
        "from .dep import helper\n"
        "__all__ = ['listed', 'used', 'Kept']\n"
        "def used():\n    return helper()\n"
        "def listed():\n    return 1\n"
        "def recursive(k):\n    return recursive(k - 1) if k else used()\n"
        "def _private():\n    return 0\n"
        "class Kept:\n    pass\n"
        "class Lonely:\n    def method(self):\n        return Lonely\n"
    )
    (pkg / "dep.py").write_text("def helper():\n    return 2\n")
    (other / "run.py").write_text("import mod\nprint(mod.Kept)\n")
    assert unread_public_names(pkg, [pkg, other]) == [
        "mod.Lonely", "mod.listed", "mod.recursive"]


def _is_linalg(node):
    return (isinstance(node, ast.Attribute) and node.attr == "linalg") or (
        isinstance(node, ast.Name) and node.id == "linalg")


def eigen_calls(path):
    """(line, name) of each eigen routine a module reads from a ``linalg``
    namespace (numpy's or scipy's), by attribute or by import."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr.startswith("eig") and _is_linalg(
                node.value):
            found.add((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").endswith("linalg"):
            found |= {(node.lineno, a.name) for a in node.names if a.name.startswith("eig")}
    return sorted(found)


def test_eigenvalues_come_from_cones_only():
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for top in PROGRAM
        for path in sorted((ROOT / top).rglob("*.py"))
        if path != ROOT / EIGEN_HOME
        for line, name in eigen_calls(path)
    ]
    assert not found, "eigen routines called outside cones.py:\n" + "\n".join(found)


def test_scan_sees_eigen_calls(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text(
        "import numpy as np\nimport scipy.linalg\nfrom numpy import linalg\n"
        "from numpy.linalg import eigh, norm\n"
        "np.linalg.eigvalsh(a)\nscipy.linalg.eig(a)\nlinalg.eigvals(a)\nnp.linalg.norm(a)\n"
    )
    assert eigen_calls(src) == [(4, "eigh"), (5, "eigvalsh"), (6, "eig"), (7, "eigvals")]


def scheme_reads(path):
    """(line, name) of each name in ``SCHEME_NAMES`` a module reads by
    import or as an attribute."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in SCHEME_NAMES:
            found.add((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom):
            found |= {(node.lineno, a.name) for a in node.names if a.name in SCHEME_NAMES}
    return sorted(found)


def test_discretisation_lives_in_the_scheme_only():
    package = ROOT / "src/heisvisc"
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for top in PROGRAM
        for path in sorted((ROOT / top).rglob("*.py"))
        for line, name in scheme_reads(path)
        if path.parent != package or path.stem not in {SCHEME_HOME} | SCHEME_NAMES[name]
    ]
    assert not found, "discretisation read outside viscosity.GridOperator:\n" + "\n".join(found)


def test_scan_sees_scheme_reads(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text(
        "from .cones import ConeSpec, newton_values\nfrom . import operators as ops\n"
        "from .fields import (central_differences,\n    sample)\n"
        "ops.contract_transpose(G)\nops.contract(G)\nnewton_gradient = 1\n"
        "x.band_from_entries\n"
    )
    assert scheme_reads(src) == [(1, "newton_values"), (3, "central_differences"),
                                 (5, "contract_transpose"), (8, "band_from_entries")]


def json_calls(path):
    """(line, name) of each ``json`` encoder or decoder a module reads, by
    attribute or by import."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in _JSON_CODEC
                and isinstance(node.value, ast.Name) and node.value.id == "json"):
            found.add((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom) and node.module == "json":
            found |= {(node.lineno, a.name) for a in node.names if a.name in _JSON_CODEC}
    return sorted(found)


def test_json_text_comes_from_gridio_only():
    found = [
        f"{path.relative_to(ROOT)}:{line}: json.{name}"
        for path in sorted((ROOT / "src/heisvisc").rglob("*.py"))
        if path != ROOT / JSON_HOME
        for line, name in json_calls(path)
    ]
    assert not found, "JSON encoded or decoded outside gridio.py:\n" + "\n".join(found)


def test_scan_sees_json_calls(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text(
        "import json\nfrom json import loads, JSONDecodeError\n"
        "json.dumps(a)\njson.load(f)\nx.dumps(a)\njson.JSONDecodeError\njson.dump(a, f)\n"
    )
    assert json_calls(src) == [(2, "loads"), (3, "dumps"), (4, "load"), (7, "dump")]


def scipy_imports(path):
    """Lines of a module that import ``scipy`` or any of its submodules."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            names = [node.module]
        else:
            continue
        if any(n == "scipy" or n.startswith("scipy.") for n in names):
            found.append(node.lineno)
    return found


def test_no_scipy_imports():
    # numpy is the one runtime dependency: importing scipy.ndimage alone
    # cost about a third of a second and 26 MB on every command's start-up
    found = [
        f"{path.relative_to(ROOT)}:{line}"
        for path in sorted((ROOT / "src").rglob("*.py"))
        for line in scipy_imports(path)
    ]
    assert not found, "scipy imported under src/:\n" + "\n".join(found)


def test_scan_sees_scipy_imports(tmp_path):
    src = tmp_path / "m.py"
    src.write_text(
        "import scipy.sparse.linalg\nfrom scipy.sparse.linalg import gmres\n"
        "from scipy.sparse import linalg\nimport scipy.sparse\nfrom scipy import ndimage\n"
        "import scipy\nimport numpy as np, scipy as sp\nimport scipyx\nfrom . import scipy\n"
        "from .scipy import label\n"
    )
    assert scipy_imports(src) == [1, 2, 3, 4, 5, 6, 7]


def test_cli_import_loads_no_scipy():
    # catches scipy pulled in through another package, which the scan of
    # the package's own imports cannot see
    code = (
        f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import heisvisc.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"


def test_golden_script_writes_the_goldens(tmp_path):
    # the scans above read the script's imports but never run it
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, str(ROOT / "scripts/run_envelope_demo.py"),
                    "--golden-dir", str(tmp_path)], capture_output=True, check=True, env=env)
    golden = ROOT / "tests/golden"
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        p.name for p in golden.glob("*.csv"))
    for path in tmp_path.iterdir():
        assert path.read_bytes() == (golden / path.name).read_bytes(), path.name
