"""No module of the package imports a name it never uses, none
defines a private top-level function or class it never uses, none
but the field and the oracle ask for the full discrete-log table or
the Zech table, none but the grammar (text) imports re, none but the field
takes single discrete logs or builds an FqElem from coefficients, none
composes cycle indices by general substitution, only eval_cyclotomic
finds cosets by field powers, outside the field only
wreath.cyclotomic_to_wreath takes a batch of discrete logs, the
CLI never enumerates a group element by element, and the oracle calls
none of the cycle-type formulas it checks.

__init__.py is exempt from the import check: it imports names to
re-export them.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "cycloperm"
ALL_MODULES = sorted(p.name for p in SRC.glob("*.py"))
MODULES = [name for name in ALL_MODULES if name != "__init__.py"]


def _annotation_names(node):
    """Names inside a string annotation such as -> "AffineMapZ | None"."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            tree = ast.parse(node.value, mode="eval")
        except SyntaxError:
            return set()
        return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return set()


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg):
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            used |= _annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            used |= _annotation_names(node.annotation)
    return sorted(imported - used)


def test_unused_imports_detector():
    source = ("from __future__ import annotations\nimport math\nimport re\n"
              "from .a import B, C\n"
              "def f(x: 'B') -> re.Pattern:\n    return x\n")
    assert unused_imports(source) == ["C", "math"]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((SRC / module).read_text()) == []


def imports_module(source: str, name: str) -> bool:
    """Whether the source imports the top-level module name anywhere,
    inside a function too."""
    return any(isinstance(node, ast.Import)
               and any(a.name.split(".")[0] == name for a in node.names)
               or isinstance(node, ast.ImportFrom) and not node.level
               and node.module.split(".")[0] == name
               for node in ast.walk(ast.parse(source)))


def test_imports_module_detector():
    assert imports_module("def f():\n    import re\n    return re\n", "re")
    assert imports_module("import math, re as r\n", "re")
    assert imports_module("from re import fullmatch\n", "re")
    assert not imports_module("import regex\nfrom .re import x\n"
                              "from .text import split\nre = 1\n", "re")


@pytest.mark.parametrize("module", [m for m in ALL_MODULES if m != "text.py"])
def test_only_the_grammar_imports_re(module):
    # every parser reads its text through text.py: one splitter, one
    # whitespace rule and one ASCII-integer rule
    assert not imports_module((SRC / module).read_text(), "re")


def unreferenced_privates(source: str) -> list[str]:
    """Top-level _private functions and classes no name in the module uses."""
    tree = ast.parse(source)
    private = {node.name for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                    ast.ClassDef))
               and node.name.startswith("_") and not node.name.endswith("__")}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(private - used)


def test_unreferenced_privates_detector():
    source = ("def _used():\n    pass\n"
              "def _dead(x):\n    return x\n"
              "class _Gone:\n    pass\n"
              "def public():\n    return _used()\n")
    assert unreferenced_privates(source) == ["_Gone", "_dead"]


@pytest.mark.parametrize("module", ALL_MODULES)
def test_no_unreferenced_privates(module):
    assert unreferenced_privates((SRC / module).read_text()) == []


def nodes_inside(tree, function: str) -> set[int]:
    """ids of the nodes in the body of a top-level function."""
    return {id(node) for top in tree.body
            if isinstance(top, ast.FunctionDef) and top.name == function
            for node in ast.walk(top)}


def calls_of(source: str, name: str, outside: str | None = None) -> int:
    """Calls of anything with the given name, as a function or a method,
    outside the body of the top-level function named by outside."""
    tree = ast.parse(source)
    exempt = nodes_inside(tree, outside) if outside else set()
    return sum(1 for node in ast.walk(tree)
               if isinstance(node, ast.Call) and id(node) not in exempt
               and name in (getattr(node.func, "attr", None),
                            getattr(node.func, "id", None)))


def test_dlog_table_calls_detector():
    source = ("def dlog_table():\n    return {}\n"
              "t = cfg.dlog_table()\nu = dlog_table()\nv = cfg.dlog_table\n")
    assert calls_of(source, "dlog_table") == 2


def test_dlog_calls_detector():
    source = ("from .field import dlog\n"
              "a = dlog(cfg, w, x)\nb = field.dlog(cfg, w, x)\n"
              "c = cfg.dlogs([x])\nd = dlog\n")
    assert calls_of(source, "dlog") == 2


@pytest.mark.parametrize("module", [m for m in ALL_MODULES if m != "oracle.py"])
def test_only_the_oracle_builds_the_full_dlog_table(module):
    # the full table costs q-1 products; printing and dlog use dlogs
    assert calls_of((SRC / module).read_text(), "dlog_table") == 0


LOG_TABLES = ("dlog_table", "zech_table")


def test_log_table_calls_detector():
    source = ("def zech_table(cfg):\n    return cfg.dlog_table()\n"
              "z = cfg.zech_table()\nt = zech_table(cfg)\n"
              "u = cfg.zech_table\nv = cfg.dlog_table\n")
    assert [calls_of(source, table) for table in LOG_TABLES] == [1, 2]


@pytest.mark.parametrize("table", LOG_TABLES)
@pytest.mark.parametrize("module", [m for m in ALL_MODULES
                                    if m not in ("field.py", "oracle.py")])
def test_only_the_oracle_walk_reads_the_log_tables(module, table):
    # each table costs q-1 field operations to build; only the oracle's
    # walk over all of F_q needs every log and every Zech log
    assert calls_of((SRC / module).read_text(), table) == 0


@pytest.mark.parametrize("module", [m for m in ALL_MODULES if m != "field.py"])
def test_only_the_field_takes_single_dlogs(module):
    # package code logs in FqConfig.dlogs batches; each dlog call is a
    # batch of its own, with its own giant steps
    assert calls_of((SRC / module).read_text(), "dlog") == 0


def test_fqelem_calls_detector():
    source = ("from .field import FqElem\n"
              "a = FqElem(cfg, [1, 0])\nb = field.FqElem(cfg, (0, 1))\n"
              "c = isinstance(x, FqElem)\nd: FqElem = cfg.one\n")
    assert calls_of(source, "FqElem") == 2


@pytest.mark.parametrize("module", [m for m in ALL_MODULES if m != "field.py"])
def test_only_the_field_builds_elements_from_coefficients(module):
    # elements are packed ints; FqElem(cfg, coeffs) packs a coefficient
    # vector, which only I/O inside the field needs
    assert calls_of((SRC / module).read_text(), "FqElem") == 0


def general_composition_calls(source: str) -> int:
    """Calls of .substitute(...) or polya_compose(...), outside the body
    of polya_compose itself."""
    tree = ast.parse(source)
    exempt = nodes_inside(tree, "polya_compose")
    return sum(1 for node in ast.walk(tree)
               if isinstance(node, ast.Call) and id(node) not in exempt
               and (getattr(node.func, "attr", None) == "substitute"
                    or getattr(node.func, "id", None) == "polya_compose"))


def test_general_composition_calls_detector():
    source = ("def polya_compose(top, base):\n"
              "    return top.substitute([base])\n"
              "a = polya_compose(x, y)\nb = x.substitute([y])\n"
              "c = x.substitute\nd = x.stretch(2)\n")
    assert general_composition_calls(source) == 2


@pytest.mark.parametrize("module", ALL_MODULES)
def test_no_general_composition_in_the_package(module):
    # every Sym(d) composition goes through cycle_index._sym_substitute;
    # polya_compose and CycleIndex.substitute are references for tests
    assert general_composition_calls((SRC / module).read_text()) == 0


def test_coset_index_calls_detector():
    source = ("def eval_cyclotomic(f, x):\n"
              "    return f.a[f.ctx.coset_index(x)]\n"
              "def coset_map_of(f):\n"
              "    return [ctx.coset_index(y) for y in f.a]\n"
              "b = coset_index(x)\nc = ctx.coset_index\n")
    assert calls_of(source, "coset_index", outside="eval_cyclotomic") == 2


@pytest.mark.parametrize("module", ALL_MODULES)
def test_only_eval_cyclotomic_finds_cosets_by_field_powers(module):
    # coset maps are read off dlogs batches: (L_i + r_i*i) mod d;
    # coset_index, one field power per point, is the pointwise definition
    assert calls_of((SRC / module).read_text(), "coset_index",
                    outside="eval_cyclotomic") == 0


def test_dlogs_calls_detector():
    source = ("def cyclotomic_to_wreath(f):\n"
              "    return f.ctx.field.dlogs(f.a)\n"
              "def _screen_permutation(f):\n"
              "    return cfg.dlogs(f.a)\n"
              "b = dlogs([x])\nc = cfg.dlogs\n")
    assert calls_of(source, "dlogs", outside="cyclotomic_to_wreath") == 2


@pytest.mark.parametrize("module", [m for m in ALL_MODULES if m != "field.py"])
def test_only_the_wreath_switch_takes_dlogs_batches(module):
    # a form's branch logs are its wreath form: cyclotomic_to_wreath
    # takes them once and every later stage reads the wreath element
    exempt = "cyclotomic_to_wreath" if module == "wreath.py" else None
    assert calls_of((SRC / module).read_text(), "dlogs",
                    outside=exempt) == 0


def test_cli_builds_no_object_per_group_element():
    # the CLI's brute-force checks go through oracle.ci_brute_group and
    # oracle.check_rep_system, which walk each group once per top
    # permutation; enumerate_group builds a WreathElem per element
    assert calls_of((SRC / "cli.py").read_text(), "enumerate_group") == 0


INVARIANT_BUILDERS = ("conjugacy_invariant", "invariant_of")


def test_invariant_calls_detector():
    source = ("from .conjugacy import conjugacy_invariant\n"
              "a = conjugacy_invariant(g, 'W')\n"
              "b = conjugacy.invariant_of(t, ls, ps, m)\n"
              "c = invariant_of(t, ls, ps, m, 5)\nd = conjugacy_invariant\n")
    assert [calls_of(source, name) for name in INVARIANT_BUILDERS] == [1, 2]


@pytest.mark.parametrize("name", INVARIANT_BUILDERS)
def test_cli_reads_no_conjugacy_invariant(name):
    # the invariant's layout is conjugacy's own: distinguished_by names
    # the part that tells two elements apart, and the CLI prints it
    assert calls_of((SRC / "cli.py").read_text(), name) == 0


def closed_forms() -> list[str]:
    """The cycle-type and cycle-index formulas: fcp, the cycle types of
    affine maps and wreath elements, stretching, and cycle_index's ci_*
    closed forms, read off the module so a new one is covered."""
    tree = ast.parse((SRC / "cycle_index.py").read_text())
    return ["fcp", "cycle_type_affine", "cycle_type_wreath", "stretch"] + sorted(
        node.name for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("ci_"))


def test_closed_forms_cover_the_cycle_index_formulas():
    assert {"ci_sym", "ci_hol", "ci_gcp", "ci_focp", "ci_cp"} <= set(closed_forms())


@pytest.mark.parametrize("name", closed_forms())
def test_the_oracle_calls_no_closed_form(name):
    # the oracle is the ground truth for these formulas: a walk that
    # called one would check the theorem against itself
    assert calls_of((SRC / "oracle.py").read_text(), name) == 0
