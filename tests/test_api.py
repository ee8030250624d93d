"""The public surface of the package, and rules its sources keep."""

import ast
import re
import types
from pathlib import Path

import qcgroups

PACKAGE = Path(qcgroups.__file__).resolve().parent
SCRIPTS = PACKAGE.parent.parent / "scripts"


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_all_is_an_explicit_list():
    assigned = [node.value for node in _tree(PACKAGE / "__init__.py").body
                if isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)]
    assert len(assigned) == 1
    value = assigned[0]
    assert isinstance(value, ast.List)
    assert all(isinstance(e, ast.Constant) and isinstance(e.value, str) for e in value.elts)
    assert [e.value for e in value.elts] == qcgroups.__all__
    assert len(set(qcgroups.__all__)) == len(qcgroups.__all__)


def test_exported_names_resolve_and_are_not_modules():
    for name in qcgroups.__all__:
        assert hasattr(qcgroups, name), name
        assert not isinstance(getattr(qcgroups, name), types.ModuleType), name


def test_every_exported_name_is_used():
    # a name counts as used where library code or a script refers to it;
    # its own def/class line and the package's re-export do not count
    sources = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    sources += sorted(SCRIPTS.glob("*.py"))
    used = {node.id for path in sources for node in ast.walk(_tree(path))
            if isinstance(node, ast.Name)}
    assert sorted(set(qcgroups.__all__) - used) == []


def test_only_circle_and_cli_refer_to_render_point():
    # how a point is printed is the CLI's decision, made with circle's writers:
    # the point writer and its array forms
    writers = {"render_point", "render_points", "signed_residues"}

    def refers(node):
        return ((isinstance(node, ast.Name) and node.id in writers)
                or (isinstance(node, ast.Attribute) and node.attr in writers)
                or (isinstance(node, ast.alias) and node.name in writers))

    found = sorted({path.name for path in PACKAGE.glob("*.py")
                    for node in ast.walk(_tree(path)) if refers(node)})
    assert set(found) <= {"circle.py", "cli.py"}, found


def test_library_reads_no_environment():
    # every bound is in the code, so the same call gives the same answer everywhere
    def reads(node):
        return ((isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                 and node.value.id == "os" and node.attr in ("environ", "environb", "getenv"))
                or (isinstance(node, ast.ImportFrom) and node.module == "os"
                    and any(a.name in ("environ", "environb", "getenv") for a in node.names)))

    found = [f"{path.name}:{node.lineno}" for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(_tree(path)) if reads(node)]
    assert found == []


def test_library_has_no_assert():
    # checks must survive python -O, which strips assert statements
    found = [f"{path.name}:{node.lineno}" for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(_tree(path)) if isinstance(node, ast.Assert)]
    assert found == []


def test_library_has_no_floats():
    # exact arithmetic only: no float literal, no float( or round( call and no
    # float dtype; the one float is CriterionResult.seconds, a timing, allowed by name
    float_dtypes = re.compile(r"float\d*|float_|floating|double|longdouble|single|half|f[248]|[<>=]f[248]")
    allowed = {("acceptance.py", "CriterionResult", "seconds")}

    def floats(path):
        tree = _tree(path)
        exempt = {id(node.annotation) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                  for node in cls.body if isinstance(node, ast.AnnAssign)
                  and isinstance(node.target, ast.Name)
                  and (path.name, cls.name, node.target.id) in allowed}
        for node in ast.walk(tree):
            if id(node) in exempt:
                continue
            if ((isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)))
                    or (isinstance(node, ast.Constant) and isinstance(node.value, str)
                        and float_dtypes.fullmatch(node.value))
                    or (isinstance(node, ast.Name) and node.id in ("float", "round"))
                    or (isinstance(node, ast.Attribute) and float_dtypes.fullmatch(node.attr))):
                yield f"{path.name}:{node.lineno}"

    found = [where for path in sorted(PACKAGE.glob("*.py")) for where in floats(path)]
    assert found == []
