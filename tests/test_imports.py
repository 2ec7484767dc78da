"""Every imported name is read somewhere in the module that imports it."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*ROOT.glob("src/sunet/*.py"), *ROOT.glob("tests/*.py")])

# bench/tracing.py patches these two names on sunet.metrics, and raises if
# they are missing; they go once its tracer stops patching by name
# (ROADMAP item 0)
KEPT = {("metrics.py", "copy_shared"), ("metrics.py", "rebuild_for_input")}


def unread_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    # a package re-exports what it lists in __all__
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            read |= {e.value for e in node.value.elts}
    return [name for name in imported
            if name not in read and (path.name, name) not in KEPT]


def test_no_unread_imports():
    assert len(MODULES) > 20
    unread = {f"{p.parent.name}/{p.name}": unread_imports(p) for p in MODULES}
    assert {k: v for k, v in unread.items() if v} == {}
