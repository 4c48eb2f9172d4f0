"""No dead code in the package: every function, class, method and
module-level constant defined under src/remnant is named somewhere
outside the tests, and every module-level import of a package module is
used by that module.  Every on-disk bytes value the package names is
written by that name only, and every indented JSON document goes through
the one report writer."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "remnant"
# Code only the tests call is dead code, so the tests are not searched.
SEARCHED = [ROOT / d for d in ("src", "demos", "bench")]
# Overrides that a base class from outside the package calls by name.
CALLED_BY_BASE = {"error"}      # cli.Parser.error, argparse's usage hook


def _trees(dirs):
    for top in dirs:
        for path in sorted(top.rglob("*.py")):
            yield path, ast.parse(path.read_text(encoding="utf-8"), str(path))


def _names(node):
    """Every identifier under ``node``: names, attributes, imported names,
    and identifier-like strings (the benchmark probe looks functions up
    by name)."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name.rpartition(".")[2]
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) \
                and sub.value.isidentifier():
            yield sub.value


def _where(path, node, name):
    return "%s:%d %s" % (path.relative_to(ROOT), node.lineno, name)


def test_every_definition_is_named_outside_itself():
    uses = Counter()
    for _, tree in _trees(SEARCHED):
        uses.update(_names(tree))
    unused = []
    for path, tree in _trees([PACKAGE]):
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__") \
                    or name in CALLED_BY_BASE:
                continue        # called by the language or a base class
            inside = sum(1 for n in _names(node) if n == name)
            if uses[name] <= inside:
                unused.append(_where(path, node, name))
    assert unused == []


def test_every_module_constant_is_named_outside_its_assignment():
    uses = Counter()
    for _, tree in _trees(SEARCHED):
        uses.update(_names(tree))
    unused = []
    for path, tree in _trees([PACKAGE]):
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            for target in targets:
                if not isinstance(target, ast.Name) \
                        or target.id.startswith("__") \
                        and target.id.endswith("__"):
                    continue
                inside = sum(1 for n in _names(node) if n == target.id)
                if uses[target.id] <= inside:
                    unused.append(_where(path, node, target.id))
    assert unused == []


def test_every_module_import_is_used():
    unused = []
    for path, tree in _trees([PACKAGE]):
        if path.name == "__init__.py":
            continue            # re-exports
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Import):
                bound = [a.asname or a.name.partition(".")[0]
                         for a in node.names]
            elif isinstance(node, ast.ImportFrom) \
                    and node.module != "__future__":
                bound = [a.asname or a.name for a in node.names]
            else:
                continue
            unused += [_where(path, node, b) for b in bound if b not in used]
    assert unused == []


def _imports(module, reader, required=True):
    """The syntax tree of ``module`` (a file under src/remnant) and the
    names it imports from the ``reader`` module (``remnant.fat`` or
    ``remnant.ntfs``), the module itself included when it is imported
    whole.  A missing file fails, and so does, when ``required``, a
    module that no longer imports from ``reader``, so a rule never goes
    quiet by reading nothing."""
    path = PACKAGE / module
    assert path.is_file(), "%s is missing" % module
    tree = ast.parse(path.read_text(encoding="utf-8"))
    taken = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            taken += [a.name for a in node.names if a.name == reader]
        elif isinstance(node, ast.ImportFrom):
            package = "remnant" if node.level else ""
            package = ".".join(filter(None, [package, node.module]))
            taken += [a.name for a in node.names
                      if package == reader
                      or "%s.%s" % (package, a.name) == reader]
    assert taken or not required, \
        "%s no longer imports from %s" % (module, reader)
    return tree, taken


def test_forge_takes_only_constants_from_the_fat_reader():
    """The forge is the oracle the FAT reader is tested against, so its
    writer lays the bytes with its own encoders: from ``remnant.fat`` it
    takes on-disk constants (UPPER_CASE names), never a decoder or the
    module itself, and the sidecar half takes no more."""
    _, writer = _imports("forge_write.py", "remnant.fat")
    _, reader = _imports("forge.py", "remnant.fat", required=False)
    assert [name for name in writer + reader if not name.isupper()] == []


def test_forge_plans_no_ntfs_write_with_the_ntfs_reader():
    """The forge is the oracle the NTFS reader is tested against: its
    writer takes only on-disk constants from ``remnant.ntfs``, and the
    sidecar half takes the record reader only for ``_audit_resident``,
    which reads the volume and encodes nothing.  No other forge code
    names the reader, not even through ``forge``'s own imports."""
    audit_only = {"read_record", "MftError"}
    writer_tree, writer = _imports("forge_write.py", "remnant.ntfs")
    assert [name for name in writer if not name.isupper()] == []
    assert audit_only.isdisjoint(_names(writer_tree))
    tree, taken = _imports("forge.py", "remnant.ntfs")
    assert [name for name in taken
            if not name.isupper() and name not in audit_only] == []
    audit = next(node for node in tree.body
                 if isinstance(node, ast.FunctionDef)
                 and node.name == "_audit_resident")
    inside = {id(node) for node in ast.walk(audit)}
    outside = [node.lineno for node in ast.walk(tree)
               if isinstance(node, ast.Name) and node.id in audit_only
               and id(node) not in inside]
    assert outside == []


def test_named_bytes_values_are_not_spelled_out_again():
    """A bytes literal equal to a module-level bytes constant (``NAME =
    b"..."``) anywhere in the package is a second home for that on-disk
    value.  Ints are left out: too many unrelated values coincide."""
    trees = list(_trees([PACKAGE]))
    named, homes = {}, set()
    for _, tree in trees:
        for node in tree.body:
            if isinstance(node, ast.Assign) \
                    and isinstance(node.value, ast.Constant) \
                    and isinstance(node.value.value, bytes):
                for target in node.targets:
                    named.setdefault(node.value.value, target.id)
                homes.add(id(node.value))
    repeated = [_where(path, node, named[node.value])
                for path, tree in trees for node in ast.walk(tree)
                if isinstance(node, ast.Constant)
                and isinstance(node.value, bytes)
                and node.value in named and id(node) not in homes]
    assert repeated == []


def test_indented_json_has_one_writer():
    """``report.write_json`` writes every indented JSON document (reports
    and sidecars) a batch at a time through the one indenting encoder in
    ``report.py``.  No module asks ``json.dump`` or ``json.dumps`` for
    ``indent`` (``json.dumps`` joins the whole document before it
    returns, ``json.dump`` writes each piece on its own), and no other
    module builds a ``json.JSONEncoder`` with ``indent``."""
    calls, encoders = [], []
    for path, tree in _trees([PACKAGE]):
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call)
                    and any(k.arg == "indent" for k in node.keywords)):
                continue
            func = node.func
            name = getattr(func, "attr", getattr(func, "id", None))
            if name == "JSONEncoder":       # json.JSONEncoder or imported
                encoders.append(_where(path, node, name))
            elif name in ("dump", "dumps") \
                    and isinstance(func, ast.Attribute) \
                    and isinstance(func.value, ast.Name) \
                    and func.value.id == "json":
                calls.append(_where(path, node, name))
    assert calls == []
    assert [e.partition(":")[0] for e in encoders] == ["src/remnant/report.py"]


def test_the_forge_store_defines_only_write_and_zero():
    """``forge_write._Writer`` is the bare store that an FTL can replace:
    ``read_at``, ``next_data`` and ``size`` come from ``VolumeImage``,
    and it adds only its open flags, ``write`` and ``zero``.  The FAT and
    bitmap encoders are functions beside it, not methods on it."""
    tree = ast.parse((PACKAGE / "forge_write.py").read_text(encoding="utf-8"))
    writer = next(node for node in tree.body
                  if isinstance(node, ast.ClassDef) and node.name == "_Writer")
    defined = []
    for node in writer.body:
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue                # the docstring
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            defined.append(node.name)
        elif isinstance(node, ast.Assign):
            defined += [ast.unparse(target) for target in node.targets]
        else:
            defined.append(ast.unparse(node))
    assert sorted(defined) == ["OPEN_FLAGS", "write", "zero"]
