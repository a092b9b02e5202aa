"""Public API surface: no parameter or field that no caller sets, and no
parameter that the body ignores.

An AST scan of every call in `src/`, `tests/` and `bench/` binds the
arguments of each call to the parameters of the levitherm function of
that name.  An argument that only forwards a parameter of the calling
function (`f(x=x)`, `f(x)`) sets the callee's parameter only if the
caller's own parameter is set somewhere, so a knob threaded through
several layers without any caller choosing a value still counts as
unset.  Calls through `*args` or `**kwargs` set every parameter they
could reach.

A defaulted field of a package dataclass or NamedTuple is set by a
construction of its class that binds it, by position or by keyword, or
by a `replace` or `_replace` call that names it; one that nothing sets
is a constant in disguise.  A field of such a record that no attribute
read in those trees names is carried but never used; a read of the
record's own field in its `__post_init__` (validation) does not count.

A public function, method or property that no code in those trees
names outside its own definition is dead code; the CLI subcommand
bodies are reached through their registering decorator and exempt.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "levitherm"
SCANNED = ("src", "tests", "bench")


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _params(fn: ast.FunctionDef) -> list:
    a = fn.args
    return [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]


def _positional(fn: ast.FunctionDef) -> list:
    return [p.arg for p in fn.args.posonlyargs + fn.args.args]


def _optional(fn: ast.FunctionDef) -> list:
    a = fn.args
    pos = a.posonlyargs + a.args
    with_default = pos[len(pos) - len(a.defaults):] if a.defaults else []
    kw = [p for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
    return [p.arg for p in with_default + kw]


def _trees() -> dict:
    return {path: _parse(path) for top in SCANNED
            for path in sorted((ROOT / top).rglob("*.py"))}


def _functions(trees: dict) -> dict:
    """Every module-level function of the package, keyed (module, name)."""
    return {(path.stem, node.name): node
            for path, tree in trees.items() if path.parent == SRC
            for node in tree.body
            if isinstance(node, ast.FunctionDef)}


def _callee_name(call: ast.Call):
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


class _Calls(ast.NodeVisitor):
    """Collect (callee name, call, enclosing function chain) triples."""

    def __init__(self):
        self.stack = []
        self.calls = []

    def visit_FunctionDef(self, node):
        self.stack.append(node)
        self.generic_visit(node)
        self.stack.pop()

    def visit_Call(self, node):
        name = _callee_name(node)
        if name is not None:
            self.calls.append((name, node, tuple(self.stack)))
        self.generic_visit(node)


def _all_calls(trees: dict) -> list:
    visitor = _Calls()
    for tree in trees.values():
        visitor.visit(tree)
    return visitor.calls


def _bindings(fn: ast.FunctionDef, call: ast.Call):
    """(parameter, value expression or None for 'any') bound by `call`."""
    positional = _positional(fn)
    names = set(_params(fn))
    out = []
    for i, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            out += [(p, None) for p in positional[i:]]
            break
        if i < len(positional):
            out.append((positional[i], arg))
    for kw in call.keywords:
        if kw.arg is None:
            out += [(p, None) for p in names]
        elif kw.arg in names:
            out.append((kw.arg, kw.value))
    return out


def _forwarded(value, stack, functions_by_node):
    """The (module, name, parameter) a bare-name argument forwards, if it
    names a parameter of an enclosing levitherm module-level function."""
    if not isinstance(value, ast.Name):
        return None
    for enclosing in reversed(stack):
        if value.id in _params(enclosing):
            key = functions_by_node.get(id(enclosing))
            return None if key is None else key + (value.id,)
    return None


def unset_public_parameters() -> list:
    """Optional parameters of public functions that no caller sets."""
    trees = _trees()
    functions = _functions(trees)
    by_name = {}
    for key, fn in functions.items():
        by_name.setdefault(key[1], []).append(key)
    functions_by_node = {id(fn): key for key, fn in functions.items()}

    # edges[(mod, fn, param)] = set of sources; a source is True (a value
    # chosen at the call) or the (mod, fn, param) whose value it forwards
    edges = {}
    for name, call, stack in _all_calls(trees):
        for key in by_name.get(name, ()):
            for param, value in _bindings(functions[key], call):
                src = True if value is None else (
                    _forwarded(value, stack, functions_by_node) or True)
                edges.setdefault(key + (param,), set()).add(src)

    is_set = {node for node, srcs in edges.items() if True in srcs}
    changed = True
    while changed:
        changed = False
        for node, srcs in edges.items():
            if node not in is_set and srcs & is_set:
                is_set.add(node)
                changed = True

    return sorted(f"{mod}.{name}({param})"
                  for (mod, name), fn in functions.items()
                  if not name.startswith("_")
                  for param in _optional(fn)
                  if (mod, name, param) not in is_set)


def unread_public_parameters() -> list:
    """Parameters of public functions that their body never reads."""
    out = []
    for (mod, name), fn in _functions(_trees()).items():
        if name.startswith("_"):
            continue
        read = {n.id for stmt in fn.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        out += [f"{mod}.{name}({p})" for p in _params(fn) if p not in read]
    return sorted(out)


def _is_record(cls: ast.ClassDef) -> bool:
    """True for a dataclass or a NamedTuple."""
    decorators = [d.func if isinstance(d, ast.Call) else d
                  for d in cls.decorator_list]
    return (any(isinstance(d, ast.Name) and d.id == "dataclass"
                for d in decorators)
            or any(isinstance(b, ast.Name) and b.id == "NamedTuple"
                   for b in cls.bases))


def _records(trees: dict) -> dict:
    """{class: (module, [(field, defaulted)])} of the package's records."""
    records = {}
    for path, tree in trees.items():
        if path.parent != SRC:
            continue
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and _is_record(node):
                records[node.name] = (path.stem, [
                    (item.target.id, item.value is not None)
                    for item in node.body if isinstance(item, ast.AnnAssign)
                    and isinstance(item.target, ast.Name)])
    return records


def unset_record_fields() -> list:
    """Defaulted fields of the package's dataclasses and NamedTuples that
    no construction or `replace` sets."""
    trees = _trees()
    records = _records(trees)
    is_set = set()
    for name, call, _ in _all_calls(trees):
        if name in ("replace", "_replace"):
            is_set |= {(cls, kw.arg) for cls in records
                       for kw in call.keywords}
        if name not in records:
            continue
        fields = [f for f, _ in records[name][1]]
        for i, arg in enumerate(call.args):
            if isinstance(arg, ast.Starred):
                is_set |= {(name, f) for f in fields[i:]}
                break
            if i < len(fields):
                is_set.add((name, fields[i]))
        for kw in call.keywords:
            is_set |= {(name, f) for f in fields
                       if kw.arg is None or kw.arg == f}
    return sorted(f"{mod}.{cls}.{f}" for cls, (mod, fields) in records.items()
                  for f, defaulted in fields
                  if defaulted and (cls, f) not in is_set)


def _own_validation_reads(trees: dict, records: dict) -> set:
    """ids of the `self.<field>` reads of a record's own fields in its
    `__post_init__`."""
    out = set()
    for path, tree in trees.items():
        if path.parent != SRC:
            continue
        for cls in tree.body:
            if not (isinstance(cls, ast.ClassDef) and cls.name in records):
                continue
            fields = {f for f, _ in records[cls.name][1]}
            out |= {id(node) for item in cls.body
                    if isinstance(item, ast.FunctionDef)
                    and item.name == "__post_init__"
                    for node in ast.walk(item)
                    if isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self" and node.attr in fields}
    return out


def unread_record_fields(trees: dict | None = None) -> list:
    """Fields of the package's dataclasses and NamedTuples that no
    attribute read names, apart from their own class's validation."""
    trees = _trees() if trees is None else trees
    records = _records(trees)
    validation = _own_validation_reads(trees, records)
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load) and id(node) not in validation}
    return sorted(f"{mod}.{cls}.{f}"
                  for cls, (mod, fields) in records.items()
                  for f, _ in fields if f not in read)


def _registered(fn: ast.FunctionDef) -> bool:
    """True for a CLI subcommand body, reached through its decorator."""
    return any(isinstance(d, ast.Call) and _callee_name(d) == "subcommand"
               for d in fn.decorator_list)


class _Names(ast.NodeVisitor):
    """Every name used, with the function definitions enclosing the use."""

    def __init__(self):
        self.stack = []
        self.uses = []

    def visit_FunctionDef(self, node):
        self.stack.append(node)
        self.generic_visit(node)
        self.stack.pop()

    def _use(self, name):
        self.uses.append((name, tuple(self.stack)))

    def visit_Name(self, node):
        self._use(node.id)

    def visit_Attribute(self, node):
        self._use(node.attr)
        self.generic_visit(node)

    def visit_alias(self, node):
        self._use(node.name.rsplit(".", 1)[-1])


def unnamed_public_code() -> list:
    """Public module-level functions, methods and properties of the
    package that no code names outside their own definition."""
    trees = _trees()
    defs = []
    for path, tree in trees.items():
        if path.parent != SRC:
            continue
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not _registered(node):
                defs.append((f"{path.stem}.{node.name}", node))
            elif isinstance(node, ast.ClassDef):
                defs += [(f"{path.stem}.{node.name}.{item.name}", item)
                         for item in node.body
                         if isinstance(item, ast.FunctionDef)]
    visitor = _Names()
    for tree in trees.values():
        visitor.visit(tree)
    named = {}
    for name, stack in visitor.uses:
        named.setdefault(name, []).append(stack)
    return sorted(label for label, fn in defs
                  if not fn.name.startswith("_")
                  and all(fn in stack for stack in named.get(fn.name, ())))


def test_every_public_function_is_named_by_some_code():
    assert unnamed_public_code() == []


def test_every_optional_public_parameter_is_set_by_some_caller():
    assert unset_public_parameters() == []


def test_every_defaulted_record_field_is_set_by_some_caller():
    assert unset_record_fields() == []


def test_every_record_field_is_read_by_some_code():
    assert unread_record_fields() == []


def test_a_field_read_only_by_its_own_validation_is_unread():
    record = (
        "@dataclass(frozen=True)\n"
        "class Trap:\n"
        "    power: float\n"
        "    mode: str = 'linear'\n"
        "    def __post_init__(self):\n"
        "        if self.power <= 0 or self.mode not in ('linear',):\n"
        "            raise ValueError\n")
    user = "def depth(trap):\n    return trap.power\n"
    trees = {SRC / "fake.py": ast.parse(record),
             ROOT / "tests" / "fake_user.py": ast.parse(user)}
    assert unread_record_fields(trees) == ["fake.Trap.mode"]
    # a read outside the class's own validation counts
    trees[ROOT / "tests" / "fake_reader.py"] = ast.parse(
        "def mode(trap):\n    return trap.mode\n")
    assert unread_record_fields(trees) == []


def test_every_public_parameter_is_read():
    assert unread_public_parameters() == []
