"""Guard against dead code: every top-level function or class in
`src/dape`, and every method or property of such a class, must be
referenced somewhere in `src/dape` other than its own definition, every
dataclass field must be read as an attribute somewhere in `src/dape`, and
every config field must be read outside `config.py`. Names read only from
outside the package are allowlisted."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "dape"

# name -> why it may have no reference inside the package
ALLOWED = {
    "cost_report": "read by the benchmark (perfbench/bench.py) and the tests",
}

# Class.member -> why it may have no read inside the package
ALLOWED_MEMBERS = {
    "Trace.decisions": "perfbench's pinned decision count and the tests read it",
}

# Class.field -> why a dataclass field may have no attribute read inside the package
ALLOWED_FIELDS = {
    "HierarchyCost.active_l2": "perfbench's nfa.refined_rows sums it (perfbench/bench.py)",
    "HierarchyCost.active_l3": "perfbench's nfa.refined_rows sums it (perfbench/bench.py)",
    "CostReport.per_module_macs": "perfbench reports per-module MACs from it",
    "CostReport.fine_cosines": "perfbench reports it as nfa.cosines",
    "CostReport.fine_cosines_uniform": "fine_ratio's denominator, reported; the tests read it",
    "CostReport.fine_ratio": "perfbench reports it as nfa.fine_ratio",
}


def referenced_names(tree: ast.AST) -> Counter:
    """Names, attributes, imports and string constants used in `tree`."""
    out: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.alias):
            out[node.name] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out[node.value] += 1  # __all__ entries, getattr by name
    return out


def test_every_top_level_definition_has_a_reference():
    trees = {p.name: ast.parse(p.read_text(), p.name) for p in sorted(SRC.glob("*.py"))}
    total = sum((referenced_names(t) for t in trees.values()), Counter())
    defs = [
        (fname, node)
        for fname, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    ]
    # uses inside a definition's own body (recursion) do not count
    unreferenced = [
        f"{fname}:{node.name}"
        for fname, node in defs
        if node.name not in ALLOWED
        and total[node.name] <= referenced_names(node)[node.name]
    ]
    assert not unreferenced, f"defined but never referenced in src/dape: {unreferenced}"
    assert set(ALLOWED) <= {node.name for _, node in defs}, "stale allowlist entry"


def attribute_reads(tree: ast.AST) -> Counter:
    """Attribute names and string constants used in `tree`: a member is
    read as `obj.name` (or by name through getattr)."""
    out: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out[node.value] += 1
    return out


def test_every_class_member_is_read():
    trees = [ast.parse(p.read_text(), p.name) for p in sorted(SRC.glob("*.py"))]
    total = sum((attribute_reads(t) for t in trees), Counter())
    members = [
        (cls.name, node)
        for tree in trees
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    ]
    # reads inside a member's own body (recursion) do not count
    unread = [
        f"{cls}.{node.name}"
        for cls, node in members
        if f"{cls}.{node.name}" not in ALLOWED_MEMBERS
        and total[node.name] <= attribute_reads(node)[node.name]
    ]
    assert not unread, f"class members never read in src/dape: {unread}"
    stale = set(ALLOWED_MEMBERS) - {f"{cls}.{node.name}" for cls, node in members}
    assert not stale, f"stale member allowlist entries: {sorted(stale)}"


def test_every_config_field_is_read_outside_config():
    """A `DapeConfig` field that no other module of `src/dape` reads as an
    attribute (`cfg.name`) is a knob that changes nothing."""
    from dataclasses import fields

    from dape.config import DapeConfig

    reads = Counter()
    for p in sorted(SRC.glob("*.py")):
        if p.name != "config.py":
            tree = ast.parse(p.read_text(), p.name)
            reads.update(n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute))
    unread = [f.name for f in fields(DapeConfig) if not reads[f.name]]
    assert not unread, f"config fields never read outside config.py: {unread}"


def is_dataclass_def(cls: ast.ClassDef) -> bool:
    """Decorated `@dataclass` or `@dataclass(...)`."""
    for d in cls.decorator_list:
        target = d.func if isinstance(d, ast.Call) else d
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def test_every_dataclass_field_is_read():
    """A dataclass field that nothing in `src/dape` reads as an attribute
    (`obj.name`) is carried for nothing."""
    trees = [ast.parse(p.read_text(), p.name) for p in sorted(SRC.glob("*.py"))]
    reads = Counter(
        n.attr
        for tree in trees
        for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
    )
    declared = [
        f"{cls.name}.{node.target.id}"
        for tree in trees
        for cls in tree.body
        if isinstance(cls, ast.ClassDef) and is_dataclass_def(cls)
        for node in cls.body
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
    ]
    unread = [
        f for f in declared if f not in ALLOWED_FIELDS and not reads[f.split(".")[1]]
    ]
    assert not unread, f"dataclass fields never read in src/dape: {unread}"
    stale = set(ALLOWED_FIELDS) - set(declared)
    assert not stale, f"stale field allowlist entries: {sorted(stale)}"
