"""Every ``*Config`` dataclass field in ``src/``, and who sets it.

``make knobs`` / ``python3 tools/knob_census.py --max N`` (the CI ratchet)

For each field of each dataclass under ``src/`` whose name ends in
``Config`` this prints how many sites set it in ``src/``, ``bench/``,
``examples/`` and ``tests/`` -- the table a diet PR starts from (ROADMAP
"Census and diet": a knob that no caller outside ``tests/`` sets has one
value in use and is a constant; one no site sets at all has never been
tried at another value).  A site is, read from the syntax tree:

- a keyword (or positional) argument of a call to the class by name,
  booked to that class;
- a keyword of any other call (``replace(cfg, x=...)``, a test helper that
  forwards ``**overrides`` to ``setattr``), or a store ``<expr>.<field> =
  ...`` where ``<expr>`` is not ``self``, equal to the field's name --
  booked to every ``*Config`` that has a field of that name;
- a string key of a dict literal equal to the field's name, in a module
  that names the class (the audit profiles' override rows).

A name shared by several classes, or with an unrelated parameter
(``seed``, ``poll_ms``), is therefore counted for each: the overcount errs
towards keeping a knob.  It does not see a field set through ``setattr``
with a computed name (the CLI sets ``AuditRunConfig`` from its fields'
metadata: every flagged field is settable there).

Without ``--max`` it prints and exits 0 whatever it finds.  With ``--max
N`` it exits 1 when the field total exceeds ``N`` (raise ``N`` in CI only
with a caller that needs the new field) or when a field no site sets is
not in ``NESTED``: such a field has one value everywhere and is a commented
constant beside its use (DESIGN.md section 5).
"""

from __future__ import annotations

import argparse
import ast
from collections import Counter
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
TREES = ("src", "bench", "examples", "tests")

#: Fields no site sets that stay: each holds a nested config object, which
#: callers reach *through* (``config.instance.driver.boxcar_mode = mode``,
#: booked to the inner field) and never replace whole.
NESTED = {
    ("ClusterConfig", "instance"): "the writer's InstanceConfig",
    ("InstanceConfig", "driver"): "an instance's DriverConfig",
}


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = (
            decorator.func if isinstance(decorator, ast.Call) else decorator
        )
        name = target.attr if isinstance(target, ast.Attribute) else target.id
        if name == "dataclass":
            return True
    return False


def config_classes(trees: dict[Path, ast.AST]) -> dict[str, list[str]]:
    """Class name -> its own annotated fields, in declaration order."""
    classes: dict[str, list[str]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.ClassDef)
                and node.name.endswith("Config")
                and _is_dataclass(node)
            ):
                classes[node.name] = [
                    item.target.id
                    for item in node.body
                    if isinstance(item, ast.AnnAssign)
                    and isinstance(item.target, ast.Name)
                    and "ClassVar" not in ast.unparse(item.annotation)
                ]
    return classes


def _called_name(call: ast.Call) -> str | None:
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    return func.id if isinstance(func, ast.Name) else None


def sites(tree: ast.AST, classes: dict[str, list[str]]) -> Counter:
    """``(class, field)`` -> sites in one module that set it."""
    owners: dict[str, list[str]] = {}
    for name, fields in classes.items():
        for field in fields:
            owners.setdefault(field, []).append(name)
    named_here = {
        node.id for node in ast.walk(tree) if isinstance(node, ast.Name)
    } | {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    found: Counter = Counter()

    def book(field, only: str | None = None) -> None:
        for owner in owners.get(field, ()):
            if only is None or owner == only:
                found[owner, field] += 1

    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = _called_name(node)
            if name in classes:
                for field in classes[name][: len(node.args)]:
                    book(field, name)
                for keyword in node.keywords:
                    book(keyword.arg, name)
            else:
                for keyword in node.keywords:
                    book(keyword.arg)
        elif isinstance(node, ast.Dict):
            for key in node.keys:
                if isinstance(key, ast.Constant):
                    for owner in owners.get(key.value, ()):
                        if owner in named_here:
                            book(key.value, owner)
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if isinstance(target, ast.Attribute) and not (
                    isinstance(target.value, ast.Name)
                    and target.value.id in ("self", "cls")
                ):
                    book(target.attr)
    return found


def census(root: Path) -> tuple[dict[str, list[str]], dict[str, Counter]]:
    parsed = {
        tree_name: {
            path: ast.parse(path.read_text(), filename=str(path))
            for path in sorted((root / tree_name).rglob("*.py"))
        }
        for tree_name in TREES
    }
    classes = config_classes(parsed["src"])
    counts = {tree_name: Counter() for tree_name in TREES}
    for tree_name, modules in parsed.items():
        for tree in modules.values():
            counts[tree_name].update(sites(tree, classes))
    return classes, counts


def main(argv: list[str] | None = None, root: Path = REPO_ROOT) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--max", type=int, default=None, metavar="N",
        help="fail when there are more than N fields, or a field no site "
             "sets that is not a nested config object",
    )
    args = parser.parse_args(argv)
    classes, counts = census(root)
    total = sum(len(fields) for fields in classes.values())
    print(
        f"knob census: {len(classes)} *Config dataclasses under src/, "
        f"{total} fields; sites that set each field, by tree"
    )
    header = "".join(f"{name:>11}" for name in TREES)
    print(f"{'':<34}{header}")
    tests_only_total = 0
    unset: list[tuple[str, str]] = []
    for name in sorted(classes):
        rows = [
            (field, [counts[tree][name, field] for tree in TREES])
            for field in classes[name]
        ]
        nowhere = [(name, field) for field, row in rows if not any(row)]
        tests_only = sum(
            1 for _f, row in rows if row[-1] and not any(row[:-1])
        )
        unset += nowhere
        tests_only_total += tests_only
        print(
            f"{name}: {len(rows)} fields, {len(nowhere)} set nowhere, "
            f"{tests_only} set in tests/ only"
        )
        for field, row in rows:
            cells = "".join(f"{n or '.':>11}" for n in row)
            print(f"  {field:<32}{cells}")
    print(
        f"total: {total} fields, {len(unset)} set nowhere, "
        f"{tests_only_total} set in tests/ only"
    )
    if args.max is None:
        return 0
    failures = [
        f"{name}.{field} is set by no site: make it a commented constant "
        "beside its use"
        for name, field in unset
        if (name, field) not in NESTED
    ]
    if total > args.max:
        failures.append(f"{total} fields, the ratchet allows {args.max}")
    for failure in failures:
        print(f"knob census: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
