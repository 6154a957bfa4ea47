"""Print what a golden regeneration changed, value by value.

The regeneration scripts call ``print_changes(name, old, new)`` with a frozen
file's JSON before and after.  Every leaf that differs is printed as
``name.path: old -> new``; where both sides are numbers the line ends with
``(rel <change / max(1, |old|)>)``, the measure the golden procedure bounds.
Strings holding CSV text are compared cell by cell, and a cell that parses as
a number on both sides counts as a number.
"""

from typing import Any


def _number(value: Any) -> float | None:
    if isinstance(value, bool):
        return None
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        try:
            return float(value)
        except ValueError:
            return None
    return None


def changes(old: Any, new: Any, path: str = "") -> list[str]:
    """One line per leaf where ``old`` and ``new`` differ, in document order."""
    if old == new:
        return []
    if isinstance(old, dict) and isinstance(new, dict):
        keys = list(old) + [k for k in new if k not in old]
        return [line for k in keys for line in changes(old.get(k), new.get(k), f"{path}.{k}")]
    if isinstance(old, str) and isinstance(new, str) and "\n" in old + new:
        old, new = ([row.split(",") for row in s.splitlines()] for s in (old, new))
    if isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        return [line for i, (o, n) in enumerate(zip(old, new)) for line in changes(o, n, f"{path}[{i}]")]
    o, n = _number(old), _number(new)
    if o is None or n is None:
        return [f"{path}: {old!r} -> {new!r}"]
    return [f"{path}: {old!r} -> {new!r} (rel {(n - o) / max(1.0, abs(o)):+.2e})"]


def print_changes(name: str, old: Any, new: Any) -> None:
    """Print every changed value of one frozen file, or that none changed."""
    lines = changes(old, new, name)
    print("\n".join(lines) if lines else f"{name}: no value changed")
