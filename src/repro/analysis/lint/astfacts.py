"""AST facts that both rule families read, each defined once.

The single-module rules (:mod:`repro.analysis.lint.rules`) and the
whole-program summary (:mod:`repro.analysis.graph.summary`) ask the
same questions of the same syntax — what does this dotted call resolve
to, is this call a raw file write, which ``self.<attr>`` is a lock — so
the answers live here and both import them.  Standard library only.
"""

from __future__ import annotations

import ast

#: numpy writers that put bytes under their final name non-atomically.
NP_WRITERS = frozenset({"numpy.save", "numpy.savez", "numpy.savez_compressed"})

#: Constructors whose result counts as a lock for ``with self.<attr>``.
LOCK_FACTORIES = frozenset(
    {"threading.Lock", "threading.RLock", "threading.Condition", "multiprocessing.Lock"}
)


def dotted_name(node: ast.expr, aliases: dict[str, str]) -> str | None:
    """Canonical dotted name of a Name/Attribute chain, or ``None``.

    Resolves the head segment through ``aliases`` (the module's import
    table), so ``np.random.rand`` and ``numpy.random.rand`` both come
    back as ``"numpy.random.rand"``.
    """
    parts: list[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return None
    parts.append(aliases.get(current.id, current.id))
    return ".".join(reversed(parts))


def write_mode_literal(call: ast.Call, *, mode_position: int) -> str | None:
    """The literal write mode of an ``open``-style call, if any."""
    mode: ast.expr | None = None
    if len(call.args) > mode_position:
        mode = call.args[mode_position]
    for keyword in call.keywords:
        if keyword.arg == "mode":
            mode = keyword.value
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        if any(flag in mode.value for flag in ("w", "a", "x")):
            return mode.value
    return None


def raw_write(call: ast.Call, dotted: str | None) -> str | None:
    """How a non-atomic file write reads in a message, or ``None``.

    ``dotted`` is the call's resolved name: a numpy writer comes back as
    `` `numpy.save` ``, a write-mode ``open``/``io.open`` as
    `` `open(..., 'w')` `` and a write-mode method ``.open`` (pathlib)
    as `` `.open('w')` ``.
    """
    if dotted in NP_WRITERS:
        return f"`{dotted}`"
    if dotted in ("open", "io.open"):
        mode = write_mode_literal(call, mode_position=1)
        return None if mode is None else f"`open(..., {mode!r})`"
    if isinstance(call.func, ast.Attribute) and call.func.attr == "open":
        mode = write_mode_literal(call, mode_position=0)
        return None if mode is None else f"`.open({mode!r})`"
    return None


def lock_attr_names(class_node: ast.ClassDef, aliases: dict[str, str]) -> tuple[str, ...]:
    """``self.<attr>`` names assigned a :data:`LOCK_FACTORIES` call, in order."""
    names: list[str] = []
    for node in ast.walk(class_node):
        if not isinstance(node, ast.Assign) or not isinstance(node.value, ast.Call):
            continue
        if dotted_name(node.value.func, aliases) not in LOCK_FACTORIES:
            continue
        for target in node.targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
                and target.attr not in names
            ):
                names.append(target.attr)
    return tuple(names)
