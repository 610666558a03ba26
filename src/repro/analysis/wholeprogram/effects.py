"""Per-entry attribute effect inference.

For every entry body we compute the set of ``self.*`` attributes it may
*read* and may *write* — the effect sets the interference checker
(ALP121) compares when two entries claim ``compatible=`` membership in
the same group.  The inference is a deliberate over-approximation on the
write side:

* ``self.x = ...``, ``self.x += ...``, ``del self.x`` → write;
* ``self.x[i] = ...`` and ``self.x[i] += ...`` → write of ``x`` (the
  container is mutated);
* a *method call* on an attribute (``self.buf.append(v)``) → write,
  unless the method is a known pure observer (``get``, ``index``, …);
* every other mention of ``self.x`` → read.

Helper methods called through ``self`` are inlined (with a visited set
so mutual recursion terminates), since their effects happen on behalf of
the calling entry.  The result is sound for the checker's purpose: a
pair reported disjoint really touches disjoint attributes; a pair
reported overlapping may be a false alarm (e.g. ``append``/``popleft``
on the same deque are commutative) — which is the right polarity for a
safety gate and exactly the conservatism of the interference-freedom
model this check is borrowed from.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from ..model import ObjectInfo, entry_arg, final_name, self_attr

#: Attribute methods that observe without mutating; a call to one of
#: these on ``self.x`` counts as a read of ``x`` only.
_PURE_METHODS = {
    "get",
    "keys",
    "values",
    "items",
    "copy",
    "count",
    "index",
    "__len__",
    "__contains__",
}


@dataclass
class EffectSet:
    """Attributes an entry may read and may write."""

    reads: set[str] = field(default_factory=set)
    writes: set[str] = field(default_factory=set)

    @property
    def touched(self) -> set[str]:
        return self.reads | self.writes

    def conflicts(self, other: "EffectSet") -> set[str]:
        """Attributes in write/write or read/write conflict with *other*."""
        return (self.writes & other.touched) | (self.touched & other.writes)

    def describe(self) -> str:
        r = ",".join(sorted(self.reads - self.writes)) or "-"
        w = ",".join(sorted(self.writes)) or "-"
        return f"reads={{{r}}} writes={{{w}}}"


def entry_effects(obj: ObjectInfo, entry: str) -> EffectSet:
    """Effect set of one entry body, with ``self`` helpers inlined."""
    info = obj.entries.get(entry)
    effects = EffectSet()
    if info is None:
        return effects
    _collect(obj, info.fn, effects, visited={entry})
    return effects


def object_effects(obj: ObjectInfo) -> dict[str, EffectSet]:
    """Effect sets for every entry of *obj*, keyed by entry name."""
    return {name: entry_effects(obj, name) for name in sorted(obj.entries)}


def _collect(
    obj: ObjectInfo, fn: ast.FunctionDef, effects: EffectSet, visited: set[str]
) -> None:
    # Pre-compute which self-attribute accesses sit in write position or
    # under a mutating method call, so the generic read walk can skip them.
    write_ids: set[int] = set()
    read_only_call_ids: set[int] = set()

    for node in ast.walk(fn):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (
                node.targets
                if isinstance(node, ast.Assign)
                else [node.target]
            )
            for target in targets:
                attr = self_attr(target)
                if attr is not None:
                    effects.writes.add(attr)
                    write_ids.add(id(target))
                elif isinstance(target, ast.Subscript):
                    sub_attr = self_attr(target.value)
                    if sub_attr is not None:
                        # Mutating an element both reads the container
                        # reference and writes its contents.
                        effects.reads.add(sub_attr)
                        effects.writes.add(sub_attr)
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                attr = self_attr(target)
                if attr is not None:
                    effects.writes.add(attr)
                    write_ids.add(id(target))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            attr = self_attr(node.func.value)
            if attr is not None:
                effects.reads.add(attr)
                if node.func.attr not in _PURE_METHODS:
                    effects.writes.add(attr)
                read_only_call_ids.add(id(node.func))
            elif self_attr(node.func) is not None:
                # self.helper(...) or self.call("helper"): inline effects.
                _inline(obj, node, effects, visited)

    for node in ast.walk(fn):
        if id(node) in write_ids or id(node) in read_only_call_ids:
            continue
        attr = self_attr(node)
        if attr is not None:
            effects.reads.add(attr)


def _inline(
    obj: ObjectInfo, call: ast.Call, effects: EffectSet, visited: set[str]
) -> None:
    name = final_name(call)
    if name == "call":
        name = entry_arg(call) or name
    if name in visited:
        return
    if name in obj.entries:
        target = obj.entries[name].fn
    elif name in obj.methods:
        target = obj.methods[name]
    else:
        return
    visited.add(name)
    _collect(obj, target, effects, visited)
