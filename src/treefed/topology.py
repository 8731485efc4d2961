"""Federation-of-federations trees: node records, structure queries and
validation.

A tree is a map of node ids to NodeSpec records. The root has id 0 and no
parent. Node ids are dense integers assigned in BFS order by the builders,
which fixes reduction order everywhere downstream. residual_ceiling names the
highest ancestor that may route a node's residual packets (default: the root).
A tree's JSON form is read and written by presets, which owns the config
format.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .model import TrainerConfig


@dataclass
class NodeSpec:
    id: int
    parent: int | None
    children: list[int] = field(default_factory=list)
    residual_ceiling: int = 0
    trains_locally: bool = True
    trainer: TrainerConfig | None = None  # None: use the experiment default


class FederationTree:
    def __init__(self, nodes: dict[int, NodeSpec]):
        self.nodes = dict(sorted(nodes.items()))

    @classmethod
    def from_children_map(cls, children: dict[int, list[int]]) -> "FederationTree":
        all_children = {c for cs in children.values() for c in cs}
        ids = set(children) | all_children
        nodes = {}
        for nid in sorted(ids):
            parent = next((p for p, cs in children.items() if nid in cs), None)
            nodes[nid] = NodeSpec(id=nid, parent=parent, children=sorted(children.get(nid, [])))
        return cls(nodes)

    # --- structure queries -------------------------------------------------

    def root(self) -> int:
        return 0

    def is_leaf(self, nid: int) -> bool:
        return not self.nodes[nid].children

    def leaves(self) -> list[int]:
        return [nid for nid in self.nodes if self.is_leaf(nid)]

    def descendant_leaves(self, nid: int) -> list[int]:
        out, stack = [], [nid]
        while stack:
            cur = stack.pop()
            cs = self.nodes[cur].children
            if not cs:
                out.append(cur)
            stack.extend(cs)
        return sorted(out)

    def path_to_root(self, nid: int) -> list[int]:
        path, seen = [nid], {nid}
        cur = self.nodes[nid].parent
        while cur is not None:
            if cur in seen:
                raise ValueError(f"cycle detected at node {cur}")
            path.append(cur)
            seen.add(cur)
            cur = self.nodes[cur].parent
        return path

    def is_ancestor(self, anc: int, nid: int) -> bool:
        """True when anc lies strictly above nid."""
        return anc in self.path_to_root(nid)[1:]

    def in_subtree(self, top: int, nid: int) -> bool:
        return top == nid or self.is_ancestor(top, nid)

    def depth(self) -> int:
        return len(self.levels()) - 1

    def levels(self) -> list[list[int]]:
        """BFS stages: stage t holds all nodes at depth t, sorted by id."""
        out = [[self.root()]]
        while True:
            nxt = sorted(c for nid in out[-1] for c in self.nodes[nid].children)
            if not nxt:
                return out
            out.append(nxt)


def validate(tree: FederationTree) -> list[str]:
    """All invariants checked; returns violations naming offending nodes."""
    violations = []
    roots = [nid for nid, n in tree.nodes.items() if n.parent is None]
    if len(roots) != 1:
        violations.append(f"root uniqueness: found {len(roots)} parentless nodes {roots}")
    elif roots[0] != 0:
        violations.append(f"root id: node {roots[0]} is root but id 0 is required")

    for nid, node in tree.nodes.items():
        if node.id != nid:
            violations.append(f"node {nid}: id field says {node.id}")
        if nid < 0:
            violations.append(f"node {nid}: id must be >= 0")
        twice = sorted({c for c in node.children if node.children.count(c) > 1})
        if twice:
            violations.append(f"node {nid}: children listed twice: {twice}")
        for c in node.children:
            if c not in tree.nodes:
                violations.append(f"node {nid}: unknown child {c}")
            elif tree.nodes[c].parent != nid:
                violations.append(f"node {c}: parent field disagrees with node {nid}")
        if node.parent is not None:
            if node.parent not in tree.nodes:
                violations.append(f"node {nid}: unknown parent {node.parent}")
            elif nid not in tree.nodes[node.parent].children:
                violations.append(f"node {nid}: missing from parent {node.parent} children")

    # cycles: walking up from any node must terminate
    for nid in tree.nodes:
        seen = set()
        cur = nid
        while cur is not None:
            if cur in seen:
                violations.append(f"cycle involving node {cur}")
                break
            seen.add(cur)
            cur = tree.nodes[cur].parent if cur in tree.nodes else None

    if not violations:
        reachable = set()
        stack = [0]
        while stack:
            cur = stack.pop()
            if cur in reachable:
                continue
            reachable.add(cur)
            stack.extend(tree.nodes[cur].children)
        unreachable = sorted(set(tree.nodes) - reachable)
        if unreachable:
            violations.append(f"unreachable nodes: {unreachable}")
        for nid, node in tree.nodes.items():
            ceiling = node.residual_ceiling
            if ceiling != nid and (ceiling not in tree.nodes or not tree.is_ancestor(ceiling, nid)):
                violations.append(f"node {nid}: residual_ceiling {ceiling} is not an ancestor")
    return violations
