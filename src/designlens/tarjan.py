"""Iterative Tarjan: `strongly_connected_components` and the `cycles` among them."""

from __future__ import annotations

from typing import Hashable, Iterable, Mapping, Sequence, TypeVar

T = TypeVar("T", bound=Hashable)


def strongly_connected_components(
    nodes: Iterable[T], successors: Mapping[T, Sequence[T]],
) -> list[list[T]]:
    """Return the SCCs of a digraph, one list per component.

    Nodes missing from `successors` are treated as sinks.  Iterative so deep
    graphs cannot blow the recursion limit.  Components come out in Tarjan
    completion order (reverse topological over the condensation).
    """
    index: dict[T, int] = {}
    lowlink: dict[T, int] = {}
    on_stack: set[T] = set()
    stack: list[T] = []
    components: list[list[T]] = []
    counter = 0

    for root in nodes:
        if root in index:
            continue
        index[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(successors.get(root, ())))]
        while work:
            node, successor_iter = work[-1]
            pushed = False
            for succ in successor_iter:
                if succ not in index:
                    index[succ] = lowlink[succ] = counter
                    counter += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(successors.get(succ, ()))))
                    pushed = True
                    break
                if succ in on_stack:
                    lowlink[node] = min(lowlink[node], index[succ])
            if pushed:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                components.append(component)
    return components


def cycles(nodes: Iterable[T], successors: Mapping[T, Sequence[T]]) -> list[list[T]]:
    """Return the cyclic components: two or more nodes, or one node that is its own
    successor.  Members are sorted, and groups ordered by their smallest member."""
    groups = [sorted(component) for component in strongly_connected_components(nodes, successors)
              if len(component) > 1 or component[0] in successors.get(component[0], ())]
    return sorted(groups, key=lambda group: group[0])
