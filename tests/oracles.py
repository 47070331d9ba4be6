"""Brute-force oracles the analyses are checked against.

Each reimplements the defining property directly (path enumeration and
element-by-element scans) without sharing code with the analyses.
"""

from __future__ import annotations

from jarscan.ir.cfg import ENTRY, EXIT
from jarscan.ir.model import stmt_def, stmt_uses


def stmt_successors(ir, cfg) -> dict:
    """Statement-level successor map mirroring the CFG's block successors."""
    succ = {i: [] for i in range(len(ir.statements))}
    first = {b.bid: b.start for b in ir.blocks if b.end > b.start}
    last = {b.bid: b.end - 1 for b in ir.blocks if b.end > b.start}
    for b in ir.blocks:
        for i in range(b.start, b.end - 1):
            succ[i].append(i + 1)
    for src, i in last.items():
        succ[i].extend(first[dst] for dst in cfg.successors(src) if dst in first)
    return {k: sorted(set(v)) for k, v in succ.items()}


def brute_reaching_edges(ir, cfg) -> frozenset:
    """Def-use edges by exploring redefinition-free paths exhaustively."""
    succ = stmt_successors(ir, cfg)
    edges = set()
    for d, stmt in enumerate(ir.statements):
        reg = stmt_def(stmt)
        if reg is None:
            continue
        # Walk every path from d that does not pass through another def of
        # reg; any statement entered that uses reg receives an edge.
        frontier = list(succ[d])
        visited = set()
        while frontier:
            n = frontier.pop()
            if n in visited:
                continue
            visited.add(n)
            if reg in stmt_uses(ir.statements[n]):
                edges.add((d, n, reg))
            if stmt_def(ir.statements[n]) == reg:
                continue  # killed; cannot pass through
            frontier.extend(succ[n])
    return frozenset(edges)


def brute_postdominators(cfg) -> dict:
    """d post-dominates n iff d lies on every simple n->EXIT path; when no
    path exists every node qualifies vacuously."""
    all_nodes = frozenset(cfg.nodes)
    result = {}
    for n in cfg.nodes:
        if n == EXIT:
            result[n] = frozenset({EXIT})
            continue
        intersection = None
        stack = [(n, {n}, [n])]
        while stack:
            node, on_path, path = stack.pop()
            if node == EXIT:
                nodes_here = frozenset(path)
                intersection = nodes_here if intersection is None \
                    else intersection & nodes_here
                continue
            for s in cfg.successors(node):
                if s not in on_path:
                    stack.append((s, on_path | {s}, path + [s]))
        result[n] = all_nodes if intersection is None else intersection
    return result


def brute_control_deps(cfg) -> frozenset:
    """(controller, dependent) block pairs from the defining formula."""
    pdom = brute_postdominators(cfg)
    pairs = set()
    for a in cfg.block_nodes():
        for s in cfg.successors(a):
            for b in pdom[s]:
                if b not in (ENTRY, EXIT) and b not in pdom[a]:
                    pairs.add((a, b))
    return frozenset(pairs)


def brute_signature(t_vul, t_fix):
    """Element-by-element membership scan over the union."""
    ct, pt, nt = set(), set(), set()
    for t in t_vul | t_fix:
        in_vul = t in t_vul
        in_fix = t in t_fix
        if in_vul and in_fix:
            ct.add(t)
        elif in_fix:
            pt.add(t)
        else:
            nt.add(t)
    return frozenset(ct), frozenset(pt), frozenset(nt)


def node_sets(pdom: dict) -> dict:
    """``postdominators``' bitsets (bit n + 2 for node n) as frozensets of
    nodes, the form the brute-force oracle gives."""
    return {n: frozenset(i - 2 for i in range(bits.bit_length()) if bits >> i & 1)
            for n, bits in pdom.items()}
